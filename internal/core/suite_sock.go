package core

import (
	"fmt"
	"io"

	"vibe/internal/bench"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/stream"
	"vibe/internal/via"
)

// StreamThroughput measures the sockets-like layer's one-way throughput:
// the writer pushes totalBytes as fast as the window allows and the
// reader drains continuously; MB/s is measured at the reader.
func StreamThroughput(cfg Config, totalBytes int, scfg stream.Config) (float64, error) {
	sys := via.NewSystem(cfg.Model, 2, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	var mbps float64
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}

	sys.Go(0, "sock-writer", func(ctx *via.Ctx) {
		c, err := stream.Dial(ctx, 1, "tput", scfg)
		if err != nil {
			fail(err)
			return
		}
		chunk := make([]byte, 16*1024)
		sent := 0
		for sent < totalBytes {
			n := len(chunk)
			if sent+n > totalBytes {
				n = totalBytes - sent
			}
			if _, err := c.Write(ctx, chunk[:n]); err != nil {
				fail(err)
				return
			}
			sent += n
		}
		if err := c.Close(ctx); err != nil {
			fail(err)
		}
	})
	sys.Go(1, "sock-reader", func(ctx *via.Ctx) {
		c, err := stream.Listen(ctx, "tput", scfg)
		if err != nil {
			fail(err)
			return
		}
		buf := make([]byte, 16*1024)
		t0 := ctx.Now()
		got := 0
		for {
			n, err := c.Read(ctx, buf)
			got += n
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(err)
				return
			}
		}
		elapsed := ctx.Now().Sub(t0)
		if got != totalBytes {
			fail(fmt.Errorf("stream throughput: read %d of %d bytes", got, totalBytes))
			return
		}
		if elapsed > 0 {
			mbps = float64(got) / elapsed.Seconds() / 1e6
		}
	})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	return mbps, runErr
}

// StreamPingPong measures the layer's request/reply latency for n-byte
// messages (one-way, RTT/2).
func StreamPingPong(cfg Config, n int, scfg stream.Config) (float64, error) {
	sys := via.NewSystem(cfg.Model, 2, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	total := cfg.Warmup + cfg.Iters
	var lat float64
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	echo := func(ctx *via.Ctx, c *stream.Conn, initiator bool) {
		buf := make([]byte, n)
		var t0 sim.Time
		for i := 0; i < total; i++ {
			if initiator {
				if i == cfg.Warmup {
					t0 = ctx.Now()
				}
				if _, err := c.Write(ctx, buf); err != nil {
					fail(err)
					return
				}
			}
			got := 0
			for got < n {
				k, err := c.Read(ctx, buf[got:])
				if err != nil {
					fail(err)
					return
				}
				got += k
			}
			if !initiator {
				if _, err := c.Write(ctx, buf); err != nil {
					fail(err)
					return
				}
			}
		}
		if initiator {
			lat = ctx.Now().Sub(t0).Micros() / float64(cfg.Iters) / 2
		}
	}
	sys.Go(0, "sock-client", func(ctx *via.Ctx) {
		c, err := stream.Dial(ctx, 1, "pp", scfg)
		if err != nil {
			fail(err)
			return
		}
		echo(ctx, c, true)
	})
	sys.Go(1, "sock-server", func(ctx *via.Ctx) {
		c, err := stream.Listen(ctx, "pp", scfg)
		if err != nil {
			fail(err)
			return
		}
		echo(ctx, c, false)
	})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	return lat, runErr
}

func expPMSOCK() *Experiment {
	return &Experiment{
		ID:    "PMSOCK",
		Title: "PM: sockets-like stream layer (the paper's reference [17])",
		PaperClaim: "(the sockets-over-VIA model the paper cites) A copy-based " +
			"byte-stream layer keeps most of the raw bandwidth on offloaded " +
			"NICs and adds its staging-copy costs on both sides; small-message " +
			"latency pays header processing and window accounting.",
		Run: func(sc *Scenario) (*Report, error) {
			g := bench.NewGroup("stream layer vs raw VIA")
			latG := bench.NewGroup("stream latency vs raw VIA")
			total := 2 << 20
			if sc.Quick {
				total = 256 << 10
			}
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				raw, _, err := BandwidthSweep(cfg, []int{28672}, XferOpts{})
				if err != nil {
					return nil, err
				}
				tput, err := StreamThroughput(cfg, total, stream.DefaultConfig())
				if err != nil {
					return nil, err
				}
				s := bench.NewSeries(m.Name, "series", "MB/s")
				s.Add(0, raw.MustAt(28672))
				s.Add(1, tput)
				s.Name = fmt.Sprintf("%s raw %.0f MB/s -> stream %.0f MB/s", m.Name, raw.MustAt(28672), tput)
				g.Add(s)

				rawLat, _, err := LatencySweep(cfg, []int{1024}, XferOpts{})
				if err != nil {
					return nil, err
				}
				sockLat, err := StreamPingPong(cfg, 1024, stream.DefaultConfig())
				if err != nil {
					return nil, err
				}
				l := bench.NewSeries(fmt.Sprintf("%s raw %.1fus -> stream %.1fus",
					m.Name, rawLat.MustAt(1024), sockLat), "series", "us")
				l.Add(0, rawLat.MustAt(1024))
				l.Add(1, sockLat)
				latG.Add(l)
			}
			return &Report{Groups: []*bench.Group{g, latG}}, nil
		},
	}
}
