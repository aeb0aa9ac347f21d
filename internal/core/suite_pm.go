package core

import (
	"fmt"

	"vibe/internal/bench"
	"vibe/internal/getput"
	"vibe/internal/mp"
	"vibe/internal/provider"
	"vibe/internal/table"
	"vibe/internal/via"
)

// The programming-model benchmarks the paper's §5 plans to add to VIBe
// ("micro-benchmarks for distributed memory (MPI), distributed
// shared-memory, and get/put programming models"): measurements of the
// message-passing layer (internal/mp) and the get/put layer
// (internal/getput) built on the same simulated providers.

// MPLatency measures the message-passing layer's ping-pong latency for a
// size ladder.
func MPLatency(cfg Config, sizes []int, mpCfg mp.Config) (*bench.Series, error) {
	s := bench.NewSeries(cfg.Model.Name+" mp", "message size (bytes)", "latency (us)")
	for _, size := range sizes {
		lat, err := mpPingPong(cfg, size, mpCfg)
		if err != nil {
			return s, fmt.Errorf("mp latency %s %d: %w", cfg.Model.Name, size, err)
		}
		s.Add(float64(size), lat)
	}
	return s, nil
}

// mpPingPong runs one ping-pong measurement over the mp layer.
func mpPingPong(cfg Config, size int, mpCfg mp.Config) (float64, error) {
	sys := via.NewSystem(cfg.Model, 2, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	w := mp.NewWorld(sys, mpCfg)
	total := cfg.Warmup + cfg.Iters
	var lat float64
	var runErr error
	w.Run(func(ctx *via.Ctx, ep *mp.Endpoint) {
		buf := ctx.Malloc(max(size, 1))
		other := 1 - ep.Rank()
		var t0 = ctx.Now()
		for i := 0; i < total; i++ {
			if i == cfg.Warmup && ep.Rank() == 0 {
				t0 = ctx.Now()
			}
			if ep.Rank() == 0 {
				if err := ep.Send(ctx, other, 1, buf, size); err != nil {
					runErr = err
					return
				}
				if _, _, err := ep.Recv(ctx, other, 1); err != nil {
					runErr = err
					return
				}
			} else {
				if _, _, err := ep.Recv(ctx, other, 1); err != nil {
					runErr = err
					return
				}
				if err := ep.Send(ctx, other, 1, buf, size); err != nil {
					runErr = err
					return
				}
			}
		}
		if ep.Rank() == 0 {
			lat = ctx.Now().Sub(t0).Micros() / float64(cfg.Iters) / 2
		}
	})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	return lat, runErr
}

// GPLatency measures put and get latency over the get/put layer.
func GPLatency(cfg Config, size int) (putUs, getUs float64, err error) {
	sys := via.NewSystem(cfg.Model, 2, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	f := getput.NewFabric(sys, getput.DefaultConfig())
	var ready bool
	var runErr error
	f.Run(func(ctx *via.Ctx, nd *getput.Node) {
		nic := ctx.OpenNic()
		if nd.Me() == 1 {
			region := ctx.Malloc(max(size, 4096))
			if e := nd.Expose(ctx, "bench", region); e != nil {
				runErr = e
				return
			}
			ready = true
			// Idle long enough for the measurement; serviced gets run on
			// the daemon.
			ctx.Sleep(2_000_000_000) // 2s of virtual time
			return
		}
		for !ready {
			ctx.Sleep(100_000) // 100us
		}
		src := ctx.Malloc(max(size, 4))
		sh, e := nic.RegisterMem(ctx, src)
		if e != nil {
			runErr = e
			return
		}
		// Warm the lookup cache, then time puts.
		for i := 0; i < cfg.Warmup; i++ {
			if e := nd.Put(ctx, 1, "bench", 0, src, size, sh); e != nil {
				runErr = e
				return
			}
		}
		t0 := ctx.Now()
		for i := 0; i < cfg.Iters; i++ {
			if e := nd.Put(ctx, 1, "bench", 0, src, size, sh); e != nil {
				runErr = e
				return
			}
		}
		putUs = ctx.Now().Sub(t0).Micros() / float64(cfg.Iters)

		dst := ctx.Malloc(max(size, 4))
		dh, e := nic.RegisterMem(ctx, dst)
		if e != nil {
			runErr = e
			return
		}
		for i := 0; i < cfg.Warmup; i++ {
			if e := nd.Get(ctx, 1, "bench", 0, size, dst, dh); e != nil {
				runErr = e
				return
			}
		}
		t1 := ctx.Now()
		for i := 0; i < cfg.Iters; i++ {
			if e := nd.Get(ctx, 1, "bench", 0, size, dst, dh); e != nil {
				runErr = e
				return
			}
		}
		getUs = ctx.Now().Sub(t1).Micros() / float64(cfg.Iters)
		sys.Eng.Stop() // do not wait out the owner's idle sleep
	})
	if err := sys.Run(); err != nil {
		return 0, 0, err
	}
	return putUs, getUs, runErr
}

func expPMMP() *Experiment {
	return &Experiment{
		ID:    "PMMP",
		Title: "PM: message-passing layer latency vs raw VIA (future work of §5)",
		PaperClaim: "(planned in the paper) A message-passing layer should track " +
			"raw VIA latency closely in its eager range and pay a rendezvous " +
			"round trip beyond the eager limit, where zero-copy RDMA then wins " +
			"back the copy costs on large messages.",
		Run: func(sc *Scenario) (*Report, error) {
			g := bench.NewGroup("mp layer latency vs raw VIA")
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				raw, _, err := LatencySweep(cfg, ladder(sc.Quick), XferOpts{})
				if err != nil {
					return nil, err
				}
				raw.Name = m.Name + " raw VIA"
				mpl, err := MPLatency(cfg, ladder(sc.Quick), mp.DefaultConfig())
				if err != nil {
					return nil, err
				}
				g.Add(raw, mpl)
			}
			return &Report{Groups: []*bench.Group{g}, Notes: []string{
				"mp overhead = header staging + matching for eager sizes; RTS/CTS " +
					"round trip + registration(cached) for rendezvous sizes.",
			}}, nil
		},
	}
}

func expPMGP() *Experiment {
	return &Experiment{
		ID:    "PMGP",
		Title: "PM: get/put layer latency (future work of §5)",
		PaperClaim: "(planned in the paper) One-sided puts cost a wire one-way " +
			"plus reliability ack; gets are cheap where the NIC reads (cLAN, " +
			"M-VIA) and pay a daemon-serviced round trip on Berkeley VIA.",
		Run: func(sc *Scenario) (*Report, error) {
			t := table.New("get/put latency (us)", "Provider", "Size", "Put", "Get", "Get path")
			sizes := []int{64, 4096}
			if !sc.Quick {
				sizes = append(sizes, 28672)
			}
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				path := "rdma-read"
				if !cfg.Model.SupportsRDMARead {
					path = "daemon-serviced"
				}
				for _, size := range sizes {
					put, get, err := GPLatency(cfg, size)
					if err != nil {
						return nil, err
					}
					t.AddRow(m.Name, size, put, get, path)
				}
			}
			return &Report{Tables: []*table.Table{t}}, nil
		},
	}
}

func expPMEAGER() *Experiment {
	return &Experiment{
		ID:    "PMEAGER",
		Title: "PM ablation: eager-limit crossover in the mp layer",
		PaperClaim: "(design guidance VIBe enables) The optimal eager/rendezvous " +
			"switch point balances the copy cost VIBe measures against the " +
			"rendezvous round trip; sweeping the limit exposes the crossover.",
		Run: func(sc *Scenario) (*Report, error) {
			cfg := sc.Config(provider.MVIA()) // copies make the effect starkest
			const size = 16 * 1024
			t := table.New(fmt.Sprintf("mp 16KB latency vs eager limit (%s)", cfg.Model.Name),
				"Eager limit", "Protocol", "Latency (us)")
			limits := []int{4 * 1024, 32 * 1024}
			if !sc.Quick {
				limits = []int{2 * 1024, 8 * 1024, 32 * 1024}
			}
			for _, lim := range limits {
				mpCfg := mp.DefaultConfig()
				mpCfg.EagerLimit = lim
				lat, err := mpPingPong(cfg, size, mpCfg)
				if err != nil {
					return nil, err
				}
				proto := "eager (copy)"
				if size > lim {
					proto = "rendezvous (zero-copy)"
				}
				t.AddRow(lim, proto, lat)
			}
			return &Report{Tables: []*table.Table{t}}, nil
		},
	}
}
