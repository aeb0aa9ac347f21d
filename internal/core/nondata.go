package core

import (
	"fmt"

	"vibe/internal/bench"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// NonDataCosts are the Table 1 measurements: average cost of each basic
// non-data-transfer operation, in microseconds.
type NonDataCosts struct {
	CreateVi      float64
	DestroyVi     float64
	EstablishConn float64
	TeardownConn  float64
	CreateCq      float64
	DestroyCq     float64
}

// NonData measures the Table 1 operations by timing them inside the
// simulation, repeated cfg.NonDataReps times and averaged. Connection
// establishment is what the client observes between issuing
// ConnectRequest and it returning; teardown is the client's Disconnect
// call.
func NonData(cfg Config) (NonDataCosts, error) {
	sys := via.NewSystem(cfg.Model, 2, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	var out NonDataCosts
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	reps := cfg.NonDataReps
	if reps < 1 {
		reps = 1
	}

	timeIt := func(ctx *via.Ctx, fn func() error) (float64, error) {
		t0 := ctx.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		return ctx.Now().Sub(t0).Micros(), nil
	}

	sys.Go(0, "nondata-client", func(ctx *via.Ctx) {
		nic := ctx.OpenNic()
		var sumCreate, sumDestroy, sumConn, sumTear, sumCqC, sumCqD float64
		for r := 0; r < reps; r++ {
			var vi *via.Vi
			us, err := timeIt(ctx, func() (e error) {
				vi, e = nic.CreateVi(ctx, via.ViAttributes{}, nil, nil)
				return
			})
			if err != nil {
				fail(err)
				return
			}
			sumCreate += us

			disc := fmt.Sprintf("nd-%d", r)
			us, err = timeIt(ctx, func() error {
				return vi.ConnectRequest(ctx, 1, disc, cfg.Timeout)
			})
			if err != nil {
				fail(err)
				return
			}
			sumConn += us

			us, err = timeIt(ctx, func() error { return vi.Disconnect(ctx) })
			if err != nil {
				fail(err)
				return
			}
			sumTear += us

			us, err = timeIt(ctx, func() error { return vi.Destroy(ctx) })
			if err != nil {
				fail(err)
				return
			}
			sumDestroy += us

			var cq *via.CQ
			us, err = timeIt(ctx, func() (e error) {
				cq, e = nic.CreateCQ(ctx, 64)
				return
			})
			if err != nil {
				fail(err)
				return
			}
			sumCqC += us

			us, err = timeIt(ctx, func() error { return cq.Destroy(ctx) })
			if err != nil {
				fail(err)
				return
			}
			sumCqD += us
		}
		n := float64(reps)
		out = NonDataCosts{
			CreateVi:      sumCreate / n,
			DestroyVi:     sumDestroy / n,
			EstablishConn: sumConn / n,
			TeardownConn:  sumTear / n,
			CreateCq:      sumCqC / n,
			DestroyCq:     sumCqD / n,
		}
	})

	sys.Go(1, "nondata-server", func(ctx *via.Ctx) {
		nic := ctx.OpenNic()
		for r := 0; r < reps; r++ {
			vi, err := nic.CreateVi(ctx, via.ViAttributes{}, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			req, err := nic.ConnectWait(ctx, fmt.Sprintf("nd-%d", r), cfg.Timeout)
			if err != nil {
				fail(err)
				return
			}
			if err := req.Accept(ctx, vi); err != nil {
				fail(err)
				return
			}
			// Wait for the client's disconnect to arrive before reusing
			// state for the next repetition.
			for vi.State() == via.ViConnected {
				ctx.Sleep(10 * sim.Microsecond)
			}
			if err := vi.Destroy(ctx); err != nil {
				fail(err)
				return
			}
		}
	})

	if err := sys.Run(); err != nil {
		return out, err
	}
	return out, runErr
}

// RegLadder is the buffer-length x-axis of Figures 1 and 2.
func RegLadder() []int {
	return []int{16, 64, 256, 1024, 4096, 12288, 20480, 28672}
}

// MemRegister measures the cost of registering a fresh buffer of each
// size (Figure 1). Every repetition registers a different buffer, so no
// caching can hide the work.
func MemRegister(cfg Config, sizes []int) (*bench.Series, error) {
	return memRegDereg(cfg, sizes, fmt.Sprintf("%s", cfg.Model.Name), false)
}

// MemDeregister measures the cost of deregistering regions of each size
// (Figure 2).
func MemDeregister(cfg Config, sizes []int) (*bench.Series, error) {
	return memRegDereg(cfg, sizes, fmt.Sprintf("%s", cfg.Model.Name), true)
}

func memRegDereg(cfg Config, sizes []int, name string, dereg bool) (*bench.Series, error) {
	ylabel := "registration cost (us)"
	if dereg {
		ylabel = "deregistration cost (us)"
	}
	s := bench.NewSeries(name, "buffer length (bytes)", ylabel)
	reps := cfg.NonDataReps
	if reps < 1 {
		reps = 1
	}
	sys := via.NewSystem(cfg.Model, 1, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	var runErr error
	sys.Go(0, "memreg", func(ctx *via.Ctx) {
		nic := ctx.OpenNic()
		for _, size := range sizes {
			var sum float64
			for r := 0; r < reps; r++ {
				buf := ctx.Malloc(size)
				t0 := ctx.Now()
				h, err := nic.RegisterMem(ctx, buf)
				if err != nil {
					runErr = err
					return
				}
				regUs := ctx.Now().Sub(t0).Micros()
				t1 := ctx.Now()
				if err := nic.DeregisterMem(ctx, h); err != nil {
					runErr = err
					return
				}
				deregUs := ctx.Now().Sub(t1).Micros()
				if dereg {
					sum += deregUs
				} else {
					sum += regUs
				}
			}
			s.Add(float64(size), sum/float64(reps))
		}
	})
	if err := sys.Run(); err != nil {
		return s, err
	}
	return s, runErr
}
