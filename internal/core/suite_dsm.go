package core

import (
	"encoding/binary"
	"fmt"

	"vibe/internal/dsm"
	"vibe/internal/provider"
	"vibe/internal/table"
	"vibe/internal/via"
)

// DSMLockContention measures the distributed-shared-memory layer: the
// time per lock-protected read-modify-write of a shared counter as the
// node count grows — the critical-section cost a DSM application pays,
// combining lock-manager round trips, cache invalidation, page refetch,
// and dirty-page flush.
func DSMLockContention(cfg Config, nodes, incsPerNode int) (usPerOp float64, fetches uint64, err error) {
	sys := via.NewSystem(cfg.Model, nodes, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	w := dsm.New(sys, dsm.DefaultConfig())
	var runErr error
	var elapsedUs float64
	var totalFetches uint64
	w.Run(func(ctx *via.Ctx, d *dsm.Node) {
		fail := func(e error) {
			if runErr == nil {
				runErr = e
			}
		}
		if e := d.Alloc(ctx, "ctr", 1); e != nil {
			fail(e)
			return
		}
		if e := d.Barrier(ctx); e != nil {
			fail(e)
			return
		}
		start := ctx.Now()
		buf := make([]byte, 8)
		for i := 0; i < incsPerNode; i++ {
			if e := d.Acquire(ctx, 1); e != nil {
				fail(e)
				return
			}
			if e := d.Read(ctx, "ctr", 0, buf); e != nil {
				fail(e)
				return
			}
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
			if e := d.Write(ctx, "ctr", 0, buf); e != nil {
				fail(e)
				return
			}
			if e := d.Release(ctx, 1); e != nil {
				fail(e)
				return
			}
		}
		if e := d.Barrier(ctx); e != nil {
			fail(e)
			return
		}
		if d.Me() == 0 {
			if e := d.Read(ctx, "ctr", 0, buf); e != nil {
				fail(e)
				return
			}
			if got := binary.LittleEndian.Uint64(buf); got != uint64(nodes*incsPerNode) {
				fail(fmt.Errorf("dsm counter = %d, want %d", got, nodes*incsPerNode))
				return
			}
			elapsedUs = ctx.Now().Sub(start).Micros()
		}
		totalFetches += d.PageFetches
	})
	if e := sys.Run(); e != nil {
		return 0, 0, e
	}
	if runErr != nil {
		return 0, 0, runErr
	}
	return elapsedUs / float64(nodes*incsPerNode), totalFetches, nil
}

func expPMDSM() *Experiment {
	return &Experiment{
		ID:    "PMDSM",
		Title: "PM: distributed-shared-memory layer (the paper's [7])",
		PaperClaim: "(the TreadMarks-over-VIA system the paper's authors built) " +
			"A lock-protected shared-counter update costs a lock round trip plus " +
			"a page fetch plus a flush; the underlying VIA's latency and RDMA " +
			"capabilities set the price, so cLAN-class hardware should halve " +
			"M-VIA's critical-section time.",
		Run: func(sc *Scenario) (*Report, error) {
			t := table.New("DSM lock-protected counter increment (us/op)",
				"Provider", "2 nodes", "3 nodes", "4 nodes")
			incs := 20
			if sc.Quick {
				incs = 8
			}
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				row := []interface{}{m.Name}
				for _, n := range []int{2, 3, 4} {
					us, _, err := DSMLockContention(cfg, n, incs)
					if err != nil {
						return nil, err
					}
					row = append(row, us)
				}
				t.AddRow(row...)
			}
			return &Report{Tables: []*table.Table{t}, Notes: []string{
				"Each op = acquire (manager round trip) + invalidate + page " +
					"refetch (one-sided get) + write + flush (one-sided put + fence) " +
					"+ release. Berkeley VIA pays extra for its daemon-serviced gets.",
			}}, nil
		},
	}
}
