package core

import (
	"fmt"

	"vibe/internal/bench"
	"vibe/internal/provider"
	"vibe/internal/table"
)

// topoConfig builds the configuration a topology experiment runs on model
// m, defaulting the fabric to the named topology shape.
// A scenario that already selects a topology (NetTopology override or
// scenario file) wins, so sweeps over topology parameters work like any
// other parameter study.
func topoConfig(sc *Scenario, m *provider.Model, topo string, degree, bufPkts int) Config {
	cfg := sc.Config(m)
	if cfg.Model.Network.Topology == "" {
		cfg.Model.Network.Topology = topo
		cfg.Model.Network.TopologyDegree = degree
		cfg.Model.Network.SwitchBufPkts = bufPkts
	}
	return cfg
}

func expXINCAST() *Experiment {
	return &Experiment{
		ID:    "XINCAST",
		Title: "Extension: fat-tree incast goodput vs sender count",
		PaperClaim: "(routed-fabric extension) N senders streaming reliable RDMA " +
			"writes at one receiver share its downlink: aggregate goodput " +
			"holds near the link rate at small N, then degrades as inflated " +
			"round trips trigger go-back-N retransmissions — the classic " +
			"incast collapse — while finite switch buffers keep the overload " +
			"visible as credit stalls, not queue growth.",
		Run: func(sc *Scenario) (*Report, error) {
			senders := []int{4, 8, 16, 32}
			msgs := 30
			if sc.Quick {
				senders = []int{4, 8}
				msgs = 10
			}
			const size = 2048
			s := bench.NewSeries("clan fat-tree", "senders", "aggregate goodput (MB/s)")
			t := table.New("fat-tree incast (2KB reliable RDMA writes)",
				"Senders", "Goodput (MB/s)", "Elapsed (us)", "Credit stalls", "Max queue")
			for _, n := range senders {
				cfg := topoConfig(sc, provider.CLAN(), "fattree", 4, 8)
				r, err := IncastRun(cfg, n, msgs, size)
				if err != nil {
					return nil, fmt.Errorf("xincast %d senders: %w", n, err)
				}
				s.Add(float64(n), r.MBps)
				t.AddRow(float64(n), r.MBps, r.ElapsedUs, float64(r.CreditStalls), float64(r.MaxQueue))
			}
			g := bench.NewGroup("fat-tree incast goodput")
			g.Add(s)
			return &Report{Groups: []*bench.Group{g}, Tables: []*table.Table{t}, Notes: []string{
				"Destination-based spine selection funnels every flow through " +
					"one spine, so the receiver's downlink is the bottleneck at " +
					"any sender count; max queue depth stays at the configured " +
					"8-packet buffer bound while credit stalls grow with overload. " +
					"Past ~8 senders the backpressured round trips exceed the " +
					"reliability layer's timeout and go-back-N retransmissions " +
					"eat into delivered goodput — congestion collapse, emergent " +
					"rather than scripted.",
			}}, nil
		},
	}
}

func expXALLTOALL() *Experiment {
	return &Experiment{
		ID:    "XALLTOALL",
		Title: "Extension: 3D-torus all-to-all aggregate bandwidth vs message size",
		PaperClaim: "(routed-fabric extension) The staggered complete exchange " +
			"spreads a rotating permutation over the torus rings: aggregate " +
			"bandwidth scales with message size as per-message overheads " +
			"amortize, then collapses once multi-fragment messages overrun " +
			"the finite switch buffers and retransmissions dominate.",
		Run: func(sc *Scenario) (*Report, error) {
			sizes := []int{256, 1024, 4096, 16384}
			msgs := 8
			if sc.Quick {
				sizes = []int{256, 4096}
				msgs = 4
			}
			const hosts = 8 // a 2x2x2 cube at one host per switch
			s := bench.NewSeries("clan 3D torus", "message size (bytes)", "aggregate bandwidth (MB/s)")
			for _, size := range sizes {
				cfg := topoConfig(sc, provider.CLAN(), "torus3d", 1, 8)
				r, err := AllToAllRun(cfg, hosts, msgs, size)
				if err != nil {
					return nil, fmt.Errorf("xalltoall %dB: %w", size, err)
				}
				s.Add(float64(size), r.MBps)
			}
			g := bench.NewGroup("3D-torus all-to-all bandwidth (8 hosts)")
			g.Add(s)
			return &Report{Groups: []*bench.Group{g}, Notes: []string{
				"Dimension-order routing sends each round of the rotation over " +
					"a distinct set of ring links, so the exchange uses the " +
					"torus bisection concurrently rather than serializing " +
					"through one switch as the crossbar would. The largest " +
					"size fragments into multiple MTU packets per write; the " +
					"burst overruns the 8-packet switch buffers, round trips " +
					"stretch past the retransmission timeout, and goodput " +
					"collapses — the same emergent mechanism as XINCAST.",
			}}, nil
		},
	}
}

func expXHOTSPOT() *Experiment {
	return &Experiment{
		ID:    "XHOTSPOT",
		Title: "Extension: dragonfly hotspot goodput vs offered load",
		PaperClaim: "(routed-fabric extension) Paced unreliable streams aimed at " +
			"one host track the offered load until the hotspot's link " +
			"saturates, then goodput flattens at the link rate: finite switch " +
			"buffers convert the excess into credit backpressure instead of " +
			"unbounded queues.",
		Run: func(sc *Scenario) (*Report, error) {
			offered := []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}
			msgs := 60
			if sc.Quick {
				offered = []float64{0.5, 1.5}
				msgs = 30
			}
			const senders, size = 5, 1024 // 6 hosts: 3 dragonfly groups of 2 routers
			good := bench.NewSeries("clan dragonfly", "offered load (fraction of link bw)", "goodput (MB/s)")
			stalls := bench.NewSeries("clan dragonfly", "offered load (fraction of link bw)", "credit stalls")
			for _, x := range offered {
				cfg := topoConfig(sc, provider.CLAN(), "dragonfly", 1, 8)
				r, err := HotspotRun(cfg, senders, msgs, size, x)
				if err != nil {
					return nil, fmt.Errorf("xhotspot load %.2f: %w", x, err)
				}
				good.Add(x, r.MBps)
				stalls.Add(x, float64(r.CreditStalls))
			}
			gg := bench.NewGroup("dragonfly hotspot goodput (5 senders -> 1)")
			gg.Add(good)
			gs := bench.NewGroup("dragonfly hotspot credit stalls")
			gs.Add(stalls)
			return &Report{Groups: []*bench.Group{gg, gs}, Notes: []string{
				"All five streams cross the destination router, so its " +
					"attachment link is the hotspot; past saturation the " +
					"credit-stall count rises steeply while goodput stays " +
					"pinned near the link rate.",
			}}, nil
		},
	}
}
