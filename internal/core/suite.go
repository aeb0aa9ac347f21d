package core

import (
	"fmt"
	"math"

	"vibe/internal/bench"
	"vibe/internal/provider"
	"vibe/internal/table"
)

// Report is the output of one experiment: tables and/or series groups,
// plus notes comparing against the paper.
type Report struct {
	Title  string
	Tables []*table.Table
	Groups []*bench.Group
	Notes  []string
}

// Experiment regenerates one paper artifact (table or figure) or one
// ablation. Run receives the scenario whose design point the experiment
// should measure: experiments derive every model and configuration from
// it, so parameter overrides and sweeps apply to the entire registry
// without per-experiment wiring. PaperClaim is the prose headline; the
// paper experiments also state it as Claims, predicates over the report
// Run returns, so every run can say which conclusion a design point broke.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Claims     []Claim
	Run        func(sc *Scenario) (*Report, error)
}

func ladder(quick bool) []int {
	if quick {
		return bench.SmallLadder()
	}
	return bench.SizeLadder()
}

// Experiments returns the registry, in the paper's presentation order
// followed by the §3.2.5 extensions and the ablations from DESIGN.md.
func Experiments() []*Experiment {
	return []*Experiment{
		expT1(), expF1(), expF2(), expF3(), expF4(), expF5(), expF6(), expF7(),
		expTCQ(),
		expXSEG(), expXASY(), expXRDMA(), expXPIPE(), expXMTU(), expXREL(), expXLOSS(), expXFAULT(),
		expXINCAST(), expXALLTOALL(), expXHOTSPOT(), expXFAILOVER(),
		expPMMP(), expPMGP(), expPMEAGER(), expPMSOCK(), expPMDSM(),
		expEXTPROV(),
		expATLB(), expAXLAT(), expADOOR(), expAPOLL(),
		expBREAK(),
	}
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string) (*Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("vibe: unknown experiment %q", id)
}

// paperTable1 lists Table 1's rows: the cost T1 measures for each, the
// paper's value (us) in M-VIA, BVIA, cLAN order, and the tolerance T1 must
// meet, abs + rel × the paper's value. Connection establishment crosses
// the simulated network, so it gets 1%.
var paperTable1 = []struct {
	op       string
	cost     func(NonDataCosts) float64
	us       [3]float64
	abs, rel float64
}{
	{"Creating VI", func(c NonDataCosts) float64 { return c.CreateVi }, [3]float64{93, 28, 3}, 0.5, 0},
	{"Destroying VI", func(c NonDataCosts) float64 { return c.DestroyVi }, [3]float64{0.19, 0.19, 0.11}, 0.05, 0},
	{"Establishing Connection", func(c NonDataCosts) float64 { return c.EstablishConn }, [3]float64{6465, 496, 2454}, 0, 0.01},
	{"Tearing Down Connection", func(c NonDataCosts) float64 { return c.TeardownConn }, [3]float64{3, 9, 155}, 0.5, 0},
	{"Creating CQ", func(c NonDataCosts) float64 { return c.CreateCq }, [3]float64{17, 206, 54}, 0.5, 0},
	{"Destroying CQ", func(c NonDataCosts) float64 { return c.DestroyCq }, [3]float64{8.44, 35, 15}, 0.5, 0},
}

func expT1() *Experiment {
	const title = "Table 1 (reproduced)"
	cols := []string{"M-VIA", "BVIA", "cLAN"}
	row := func(p *points, op string) (mvia, bvia, clan float64) {
		return p.cell(title, op, cols[0]), p.cell(title, op, cols[1]), p.cell(title, op, cols[2])
	}
	return &Experiment{
		ID:    "T1",
		Title: "Table 1: non-data transfer micro-benchmarks (us)",
		PaperClaim: "Connection establishment is extremely expensive on cLAN " +
			"(2454us) and worst on M-VIA (6465us); CQ creation is most " +
			"expensive on BVIA (206us); VI creation is cheapest on cLAN (3us).",
		Claims: []Claim{
			{Text: "Every cost matches the paper's Table 1: VI destruction within 0.05us, connection establishment within 1%, the others within 0.5us",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, pt := range paperTable1 {
						for i, col := range cols {
							got, tol := p.cell(title, pt.op, col), pt.abs+pt.rel*pt.us[i]
							checks = append(checks, want(math.Abs(got-pt.us[i]) <= tol, "%s %s %.4gus, paper %.4gus ±%.3g", col, pt.op, got, pt.us[i], tol))
						}
					}
					return checks
				})},
			{Text: "Connection establishment is worst on M-VIA and cheapest on BVIA, CQ creation is most expensive on BVIA, VI creation is cheapest on cLAN, and cLAN tears connections down the slowest",
				Check: reads(func(p *points) []error {
					connM, connB, connC := row(p, "Establishing Connection")
					cqM, cqB, cqC := row(p, "Creating CQ")
					viM, viB, viC := row(p, "Creating VI")
					downM, downB, downC := row(p, "Tearing Down Connection")
					return []error{
						falling("Establishing Connection", []string{"M-VIA", "cLAN", "BVIA"}, connM, connC, connB),
						falling("Creating CQ", []string{"BVIA", "cLAN", "M-VIA"}, cqB, cqC, cqM),
						falling("Creating VI", []string{"M-VIA", "BVIA", "cLAN"}, viM, viB, viC),
						want(downC > downB && downC > downM,
							"Tearing Down Connection: cLAN %.4gus, want above BVIA %.4gus and M-VIA %.4gus", downC, downB, downM)}
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			t := table.New(title, "Operation", cols[0], cols[1], cols[2])
			var costs []NonDataCosts
			for _, m := range provider.All() {
				c, err := NonData(sc.Config(m))
				if err != nil {
					return nil, err
				}
				costs = append(costs, c)
			}
			for _, r := range paperTable1 {
				t.AddRow(r.op, r.cost(costs[0]), r.cost(costs[1]), r.cost(costs[2]))
			}
			return &Report{Tables: []*table.Table{t}}, nil
		},
	}
}

func expF1() *Experiment {
	const group = "memory registration cost"
	return &Experiment{
		ID:    "F1",
		Title: "Figure 1: memory registration cost vs buffer length",
		PaperClaim: "Registration is most expensive on BVIA for buffers up to " +
			"~20KB (flat ~21us base); M-VIA is cheap for small buffers but grows " +
			"steeply per page and crosses BVIA around 20KB; costs reach ~35us.",
		Claims: []Claim{
			{Text: "BVIA registers 16B, 1KB and 4KB buffers the slowest, and M-VIA's per-page cost overtakes BVIA by 28KB",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, x := range []float64{16, 1024, 4096} {
						m, b, c := p.trio(group, x)
						checks = append(checks, want(b > m && b > c, "at %gB BVIA %.4gus, want above M-VIA %.4gus and cLAN %.4gus", x, b, m, c))
					}
					m, b, _ := p.trio(group, 28672)
					checks = append(checks, want(m > b, "at 28KB M-VIA %.4gus, want above BVIA %.4gus", m, b))
					return checks
				})},
			{Text: "Registration cost grows from 16B to 28KB on every provider and stays within the paper's plotted range (at most 40us)",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, name := range []string{"mvia", "bvia", "clan"} {
						small, large := p.at(group, name, 16), p.at(group, name, 28672)
						checks = append(checks, want(large > small, "%s 28KB %.4gus, want above 16B %.4gus", name, large, small))
						for _, x := range RegLadder() {
							checks = append(checks, band(fmt.Sprintf("%s at %dB", name, x), p.at(group, name, float64(x)), 0, 40))
						}
					}
					return checks
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			g := bench.NewGroup(group)
			for _, m := range provider.All() {
				s, err := MemRegister(sc.Config(m), RegLadder())
				if err != nil {
					return nil, err
				}
				g.Add(s)
			}
			return &Report{Groups: []*bench.Group{g}}, nil
		},
	}
}

func expF2() *Experiment {
	const group = "memory deregistration cost"
	sizes := append(RegLadder(), 1<<20, 32<<20)
	return &Experiment{
		ID:    "F2",
		Title: "Figure 2: memory deregistration cost vs buffer length",
		PaperClaim: "Deregistration is much cheaper than registration and " +
			"essentially flat in region size (below ~16us even for 32MB); " +
			"BVIA is the most expensive, M-VIA the cheapest.",
		Claims: []Claim{
			{Text: "Deregistration stays below 16us at every length up to 32MB and is flat: 32MB within 2us of 16B",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, name := range []string{"mvia", "bvia", "clan"} {
						for _, x := range sizes {
							y := p.at(group, name, float64(x))
							checks = append(checks, want(y < 16, "%s at %dB %.4gus, want below 16us", name, x, y))
						}
						small, large := p.at(group, name, 16), p.at(group, name, 32<<20)
						checks = append(checks, want(math.Abs(large-small) <= 2, "%s 32MB %.4gus, want within 2us of 16B %.4gus", name, large, small))
					}
					return checks
				})},
			{Text: "BVIA deregisters the slowest and M-VIA the fastest at every length",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, x := range sizes {
						m, b, c := p.trio(group, float64(x))
						checks = append(checks, falling(fmt.Sprintf("at %dB", x), []string{"bvia", "clan", "mvia"}, b, c, m))
					}
					return checks
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			g := bench.NewGroup(group)
			for _, m := range provider.All() {
				s, err := MemDeregister(sc.Config(m), sizes)
				if err != nil {
					return nil, err
				}
				g.Add(s)
			}
			return &Report{Groups: []*bench.Group{g}}, nil
		},
	}
}

func expF3() *Experiment {
	const latG, bwG = "base latency, polling (LATbase)", "base bandwidth, polling (BWbase)"
	return &Experiment{
		ID:    "F3",
		Title: "Figure 3: base latency and bandwidth with polling",
		PaperClaim: "cLAN has the lowest latency; M-VIA beats BVIA for short " +
			"messages but loses for long ones (extra kernel copies); cLAN has the " +
			"best bandwidth over most sizes but BVIA wins for large messages.",
		Claims: []Claim{
			{Text: "At 4B cLAN has the lowest latency and M-VIA beats BVIA, each within its era's band (cLAN 5-12us, M-VIA 12-28us, BVIA 18-40us)",
				Check: reads(func(p *points) []error {
					m, b, c := p.trio(latG, 4)
					return []error{
						falling("4B latency", []string{"bvia", "mvia", "clan"}, b, m, c),
						band("clan 4B latency", c, 5, 12),
						band("mvia 4B latency", m, 12, 28),
						band("bvia 4B latency", b, 18, 40)}
				})},
			{Text: "M-VIA's extra kernel copies lose long messages: at 28KB its latency is at least twice BVIA's",
				Check: reads(func(p *points) []error {
					m, b, _ := p.trio(latG, 28672)
					return []error{want(m >= 2*b, "28KB latency mvia %.4gus, want at least twice bvia's %.4gus", m, b)}
				})},
			{Text: "Latency rises with message size on every provider",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, name := range []string{"mvia", "bvia", "clan"} {
						sizes := bench.SmallLadder()
						for i := 1; i < len(sizes); i++ {
							lo, hi := p.at(latG, name, float64(sizes[i-1])), p.at(latG, name, float64(sizes[i]))
							checks = append(checks, want(hi > lo, "%s latency %.4gus at %dB, want above %.4gus at %dB", name, hi, sizes[i], lo, sizes[i-1]))
						}
					}
					return checks
				})},
			{Text: "BVIA has the best 28KB bandwidth, then cLAN, then M-VIA; cLAN leads at 1KB",
				Check: reads(func(p *points) []error {
					m, b, c := p.trio(bwG, 28672)
					m1, b1, c1 := p.trio(bwG, 1024)
					return []error{
						falling("28KB bandwidth", []string{"bvia", "clan", "mvia"}, b, c, m),
						want(c1 > b1 && c1 > m1, "1KB bandwidth clan %.4gMB/s, want above bvia %.4g and mvia %.4g", c1, b1, m1)}
				})},
			{Text: "28KB bandwidth plateaus in the paper's bands: M-VIA 40-65, BVIA 115-150, cLAN 100-130 MB/s",
				Check: reads(func(p *points) []error {
					m, b, c := p.trio(bwG, 28672)
					return []error{
						band("mvia 28KB bandwidth", m, 40, 65),
						band("bvia 28KB bandwidth", b, 115, 150),
						band("clan 28KB bandwidth", c, 100, 130)}
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			lat := bench.NewGroup(latG)
			bw := bench.NewGroup(bwG)
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				l, _, err := LatencySweep(cfg, ladder(sc.Quick), XferOpts{})
				if err != nil {
					return nil, err
				}
				b, _, err := BandwidthSweep(cfg, ladder(sc.Quick), XferOpts{})
				if err != nil {
					return nil, err
				}
				lat.Add(l)
				bw.Add(b)
			}
			return &Report{Groups: []*bench.Group{lat, bw},
				Notes: []string{"CPU utilization with polling is 100% for all providers (not shown, as in the paper)."}}, nil
		},
	}
}

func expF4() *Experiment {
	const cpuG = "CPU utilization, blocking (CPUbase-block)"
	return &Experiment{
		ID:    "F4",
		Title: "Figure 4: base latency and CPU utilization with blocking",
		PaperClaim: "Blocking latency is significantly higher than polling; CPU " +
			"utilizations are comparable across implementations for most sizes, " +
			"with M-VIA (kernel emulation) highest for small messages.",
		Claims: []Claim{
			{Text: "With blocking waits 4B CPU utilization stays below 90% on every provider and is highest on M-VIA (kernel emulation)",
				Check: reads(func(p *points) []error {
					m, b, c := p.at(cpuG, "mvia blocking", 4), p.at(cpuG, "bvia blocking", 4), p.at(cpuG, "clan blocking", 4)
					return []error{
						want(m < 90 && b < 90 && c < 90, "4B blocking CPU mvia %.4g%%, bvia %.4g%%, clan %.4g%%, want all below 90%%", m, b, c),
						want(m > b && m > c, "4B blocking CPU mvia %.4g%%, want above bvia %.4g%% and clan %.4g%%", m, b, c)}
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			lat := bench.NewGroup("base latency, blocking (LATbase-block)")
			cpuGroup := bench.NewGroup(cpuG)
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				l, c, err := LatencySweep(cfg, ladder(sc.Quick), XferOpts{Mode: Blocking})
				if err != nil {
					return nil, err
				}
				lat.Add(l)
				cpuGroup.Add(c)
			}
			return &Report{Groups: []*bench.Group{lat, cpuGroup},
				Notes: []string{"Bandwidth with blocking is similar to polling (not shown, as in the paper)."}}, nil
		},
	}
}

func expF5() *Experiment {
	const latG, bwG = "bvia buffer reuse: latency", "bvia buffer reuse: bandwidth"
	return &Experiment{
		ID:    "F5",
		Title: "Figure 5: latency and bandwidth vs % buffer reuse (BVIA)",
		PaperClaim: "On BVIA (NIC translation, tables in host memory, small NIC " +
			"cache), lowering buffer reuse raises latency and lowers bandwidth " +
			"substantially, worst for large (multi-page) messages; M-VIA and cLAN " +
			"are insensitive.",
		Claims: []Claim{
			{Text: "Dropping BVIA's buffer reuse from 100% to 0% raises 28KB latency by at least 40us and cuts 28KB bandwidth by more than 10%",
				Check: reads(func(p *points) []error {
					lat0, lat100 := p.at(latG, "0% reuse", 28672), p.at(latG, "100% reuse", 28672)
					bw0, bw100 := p.at(bwG, "0% reuse", 28672), p.at(bwG, "100% reuse", 28672)
					return []error{
						want(lat0 >= lat100+40, "28KB latency %.4gus at 0%% reuse, want at least 40us above %.4gus at 100%%", lat0, lat100),
						want(bw0 < 0.9*bw100, "28KB bandwidth %.4gMB/s at 0%% reuse, want below 90%% of %.4gMB/s at 100%%", bw0, bw100)}
				})},
			{Text: "Lost reuse costs most at the largest message: 0% reuse adds more latency at 28KB than at 4B",
				Check: reads(func(p *points) []error {
					large := p.at(latG, "0% reuse", 28672) - p.at(latG, "100% reuse", 28672)
					small := p.at(latG, "0% reuse", 4) - p.at(latG, "100% reuse", 4)
					return []error{want(large > small, "0%%-reuse latency penalty %.4gus at 28KB, want above %.4gus at 4B", large, small)}
				})},
			{Text: "At 4B BVIA latency never falls as reuse drops (0% >= 50% >= 100%)",
				Check: reads(func(p *points) []error {
					l0, l50, l100 := p.at(latG, "0% reuse", 4), p.at(latG, "50% reuse", 4), p.at(latG, "100% reuse", 4)
					return []error{want(l0 >= l50 && l50 >= l100, "4B latency %.4g/%.4g/%.4gus at 0/50/100%% reuse, want non-increasing", l0, l50, l100)}
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			cfg := sc.Config(provider.BVIA())
			pcts := []int{0, 25, 50, 75, 100}
			if sc.Quick {
				pcts = []int{0, 50, 100}
			}
			lat, err := ReuseSweep(cfg, ladder(sc.Quick), pcts, false)
			if err != nil {
				return nil, err
			}
			bw, err := ReuseSweep(cfg, ladder(sc.Quick), pcts, true)
			if err != nil {
				return nil, err
			}
			notes := []string{}
			for _, m := range []*provider.Model{provider.MVIA(), provider.CLAN()} {
				c := sc.Config(m)
				g, err := ReuseSweep(c, []int{28672}, []int{0, 100}, false)
				if err != nil {
					return nil, err
				}
				notes = append(notes, fmt.Sprintf(
					"%s @28KB: 0%% reuse %.1fus vs 100%% reuse %.1fus (insensitive, not plotted, as in the paper)",
					m.Name, g.Series[0].Y[0], g.Series[1].Y[0]))
			}
			return &Report{Groups: []*bench.Group{lat, bw}, Notes: notes}, nil
		},
	}
}

func expF6() *Experiment {
	const latG, bwG = "bvia multiple VIs: latency", "bvia multiple VIs: bandwidth"
	return &Experiment{
		ID:    "F6",
		Title: "Figure 6: latency and bandwidth vs number of active VIs (BVIA)",
		PaperClaim: "BVIA firmware polls all VIs' send structures, so latency " +
			"rises and bandwidth falls significantly with the number of open VIs; " +
			"M-VIA and cLAN are insensitive.",
		Claims: []Claim{
			{Text: "BVIA's 4B latency rises with every added VI (1 < 4 < 16) and at least doubles from 1 to 16 VIs",
				Check: reads(func(p *points) []error {
					l1, l4, l16 := p.at(latG, "1 VIs", 4), p.at(latG, "4 VIs", 4), p.at(latG, "16 VIs", 4)
					return []error{
						falling("4B latency", []string{"16 VIs", "4 VIs", "1 VI"}, l16, l4, l1),
						want(l16 >= 2*l1, "4B latency %.4gus at 16 VIs, want at least twice %.4gus at 1 VI", l16, l1)}
				})},
			{Text: "16 active VIs cut BVIA's 4KB bandwidth below 70% of the single-VI rate",
				Check: reads(func(p *points) []error {
					b1, b16 := p.at(bwG, "1 VIs", 4096), p.at(bwG, "16 VIs", 4096)
					return []error{want(b16 < 0.7*b1, "4KB bandwidth %.4gMB/s at 16 VIs, want below 70%% of %.4gMB/s at 1 VI", b16, b1)}
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			cfg := sc.Config(provider.BVIA())
			vis := []int{1, 2, 4, 8, 16, 32}
			if sc.Quick {
				vis = []int{1, 4, 16}
			}
			lat, err := MultiViSweep(cfg, ladder(sc.Quick), vis, false)
			if err != nil {
				return nil, err
			}
			bw, err := MultiViSweep(cfg, ladder(sc.Quick), vis, true)
			if err != nil {
				return nil, err
			}
			notes := []string{}
			for _, m := range []*provider.Model{provider.MVIA(), provider.CLAN()} {
				c := sc.Config(m)
				g, err := MultiViSweep(c, []int{4}, []int{1, 16}, false)
				if err != nil {
					return nil, err
				}
				notes = append(notes, fmt.Sprintf(
					"%s @4B: 1 VI %.1fus vs 16 VIs %.1fus (insensitive, not plotted, as in the paper)",
					m.Name, g.Series[0].Y[0], g.Series[1].Y[0]))
			}
			return &Report{Groups: []*bench.Group{lat, bw}, Notes: notes}, nil
		},
	}
}

func expF7() *Experiment {
	const group = "client-server transactions per second"
	return &Experiment{
		ID:    "F7",
		Title: "Figure 7: client-server transactions/sec (requests 16B and 256B)",
		PaperClaim: "cLAN sustains the most transactions (~55K/s at 16B); M-VIA " +
			"beats BVIA for short replies, BVIA wins for mid-size replies; for " +
			"long replies the paper reports them converging.",
		Claims: []Claim{
			{Text: "cLAN sustains the most transactions: with 16B requests and 4B replies it leads both others, within 45K-70K/s (the paper's ~55K/s)",
				Check: reads(func(p *points) []error {
					m, b, c := p.at(group, "mvia 16B", 4), p.at(group, "bvia 16B", 4), p.at(group, "clan 16B", 4)
					return []error{
						want(c > m && c > b, "4B replies: clan %.0f tx/s, want above mvia %.0f and bvia %.0f", c, m, b),
						band("clan 4B-reply tx/s", c, 45000, 70000)}
				})},
			{Text: "With 16B requests M-VIA beats BVIA for 4B replies and BVIA beats M-VIA for 4KB replies",
				Check: reads(func(p *points) []error {
					m, b := p.at(group, "mvia 16B", 4), p.at(group, "bvia 16B", 4)
					m4k, b4k := p.at(group, "mvia 16B", 4096), p.at(group, "bvia 16B", 4096)
					return []error{
						want(m > b, "4B replies: mvia %.0f tx/s, want above bvia %.0f", m, b),
						want(b4k > m4k, "4KB replies: bvia %.0f tx/s, want above mvia %.0f", b4k, m4k)}
				})},
			{Text: "256B requests complete fewer transactions than 16B requests on every provider at every reply size",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, name := range []string{"mvia", "bvia", "clan"} {
						for _, x := range bench.SmallLadder() {
							big, small := p.at(group, name+" 256B", float64(x)), p.at(group, name+" 16B", float64(x))
							checks = append(checks, want(big < small, "%s %dB replies: %.0f tx/s with 256B requests, want below %.0f with 16B", name, x, big, small))
						}
					}
					return checks
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			g := bench.NewGroup(group)
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				for _, req := range []int{16, 256} {
					s, err := ClientServer(cfg, req, ladder(sc.Quick))
					if err != nil {
						return nil, err
					}
					s.Name = fmt.Sprintf("%s %dB", m.Name, req)
					g.Add(s)
				}
			}
			return &Report{Groups: []*bench.Group{g}, Notes: []string{
				"Deviation: at 28KB replies our M-VIA stays ~2.5x below BVIA " +
					"(its kernel copies bound large transfers), where the paper " +
					"reports them similar; all other orderings match. See EXPERIMENTS.md.",
			}}, nil
		},
	}
}

func expTCQ() *Experiment {
	const title = "CQ overhead (LATcq - LATbase, us)"
	cols := []string{"4B", "1KB", "28KB"}
	return &Experiment{
		ID:    "TCQ",
		Title: "Section 4.3.3: completion queue overhead",
		PaperClaim: "Checking receive completions through a CQ costs 2-5us on " +
			"BVIA and is negligible on M-VIA and cLAN.",
		Claims: []Claim{
			{Text: "Checking completions through a CQ costs 2-5us on BVIA and at most 1us on M-VIA and cLAN, at 4B, 1KB and 28KB",
				Check: reads(func(p *points) []error {
					var checks []error
					for _, col := range cols {
						checks = append(checks,
							band("bvia "+col+" CQ overhead", p.cell(title, "bvia", col), 2, 5),
							band("mvia "+col+" CQ overhead", p.cell(title, "mvia", col), 0, 1),
							band("clan "+col+" CQ overhead", p.cell(title, "clan", col), 0, 1))
					}
					return checks
				})},
		},
		Run: func(sc *Scenario) (*Report, error) {
			t := table.New(title, "Provider", cols[0], cols[1], cols[2])
			for _, m := range provider.All() {
				cfg := sc.Config(m)
				_, _, d, err := CQOverhead(cfg, []int{4, 1024, 28672})
				if err != nil {
					return nil, err
				}
				t.AddRow(m.Name, d.Y[0], d.Y[1], d.Y[2])
			}
			return &Report{Tables: []*table.Table{t}}, nil
		},
	}
}
