// Command vibe runs individual VIBe micro-benchmarks against a simulated
// VIA provider, mirroring how the paper's suite is driven.
//
// Usage examples:
//
//	vibe -provider clan -bench latency
//	vibe -provider bvia -bench latency -reuse 0 -sizes 4,1024,28672
//	vibe -provider bvia -bench bandwidth -vis 16
//	vibe -provider mvia -bench latency -mode block -cq
//	vibe -provider clan -bench clientserver -req 16
//	vibe -provider clan -bench latency -set DoorbellCost=2us
//	vibe -provider clan -bench latency -sweep TLBCapacity=8,32,128
//	vibe -provider mvia -bench bandwidth -scenario tuned.json
//	vibe -provider clan -bench bandwidth -reliability delivery -fault plan.json
//	vibe -bench suite -quick -parallel 4
//	vibe -params -provider bvia -set DoorbellCost=2us
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/logp"
	"vibe/internal/mp"
	"vibe/internal/provider"
	"vibe/internal/runner"
	"vibe/internal/table"
	"vibe/internal/via"
)

// benchArgs is everything a benchmark needs to run one scenario cell:
// cfg.Model is already the scenario-derived model.
type benchArgs struct {
	cfg   core.Config
	o     core.XferOpts
	sizes []int
	req   int
}

// benchSpec is one registry entry. The help string for -bench is derived
// from the registry, so adding a benchmark here is the single change.
type benchSpec struct {
	name string
	run  func(a benchArgs) (*core.Report, error)
}

func benches() []benchSpec {
	return []benchSpec{
		{"latency", func(a benchArgs) (*core.Report, error) {
			lat, cpuU, err := core.LatencySweep(a.cfg, a.sizes, a.o)
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s latency (%s)", a.cfg.Model.Name, a.o.Mode),
				"size (bytes)", "latency (us)", "CPU (%)")
			for i, x := range lat.X {
				t.AddRow(int(x), lat.Y[i], cpuU.Y[i])
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"bandwidth", func(a benchArgs) (*core.Report, error) {
			bw, cpuU, err := core.BandwidthSweep(a.cfg, a.sizes, a.o)
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s bandwidth (%s)", a.cfg.Model.Name, a.o.Mode),
				"size (bytes)", "bandwidth (MB/s)", "CPU (%)")
			for i, x := range bw.X {
				t.AddRow(int(x), bw.Y[i], cpuU.Y[i])
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"clientserver", func(a benchArgs) (*core.Report, error) {
			s, err := core.ClientServer(a.cfg, a.req, a.sizes)
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s client-server, %dB requests", a.cfg.Model.Name, a.req),
				"reply size (bytes)", "transactions/s")
			for i, x := range s.X {
				t.AddRow(int(x), s.Y[i])
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"nondata", func(a benchArgs) (*core.Report, error) {
			c, err := core.NonData(a.cfg)
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s non-data transfer costs (us)", a.cfg.Model.Name),
				"operation", "cost")
			t.AddRow("create VI", c.CreateVi)
			t.AddRow("destroy VI", c.DestroyVi)
			t.AddRow("establish connection", c.EstablishConn)
			t.AddRow("tear down connection", c.TeardownConn)
			t.AddRow("create CQ", c.CreateCq)
			t.AddRow("destroy CQ", c.DestroyCq)
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"memreg", func(a benchArgs) (*core.Report, error) {
			s, err := core.MemRegister(a.cfg, core.RegLadder())
			if err != nil {
				return nil, err
			}
			return regReport(a.cfg.Model.Name, "memreg", s), nil
		}},
		{"memdereg", func(a benchArgs) (*core.Report, error) {
			s, err := core.MemDeregister(a.cfg, core.RegLadder())
			if err != nil {
				return nil, err
			}
			return regReport(a.cfg.Model.Name, "memdereg", s), nil
		}},
		{"logp", func(a benchArgs) (*core.Report, error) {
			ins, err := logp.Explain(a.cfg)
			if err != nil {
				return nil, err
			}
			return &core.Report{Notes: []string{
				fmt.Sprintf("%s LogP parameters: %v", a.cfg.Model.Name, ins.Params),
				"LogP-predicted small-message latency is constant, yet:",
				fmt.Sprintf("  base 4B latency:            %8.2f us", ins.BaseLatencyUs),
				fmt.Sprintf("  with 16 open VIs:           %8.2f us", ins.LatencyAt16VIs),
				fmt.Sprintf("  with 0%% buffer reuse:       %8.2f us", ins.LatencyAt0Reuse),
				"This spread is what VIBe measures and LogP cannot (paper §1).",
			}}, nil
		}},
		{"mp", func(a benchArgs) (*core.Report, error) {
			s, err := core.MPLatency(a.cfg, a.sizes, mp.DefaultConfig())
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s message-passing layer latency", a.cfg.Model.Name),
				"size (bytes)", "latency (us)")
			for i, x := range s.X {
				t.AddRow(int(x), s.Y[i])
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"getput", func(a benchArgs) (*core.Report, error) {
			t := table.New(fmt.Sprintf("%s get/put layer latency", a.cfg.Model.Name),
				"size (bytes)", "put (us)", "get (us)")
			for _, size := range a.sizes {
				put, get, err := core.GPLatency(a.cfg, size)
				if err != nil {
					return nil, err
				}
				t.AddRow(size, put, get)
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
	}
}

func regReport(model, which string, s *bench.Series) *core.Report {
	t := table.New(fmt.Sprintf("%s %s cost", model, which), "buffer (bytes)", "cost (us)")
	for i, x := range s.X {
		t.AddRow(int(x), s.Y[i])
	}
	return &core.Report{Tables: []*table.Table{t}}
}

func benchByName(name string) (benchSpec, bool) {
	for _, b := range benches() {
		if b.name == name {
			return b, true
		}
	}
	return benchSpec{}, false
}

// benchHelp and providerHelp derive the flag descriptions from the
// registries, so the help text cannot drift from what actually runs.
func benchHelp() string {
	names := make([]string, 0, len(benches())+1)
	for _, b := range benches() {
		names = append(names, b.name)
	}
	names = append(names, "suite")
	return "benchmark: " + strings.Join(names, ", ")
}

func providerHelp() string {
	return "provider model: " + strings.Join(provider.Names(), ", ")
}

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, " ") }
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var sets, sweeps repeatedFlag
	var xf xferFlags
	flag.StringVar(&xf.mode, "mode", "poll", "completion mode: poll or block")
	flag.BoolVar(&xf.cq, "cq", false, "check receive completions via a completion queue")
	flag.IntVar(&xf.reuse, "reuse", -1, "buffer reuse percent 0..100 (-1 = base: one buffer)")
	flag.IntVar(&xf.vis, "vis", 1, "number of open VIs")
	flag.IntVar(&xf.segs, "segments", 1, "data segments per descriptor")
	flag.BoolVar(&xf.rdma, "rdma", false, "use RDMA writes with immediate data")
	flag.BoolVar(&xf.notify, "notify", false, "server handles receives via async handler")
	flag.IntVar(&xf.window, "window", 0, "sender pipeline bound for bandwidth (0 = unbounded)")
	flag.StringVar(&xf.rel, "reliability", "unreliable", "unreliable, delivery, reception")
	var (
		prov         = flag.String("provider", "clan", providerHelp())
		benchSel     = flag.String("bench", "latency", benchHelp())
		scenarioPath = flag.String("scenario", "", "JSON scenario file: {\"base\":..., \"set\":{...}, \"run\":{...}}")
		faultPath    = flag.String("fault", "", "JSON fault plan file installed into every simulated system (wins over the scenario file's plan)")
		sizesArg     = flag.String("sizes", "", "comma-separated message sizes (default: paper ladder)")
		req          = flag.Int("req", 16, "request size for clientserver")
		iters        = flag.Int("iters", 0, "override timed iterations")
		csv          = flag.Bool("csv", false, "emit CSV")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "worker count for -bench suite and -sweep cells")
		quick        = flag.Bool("quick", false, "smaller sweeps for -bench suite")
		params       = flag.Bool("params", false, "list the model parameter catalog (-set/-sweep names) with the values -provider, -scenario and -set resolve to, and exit")
		metricsOn    = flag.Bool("metrics", false, "print per-component simulation counters after the run")
		metricsOut   = flag.String("metrics-out", "", "write the final merged metrics snapshot as key-sorted JSON (implies metric collection)")
		progress     = flag.Bool("progress", false, "with -bench suite, print a per-cell progress line to stderr as cells complete")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto); forces -parallel 1")
		spanSample   = flag.Int("span-sample", 1, "with -metrics/-trace-out, record every Nth message's lifecycle span (1 = every message, 0 = disable)")
		profileOut   = flag.String("profile-out", "", "write a folded-stack virtual-time profile (flamegraph/pprof input)")
		topo         = flag.String("topo", "", "fabric topology: crossbar, fattree, dragonfly, torus3d (shorthand for -set NetTopology=...)")
	)
	flag.Var(&sets, "set", "override a model parameter, e.g. -set DoorbellCost=2us (repeatable; see provider catalog)")
	flag.Var(&sweeps, "sweep", "sweep a parameter over values, e.g. -sweep TLBCapacity=8,32,128 (repeatable; cells form a grid)")
	flag.Parse()

	o, err := xferOpts(xf)
	if err != nil {
		fatal(err)
	}

	// -topo is a -set shorthand, applied after the -set flags.
	overrides := []string(sets)
	if *topo != "" {
		overrides = append(overrides, "NetTopology="+*topo)
	}
	run := runner.Request{
		ScenarioPath: *scenarioPath,
		Set:          overrides,
		FaultPath:    *faultPath,
		Sweeps:       sweeps,
		Quick:        *quick,
		Metrics:      *metricsOn,
		MetricsJSON:  *metricsOut != "",
		Trace:        *traceOut != "",
		Profile:      *profileOut != "",
		SpanSample:   *spanSample,
		Workers:      *parallel,
	}
	// The base model a single benchmark runs on and -params lists, resolved
	// once the plan has merged the scenario spec and before any cell runs.
	var m *provider.Model
	if *benchSel != "suite" {
		b, ok := benchByName(*benchSel)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q (have: %s)", *benchSel, benchHelp()))
		}

		sizes, err := parseSizes(*sizesArg)
		if err != nil {
			fatal(err)
		}

		// Each (benchmark, scenario) cell runs as a synthetic experiment on
		// the runner's pool, so sweep grids parallelize exactly like the
		// suite.
		run.Custom = []*core.Experiment{{
			ID:    b.name,
			Title: b.name,
			Run: func(sc *core.Scenario) (*core.Report, error) {
				cfg := sc.Config(m)
				if *iters > 0 {
					cfg.Iters = *iters
				}
				return b.run(benchArgs{cfg: cfg, o: o, sizes: sizes, req: *req})
			},
		}}
	}
	plan, err := runner.Compile(run)
	if err != nil {
		fatal(err)
	}
	if m, err = baseModel(plan.Scenarios[0], *prov, flagWasSet("provider")); err != nil {
		fatal(err)
	}
	if *params {
		writeParams(os.Stdout, plan.Scenarios[0], m)
		return
	}
	var out *runner.Output
	if *benchSel == "suite" {
		out, err = runSuite(plan, *progress)
	} else {
		out, err = runBench(plan, *csv)
	}

	for _, block := range out.CellMetrics {
		fmt.Println()
		os.Stdout.Write(block)
	}
	save := func(name, path string) {
		if err := plan.Save(out, os.Stdout, name, path); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		save(runner.MetricsJSONArtifact, *metricsOut)
	}
	if *traceOut != "" {
		save(runner.TraceArtifact, *traceOut)
	}
	if *profileOut != "" {
		save(runner.ProfileArtifact, *profileOut)
	}
	if err != nil {
		fatal(err)
	}
}

// runBench runs a single benchmark's plan and prints each scenario cell's
// tables, exiting at the first failed cell.
func runBench(plan *runner.Plan, csv bool) (*runner.Output, error) {
	out, err := plan.Run(nil)
	cells := len(plan.Scenarios)
	for si, row := range out.Grid {
		if cells > 1 {
			fmt.Printf("--- scenario: %s ---\n", plan.Scenarios[si].Label())
		}
		c := &row[0]
		if c.Err != nil {
			if c.Skipped() {
				continue
			}
			fatal(c.Err)
		}
		for _, t := range c.Report.Tables {
			if csv {
				t.RenderCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
		for _, n := range c.Report.Notes {
			fmt.Println(n)
		}
		if cells > 1 {
			fmt.Println()
		}
	}
	return out, err
}

// parseSizes parses the -sizes list (empty: the paper's ladder),
// rejecting a negative size before any cell runs.
func parseSizes(arg string) ([]int, error) {
	if arg == "" {
		return bench.SizeLadder(), nil
	}
	var sizes []int
	for _, s := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", s, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("bad size %d: message sizes are non-negative", n)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// xferFlags holds the flags that shape a transfer benchmark.
type xferFlags struct {
	mode, rel                string
	reuse, vis, segs, window int
	cq, rdma, notify         bool
}

// xferOpts maps the transfer flags to the benchmark options, rejecting
// a mode, reliability level or reuse percentage outside its set.
func xferOpts(f xferFlags) (core.XferOpts, error) {
	o := core.XferOpts{
		RecvViaCQ: f.cq,
		ActiveVIs: f.vis,
		Segments:  f.segs,
		RDMA:      f.rdma,
		Notify:    f.notify,
		Window:    f.window,
	}
	switch f.mode {
	case "poll":
	case "block":
		o.Mode = core.Blocking
	default:
		return o, fmt.Errorf("unknown completion mode %q (have: poll, block)", f.mode)
	}
	switch {
	case f.reuse < -1 || f.reuse > 100:
		return o, fmt.Errorf("-reuse %d out of range -1..100", f.reuse)
	case f.reuse >= 0:
		o.VaryBuffers = true
		o.ReusePct = f.reuse
	}
	switch f.rel {
	case "unreliable":
	case "delivery":
		o.Reliability = via.ReliableDelivery
	case "reception":
		o.Reliability = via.ReliableReception
	default:
		return o, fmt.Errorf("unknown reliability %q", f.rel)
	}
	return o, nil
}

// baseModel picks the provider a single benchmark runs on: the scenario's
// base model is the default, and an explicit -provider flag wins over it.
func baseModel(sc *core.Scenario, prov string, provSet bool) (*provider.Model, error) {
	if base := sc.Spec.Base; base != "" && !provSet {
		prov = base
	}
	return provider.ByNameExtended(prov)
}

// writeParams lists the parameter catalog with each entry's value on the
// scenario's variant of base.
func writeParams(w io.Writer, sc *core.Scenario, base *provider.Model) {
	m := sc.Model(base)
	for _, p := range provider.Params() {
		fmt.Fprintf(w, "%-19s %-12s %-8s %-22s %s\n", p.Name, p.Get(m), p.Kind, p.Unit, p.Doc)
	}
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runSuite executes the plan (every registry experiment, times each
// scenario in the grid) across the runner's worker pool, printing a
// one-line status per cell in registry order. With progress enabled, a
// live per-cell line goes to stderr as cells complete, in dispatch order.
func runSuite(plan *runner.Plan, progress bool) (*runner.Output, error) {
	var onCell func(runner.ProgressEvent)
	if progress {
		onCell = func(ev runner.ProgressEvent) {
			status := "ok"
			switch {
			case ev.Skipped:
				status = "skipped"
			case ev.Err != nil:
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-8s %-7s %s\n", ev.Done, ev.Total, ev.Experiment, status, ev.Scenario)
		}
	}
	out, err := plan.Run(onCell)
	for si, row := range out.Grid {
		if len(plan.Scenarios) > 1 {
			fmt.Printf("=== scenario: %s ===\n", plan.Scenarios[si].Label())
		}
		for i := range row {
			c := &row[i]
			switch {
			case c.Skipped():
				fmt.Printf("%-8s skipped\n", c.ID)
			case c.Err != nil:
				fmt.Printf("%-8s FAILED: %v\n", c.ID, c.Err)
			default:
				fmt.Printf("%-8s ok  %8.1f ms  %s\n", c.ID, float64(c.Wall.Microseconds())/1000, plan.Experiments[i].Title)
			}
		}
	}
	return out, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vibe:", err)
	os.Exit(1)
}
