// Command vibe-report regenerates the paper's tables and figures (and the
// suite's extensions and ablations) from the simulated VIA providers.
//
// Usage:
//
//	vibe-report                 # run every experiment
//	vibe-report -exp F3         # run one experiment (T1, F1..F7, TCQ, X*, A*)
//	vibe-report -list           # list experiment ids
//	vibe-report -quick          # smaller sweeps (smoke test)
//	vibe-report -csv            # emit CSV instead of charts
//	vibe-report -chart          # draw ASCII charts for series groups
//	vibe-report -json out.json  # also save machine-readable results
//	vibe-report -set DoorbellCost=2us          # override model parameters
//	vibe-report -scenario tuned.json           # load a scenario file
//	vibe-report -exp XLOSS -fault plan.json    # inject a fault plan everywhere
//	vibe-report -sweep TLBCapacity=8,32,128    # run the grid of scenarios
//	vibe-report -compare base.json -tol 0.05   # diff against a saved set
//	vibe-report -parallel 4     # run cells on 4 workers (default: NumCPU)
//	vibe-report -bench BENCH_suite.json   # time sequential vs parallel passes
//
// Experiments are independent simulations, so they run concurrently across
// a worker pool; output and saved results are assembled in registry order
// and are byte-identical to a sequential (-parallel 1) run. Sweep cells
// fan out across the same pool. Saved result sets record their scenario
// (base model, overrides, run config) as provenance, and -compare refuses
// to diff sets from different scenarios unless -force is given.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/results"
	"vibe/internal/runner"
	"vibe/internal/table"
)

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, " ") }
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var sets, sweeps repeatedFlag
	var (
		exp          = flag.String("exp", "", "experiment id to run (default: all)")
		list         = flag.Bool("list", false, "list experiments and exit")
		quick        = flag.Bool("quick", false, "smaller sweeps")
		csv          = flag.Bool("csv", false, "emit series groups as CSV")
		chart        = flag.Bool("chart", false, "draw ASCII charts for series groups")
		jsonOut      = flag.String("json", "", "save results to this JSON file (the paper's results-repository format)")
		compare      = flag.String("compare", "", "diff results against this saved JSON baseline")
		force        = flag.Bool("force", false, "compare even when scenario provenance differs")
		label        = flag.String("label", "", "label recorded in the JSON result set")
		tol          = flag.Float64("tol", 0.02, "relative tolerance for -compare")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "number of experiment cells run concurrently")
		scenarioPath = flag.String("scenario", "", "JSON scenario file: {\"base\":..., \"set\":{...}, \"run\":{...}}")
		faultPath    = flag.String("fault", "", "JSON fault plan file installed into every simulated system (wins over the scenario file's plan)")
		benchOut     = flag.String("bench", "", "time sequential vs parallel and write the report to this JSON file (use with -quick for a fast pass)")
		baseMs       = flag.Float64("bench-baseline-ms", 0, "earlier revision's sequential wall time in ms; with -bench, speedup is computed against it")
		baseLabel    = flag.String("bench-baseline-label", "", "label describing the -bench-baseline-ms revision")
		benchGate    = flag.String("bench-gate", "", "with -bench: fail if the dispatch speedup regresses >20% vs this committed bench report")
		metricsOn    = flag.Bool("metrics", false, "print per-component simulation counters and embed them in -json output")
		metricsOut   = flag.String("metrics-out", "", "write the final merged metrics snapshot as key-sorted JSON (implies metric collection)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto); forces -parallel 1")
		spanSample   = flag.Int("span-sample", 1, "with -metrics/-trace-out, record every Nth message's lifecycle span (1 = every message, 0 = disable)")
		profileOut   = flag.String("profile-out", "", "write a folded-stack virtual-time profile (flamegraph input) across all experiments")
		profileTop   = flag.Int("profile-top", 8, "with -profile-out, print each experiment's top N components")
	)
	flag.Var(&sets, "set", "override a model parameter, e.g. -set DoorbellCost=2us (repeatable)")
	flag.Var(&sweeps, "sweep", "sweep a parameter over values, e.g. -sweep TLBCapacity=8,32,128 (repeatable; cells form a grid)")
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	req := runner.Request{
		ScenarioPath: *scenarioPath,
		Set:          sets,
		FaultPath:    *faultPath,
		Sweeps:       sweeps,
		Quick:        *quick,
		Label:        *label,
		Metrics:      *metricsOn,
		MetricsJSON:  *metricsOut != "",
		Trace:        *traceOut != "",
		Profile:      *profileOut != "",
		SpanSample:   *spanSample,
		Workers:      *parallel,
	}
	if *exp != "" {
		req.Experiments = []string{*exp}
	}
	plan, err := runner.Compile(req)
	if err != nil {
		fatal(err)
	}

	if *benchOut != "" {
		if len(plan.Scenarios) > 1 {
			fatal(fmt.Errorf("-bench times one scenario; drop -sweep"))
		}
		b, err := runner.BenchSuite(plan.Experiments, runner.Options{Quick: *quick, Workers: plan.Workers, Scenario: plan.Scenarios[0]}, *label)
		if err != nil {
			fatal(err)
		}
		if *baseMs > 0 {
			b.SetBaseline(*baseLabel, *baseMs)
		}
		d, err := runner.BenchDispatch()
		if err != nil {
			fatal(err)
		}
		b.Dispatch = d
		dr, err := runner.BenchDispatchRouted()
		if err != nil {
			fatal(err)
		}
		b.DispatchRouted = dr
		if err := b.Save(*benchOut); err != nil {
			fatal(err)
		}
		fmt.Printf("%d experiments: sequential %.1f ms, parallel %.1f ms (%d workers)\n",
			len(b.Experiments), b.SequentialMs, b.ParallelMs, b.Workers)
		if b.BaselineSequentialMs > 0 {
			fmt.Printf("speedup vs baseline %q (%.1f ms): %.2fx\n", b.BaselineLabel, b.BaselineSequentialMs, b.Speedup)
		} else {
			fmt.Printf("parallel speedup: %.2fx\n", b.Speedup)
		}
		fmt.Printf("dispatch (%s): goroutine %.0f ev/s, actor %.0f ev/s, speedup %.2fx\n",
			d.Scenario, d.GoroutineEvPerSec, d.ActorEvPerSec, d.Speedup)
		fmt.Printf("dispatch (%s): goroutine %.0f ev/s, actor %.0f ev/s, speedup %.2fx\n",
			dr.Scenario, dr.GoroutineEvPerSec, dr.ActorEvPerSec, dr.Speedup)
		fmt.Printf("bench report saved to %s\n", *benchOut)
		if *benchGate != "" {
			base, err := runner.LoadSuiteBench(*benchGate)
			if err != nil {
				fatal(err)
			}
			if err := b.GateDispatch(base, 0.20); err != nil {
				fatal(err)
			}
			fmt.Printf("dispatch gate passed: %.2fx vs committed %.2fx\n", d.Speedup, base.Dispatch.Speedup)
		}
		return
	}

	out, err := plan.Run(nil)
	if err != nil {
		fatal(err)
	}
	save := func(name, path string) {
		if err := plan.Save(out, os.Stdout, name, path); err != nil {
			fatal(err)
		}
	}

	exitCode := 0
	cells := len(plan.Scenarios)
	for si, row := range out.Grid {
		if cells > 1 {
			fmt.Printf("########## scenario: %s ##########\n\n", plan.Scenarios[si].Label())
		}
		for i, e := range plan.Experiments {
			fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
			fmt.Printf("paper: %s\n\n", e.PaperClaim)
			rep := row[i].Report
			for _, t := range rep.Tables {
				t.Render(os.Stdout)
				fmt.Println()
			}
			for _, g := range rep.Groups {
				if *csv {
					fmt.Printf("# %s\n", g.Title)
					g.RenderCSV(os.Stdout)
					fmt.Println()
					continue
				}
				t := groupTable(g)
				t.Render(os.Stdout)
				fmt.Println()
				if *chart {
					c := table.NewChart(g.Title, g.Series[0].XLabel, g.Series[0].YLabel)
					for _, s := range g.Series {
						xs, ys := s.XY()
						c.Add(s.Name, xs, ys)
					}
					c.Render(os.Stdout, 72, 16)
					fmt.Println()
				}
			}
			for _, n := range rep.Notes {
				fmt.Printf("note: %s\n", n)
			}
			fmt.Println()
		}

		if out.CellMetrics != nil {
			os.Stdout.Write(out.CellMetrics[si])
			fmt.Println()
		}
		if *jsonOut != "" {
			save(runner.CellName(runner.ResultsArtifact, si, cells), runner.CellName(*jsonOut, si, cells))
		}
		if *compare != "" {
			base, err := results.Load(*compare)
			if err != nil {
				fatal(err)
			}
			diffs, err := results.CompareChecked(base, out.Sets[si], *tol, *force)
			if err != nil {
				fatal(err)
			}
			results.Render(os.Stdout, diffs, *tol)
			if len(diffs) > 0 {
				exitCode = 2
			}
		}
	}
	if *metricsOut != "" {
		save(runner.MetricsJSONArtifact, *metricsOut)
	}
	if *traceOut != "" {
		save(runner.TraceArtifact, *traceOut)
	}
	if *profileOut != "" {
		for _, e := range plan.Experiments {
			plan.Profile.RenderTop(os.Stdout, e.ID, *profileTop)
		}
		save(runner.ProfileArtifact, *profileOut)
	}
	os.Exit(exitCode)
}

// groupTable renders a series group as a wide table: the x column plus one
// column per series, rows being the union of x values.
func groupTable(g *bench.Group) *table.Table {
	headers := []string{g.Series[0].XLabel}
	for _, s := range g.Series {
		headers = append(headers, s.Name)
	}
	t := table.New(g.Title+" ("+g.Series[0].YLabel+")", headers...)
	xset := map[float64]bool{}
	for _, s := range g.Series {
		for _, p := range s.Points {
			xset[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, x := range xs {
		row := []interface{}{x}
		for _, s := range g.Series {
			if y, ok := s.At(x); ok {
				row = append(row, y)
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vibe-report:", err)
	os.Exit(1)
}
