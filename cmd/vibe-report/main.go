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
	"strings"

	"vibe/internal/core"
	"vibe/internal/results"
	"vibe/internal/runner"
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
				g.Table().Render(os.Stdout)
				fmt.Println()
				if *chart {
					g.RenderChart(os.Stdout, 72, 16)
					fmt.Println()
				}
			}
			for _, n := range rep.Notes {
				fmt.Printf("note: %s\n", n)
			}
			for _, c := range e.Claims {
				fmt.Printf("claim: %s -> %s\n", c.Text, c.Verdict(rep))
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vibe-report:", err)
	os.Exit(1)
}
