// Benchmark harness: one sub-benchmark per registry experiment, so
// `go test -bench Experiment/F3` times how fast the simulator regenerates
// Figure 3 at the quick default design point. The simulated results
// themselves, and the verdicts on the paper's claims, come from
// vibe-report; EXPERIMENTS.md records the paper-vs-measured comparison.
package vibe_test

import (
	"testing"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/logp"
	"vibe/internal/provider"
)

// BenchmarkExperiment runs every registry experiment (tables, figures,
// §3.2.5 extensions, programming-model layers and ablations) under the
// quick default scenario, one sub-benchmark per experiment ID.
func BenchmarkExperiment(b *testing.B) {
	sc := core.DefaultScenario(true)
	for _, e := range core.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogPBaseline extracts the LogP comparator the paper argues is
// insufficient.
func BenchmarkLogPBaseline(b *testing.B) {
	params := map[string]logp.Params{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			p, err := logp.Extract(core.DefaultConfig(m))
			if err != nil {
				b.Fatal(err)
			}
			params[m.Name] = p
		}
	}
	for name, p := range params {
		b.ReportMetric(p.L, name+"_L_us")
		b.ReportMetric(p.Os, name+"_os_us")
		b.ReportMetric(p.G, name+"_g_us")
	}
}

// BenchmarkSimulatorThroughput measures the raw discrete-event engine:
// simulated ping-pongs per wall-clock second (a sanity metric for the
// substrate itself, not a paper artifact).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := core.DefaultScenario(true).Config(provider.CLAN())
	sizes := bench.SmallLadder()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.LatencySweep(cfg, sizes, core.XferOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
