package results

import (
	"testing"

	"vibe/internal/core"
)

// TestQuickBaselineUnchanged is the repository's end-to-end regression
// guard: it regenerates every experiment in quick mode and compares the
// outputs against the committed baseline. The simulation is deterministic,
// so any difference is a real behaviour change.
//
// When a change is intentional (recalibration, new mechanism), regenerate
// the baseline with:
//
//	go run ./cmd/vibe-report -quick -label baseline-quick \
//	    -json internal/results/testdata/baseline-quick.json
func TestQuickBaselineUnchanged(t *testing.T) {
	checkBaseline(t, "testdata/baseline-quick.json", true)
}

// TestFullBaselineUnchanged pins the full-mode registry, the mode the
// EXPERIMENTS.md numbers come from. Regenerate it with:
//
//	go run ./cmd/vibe-report -label baseline-full \
//	    -json internal/results/testdata/baseline-full.json
func TestFullBaselineUnchanged(t *testing.T) {
	checkBaseline(t, "testdata/baseline-full.json", false)
}

// checkBaseline reruns the registry in the given mode and requires every
// value to match the saved set exactly (tolerance 0).
func checkBaseline(t *testing.T, path string, quick bool) {
	t.Helper()
	base, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := &Set{Label: "regenerated"}
	for _, e := range core.Experiments() {
		rep, err := e.Run(core.DefaultScenario(quick))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		cur.Experiments = append(cur.Experiments, FromReport(e.ID, rep))
	}
	diffs := Compare(base, cur, 0)
	for _, d := range diffs {
		t.Errorf("%s %s: %.6g -> %.6g", d.Experiment, d.Where, d.Base, d.New)
	}
	if len(diffs) > 0 {
		t.Log("intentional change? regenerate the baseline (see the test's comment)")
	}
}
