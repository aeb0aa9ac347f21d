package results

import (
	"bytes"
	"os"
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

// checkBaseline reruns the registry in the given mode, requires every
// experiment's paper claims to hold, and requires every value to match the
// saved set exactly (tolerance 0). It then requires the regenerated set,
// under the saved set's label and scenario, to encode to the saved file
// byte for byte, which pins the on-disk schema.
func checkBaseline(t *testing.T, path string, quick bool) {
	t.Helper()
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base, err := decode(saved)
	if err != nil {
		t.Fatal(err)
	}
	cur := &Set{Label: base.Label, Scenario: base.Scenario}
	for _, e := range core.Experiments() {
		rep, err := e.Run(core.DefaultScenario(quick))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, c := range e.Claims {
			if err := c.Check(rep); err != nil {
				t.Errorf("%s claim %q: %v", e.ID, c.Text, err)
			}
		}
		cur.Experiments = append(cur.Experiments, FromReport(e.ID, rep))
	}
	diffs := Compare(base, cur, 0)
	for _, d := range diffs {
		t.Errorf("%s %s: %.6g -> %.6g", d.Experiment, d.Where, d.Base, d.New)
	}
	enc, err := Encode(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, saved) {
		t.Errorf("regenerated set encodes to %d bytes that differ from %s (%d bytes)", len(enc), path, len(saved))
	}
	if t.Failed() {
		t.Log("intentional change? regenerate the baseline (see the test's comment)")
	}
}
