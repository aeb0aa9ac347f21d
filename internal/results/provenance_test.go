package results

import (
	"math"
	"strings"
	"testing"

	"vibe/internal/core"
	"vibe/internal/fault"
	"vibe/internal/table"
)

func scenario(t *testing.T, spec core.ScenarioSpec, quick bool) *core.Scenario {
	t.Helper()
	sc, err := core.NewScenario(spec, quick)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func prov(base string, set map[string]string, quick bool) *Provenance {
	return &Provenance{ScenarioSpec: core.ScenarioSpec{Base: base, Set: set}, Quick: quick}
}

func dropPlan() *fault.Plan {
	nth := uint64(40)
	return &fault.Plan{Seed: 7, Faults: []fault.Spec{{Kind: fault.KindDropNth, Nth: &nth}}}
}

func TestProvenanceOf(t *testing.T) {
	if p := ProvenanceOf(nil); p != nil {
		t.Fatalf("ProvenanceOf(nil) = %+v", p)
	}
	// The plain suite (quick or full) carries no provenance, keeping its
	// serialized form identical to pre-provenance result sets.
	for _, quick := range []bool{false, true} {
		if p := ProvenanceOf(core.DefaultScenario(quick)); p != nil {
			t.Fatalf("default scenario (quick=%v) got provenance %+v", quick, p)
		}
	}
	sc := scenario(t, core.ScenarioSpec{Base: "clan", Set: map[string]string{"DoorbellCost": "2us"}}, true)
	p := ProvenanceOf(sc)
	if p == nil || p.Base != "clan" || p.Set["DoorbellCost"] != "2us" || !p.Quick {
		t.Fatalf("ProvenanceOf = %+v", p)
	}
	// The record owns its override map.
	p.Set["DoorbellCost"] = "mutated"
	if sc.Spec.Set["DoorbellCost"] != "2us" {
		t.Fatal("provenance shares the scenario's override map")
	}

	// A fault plan alone makes a design point; a plan with no faults
	// injects nothing and records as none.
	p = ProvenanceOf(scenario(t, core.ScenarioSpec{Fault: dropPlan()}, true))
	if p == nil || p.Fault.Empty() {
		t.Fatalf("fault-only scenario: provenance %+v", p)
	}
	if p := ProvenanceOf(scenario(t, core.ScenarioSpec{Fault: &fault.Plan{Seed: 3}}, true)); p != nil {
		t.Fatalf("empty fault plan recorded: %+v", p)
	}
	sc = scenario(t, core.ScenarioSpec{Base: "clan", Fault: &fault.Plan{Seed: 3}}, false)
	if p := ProvenanceOf(sc); p == nil || p.Fault != nil {
		t.Fatalf("empty fault plan not normalised to nil: %+v", p)
	}
}

func TestProvenanceEqual(t *testing.T) {
	a := prov("clan", map[string]string{"WireMTU": "9000"}, true)
	b := prov("clan", map[string]string{"WireMTU": "9000"}, true)
	if !a.Equal(b) {
		t.Fatal("identical provenance unequal")
	}
	// Names are labels, not parameters.
	b.Name = "other-label"
	if !a.Equal(b) {
		t.Fatal("name difference broke equality")
	}
	withRun := prov("clan", map[string]string{"WireMTU": "9000"}, true)
	withRun.Run = core.RunOverrides{Iters: 5}
	withFault := prov("clan", map[string]string{"WireMTU": "9000"}, true)
	withFault.Fault = dropPlan()
	for _, q := range []*Provenance{
		prov("mvia", map[string]string{"WireMTU": "9000"}, true),
		prov("clan", map[string]string{"WireMTU": "1500"}, true),
		prov("clan", map[string]string{"WireMTU": "9000"}, false),
		prov("clan", map[string]string{"WireMTU": "9000", "TLBCapacity": "8"}, true),
		withRun,
		withFault,
		nil,
	} {
		if a.Equal(q) {
			t.Fatalf("%+v compared equal to %+v", a, q)
		}
	}
	var n1, n2 *Provenance
	if !n1.Equal(n2) {
		t.Fatal("nil provenance must equal nil (legacy sets)")
	}
}

func TestCompareChecked(t *testing.T) {
	mk := func(p *Provenance) *Set {
		return &Set{Scenario: p, Experiments: []Experiment{{ID: "T1"}}}
	}
	tuned := prov("clan", map[string]string{"DoorbellCost": "2us"}, false)

	// Legacy vs legacy: compatible.
	if _, err := CompareChecked(mk(nil), mk(nil), 0.02, false); err != nil {
		t.Fatalf("legacy sets refused: %v", err)
	}
	// Same scenario: compatible.
	if _, err := CompareChecked(mk(tuned), mk(tuned), 0.02, false); err != nil {
		t.Fatalf("matching provenance refused: %v", err)
	}
	// Scenario'd vs default: refused, with both design points named.
	_, err := CompareChecked(mk(tuned), mk(nil), 0.02, false)
	if err == nil {
		t.Fatal("provenance mismatch accepted")
	}
	if !strings.Contains(err.Error(), "DoorbellCost=2us") || !strings.Contains(err.Error(), "default") {
		t.Fatalf("mismatch error does not describe both sides: %v", err)
	}
	// force overrides the refusal.
	if _, err := CompareChecked(mk(tuned), mk(nil), 0.02, true); err != nil {
		t.Fatalf("-force still refused: %v", err)
	}
	// A set run under a fault plan never diffs silently against a
	// fault-free one.
	faulted := prov("", nil, true)
	faulted.Fault = dropPlan()
	if _, err = CompareChecked(mk(prov("", nil, true)), mk(faulted), 0.02, false); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("fault-plan mismatch: err = %v", err)
	}
	if _, err := CompareChecked(mk(nil), mk(faulted), 0.02, true); err != nil {
		t.Fatalf("-force still refused: %v", err)
	}
}

// TestRelErrGuards covers the divide-by-zero and NaN edges of the
// comparator: a zero or NaN baseline must not poison the diff.
func TestRelErrGuards(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{1, 1, 0},
		{nan, nan, 0},         // both undefined: not a difference
		{0, 1, math.Inf(1)},   // zero base, nonzero new
		{nan, 1, math.Inf(1)}, // baseline went undefined
		{1, nan, math.Inf(1)}, // new value went undefined
		{2, 1, 0.5},
		{-2, -1, 0.5},
	}
	for _, c := range cases {
		got := relErr(c.a, c.b)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("relErr(%v, %v) = %v, want +Inf", c.a, c.b, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("relErr(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareZeroAndNaNBaseline exercises the guards end to end: a table
// whose baseline cell is zero (or NaN) must produce a finite, renderable
// diff instead of NaN percentages.
func TestCompareZeroAndNaNBaseline(t *testing.T) {
	tbl := func(cells ...string) []*table.Table {
		rows := make([][]string, len(cells))
		for i, c := range cells {
			rows[i] = []string{c}
		}
		return []*table.Table{{Title: "t", Headers: []string{"v"}, Rows: rows}}
	}
	base := &Set{Experiments: []Experiment{{ID: "E", Tables: tbl("0", "NaN", "5")}}}
	cur := &Set{Experiments: []Experiment{{ID: "E", Tables: tbl("1", "2", "5")}}}
	diffs := Compare(base, cur, 0.02)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2 (zero-base and NaN-base): %+v", len(diffs), diffs)
	}
	for _, d := range diffs {
		if !math.IsInf(d.RelErr, 1) {
			t.Errorf("%s: RelErr = %v, want +Inf", d.Where, d.RelErr)
		}
	}
	var out strings.Builder
	Render(&out, diffs, 0.02)
	if s := out.String(); strings.Contains(s, "NaN%") || strings.Contains(s, "+Inf%") {
		t.Fatalf("Render produced undefined percentages:\n%s", s)
	}
	if !strings.Contains(out.String(), "n/a") {
		t.Fatalf("Render did not mark undefined percent changes:\n%s", out.String())
	}
}
