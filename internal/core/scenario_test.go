package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vibe/internal/provider"
)

func TestDefaultScenarioMatchesLegacyConfig(t *testing.T) {
	m := provider.CLAN()
	for _, quick := range []bool{false, true} {
		got := DefaultScenario(quick).Config(m)
		want := DefaultConfig(m)
		if quick {
			want.Iters, want.Warmup, want.BWMessages, want.NonDataReps = 20, 5, 40, 3
		}
		// The scenario config derives a clone; compare by value.
		if *got.Model != *want.Model {
			t.Fatalf("quick=%v: derived model differs from the base", quick)
		}
		got.Model, want.Model = nil, nil
		if got != want {
			t.Fatalf("quick=%v: config = %+v, want %+v", quick, got, want)
		}
	}
}

func TestScenarioConfigAppliesOverrides(t *testing.T) {
	sc, err := NewScenario(ScenarioSpec{
		Set: map[string]string{"DoorbellCost": "2us"},
		Run: RunOverrides{Seed: 7, Iters: 33, Warmup: 4, BWMessages: 11, NonDataReps: 2},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	base := provider.CLAN()
	cfg := sc.Config(base)
	if got := cfg.Model.DoorbellCost.Micros(); got != 2 {
		t.Fatalf("DoorbellCost = %vus, want 2", got)
	}
	if base.DoorbellCost == cfg.Model.DoorbellCost {
		t.Fatal("override leaked into the base model")
	}
	if cfg.Seed != 7 || cfg.Iters != 33 || cfg.Warmup != 4 || cfg.BWMessages != 11 || cfg.NonDataReps != 2 {
		t.Fatalf("run overrides not applied: %+v", cfg)
	}
}

func TestNewScenarioValidatesUpFront(t *testing.T) {
	if _, err := NewScenario(ScenarioSpec{Base: "nope"}, false); err == nil {
		t.Fatal("unknown base accepted")
	}
	if _, err := NewScenario(ScenarioSpec{
		Set: map[string]string{"DoorbellCost": "soon"},
	}, false); err == nil {
		t.Fatal("bad override value accepted")
	}
}

func TestExpandSweeps(t *testing.T) {
	specs, err := ExpandSweeps(ScenarioSpec{}, []string{"TLBCapacity=8,32", "WireMTU=1500,4096,9000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("grid has %d cells, want 6", len(specs))
	}
	// First directive varies slowest; the last axis is the fast one.
	wantNames := []string{
		"TLBCapacity=8,WireMTU=1500", "TLBCapacity=8,WireMTU=4096", "TLBCapacity=8,WireMTU=9000",
		"TLBCapacity=32,WireMTU=1500", "TLBCapacity=32,WireMTU=4096", "TLBCapacity=32,WireMTU=9000",
	}
	for i, spec := range specs {
		if spec.Name != wantNames[i] {
			t.Fatalf("cell %d = %q, want %q", i, spec.Name, wantNames[i])
		}
	}
	// Cells inherit and extend the base's overrides without sharing maps.
	base := ScenarioSpec{Name: "tuned", Set: map[string]string{"DoorbellCost": "2us"}}
	specs, err = ExpandSweeps(base, []string{"TLBCapacity=8,32"})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Name != "tuned:TLBCapacity=8" {
		t.Fatalf("cell name = %q", specs[0].Name)
	}
	specs[0].Set["DoorbellCost"] = "overwritten"
	if specs[1].Set["DoorbellCost"] != "2us" || base.Set["DoorbellCost"] != "2us" {
		t.Fatal("sweep cells share the override map")
	}

	for _, bad := range []struct {
		sweeps []string
		want   string // error substring naming the cause
	}{
		{[]string{"TLBCapacity"}, "bad -sweep"},
		{[]string{"TLBCapacity="}, "bad -sweep"},
		{[]string{"NoSuchKnob=1,2"}, "NoSuchKnob"},
		{[]string{"TLBCapacity=8,,32"}, "empty value"},
		{[]string{"TLBCapacity=8,large"}, "large"},
		{[]string{"TLBCapacity=8,32", "tlbcapacity=64"}, "repeats parameter TLBCapacity"},
		{[]string{"TLBCapacity=" + sweepList(64), "WireMTU=" + sweepList(65)}, "exceeds 4096 cells"},
	} {
		if _, err := ExpandSweeps(ScenarioSpec{}, bad.sweeps); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("ExpandSweeps(%v) = %v, want error containing %q", bad.sweeps, err, bad.want)
		}
	}
}

// sweepList renders n distinct valid values for a sweep axis.
func sweepList(n int) string {
	vs := make([]string, n)
	for i := range vs {
		vs[i] = strconv.Itoa(1000 + i)
	}
	return strings.Join(vs, ",")
}

// TestScenarioFileRoundTripRunsIdentically is the round-trip property the
// scenario subsystem promises: serializing a scenario to JSON, loading it
// back, and running an experiment must produce results identical to the
// in-memory scenario.
func TestScenarioFileRoundTripRunsIdentically(t *testing.T) {
	spec := ScenarioSpec{
		Name: "roundtrip",
		Base: "clan",
		Set:  map[string]string{"DoorbellCost": "2us", "TLBCapacity": "16"},
		Run:  RunOverrides{Seed: 3, Iters: 10, Warmup: 2, BWMessages: 8, NonDataReps: 2},
	}
	inMem, err := NewScenario(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenario(writeFile(t, string(data)), true)
	if err != nil {
		t.Fatal(err)
	}

	e := ExperimentMust(t, "F1")
	rep1, err := e.Run(inMem)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e.Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("loaded scenario produced different results than the in-memory one")
	}

	// And the loaded spec itself must be the one we saved.
	if !reflect.DeepEqual(loaded.Spec, inMem.Spec) {
		t.Fatalf("spec round trip: %+v -> %+v", inMem.Spec, loaded.Spec)
	}
}

// writeFile writes content as a -scenario file and returns its path.
func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioLabel(t *testing.T) {
	for _, c := range []struct {
		spec ScenarioSpec
		want string
	}{
		{ScenarioSpec{Name: "tuned", Set: map[string]string{"WireMTU": "9000"}}, "tuned"},
		{ScenarioSpec{}, "base"},
		// Sorted and deterministic.
		{ScenarioSpec{Set: map[string]string{"WireMTU": "9000", "DoorbellCost": "2us"}}, "DoorbellCost=2us,WireMTU=9000"},
	} {
		sc, err := NewScenario(c.spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestLoadScenarioRejectsBadInput checks that a scenario file fails to load
// on a bad override and on any key the schema does not have, in the spec
// or in its fault plan, instead of running with that part ignored.
func TestLoadScenarioRejectsBadInput(t *testing.T) {
	for name, content := range map[string]string{
		"unknown parameter":  `{"set": {"NoSuchKnob": "1"}}`,
		"misspelled set":     `{"base": "clan", "sett": {"DoorbellCost": "2us"}}`,
		"misspelled run key": `{"run": {"itres": 5}}`,
		"misspelled faults":  `{"fault": {"fualts": [{"kind": "drop-nth", "nth": 40}]}}`,
		"trailing data":      `{"base": "clan"} {"base": "mvia"}`,
		"removed route knob": `{"set": {"NetRoutePolicy": "adaptive"}}`,
		"removed RTO knob":   `{"set": {"AdaptiveRTO": "true"}}`,
	} {
		if _, err := LoadScenario(writeFile(t, content), true); err == nil {
			t.Errorf("%s: %s loaded", name, content)
		}
	}
	sc, err := LoadScenario(writeFile(t, `{"name": "ok", "base": "clan", "set": {"DoorbellCost": "2us"}}`), true)
	if err != nil || sc.Label() != "ok" {
		t.Fatalf("valid scenario: %v", err)
	}
}
