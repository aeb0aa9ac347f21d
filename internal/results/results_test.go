package results

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/fault"
	"vibe/internal/table"
)

func sampleSet(latency float64) *Set {
	t := table.New("costs", "op", "us")
	t.AddRow("create", 93.0)
	g := bench.NewGroup("latency")
	s := bench.NewSeries("clan", "size", "us")
	s.Add(4, latency)
	s.Add(1024, latency*4)
	g.Add(s)
	e := FromReport("T1", &core.Report{
		Title:  "demo",
		Tables: []*table.Table{t},
		Groups: []*bench.Group{g},
		Notes:  []string{"n"},
	})
	return &Set{Label: "sample", Experiments: []Experiment{e}}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	s := sampleSet(8.9)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != 0 || s.Suite != "" {
		t.Fatalf("Encode mutated the caller's set: %d %q", s.Version, s.Suite)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != FormatVersion || got.Suite != "vibe" || got.Label != "sample" {
		t.Fatalf("header = %+v", got)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].ID != "T1" {
		t.Fatalf("experiments = %+v", got.Experiments)
	}
	e := got.Experiments[0]
	if len(e.Tables) != 1 || e.Tables[0].Rows[0][1] != "93" {
		t.Fatalf("table = %+v", e.Tables)
	}
	if len(e.Groups) != 1 || e.Groups[0].Series[0].Y[0] != 8.9 {
		t.Fatalf("group = %+v", e.Groups)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, `{"version": 99, "suite": "vibe"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCompareIdenticalSetsClean(t *testing.T) {
	a, b := sampleSet(8.9), sampleSet(8.9)
	if diffs := Compare(a, b, 0.05); len(diffs) != 0 {
		t.Fatalf("identical sets diff: %+v", diffs)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	base, cur := sampleSet(8.9), sampleSet(12.0) // +35%
	diffs := Compare(base, cur, 0.05)
	if len(diffs) != 2 { // both series points moved
		t.Fatalf("diffs = %+v", diffs)
	}
	if diffs[0].Experiment != "T1" || !strings.Contains(diffs[0].Where, "latency/clan@4") {
		t.Fatalf("diff[0] = %+v", diffs[0])
	}
	if math.Abs(diffs[0].RelErr-(12.0-8.9)/8.9) > 1e-9 {
		t.Fatalf("relerr = %v", diffs[0].RelErr)
	}
	// Within tolerance: no diffs.
	if d := Compare(base, cur, 0.50); len(d) != 0 {
		t.Fatalf("tolerant compare diffed: %+v", d)
	}
}

func TestCompareMissingPieces(t *testing.T) {
	base, cur := sampleSet(8.9), sampleSet(8.9)
	cur.Experiments[0].ID = "T2"
	diffs := Compare(base, cur, 0.05)
	// T1 missing from cur, T2 missing from base.
	if len(diffs) != 2 || !math.IsInf(diffs[0].RelErr, 1) {
		t.Fatalf("diffs = %+v", diffs)
	}
	// Missing series within an experiment.
	base2, cur2 := sampleSet(8.9), sampleSet(8.9)
	cur2.Experiments[0].Groups[0].Series[0].Name = "renamed"
	d2 := Compare(base2, cur2, 0.05)
	found := false
	for _, d := range d2 {
		if strings.Contains(d.Where, "clan (missing)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing series not reported: %+v", d2)
	}
}

// TestCompareShapeAndText checks the pieces a numeric comparison cannot
// see: a changed text cell, a dropped row or cell, and dropped series
// points are each reported with RelErr = +Inf.
func TestCompareShapeAndText(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(e *Experiment)
		where  string
	}{
		{"text cell", func(e *Experiment) { e.Tables[0].Rows[0][0] = "destroy" }, `table costs[0][0]: "create" -> "destroy"`},
		{"dropped row", func(e *Experiment) { e.Tables[0].Rows = nil }, "table costs: 1 rows -> 0"},
		{"dropped cell", func(e *Experiment) { e.Tables[0].Rows[0] = e.Tables[0].Rows[0][:1] }, "table costs[0]: 2 cells -> 1"},
		{"dropped points", func(e *Experiment) {
			e.Groups[0].Series[0].X = e.Groups[0].Series[0].X[:1]
			e.Groups[0].Series[0].Y = e.Groups[0].Series[0].Y[:1]
		}, "latency/clan@1024 (missing)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, cur := sampleSet(8.9), sampleSet(8.9)
			tc.mutate(&cur.Experiments[0])
			diffs := Compare(base, cur, 0)
			found := false
			for _, d := range diffs {
				if !math.IsInf(d.RelErr, 1) {
					t.Errorf("%s: RelErr = %v, want +Inf", d.Where, d.RelErr)
				}
				found = found || d.Where == tc.where
			}
			if !found {
				t.Fatalf("no diff at %q: %+v", tc.where, diffs)
			}
		})
	}
}

// TestCompareReportsNewOutput checks the new side as well as the base: a
// table, series or group only cur has, and an edited note, each differ.
func TestCompareReportsNewOutput(t *testing.T) {
	base, cur := sampleSet(8.9), sampleSet(8.9)
	e := &cur.Experiments[0]
	e.Tables = append(e.Tables, table.New("extra table", "op"))
	e.Groups[0].Add(bench.NewSeries("bvia", "size", "us"))
	e.Groups = append(e.Groups, bench.NewGroup("extra group"))
	e.Notes[0] = "edited"
	got := map[string]bool{}
	for _, d := range Compare(base, cur, 0) {
		got[d.Where] = true
	}
	for _, where := range []string{
		"table extra table (extra)",
		"series latency/bvia (extra)",
		"group extra group (extra)",
		`note[0]: "n" -> "edited"`,
	} {
		if !got[where] {
			t.Errorf("no diff at %q: %v", where, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d diffs, want 4: %v", len(got), got)
	}
}

// TestLoadRejectsMalformedSets checks that decode refuses what Compare
// could not read safely or pair one to one.
func TestLoadRejectsMalformedSets(t *testing.T) {
	series := func(s string) string {
		return `{"version":1,"experiments":[{"id":"E","groups":[{"title":"g","series":[` + s + `]}]}]}`
	}
	for name, data := range map[string]string{
		"x/y length mismatch": series(`{"name":"s","x":[1,2],"y":[1]}`),
		"null series":         series(`null`),
		"repeated series":     series(`{"name":"s","x":[1],"y":[1]},{"name":"s","x":[2],"y":[2]}`),
		"repeated x":          series(`{"name":"s","x":[0,-0],"y":[1,2]}`),
		"null group":          `{"version":1,"experiments":[{"id":"E","groups":[null]}]}`,
		"repeated group":      `{"version":1,"experiments":[{"id":"E","groups":[{"title":"g"},{"title":"g"}]}]}`,
		"null table":          `{"version":1,"experiments":[{"id":"E","tables":[null]}]}`,
		"repeated table":      `{"version":1,"experiments":[{"id":"E","tables":[{"title":"t","rows":[["1"]]},{"title":"t","rows":[["2"]]}]}]}`,
	} {
		if _, err := decode([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := decode([]byte(series(`{"name":"s","x":[1,2],"y":[1,2]}`))); err != nil {
		t.Errorf("well-formed set rejected: %v", err)
	}
}

func TestRender(t *testing.T) {
	var b strings.Builder
	Render(&b, nil, 0.05)
	if !strings.Contains(b.String(), "no differences") {
		t.Fatalf("clean render = %q", b.String())
	}
	b.Reset()
	Render(&b, []Diff{{Experiment: "F3", Where: "x@4", Base: 10, New: 12, RelErr: 0.2}}, 0.05)
	if !strings.Contains(b.String(), "F3") || !strings.Contains(b.String(), "+20.0%") {
		t.Fatalf("render = %q", b.String())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// FuzzResultsRoundTrip checks that no input makes decoding or encoding a
// result set panic, that an accepted set re-encodes to a fixed point,
// that its provenance survives the round trip as the same design point,
// and that Compare finds no difference between an accepted set and
// itself. The corpus starts from the committed quick baseline, from a set
// whose provenance fills every field, fault plan included, and from a
// series whose x and y columns differ in length.
func FuzzResultsRoundTrip(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("testdata", "baseline-quick.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
	nth := uint64(40)
	full, err := Encode(&Set{
		Label: "full",
		Scenario: &Provenance{ScenarioSpec: core.ScenarioSpec{
			Name: "tuned", Base: "clan", Set: map[string]string{"DoorbellCost": "2us"},
			Run:   core.RunOverrides{Seed: 3, Iters: 10},
			Fault: &fault.Plan{Seed: 7, Faults: []fault.Spec{{Kind: fault.KindDropNth, Nth: &nth}}},
		}, Quick: true},
		Experiments: []Experiment{{ID: "T1", Title: "t", Tables: []*table.Table{{Title: "c", Headers: []string{"op"}, Rows: [][]string{{"1"}}}}}},
		Metrics:     map[string]float64{"nic0.doorbells": 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"version":1,"experiments":[{"id":"E","groups":[{"title":"g","series":[{"name":"s","x":[1,2],"y":[1]}]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded set does not encode: %v", err)
		}
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("encoded set does not decode: %v\n%s", err, enc)
		}
		enc2, err := Encode(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point (%v):\n%s\n%s", err, enc, enc2)
		}
		if !s.Scenario.Equal(again.Scenario) {
			t.Fatalf("provenance changed in the round trip: %+v -> %+v", s.Scenario, again.Scenario)
		}
		if diffs := Compare(s, s, 0); len(diffs) != 0 {
			t.Fatalf("a set differs from itself: %+v", diffs)
		}
	})
}
