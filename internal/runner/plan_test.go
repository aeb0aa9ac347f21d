package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vibe/internal/core"
	"vibe/internal/provider"
	"vibe/internal/results"
)

// TestCompileSpanRule pins when a plan turns message spans on: only with
// a metrics or trace sink, since spans feed nothing else. A profile-only
// plan attaches no instrumentation to its scenarios (the profile reaches
// the runs through the wrapped experiments), and a trace pins the pool to
// one worker.
func TestCompileSpanRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		req     Request
		spans   bool
		metrics bool
		workers int
	}{
		{"none", Request{}, false, false, 4},
		{"profile", Request{Profile: true}, false, false, 4},
		{"metrics", Request{Metrics: true}, true, true, 4},
		{"metrics-json", Request{MetricsJSON: true}, true, true, 4},
		{"trace", Request{Trace: true}, true, false, 1},
		{"trace+profile", Request{Trace: true, Profile: true}, true, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.Quick = true
			req.Experiments = []string{"T1"}
			req.Sweeps = []string{"TLBCapacity=8,32"}
			req.SpanSample = 3
			req.Workers = 4
			p, err := Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			if p.Workers != tc.workers {
				t.Errorf("workers = %d, want %d", p.Workers, tc.workers)
			}
			if (p.Profile != nil) != req.Profile || (p.Trace != nil) != req.Trace {
				t.Errorf("sinks: profile %v trace %v", p.Profile != nil, p.Trace != nil)
			}
			for i, sc := range p.Scenarios {
				if got := sc.Instr != nil; got != tc.spans {
					t.Fatalf("cell %d: instrumented = %v, want %v", i, got, tc.spans)
				}
				if !tc.spans {
					continue
				}
				if sc.Instr.SpanSample != 3 {
					t.Errorf("cell %d: SpanSample = %d, want 3", i, sc.Instr.SpanSample)
				}
				if got := sc.Instr.Metrics != nil; got != tc.metrics || sc.Instr.Metrics != p.Collectors[i] {
					t.Errorf("cell %d: collector wiring wrong (metrics %v)", i, got)
				}
				if sc.Instr.Trace != p.Trace {
					t.Errorf("cell %d: trace recorder not shared", i)
				}
			}
		})
	}
}

// TestProfileOnlyMatchesInstrumented checks the profile a profile-only
// plan writes is byte-identical to the one a fully instrumented plan
// writes: spans never feed the profile, so dropping them changes nothing.
func TestProfileOnlyMatchesInstrumented(t *testing.T) {
	folded := func(req Request) []byte {
		t.Helper()
		req.Quick = true
		req.Experiments = []string{"F1", "XFAILOVER"}
		req.Profile = true
		req.SpanSample = 1
		req.Workers = 2
		p, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Artifact(ProfileArtifact)
	}
	bare := folded(Request{})
	if len(bare) == 0 {
		t.Fatal("profile-only plan wrote no profile")
	}
	if full := folded(Request{Metrics: true, Trace: true}); !bytes.Equal(bare, full) {
		t.Error("profile differs with spans on")
	}
}

// TestMergeSpecPrecedence checks the spec merge: -set entries and -sweep
// cells win over the scenario's, whatever case the scenario spells a
// name in; later entries win over earlier ones; a scenario may not name
// one parameter twice; and the caller's override map is left untouched.
func TestMergeSpecPrecedence(t *testing.T) {
	var base core.ScenarioSpec
	base.Base = "clan"
	base.Set = map[string]string{"DoorbellCost": "2us", "TLBCapacity": "8"}
	spec, err := mergeSpec(Request{Scenario: base, Set: []string{"TLBCapacity=16", "TLBCapacity=32"}})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Base != "clan" || spec.Set["DoorbellCost"] != "2us" || spec.Set["TLBCapacity"] != "32" {
		t.Errorf("merged spec = %+v", spec)
	}
	if base.Set["TLBCapacity"] != "8" || len(base.Set) != 2 {
		t.Errorf("caller's map was modified: %v", base.Set)
	}
	if _, err := mergeSpec(Request{Set: []string{"NotAParam=1"}}); err == nil {
		t.Error("unknown -set parameter accepted")
	}

	// A scenario key spelled in another case names the same parameter, so
	// -set and every -sweep cell still win over it.
	lower := core.ScenarioSpec{Set: map[string]string{"tlbcapacity": "8"}}
	p, err := Compile(Request{Scenario: lower, Set: []string{"TLBCapacity=64"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Scenarios[0].Model(provider.BVIA()).TLBCapacity; got != 64 {
		t.Errorf("-set TLBCapacity=64 over scenario tlbcapacity=8: capacity %d", got)
	}
	p, err = Compile(Request{Scenario: lower, Sweeps: []string{"TLBCapacity=16,1024"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{16, 1024} {
		if got := p.Scenarios[i].Model(provider.BVIA()).TLBCapacity; got != want {
			t.Errorf("sweep cell %d over scenario tlbcapacity=8: capacity %d, want %d", i, got, want)
		}
	}
	if lower.Set["tlbcapacity"] != "8" || len(lower.Set) != 1 {
		t.Errorf("caller's map was modified: %v", lower.Set)
	}
	twice := core.ScenarioSpec{Set: map[string]string{"tlbcapacity": "8", "TLBCapacity": "16"}}
	if _, err := mergeSpec(Request{Scenario: twice}); err == nil {
		t.Error("scenario naming TLBCapacity twice accepted")
	}
}

// TestFaultPlanReachesProvenance checks that a -fault plan is recorded in
// the result set's provenance, so a faulted set is never taken for a
// fault-free one, and that the comparator refuses to diff the two unless
// forced.
func TestFaultPlanReachesProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed": 7, "faults": [{"kind": "doorbell-stall", "delay": "5us"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(faultPath string) *results.Set {
		p, err := Compile(Request{Quick: true, Experiments: []string{"T1"}, FaultPath: faultPath})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Sets[0]
	}
	faulted, clean := run(path), run("")
	if clean.Scenario != nil {
		t.Fatalf("fault-free quick set has provenance %+v", clean.Scenario)
	}
	if faulted.Scenario == nil || faulted.Scenario.Fault.Empty() {
		t.Fatalf("faulted set's provenance = %+v, want the fault plan", faulted.Scenario)
	}
	data, err := results.Encode(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"scenario": {
    "fault": {
      "seed": 7,`)) {
		t.Errorf("encoded set does not carry scenario.fault:\n%.300s", data)
	}
	if _, err := results.CompareChecked(clean, faulted, 0, false); err == nil {
		t.Error("faulted set compared against a fault-free one without -force")
	}
	if _, err := results.CompareChecked(clean, faulted, 0, true); err != nil {
		t.Errorf("-force still refused: %v", err)
	}
}

// TestCellName pins artifact naming for single cells and sweep grids.
func TestCellName(t *testing.T) {
	for _, tc := range []struct {
		name string
		i, n int
		want string
	}{
		{"results.json", 0, 1, "results.json"},
		{"results.json", 1, 3, "results.cell1.json"},
		{"out/a.json", 0, 2, "out/a.cell0.json"},
		{"noext", 2, 3, "noext.cell2"},
	} {
		if got := CellName(tc.name, tc.i, tc.n); got != tc.want {
			t.Errorf("CellName(%q, %d, %d) = %q, want %q", tc.name, tc.i, tc.n, got, tc.want)
		}
	}
}

// TestRunArtifacts checks a sweep plan's artifact set and order, that the
// per-cell metrics blocks concatenate to metrics.txt, and that a failing
// cell yields no result sets.
func TestRunArtifacts(t *testing.T) {
	p, err := Compile(Request{
		Quick: true, Experiments: []string{"T1"}, Sweeps: []string{"TLBCapacity=8,32"},
		Metrics: true, MetricsJSON: true, Trace: true, Profile: true, SpanSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range out.Artifacts {
		names = append(names, a.Name)
	}
	want := []string{"results.cell0.json", "results.cell1.json", "metrics.txt", "metrics.json", "trace.json", "profile.folded"}
	if len(names) != len(want) {
		t.Fatalf("artifacts = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("artifacts = %v, want %v", names, want)
		}
	}
	if len(out.Sets) != 2 || len(out.Sets[0].Metrics) == 0 {
		t.Fatalf("sets = %d, metrics embedded %v", len(out.Sets), len(out.Sets) > 0 && len(out.Sets[0].Metrics) > 0)
	}
	if !bytes.Equal(bytes.Join(out.CellMetrics, nil), out.Artifact(MetricsTextArtifact)) {
		t.Error("cell metrics blocks do not concatenate to metrics.txt")
	}

	boom := &core.Experiment{ID: "BOOM", Run: func(*core.Scenario) (*core.Report, error) { panic("boom") }}
	p, err = Compile(Request{Custom: []*core.Experiment{boom}, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err = p.Run(nil)
	if err == nil || out.Sets != nil {
		t.Fatalf("failing plan: err %v, sets %v", err, out.Sets)
	}
	if len(out.Artifacts) != 1 || out.Artifacts[0].Name != ProfileArtifact {
		t.Errorf("failing plan artifacts = %v, want the profile only", out.Artifacts)
	}
}

// TestQuickMetricsUnchanged pins the quick registry's merged metrics and
// virtual-time profile byte for byte: events dispatched, busy time, DMA
// bytes, TLB hits and misses, span histograms and every profile stack. The
// result baselines cannot see a change that moves work between components
// or adds a zero-delay event while keeping every reported number; these
// files can. An intentional change regenerates both with
//
//	go run ./cmd/vibe-report -quick -parallel 1 \
//	  -metrics-out internal/runner/testdata/metrics-quick.json \
//	  -profile-out internal/runner/testdata/profile-quick.folded
func TestQuickMetricsUnchanged(t *testing.T) {
	p, err := Compile(Request{Quick: true, MetricsJSON: true, Profile: true, SpanSample: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		MetricsJSONArtifact: "testdata/metrics-quick.json",
		ProfileArtifact:     "testdata/profile-quick.folded",
	} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Artifact(name)
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("%s differs from %s at line %d:\n got %q\nwant %q", name, path, i+1, at(gl, i), at(wl, i))
				break
			}
		}
	}
}

// at returns line i of lines, or "" past the end.
func at(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
