package results

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"vibe/internal/core"
)

// TestCacheKeyStable pins the key's properties: hex sha256, insensitive to
// experiment-list order, sensitive to quick, experiments, and every
// provenance dimension including nil-vs-default.
func TestCacheKeyStable(t *testing.T) {
	p := &Provenance{Base: "clan", Set: map[string]string{"TLBCapacity": "8"}}
	k := CacheKey(true, []string{"T1", "F1"}, p)
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k) {
		t.Fatalf("key is not hex sha256: %q", k)
	}
	if k2 := CacheKey(true, []string{"F1", "T1"}, p); k2 != k {
		t.Error("experiment order changed the key")
	}
	if k2 := CacheKey(true, []string{"T1", "F1"}, &Provenance{Base: "clan", Set: map[string]string{"TLBCapacity": "8"}}); k2 != k {
		t.Error("an equal provenance built separately changed the key")
	}
	for name, other := range map[string]string{
		"quick":      CacheKey(false, []string{"T1", "F1"}, p),
		"exps":       CacheKey(true, []string{"T1"}, p),
		"provenance": CacheKey(true, []string{"T1", "F1"}, &Provenance{Base: "mvia", Set: map[string]string{"TLBCapacity": "8"}}),
		"override":   CacheKey(true, []string{"T1", "F1"}, &Provenance{Base: "clan", Set: map[string]string{"TLBCapacity": "32"}}),
		"nil-prov":   CacheKey(true, []string{"T1", "F1"}, nil),
		"cells":      CacheKey(true, []string{"T1", "F1"}, p, p),
	} {
		if other == k {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestCacheKeyMatchesCompiledScenarios checks the key a daemon would
// compute from compiled scenario cells: the same spec expanded twice gives
// the same key, and a sweep gives each cell-set a distinct combined key.
func TestCacheKeyMatchesCompiledScenarios(t *testing.T) {
	key := func(sweeps []string) string {
		spec := core.ScenarioSpec{}
		spec.Base = "clan"
		specs, err := core.ExpandSweeps(spec, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		scs, err := core.CompileScenarios(specs, true)
		if err != nil {
			t.Fatal(err)
		}
		provs := make([]*Provenance, len(scs))
		for i, sc := range scs {
			provs[i] = ProvenanceOf(sc)
		}
		return CacheKey(true, []string{"T1"}, provs...)
	}
	a, b := key([]string{"TLBCapacity=8,32"}), key([]string{"TLBCapacity=8,32"})
	if a != b {
		t.Error("same sweep compiled twice produced different keys")
	}
	if c := key([]string{"TLBCapacity=8"}); c == a {
		t.Error("different sweep produced the same key")
	}
}

// TestEncodeMatchesSave checks the byte-parity contract: Encode's bytes
// are exactly what Save writes, version/suite stamping included.
func TestEncodeMatchesSave(t *testing.T) {
	set := &Set{
		Label:    "parity",
		Scenario: &Provenance{Base: "clan", Quick: true},
		Experiments: []Experiment{
			{ID: "T1", Title: "t", Notes: []string{"n"}},
		},
		Metrics: map[string]float64{"nic0.doorbells": 7},
	}
	enc, err := Encode(set)
	if err != nil {
		t.Fatal(err)
	}
	if set.Version != 0 || set.Suite != "" {
		t.Fatalf("Encode mutated the caller's set: %d %q", set.Version, set.Suite)
	}
	var decoded Set
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Version != FormatVersion || decoded.Suite != "vibe" {
		t.Fatalf("encoded bytes missing version/suite stamp: %d %q", decoded.Version, decoded.Suite)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := Save(path, set); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, disk) {
		t.Error("Encode bytes differ from Save's file")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("round-trip Load: %v", err)
	}
}
