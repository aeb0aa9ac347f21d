package core

import (
	"runtime"
	"testing"

	"vibe/internal/provider"
)

// quickCfg is the quick default scenario's configuration for m.
func quickCfg(m *provider.Model) Config {
	return DefaultScenario(true).Config(m)
}

// Figure 2's "deregistration is much cheaper than registration" compares
// two experiments: the registration cost is in F1's report, not F2's, so
// this stays a test rather than an F2 claim.
func TestFig2MemDeregistrationShape(t *testing.T) {
	sizes := append(RegLadder(), 32<<20)
	for _, m := range provider.All() {
		t.Run(m.Name, func(t *testing.T) {
			reg, err := MemRegister(quickCfg(m), []int{28672})
			if err != nil {
				t.Fatal(err)
			}
			dereg, err := MemDeregister(quickCfg(m), sizes)
			if err != nil {
				t.Fatal(err)
			}
			if dereg.MaxY() >= reg.Y[0] {
				t.Errorf("dereg (%.1f) should be cheaper than 28KB registration (%.1f)",
					dereg.MaxY(), reg.Y[0])
			}
		})
	}
}

func TestNonDataDeterminism(t *testing.T) {
	a, err := NonData(quickCfg(provider.BVIA()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NonData(quickCfg(provider.BVIA()))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic NonData: %+v vs %+v", a, b)
	}
}

// The Figure 2 sweep registers buffers it never reads, so its host heap
// cost must not scale with buffer length: one 32 MiB buffer's worth of
// allocation would mean simulated memory is being materialized eagerly.
// Deterministic on any machine, unlike a wall-time gate.
func TestMemDeregisterDoesNotMaterializeBuffers(t *testing.T) {
	cfg := DefaultConfig(provider.CLAN())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := MemDeregister(cfg, []int{1 << 20, 32 << 20}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	d := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d KiB", d>>10)
	if d >= 32<<20 {
		t.Errorf("MemDeregister over {1 MiB, 32 MiB} x %d reps allocated %d MiB, want < 32 MiB",
			cfg.NonDataReps, d>>20)
	}
}
