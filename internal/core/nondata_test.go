package core

import (
	"math"
	"runtime"
	"testing"

	"vibe/internal/provider"
)

// quickCfg shrinks sweeps for unit tests.
func quickCfg(m *provider.Model) Config {
	return cfgFor(m, true)
}

// within asserts |got-want| <= tol.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f (±%.3f)", name, got, want, tol)
	}
}

// Table 1 of the paper, the calibration ground truth.
var table1 = map[string]NonDataCosts{
	"mvia": {CreateVi: 93, DestroyVi: 0.19, EstablishConn: 6465, TeardownConn: 3, CreateCq: 17, DestroyCq: 8.44},
	"bvia": {CreateVi: 28, DestroyVi: 0.19, EstablishConn: 496, TeardownConn: 9, CreateCq: 206, DestroyCq: 35},
	"clan": {CreateVi: 3, DestroyVi: 0.11, EstablishConn: 2454, TeardownConn: 155, CreateCq: 54, DestroyCq: 15},
}

func TestTable1Calibration(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			got, err := NonData(quickCfg(m))
			if err != nil {
				t.Fatal(err)
			}
			want := table1[m.Name]
			within(t, "CreateVi", got.CreateVi, want.CreateVi, 0.5)
			within(t, "DestroyVi", got.DestroyVi, want.DestroyVi, 0.05)
			// Connection establishment crosses the simulated network, so
			// allow 1%.
			within(t, "EstablishConn", got.EstablishConn, want.EstablishConn, want.EstablishConn*0.01)
			within(t, "TeardownConn", got.TeardownConn, want.TeardownConn, 0.5)
			within(t, "CreateCq", got.CreateCq, want.CreateCq, 0.5)
			within(t, "DestroyCq", got.DestroyCq, want.DestroyCq, 0.5)
		})
	}
}

func TestTable1Orderings(t *testing.T) {
	costs := map[string]NonDataCosts{}
	for _, m := range provider.All() {
		c, err := NonData(quickCfg(m))
		if err != nil {
			t.Fatal(err)
		}
		costs[m.Name] = c
	}
	// The paper's headline observations.
	if !(costs["mvia"].EstablishConn > costs["clan"].EstablishConn &&
		costs["clan"].EstablishConn > costs["bvia"].EstablishConn) {
		t.Error("connection cost ordering mvia > clan > bvia violated")
	}
	if !(costs["bvia"].CreateCq > costs["clan"].CreateCq &&
		costs["clan"].CreateCq > costs["mvia"].CreateCq) {
		t.Error("CQ creation ordering bvia > clan > mvia violated")
	}
	if !(costs["clan"].CreateVi < costs["bvia"].CreateVi &&
		costs["bvia"].CreateVi < costs["mvia"].CreateVi) {
		t.Error("VI creation ordering clan < bvia < mvia violated")
	}
	if !(costs["clan"].TeardownConn > costs["bvia"].TeardownConn) {
		t.Error("cLAN teardown should be the most expensive")
	}
}

// Figure 1: BVIA registration is the most expensive for small buffers;
// M-VIA's per-page slope crosses it by ~20KB.
func TestFig1MemRegistrationShape(t *testing.T) {
	series := map[string]map[float64]float64{}
	for _, m := range provider.All() {
		s, err := MemRegister(quickCfg(m), RegLadder())
		if err != nil {
			t.Fatal(err)
		}
		pts := map[float64]float64{}
		for i, x := range s.X {
			pts[x] = s.Y[i]
		}
		series[m.Name] = pts
	}
	for _, small := range []float64{16, 1024, 4096} {
		if !(series["bvia"][small] > series["mvia"][small] &&
			series["bvia"][small] > series["clan"][small]) {
			t.Errorf("BVIA should be most expensive at %gB: bvia=%.1f mvia=%.1f clan=%.1f",
				small, series["bvia"][small], series["mvia"][small], series["clan"][small])
		}
	}
	// M-VIA overtakes BVIA at the top of the ladder (paper: "more
	// expensive in BVIA for messages of up to 20 KB").
	if !(series["mvia"][28672] > series["bvia"][28672]) {
		t.Errorf("M-VIA should cross BVIA by 28KB: mvia=%.1f bvia=%.1f",
			series["mvia"][28672], series["bvia"][28672])
	}
	// Registration cost grows with size for every provider.
	for name, pts := range series {
		if !(pts[28672] > pts[16]) {
			t.Errorf("%s registration not growing with size", name)
		}
	}
	// Costs stay in the paper's plotted range (up to ~35us).
	for name, pts := range series {
		for x, y := range pts {
			if y > 40 {
				t.Errorf("%s registration at %gB = %.1fus exceeds the paper's range", name, x, y)
			}
		}
	}
}

// Figure 2: deregistration is much cheaper than registration, flat in
// size, below 16us even for 32MB; BVIA most expensive, M-VIA cheapest.
func TestFig2MemDeregistrationShape(t *testing.T) {
	sizes := append(RegLadder(), 32<<20)
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			reg, err := MemRegister(quickCfg(m), []int{28672})
			if err != nil {
				t.Fatal(err)
			}
			dereg, err := MemDeregister(quickCfg(m), sizes)
			if err != nil {
				t.Fatal(err)
			}
			for i, y := range dereg.Y {
				if y >= 16 {
					t.Errorf("dereg at %gB = %.1fus, paper bound is <16us", dereg.X[i], y)
				}
			}
			if dereg.MaxY() >= reg.Y[0] {
				t.Errorf("dereg (%.1f) should be cheaper than 28KB registration (%.1f)",
					dereg.MaxY(), reg.Y[0])
			}
			// Flat: 32MB within 2us of 16B.
			first := dereg.Y[0]
			last := dereg.Y[len(dereg.Y)-1]
			if math.Abs(last-first) > 2 {
				t.Errorf("dereg not flat: %.2f at 16B vs %.2f at 32MB", first, last)
			}
		})
	}
	bv, _ := MemDeregister(quickCfg(provider.BVIA()), []int{4096})
	mv, _ := MemDeregister(quickCfg(provider.MVIA()), []int{4096})
	cl, _ := MemDeregister(quickCfg(provider.CLAN()), []int{4096})
	if !(bv.Y[0] > cl.Y[0] && cl.Y[0] > mv.Y[0]) {
		t.Errorf("dereg ordering bvia > clan > mvia violated: %.1f %.1f %.1f",
			bv.Y[0], cl.Y[0], mv.Y[0])
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
