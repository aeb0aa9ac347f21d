package logp

import (
	"testing"

	"vibe/internal/core"
	"vibe/internal/provider"
)

func TestExtractPlausibleParams(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			p, err := Extract(core.DefaultConfig(m))
			if err != nil {
				t.Fatal(err)
			}
			if p.L <= 0 || p.Os <= 0 || p.Or <= 0 || p.G <= 0 {
				t.Fatalf("non-positive parameters: %+v", p)
			}
			// Sanity: L under 40us on these SANs; overheads a few us; g
			// in the small-message range.
			if p.L > 40 {
				t.Errorf("L = %.1fus implausible", p.L)
			}
			if p.Os > 15 || p.Or > 15 {
				t.Errorf("overheads implausible: %+v", p)
			}
			if p.String() == "" {
				t.Error("String empty")
			}
		})
	}
}

func TestSendOverheadOrdering(t *testing.T) {
	// M-VIA's syscall doorbell makes its send overhead the largest;
	// cLAN's hardware doorbell the smallest.
	var os_ = map[string]float64{}
	for _, m := range provider.All() {
		p, err := Extract(core.DefaultConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		os_[m.Name] = p.Os
	}
	if !(os_["mvia"] > os_["bvia"] && os_["bvia"] > os_["clan"]) {
		t.Errorf("send overhead ordering mvia > bvia > clan violated: %v", os_)
	}
}

// The paper's motivating point: LogP parameters cannot distinguish the
// behaviours VIBe exposes. BVIA's small-message latency moves by large
// factors under multi-VI and buffer-reuse changes that leave (L, o, g)
// untouched; cLAN's does not.
func TestLogPInsufficiencyDemonstration(t *testing.T) {
	bvia, err := Explain(core.DefaultConfig(provider.BVIA()))
	if err != nil {
		t.Fatal(err)
	}
	if bvia.LatencyAt16VIs < bvia.BaseLatencyUs*1.5 {
		t.Errorf("bvia 16-VI latency %.1f should dwarf base %.1f",
			bvia.LatencyAt16VIs, bvia.BaseLatencyUs)
	}
	if bvia.LatencyAt0Reuse < bvia.BaseLatencyUs*1.3 {
		t.Errorf("bvia 0%%-reuse latency %.1f should dwarf base %.1f",
			bvia.LatencyAt0Reuse, bvia.BaseLatencyUs)
	}
	clan, err := Explain(core.DefaultConfig(provider.CLAN()))
	if err != nil {
		t.Fatal(err)
	}
	if clan.LatencyAt16VIs > clan.BaseLatencyUs*1.05 ||
		clan.LatencyAt0Reuse > clan.BaseLatencyUs*1.05 {
		t.Errorf("clan should be insensitive: %+v", clan)
	}
}

func TestExtractDeterminism(t *testing.T) {
	a, err := Extract(core.DefaultConfig(provider.BVIA()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(core.DefaultConfig(provider.BVIA()))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
