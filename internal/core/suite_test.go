package core

import (
	"strconv"
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "TCQ",
		"XSEG", "XASY", "XRDMA", "XPIPE", "XMTU", "XREL", "XLOSS", "XFAULT",
		"XINCAST", "XALLTOALL", "XHOTSPOT", "XFAILOVER",
		"PMMP", "PMGP", "PMEAGER", "PMSOCK", "PMDSM", "EXTPROV",
		"ATLB", "AXLAT", "ADOOR", "APOLL", "BREAK"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].PaperClaim == "" || exps[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
		// The first nine are the paper's own tables and figures, which
		// state their conclusions as checkable claims.
		if i < 9 && len(exps[i].Claims) == 0 {
			t.Errorf("paper experiment %s has no claims", id)
		}
	}
	if _, err := ExperimentByID("T1"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("NOPE"); err == nil {
		t.Error("unknown id accepted")
	}
}

// Each experiment must run to completion in quick mode, produce
// something (a table or a series group with points), and every claim it
// states must hold on the default design point. The full-mode claims are
// checked where the full registry already runs: results.checkBaseline.
func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(DefaultScenario(true))
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(rep.Tables) == 0 && len(rep.Groups) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			for _, tb := range rep.Tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: empty table %q", e.ID, tb.Title)
				}
			}
			for _, g := range rep.Groups {
				if len(g.Series) == 0 {
					t.Errorf("%s: empty group %q", e.ID, g.Title)
				}
				for _, s := range g.Series {
					if len(s.X) == 0 {
						t.Errorf("%s: empty series %q in %q", e.ID, s.Name, g.Title)
					}
				}
			}
			for _, c := range e.Claims {
				if err := c.Check(rep); err != nil {
					t.Errorf("%s claim %q: %v", e.ID, c.Text, err)
				}
			}
		})
	}
}

// A smaller BVIA translation cache erases Figure 5's size sensitivity: at
// TLBCapacity=8 every reuse level misses on a 28KB message, so lost reuse
// no longer costs most there, while the default 32 entries keep the claim.
func TestSweepFlipsF5Verdict(t *testing.T) {
	e := ExperimentMust(t, "F5")
	claim := e.Claims[1]
	if !strings.HasPrefix(claim.Text, "Lost reuse costs most at the largest message") {
		t.Fatalf("F5 claim 1 is %q", claim.Text)
	}
	for _, tc := range []struct {
		capacity string
		holds    bool
	}{{"8", false}, {"32", true}} {
		sc, err := NewScenario(ScenarioSpec{Set: map[string]string{"TLBCapacity": tc.capacity}}, true)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := claim.Check(rep); (err == nil) != tc.holds {
			t.Errorf("TLBCapacity=%s: claim holds = %v, want %v (%v)", tc.capacity, err == nil, tc.holds, err)
		}
	}
}

// The ablations must show their effects even in quick mode.
func TestAblationEffects(t *testing.T) {
	t.Run("ATLB", func(t *testing.T) {
		rep, err := ExperimentMust(t, "ATLB").Run(DefaultScenario(true))
		if err != nil {
			t.Fatal(err)
		}
		rows := rep.Tables[0].Rows
		first, last := rows[0], rows[len(rows)-1]
		if first[2] == last[2] {
			t.Errorf("TLB capacity had no effect: %v vs %v", first, last)
		}
	})
	t.Run("ADOOR", func(t *testing.T) {
		rep, err := ExperimentMust(t, "ADOOR").Run(DefaultScenario(true))
		if err != nil {
			t.Fatal(err)
		}
		rows := rep.Tables[0].Rows
		if cell(t, rows[0][1]) <= cell(t, rows[len(rows)-1][1]) {
			t.Errorf("cheaper doorbell should lower latency: %v", rows)
		}
	})
	t.Run("APOLL", func(t *testing.T) {
		rep, err := ExperimentMust(t, "APOLL").Run(DefaultScenario(true))
		if err != nil {
			t.Fatal(err)
		}
		rows := rep.Tables[0].Rows
		if cell(t, rows[0][1]) >= cell(t, rows[len(rows)-1][1]) {
			t.Errorf("higher poll cost should raise latency: %v", rows)
		}
	})
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

// ExperimentMust fetches an experiment by id, failing the test otherwise.
func ExperimentMust(t *testing.T, id string) *Experiment {
	t.Helper()
	e, err := ExperimentByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
