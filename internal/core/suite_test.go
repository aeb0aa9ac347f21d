package core

import (
	"strconv"
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
	}
	if _, err := ExperimentByID("T1"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("NOPE"); err == nil {
		t.Error("unknown id accepted")
	}
}

// Each experiment must run to completion in quick mode and produce
// something (a table or a series group with points).
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
		})
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
