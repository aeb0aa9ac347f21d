package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sort"

	"vibe/internal/core"
)

// Provenance records the design point a result set was produced under:
// the scenario spec (base model, empty when the set spans the registry's
// built-in models; overrides; run overrides; fault plan) and the quick
// flag. A set carrying provenance can always be traced back to the exact
// design point that produced it, and the comparator can refuse
// apples-to-oranges diffs.
type Provenance struct {
	core.ScenarioSpec
	Quick bool `json:"quick,omitempty"`
}

// ProvenanceOf captures a scenario's full provenance. A nil or unmodified
// scenario (no name, base, overrides, run changes or faults — quick alone
// does not count) yields nil, so result sets produced by the plain suite
// stay byte-identical to the legacy format. A fault plan with no faults
// injects nothing and is recorded as none.
func ProvenanceOf(sc *core.Scenario) *Provenance {
	if sc == nil {
		return nil
	}
	p := &Provenance{ScenarioSpec: sc.Spec, Quick: sc.Quick}
	p.Set = maps.Clone(p.Set)
	if p.Fault.Empty() {
		p.Fault = nil
	}
	if p.Name == "" && p.Base == "" && len(p.Set) == 0 && p.Run.IsZero() && p.Fault == nil {
		return nil
	}
	return p
}

// Equal reports whether two provenance records describe the same design
// point: their canonical JSON matches once names are cleared, since names
// are labels, not parameters.
func (p *Provenance) Equal(q *Provenance) bool {
	if p == nil || q == nil {
		return p == nil && q == nil
	}
	return bytes.Equal(p.canonical(), q.canonical())
}

// canonical is the record's JSON without its name. encoding/json emits
// struct fields in declaration order and map keys sorted, so equal design
// points encode to equal bytes.
func (p *Provenance) canonical() []byte {
	c := *p
	c.Name = ""
	data, err := json.Marshal(c)
	if err != nil {
		// Strings, integers, bools and a validated fault plan, whose
		// probabilities are finite: Marshal cannot fail on them.
		panic("results: provenance marshal: " + err.Error())
	}
	return data
}

// describe renders a provenance record for error messages.
func (p *Provenance) describe() string {
	if p == nil {
		return "default (no overrides)"
	}
	s := "base=" + p.Base
	if p.Base == "" {
		s = "base=(all)"
	}
	if len(p.Set) > 0 {
		keys := make([]string, 0, len(p.Set))
		for k := range p.Set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s += fmt.Sprintf(" %s=%s", k, p.Set[k])
		}
	}
	if p.Quick {
		s += " quick"
	}
	if !p.Run.IsZero() {
		s += " +run-overrides"
	}
	if !p.Fault.Empty() {
		s += " +fault-plan"
	}
	return s
}

// CheckProvenance verifies two sets were produced under the same design
// point. Missing provenance means the default scenario (sets written
// before the field existed never had overrides), so two provenance-free
// sets are compatible — legacy baselines keep working — while a
// scenario'd set never silently diffs against a default one.
func CheckProvenance(base, cur *Set) error {
	if base.Scenario.Equal(cur.Scenario) {
		return nil
	}
	return fmt.Errorf("results: provenance mismatch:\n  base: %s\n  new:  %s",
		base.Scenario.describe(), cur.Scenario.describe())
}

// CompareChecked diffs two sets after verifying their provenance matches.
// force skips the check, for deliberate cross-scenario comparisons (the
// whole point of an ablation is diffing across design points).
func CompareChecked(base, cur *Set, tol float64, force bool) ([]Diff, error) {
	if !force {
		if err := CheckProvenance(base, cur); err != nil {
			return nil, fmt.Errorf("%w\n  (pass -force to compare anyway)", err)
		}
	}
	return Compare(base, cur, tol), nil
}
