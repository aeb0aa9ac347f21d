// Package results implements the VIBe results repository the paper's
// conclusion announces ("We plan to create a repository of VIBe results
// for different VIA platforms and distribute them"): a stable JSON format
// for experiment outputs, with save/load and a comparator that diffs two
// result sets the way a developer would compare a new VIA implementation
// (or a new version) against a published baseline.
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/table"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// Set is a complete result set: one entry per experiment run.
type Set struct {
	Version     int          `json:"version"`
	Suite       string       `json:"suite"`
	Label       string       `json:"label,omitempty"`
	Scenario    *Provenance  `json:"scenario,omitempty"`
	Experiments []Experiment `json:"experiments"`

	// Metrics is the aggregated component-counter snapshot of the runs
	// that produced the set (vibe-report -metrics), keyed hierarchically
	// (cpu0.busy_ns, nic0.tlb.misses, fabric.bytes, ...). Informational
	// provenance: Compare ignores it.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Experiment is one experiment's serialized output: its report's
// tables, series groups and notes, which carry their own JSON schema.
type Experiment struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Tables []*table.Table `json:"tables,omitempty"`
	Groups []*bench.Group `json:"groups,omitempty"`
	Notes  []string       `json:"notes,omitempty"`
}

// FromReport files a suite report under the experiment id.
func FromReport(id string, rep *core.Report) Experiment {
	return Experiment{ID: id, Title: rep.Title, Tables: rep.Tables, Groups: rep.Groups, Notes: rep.Notes}
}

// Encode renders the set into its canonical on-disk byte form, stamping
// the format version and default suite name. Every producer — Save here,
// the vibed daemon's downloadable artifacts — goes through this one
// function, so a set served over HTTP is byte-identical to the same set
// written by the CLI.
func Encode(s *Set) ([]byte, error) {
	e := *s // stamp a copy: encoding a set must not mutate shared state
	e.Version = FormatVersion
	if e.Suite == "" {
		e.Suite = "vibe"
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Load reads a result set, rejecting unknown schema versions.
func Load(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("results: %s: %w", path, err)
	}
	return s, nil
}

// decode parses an encoded set, rejecting unknown schema versions and
// anything Compare could not pair up one to one: a null table, group or
// series, a series whose x and y columns differ in length, and a table or
// group title, series name or x value repeated where it is the key.
func decode(data []byte) (*Set, error) {
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("unsupported format version %d (want %d)", s.Version, FormatVersion)
	}
	for _, e := range s.Experiments {
		titles := map[string]bool{}
		for _, t := range e.Tables {
			if t == nil || titles["table "+t.Title] {
				return nil, fmt.Errorf("experiment %s: null or repeated table", e.ID)
			}
			titles["table "+t.Title] = true
		}
		for _, g := range e.Groups {
			if g == nil || titles["group "+g.Title] {
				return nil, fmt.Errorf("experiment %s: null or repeated group", e.ID)
			}
			titles["group "+g.Title] = true
			names := map[string]bool{}
			for _, sr := range g.Series {
				if sr == nil || names[sr.Name] {
					return nil, fmt.Errorf("experiment %s group %q: null or repeated series", e.ID, g.Title)
				}
				names[sr.Name] = true
				if len(sr.X) != len(sr.Y) {
					return nil, fmt.Errorf("experiment %s series %q: %d x values, %d y values", e.ID, sr.Name, len(sr.X), len(sr.Y))
				}
				xs := map[float64]bool{}
				for _, x := range sr.X {
					if xs[x] {
						return nil, fmt.Errorf("experiment %s series %q: repeated x %g", e.ID, sr.Name, x)
					}
					xs[x] = true
				}
			}
		}
	}
	return &s, nil
}

// Diff is one compared data point whose values disagree beyond the
// threshold, or a missing piece or changed text or shape (RelErr = +Inf).
type Diff struct {
	Experiment string
	Where      string // "table Title[row][col]" or "group/series@x"
	Base       float64
	New        float64
	RelErr     float64
}

// Compare diffs two result sets experiment by experiment. It reports
// every numeric point whose relative difference exceeds tol, and with
// RelErr = +Inf every text cell or note that differs, every experiment,
// table, group or series present in one set but not the other, and every
// base row or point missing from cur or differing from it in size.
func Compare(base, cur *Set, tol float64) []Diff {
	var diffs []Diff
	baseBy := map[string]Experiment{}
	for _, e := range base.Experiments {
		baseBy[e.ID] = e
	}
	curBy := map[string]Experiment{}
	for _, e := range cur.Experiments {
		curBy[e.ID] = e
	}
	var ids []string
	for id := range baseBy {
		ids = append(ids, id)
	}
	for id := range curBy {
		if _, ok := baseBy[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	for _, id := range ids {
		b, inBase := baseBy[id]
		c, inCur := curBy[id]
		if !inBase || !inCur {
			diffs = append(diffs, Diff{Experiment: id, Where: "(missing)", RelErr: math.Inf(1)})
			continue
		}
		diffs = append(diffs, compareTables(id, b.Tables, c.Tables, tol)...)
		diffs = append(diffs, compareGroups(id, b.Groups, c.Groups, tol)...)
		diffs = append(diffs, compareNotes(id, b.Notes, c.Notes)...)
	}
	return diffs
}

// mismatch is a Diff with no numbers to compare, for a missing piece or
// a changed shape or text.
func mismatch(id, format string, args ...interface{}) Diff {
	return Diff{Experiment: id, Where: fmt.Sprintf(format, args...), RelErr: math.Inf(1)}
}

func compareTables(id string, base, cur []*table.Table, tol float64) []Diff {
	diffs := extra(id, "table ", base, cur, func(t *table.Table) string { return t.Title })
	curBy := map[string]*table.Table{}
	for _, t := range cur {
		curBy[t.Title] = t
	}
	for _, bt := range base {
		ct, ok := curBy[bt.Title]
		if !ok {
			diffs = append(diffs, mismatch(id, "table %s (missing)", bt.Title))
			continue
		}
		if len(bt.Rows) != len(ct.Rows) {
			diffs = append(diffs, mismatch(id, "table %s: %d rows -> %d", bt.Title, len(bt.Rows), len(ct.Rows)))
		}
		for r := 0; r < len(bt.Rows) && r < len(ct.Rows); r++ {
			brow, crow := bt.Rows[r], ct.Rows[r]
			if len(brow) != len(crow) {
				diffs = append(diffs, mismatch(id, "table %s[%d]: %d cells -> %d", bt.Title, r, len(brow), len(crow)))
			}
			for col := 0; col < len(brow) && col < len(crow); col++ {
				bv, bNum := parseNum(brow[col])
				cv, cNum := parseNum(crow[col])
				if !bNum || !cNum {
					if brow[col] != crow[col] {
						diffs = append(diffs, mismatch(id, "table %s[%d][%d]: %q -> %q", bt.Title, r, col, brow[col], crow[col]))
					}
				} else if re := relErr(bv, cv); re > tol {
					diffs = append(diffs, Diff{Experiment: id, Where: fmt.Sprintf("table %s[%d][%d]", bt.Title, r, col),
						Base: bv, New: cv, RelErr: re})
				}
			}
		}
	}
	return diffs
}

func compareGroups(id string, base, cur []*bench.Group, tol float64) []Diff {
	diffs := extra(id, "group ", base, cur, func(g *bench.Group) string { return g.Title })
	curBy := map[string]*bench.Group{}
	for _, g := range cur {
		curBy[g.Title] = g
	}
	for _, bg := range base {
		cg, ok := curBy[bg.Title]
		if !ok {
			diffs = append(diffs, mismatch(id, "group %s (missing)", bg.Title))
			continue
		}
		diffs = append(diffs, extra(id, "series "+bg.Title+"/", bg.Series, cg.Series, func(s *bench.Series) string { return s.Name })...)
		for _, bs := range bg.Series {
			cs := cg.Find(bs.Name)
			if cs == nil {
				diffs = append(diffs, mismatch(id, "series %s/%s (missing)", bg.Title, bs.Name))
				continue
			}
			if len(bs.X) != len(cs.X) {
				diffs = append(diffs, mismatch(id, "series %s/%s: %d points -> %d", bg.Title, bs.Name, len(bs.X), len(cs.X)))
			}
			for i, x := range bs.X {
				if cv, ok := cs.At(x); !ok {
					diffs = append(diffs, mismatch(id, "%s/%s@%g (missing)", bg.Title, bs.Name, x))
				} else if re := relErr(bs.Y[i], cv); re > tol {
					diffs = append(diffs, Diff{Experiment: id, Where: fmt.Sprintf("%s/%s@%g", bg.Title, bs.Name, x),
						Base: bs.Y[i], New: cv, RelErr: re})
				}
			}
		}
	}
	return diffs
}

// extra reports each piece of cur whose name no piece of base has.
func extra[T any](id, kind string, base, cur []T, name func(T) string) []Diff {
	have := map[string]bool{}
	for _, b := range base {
		have[name(b)] = true
	}
	var diffs []Diff
	for _, c := range cur {
		if !have[name(c)] {
			diffs = append(diffs, mismatch(id, "%s%s (extra)", kind, name(c)))
		}
	}
	return diffs
}

func compareNotes(id string, base, cur []string) []Diff {
	var diffs []Diff
	if len(base) != len(cur) {
		diffs = append(diffs, mismatch(id, "notes: %d -> %d", len(base), len(cur)))
	}
	for i := 0; i < len(base) && i < len(cur); i++ {
		if base[i] != cur[i] {
			diffs = append(diffs, mismatch(id, "note[%d]: %q -> %q", i, base[i], cur[i]))
		}
	}
	return diffs
}

func relErr(a, b float64) float64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.Inf(1)
	}
	den := math.Abs(a)
	if den == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / den
}

func parseNum(s string) (float64, bool) {
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return 0, false
	}
	return v, true
}

// Render writes a human-readable diff summary.
func Render(w io.Writer, diffs []Diff, tol float64) {
	if len(diffs) == 0 {
		fmt.Fprintf(w, "results: no differences above %.1f%%\n", tol*100)
		return
	}
	fmt.Fprintf(w, "results: %d difference(s) above %.1f%%:\n", len(diffs), tol*100)
	for _, d := range diffs {
		if math.IsInf(d.RelErr, 1) && d.Base == 0 && d.New == 0 {
			fmt.Fprintf(w, "  %-8s %s\n", d.Experiment, d.Where)
			continue
		}
		// A zero or NaN base has no meaningful percent change; print the
		// raw values instead of dividing by it.
		if d.Base == 0 || math.IsNaN(d.Base) || math.IsNaN(d.New) {
			fmt.Fprintf(w, "  %-8s %-48s %12.4g -> %-12.4g (n/a)\n",
				d.Experiment, d.Where, d.Base, d.New)
			continue
		}
		fmt.Fprintf(w, "  %-8s %-48s %12.4g -> %-12.4g (%+.1f%%)\n",
			d.Experiment, d.Where, d.Base, d.New, (d.New-d.Base)/d.Base*100)
	}
}
