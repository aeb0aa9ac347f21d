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

	"vibe/internal/core"
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

// Experiment is one experiment's serialized output.
type Experiment struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Tables []Table  `json:"tables,omitempty"`
	Groups []Group  `json:"groups,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// Table mirrors a text table.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// Group mirrors a series group.
type Group struct {
	Title  string   `json:"title"`
	Series []Series `json:"series"`
}

// Series is one named curve.
type Series struct {
	Name   string    `json:"name"`
	XLabel string    `json:"xlabel"`
	YLabel string    `json:"ylabel"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// FromReport converts a suite report into its serialized form.
func FromReport(id string, rep *core.Report) Experiment {
	e := Experiment{ID: id, Title: rep.Title, Notes: rep.Notes}
	for _, t := range rep.Tables {
		e.Tables = append(e.Tables, Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows})
	}
	for _, g := range rep.Groups {
		sg := Group{Title: g.Title}
		for _, s := range g.Series {
			xs, ys := s.XY()
			sg.Series = append(sg.Series, Series{
				Name: s.Name, XLabel: s.XLabel, YLabel: s.YLabel, X: xs, Y: ys,
			})
		}
		e.Groups = append(e.Groups, sg)
	}
	return e
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

// Save writes the set as indented JSON.
func Save(path string, s *Set) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
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

// decode parses an encoded set, rejecting unknown schema versions.
func decode(data []byte) (*Set, error) {
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("unsupported format version %d (want %d)", s.Version, FormatVersion)
	}
	return &s, nil
}

// Diff is one compared data point whose values disagree beyond the
// threshold.
type Diff struct {
	Experiment string
	Where      string // "table Title[row][col]" or "group/series@x"
	Base       float64
	New        float64
	RelErr     float64
}

// Compare diffs two result sets experiment by experiment, reporting every
// numeric point whose relative difference exceeds tol and every
// experiment/series present in one set but not the other (reported with
// RelErr = +Inf).
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
	}
	return diffs
}

func compareTables(id string, base, cur []Table, tol float64) []Diff {
	var diffs []Diff
	curBy := map[string]Table{}
	for _, t := range cur {
		curBy[t.Title] = t
	}
	for _, bt := range base {
		ct, ok := curBy[bt.Title]
		if !ok {
			diffs = append(diffs, Diff{Experiment: id, Where: "table " + bt.Title + " (missing)", RelErr: math.Inf(1)})
			continue
		}
		for r := 0; r < len(bt.Rows) && r < len(ct.Rows); r++ {
			for col := 0; col < len(bt.Rows[r]) && col < len(ct.Rows[r]); col++ {
				bv, bNum := parseNum(bt.Rows[r][col])
				cv, cNum := parseNum(ct.Rows[r][col])
				if !bNum || !cNum {
					continue
				}
				if re := relErr(bv, cv); re > tol {
					diffs = append(diffs, Diff{
						Experiment: id,
						Where:      fmt.Sprintf("table %s[%d][%d]", bt.Title, r, col),
						Base:       bv, New: cv, RelErr: re,
					})
				}
			}
		}
	}
	return diffs
}

func compareGroups(id string, base, cur []Group, tol float64) []Diff {
	var diffs []Diff
	curBy := map[string]Group{}
	for _, g := range cur {
		curBy[g.Title] = g
	}
	for _, bg := range base {
		cg, ok := curBy[bg.Title]
		if !ok {
			diffs = append(diffs, Diff{Experiment: id, Where: "group " + bg.Title + " (missing)", RelErr: math.Inf(1)})
			continue
		}
		curSeries := map[string]Series{}
		for _, s := range cg.Series {
			curSeries[s.Name] = s
		}
		for _, bs := range bg.Series {
			cs, ok := curSeries[bs.Name]
			if !ok {
				diffs = append(diffs, Diff{Experiment: id,
					Where: "series " + bg.Title + "/" + bs.Name + " (missing)", RelErr: math.Inf(1)})
				continue
			}
			curAt := map[float64]float64{}
			for i := range cs.X {
				curAt[cs.X[i]] = cs.Y[i]
			}
			for i := range bs.X {
				cv, ok := curAt[bs.X[i]]
				if !ok {
					continue
				}
				if re := relErr(bs.Y[i], cv); re > tol {
					diffs = append(diffs, Diff{
						Experiment: id,
						Where:      fmt.Sprintf("%s/%s@%g", bg.Title, bs.Name, bs.X[i]),
						Base:       bs.Y[i], New: cv, RelErr: re,
					})
				}
			}
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
