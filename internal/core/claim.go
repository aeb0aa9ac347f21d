package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Claim is one of the paper's conclusions about an experiment, stated as
// a predicate over that experiment's own Report. Check returns nil when
// the claim holds, or an error naming the values that broke it. Claims
// read only points that the quick and the full sweeps both carry, so one
// predicate judges either mode and any -set or -sweep design point.
type Claim struct {
	Text  string
	Check func(*Report) error
}

// Verdict evaluates the claim on rep: "holds" or "FAILS: <reason>".
func (c Claim) Verdict(rep *Report) string {
	if err := c.Check(rep); err != nil {
		return "FAILS: " + err.Error()
	}
	return "holds"
}

// points reads a report's values by name for a claim. The first value it
// cannot find is kept, and reads after it return 0, so a check reads what
// it needs and reads reports the missing value before any verdict.
type points struct {
	rep *Report
	err error
}

// at returns the y value of series name in the group titled group at x.
func (p *points) at(group, name string, x float64) float64 {
	if p.err != nil {
		return 0
	}
	for _, g := range p.rep.Groups {
		if s := g.Find(name); g.Title == group && s != nil {
			if y, ok := s.At(x); ok {
				return y
			}
		}
	}
	p.err = fmt.Errorf("report has no point %s/%s@%g", group, name, x)
	return 0
}

// trio reads the mvia, bvia and clan series of group at x.
func (p *points) trio(group string, x float64) (mvia, bvia, clan float64) {
	return p.at(group, "mvia", x), p.at(group, "bvia", x), p.at(group, "clan", x)
}

// cell returns the numeric cell of the table titled table in the row
// whose first cell is row and the column headed col.
func (p *points) cell(table, row, col string) float64 {
	if p.err != nil {
		return 0
	}
	for _, t := range p.rep.Tables {
		for c, h := range t.Headers {
			for _, r := range t.Rows {
				if t.Title == table && h == col && len(r) > c && r[0] == row {
					if v, err := strconv.ParseFloat(r[c], 64); err == nil {
						return v
					}
				}
			}
		}
	}
	p.err = fmt.Errorf("report has no number %s[%s][%s]", table, row, col)
	return 0
}

// reads adapts a check that reads its values through points and returns
// its verdicts: a value the report lacks fails the claim first, and
// otherwise the first failed verdict does.
func reads(check func(p *points) []error) func(*Report) error {
	return func(r *Report) error {
		p := &points{rep: r}
		verdicts := check(p)
		if p.err != nil {
			return p.err
		}
		for _, err := range verdicts {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// want is nil when ok holds, else the formatted error.
func want(ok bool, format string, args ...interface{}) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// band is nil when lo <= v <= hi.
func band(what string, v, lo, hi float64) error {
	return want(lo <= v && v <= hi, "%s %.4g outside %g-%g", what, v, lo, hi)
}

// falling is nil when vals strictly decrease in the order of names.
func falling(what string, names []string, vals ...float64) error {
	for i := 1; i < len(vals); i++ {
		if !(vals[i] < vals[i-1]) {
			got := make([]string, len(vals))
			for j, v := range vals {
				got[j] = fmt.Sprintf("%s %.4g", names[j], v)
			}
			return fmt.Errorf("%s: want %s, got %s", what, strings.Join(names, " > "), strings.Join(got, ", "))
		}
	}
	return nil
}
