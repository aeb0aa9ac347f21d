package core

import (
	"fmt"
	"strings"

	"vibe/internal/provider"
)

// MaxSweepCells bounds the grid ExpandSweeps builds, so a long sweep
// list is rejected before any cell is allocated.
const MaxSweepCells = 4096

// ExpandSweeps turns repeated "param=v1,v2,v3" sweep directives into the
// cross-product grid of scenario specs derived from base. Parameter names
// and values are validated against the provider catalog up front, so a
// typo fails before any cell runs. Cell order is the natural grid order:
// the first directive varies slowest. Each cell's Name records its
// coordinates ("TLBCapacity=8,WireMTU=1500"), prefixed by the base
// scenario's name when it has one. A parameter may label one axis only,
// and the grid may hold at most MaxSweepCells cells.
func ExpandSweeps(base ScenarioSpec, sweeps []string) ([]ScenarioSpec, error) {
	if len(sweeps) == 0 {
		return []ScenarioSpec{base}, nil
	}
	type axis struct {
		name   string
		values []string
	}
	axes := make([]axis, 0, len(sweeps))
	cells := 1
	for _, s := range sweeps {
		name, list, ok := strings.Cut(s, "=")
		if !ok || strings.TrimSpace(name) == "" || strings.TrimSpace(list) == "" {
			return nil, fmt.Errorf("core: bad -sweep %q (want param=v1,v2,...)", s)
		}
		p, err := provider.ParamByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		for _, a := range axes {
			if a.name == p.Name {
				return nil, fmt.Errorf("core: -sweep repeats parameter %s", p.Name)
			}
		}
		values := strings.Split(list, ",")
		if cells *= len(values); cells > MaxSweepCells {
			return nil, fmt.Errorf("core: -sweep grid exceeds %d cells", MaxSweepCells)
		}
		for i, v := range values {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("core: empty value in -sweep %q", s)
			}
			if _, err := provider.CompileOverrides(map[string]string{p.Name: v}); err != nil {
				return nil, err
			}
			values[i] = v
		}
		axes = append(axes, axis{name: p.Name, values: values})
	}

	specs := make([]ScenarioSpec, 0, cells)
	coords := make([]int, len(axes))
	for {
		cell := base
		cell.Set = make(map[string]string, len(base.Set)+len(axes))
		for k, v := range base.Set {
			cell.Set[k] = v
		}
		parts := make([]string, len(axes))
		for i, a := range axes {
			v := a.values[coords[i]]
			cell.Set[a.name] = v
			parts[i] = a.name + "=" + v
		}
		cell.Name = strings.Join(parts, ",")
		if base.Name != "" {
			cell.Name = base.Name + ":" + cell.Name
		}
		specs = append(specs, cell)

		// Odometer increment, last axis fastest.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < len(axes[i].values) {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return specs, nil
		}
	}
}

// CompileScenarios compiles a list of specs with a shared quick flag.
func CompileScenarios(specs []ScenarioSpec, quick bool) ([]*Scenario, error) {
	scs := make([]*Scenario, len(specs))
	for i, spec := range specs {
		sc, err := NewScenario(spec, quick)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}
