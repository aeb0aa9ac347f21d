package runner

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"vibe/internal/core"
	"vibe/internal/fault"
	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/provider"
	"vibe/internal/results"
	"vibe/internal/trace"
)

// Artifact names, as the vibed daemon serves them. A sweep grid stores
// one result set per cell, named by CellName.
const (
	ResultsArtifact     = "results.json"
	MetricsTextArtifact = "metrics.txt"
	MetricsJSONArtifact = "metrics.json"
	TraceArtifact       = "trace.json"
	ProfileArtifact     = "profile.folded"
)

// Request is one run as the frontends take it: vibe and vibe-report from
// flags, vibed from a JSON submission.
type Request struct {
	// Scenario is the base spec (vibed's inline "scenario"); ScenarioPath,
	// when set, loads a -scenario file in its place. Set holds -set
	// name=value overrides (later entries win) and FaultPath a -fault plan
	// that replaces the scenario's. Sweeps expands the result into a grid.
	Scenario     core.ScenarioSpec
	ScenarioPath string
	Set          []string
	FaultPath    string
	Sweeps       []string
	Quick        bool

	// Experiments selects registry experiments by ID (default: all).
	// Custom, when set, runs these experiments instead; vibe's single
	// benchmarks use it.
	Experiments []string
	Custom      []*core.Experiment

	// Label is recorded in every result set.
	Label string

	// Metrics renders each cell's counters as metrics.txt,
	// MetricsJSON writes the cross-cell merge as metrics.json; either one
	// collects metrics and embeds them in the result sets. Trace records
	// a Chrome trace, Profile a folded virtual-time profile.
	Metrics     bool
	MetricsJSON bool
	Trace       bool
	Profile     bool

	// SpanSample records every Nth message's lifecycle span (0 disables)
	// when a metrics or trace sink exists. Workers is the pool width (see
	// Options.Workers).
	SpanSample int
	Workers    int
}

// Plan is a compiled request, run once. Its sinks exist before it runs, so
// a caller can read the collectors while the run is in flight.
type Plan struct {
	Experiments []*core.Experiment   // wrapped for attribution when profiling
	Scenarios   []*core.Scenario     // one per sweep cell
	Collectors  []*metrics.Collector // per cell; nil entries without a metrics sink
	Trace       *trace.Recorder      // nil without a trace sink
	Profile     *prof.Profile        // nil without a profile sink
	Workers     int                  // pool width; a trace pins it to 1

	req Request
}

// Compile selects the experiments, merges the scenario spec, expands and
// compiles the sweep grid, and wires the requested sinks into it.
func Compile(req Request) (*Plan, error) {
	exps, err := selectExperiments(req)
	if err != nil {
		return nil, err
	}
	spec, err := mergeSpec(req)
	if err != nil {
		return nil, err
	}
	specs, err := core.ExpandSweeps(spec, req.Sweeps)
	if err != nil {
		return nil, err
	}
	scs, err := core.CompileScenarios(specs, req.Quick)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Experiments: exps,
		Scenarios:   scs,
		Collectors:  make([]*metrics.Collector, len(scs)),
		Workers:     req.Workers,
		req:         req,
	}
	if req.Trace {
		// The recorder is single-writer, so a trace pins the run to one
		// worker; its ring keeps the last 1<<20 entries.
		p.Trace = &trace.Recorder{Limit: 1 << 20}
		p.Workers = 1
	}
	collect := req.Metrics || req.MetricsJSON
	// Spans feed only the metrics histograms and the trace, so without
	// either sink they stay off.
	if collect || p.Trace != nil {
		for i, sc := range scs {
			in := &core.Instr{Trace: p.Trace, SpanSample: req.SpanSample}
			if collect {
				in.Metrics = metrics.NewCollector()
				p.Collectors[i] = in.Metrics
			}
			sc.Instr = in
		}
	}
	// The profile is shared across workers; ProfiledExperiments scopes
	// each experiment's attribution under its ID.
	if req.Profile {
		p.Profile = prof.New()
		p.Experiments = core.ProfiledExperiments(p.Experiments, p.Profile)
	}
	return p, nil
}

// selectExperiments returns Custom, the named registry entries (each at
// most once), or all.
func selectExperiments(req Request) ([]*core.Experiment, error) {
	if req.Custom != nil {
		return req.Custom, nil
	}
	if len(req.Experiments) == 0 {
		return core.Experiments(), nil
	}
	exps := make([]*core.Experiment, 0, len(req.Experiments))
	for _, id := range req.Experiments {
		e, err := core.ExperimentByID(strings.ToUpper(id))
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(exps, func(x *core.Experiment) bool { return x.ID == e.ID }) {
			return nil, fmt.Errorf("runner: experiment %s selected twice", e.ID)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// mergeSpec layers the -set overrides and then the fault plan over the
// scenario (or scenario file). It copies the override map before writing
// it, so the caller's spec is never modified.
func mergeSpec(req Request) (core.ScenarioSpec, error) {
	spec := req.Scenario
	if req.ScenarioPath != "" {
		s, err := core.LoadScenarioSpec(req.ScenarioPath)
		if err != nil {
			return spec, err
		}
		spec = s
	}
	set, err := provider.CanonicalSet(spec.Set)
	if err != nil {
		return spec, err
	}
	spec.Set = set
	if len(req.Set) > 0 {
		kv, err := provider.ParseSet(req.Set)
		if err != nil {
			return spec, err
		}
		set := make(map[string]string, len(spec.Set)+len(kv))
		maps.Copy(set, spec.Set)
		maps.Copy(set, kv)
		spec.Set = set
	}
	if req.FaultPath != "" {
		f, err := fault.Load(req.FaultPath)
		if err != nil {
			return spec, err
		}
		spec.Fault = f
	}
	return spec, nil
}

// Artifact is one named, encoded output of a run.
type Artifact struct {
	Name string
	Data []byte
}

// Output is what a plan run produced.
type Output struct {
	Grid        [][]Result     // grid[scenario][experiment]
	Sets        []*results.Set // one per scenario cell; nil when a cell failed
	CellMetrics [][]byte       // per-cell metrics blocks (Metrics sink); metrics.txt joins them
	// Artifacts are the encoded outputs in order: the per-cell result
	// sets, then metrics.txt, metrics.json, trace.json and profile.folded
	// for the sinks the plan has.
	Artifacts []Artifact
}

// Artifact returns the named artifact's bytes, or nil.
func (o *Output) Artifact(name string) []byte {
	for _, a := range o.Artifacts {
		if a.Name == name {
			return a.Data
		}
	}
	return nil
}

func (o *Output) add(name string, data []byte) {
	o.Artifacts = append(o.Artifacts, Artifact{name, data})
}

// Save writes the named artifact of out to path and reports the file on
// w, the way the CLIs print it.
func (p *Plan) Save(out *Output, w io.Writer, name, path string) error {
	if err := os.WriteFile(path, out.Artifact(name), 0o644); err != nil {
		return err
	}
	switch name {
	case MetricsJSONArtifact:
		fmt.Fprintf(w, "metrics written to %s\n", path)
	case TraceArtifact:
		fmt.Fprintf(w, "trace written to %s (%d events, %d dropped)\n", path, p.Trace.Len(), p.Trace.Dropped())
	case ProfileArtifact:
		fmt.Fprintf(w, "profile written to %s (%d stacks)\n", path, p.Profile.Len())
	default:
		fmt.Fprintf(w, "results saved to %s\n", path)
	}
	return nil
}

// CellName names cell i of an n-cell grid's output: name itself for a
// single cell, otherwise name with ".cell<i>" before its extension, so
// results.json becomes results.cell0.json, results.cell1.json, ...
func CellName(name string, i, n int) string {
	if n == 1 {
		return name
	}
	ext := filepath.Ext(name)
	return fmt.Sprintf("%s.cell%d%s", strings.TrimSuffix(name, ext), i, ext)
}

// Run executes the grid, reporting each cell to progress (may be nil), and
// encodes the artifacts. A failed cell's error comes back with the grid
// and the sink artifacts but no result sets.
func (p *Plan) Run(progress func(ProgressEvent)) (*Output, error) {
	grid := RunGrid(p.Experiments, p.Scenarios, Options{Workers: p.Workers, Progress: progress})
	out := &Output{Grid: grid}
	// One snapshot per collector feeds the result sets and metrics.txt;
	// metrics.json merges the collectors themselves.
	snaps := make([]metrics.Snapshot, len(p.Collectors))
	for i, c := range p.Collectors {
		if c != nil {
			snaps[i] = c.Snapshot()
		}
	}
	gridErr := FirstGridError(grid)
	if gridErr == nil {
		if err := p.assemble(out, snaps); err != nil {
			return out, err
		}
	}
	if err := p.encodeSinks(out, snaps); err != nil {
		return out, err
	}
	return out, gridErr
}

// assemble builds and encodes one result set per scenario cell.
func (p *Plan) assemble(out *Output, snaps []metrics.Snapshot) error {
	n := len(p.Scenarios)
	out.Sets = make([]*results.Set, n)
	for si, sc := range p.Scenarios {
		set := &results.Set{Label: p.req.Label, Scenario: results.ProvenanceOf(sc)}
		if p.Collectors[si] != nil {
			set.Metrics = snaps[si].Map()
		}
		for ei, e := range p.Experiments {
			set.Experiments = append(set.Experiments, results.FromReport(e.ID, out.Grid[si][ei].Report))
		}
		data, err := results.Encode(set)
		if err != nil {
			return err
		}
		out.Sets[si] = set
		out.add(CellName(ResultsArtifact, si, n), data)
	}
	return nil
}

// encodeSinks renders the metrics, trace and profile artifacts.
func (p *Plan) encodeSinks(out *Output, snaps []metrics.Snapshot) error {
	if p.req.Metrics {
		out.CellMetrics = make([][]byte, len(snaps))
		for si, c := range p.Collectors {
			var b bytes.Buffer
			fmt.Fprintf(&b, "--- metrics: %s (%d simulated systems) ---\n", p.Scenarios[si].Label(), c.Systems())
			snaps[si].Render(&b)
			out.CellMetrics[si] = b.Bytes()
		}
		out.add(MetricsTextArtifact, bytes.Join(out.CellMetrics, nil))
	}
	if p.req.MetricsJSON {
		var b bytes.Buffer
		if err := metrics.MergedSnapshot(p.Collectors...).WriteJSON(&b); err != nil {
			return err
		}
		out.add(MetricsJSONArtifact, b.Bytes())
	}
	if p.Trace != nil {
		var b bytes.Buffer
		if err := p.Trace.WriteChrome(&b); err != nil {
			return err
		}
		out.add(TraceArtifact, b.Bytes())
	}
	if p.Profile != nil {
		var b bytes.Buffer
		if err := p.Profile.WriteFolded(&b); err != nil {
			return err
		}
		out.add(ProfileArtifact, b.Bytes())
	}
	return nil
}
