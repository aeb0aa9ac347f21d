package core

import (
	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/trace"
)

// Instr carries the optional instrumentation sinks of a run. A nil Instr
// (or nil/zero fields) means no collection: the simulated systems still
// count everything — counters never touch virtual time — but nobody reads
// them, so results are byte-identical with and without instrumentation
// (see TestInstrumentationZeroOverhead).
//
// The metrics collector and profile are safe to share across the parallel
// runner's workers; the trace recorder is single-writer and requires
// workers=1.
type Instr struct {
	Metrics *metrics.Collector
	Trace   *trace.Recorder

	// SpanSample enables message-lifecycle span recording, sampling every
	// Nth message per system (1 = every message; 0 disables). Spans feed
	// per-phase latency histograms into Metrics and complete events into
	// Trace; they accumulate but never sleep, so simulated time is
	// unchanged at any sampling rate.
	SpanSample int

	// Profile, when set, receives each system's per-component virtual-time
	// attribution as folded stacks.
	Profile *prof.Scope
}

// ProfiledExperiments wraps each experiment so its runs attribute
// virtual time into p under the experiment's ID — the per-experiment
// breakdown vibe-report renders and -profile-out writes. The original
// experiments and the caller's scenario are not modified.
func ProfiledExperiments(exps []*Experiment, p *prof.Profile) []*Experiment {
	out := make([]*Experiment, len(exps))
	for i, e := range exps {
		e := e
		w := *e
		w.Run = func(sc *Scenario) (*Report, error) {
			s := *sc
			var in Instr
			if s.Instr != nil {
				in = *s.Instr
			}
			in.Profile = p.Scope(e.ID)
			s.Instr = &in
			return e.Run(&s)
		}
		out[i] = &w
	}
	return out
}
