// Package prof is the virtual-time profiler: it attributes simulated
// nanoseconds to component stacks and writes them out in the folded-stack
// format pprof and flamegraph tools consume (`frame1;frame2;frame3 value`
// per line). Unlike a wall-clock profiler there is no sampling error —
// every simulated nanosecond a component accounts for is attributed
// exactly once, so the output is a complete decomposition of where
// virtual time went.
//
// Components do not talk to this package directly; they keep their
// always-on busy counters (cpu.Meter, the NIC Busy* accumulators) and the
// collection pass in internal/via folds them into a Scope after the run.
// A Profile is mutex-guarded so parallel experiment workers can share one.
package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Profile accumulates virtual-time samples keyed by semicolon-joined
// frame stacks. Safe for concurrent use.
type Profile struct {
	mu      sync.Mutex
	samples map[string]int64
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{samples: make(map[string]int64)}
}

// Scope returns a view of the profile with frames prepended to every
// stack added through it — typically the experiment ID, so one shared
// profile keeps per-experiment attributions separate.
func (p *Profile) Scope(frames ...string) *Scope {
	return &Scope{p: p, prefix: strings.Join(frames, ";")}
}

// add records ns under the joined stack. Zero and negative samples are
// dropped: they carry no attribution and would clutter the output.
func (p *Profile) add(stack string, ns int64) {
	if ns <= 0 || stack == "" {
		return
	}
	p.mu.Lock()
	p.samples[stack] += ns
	p.mu.Unlock()
}

// Entry is one folded stack and its accumulated virtual-time value.
type Entry struct {
	Stack string
	Value int64
}

// Entries returns the stacks under prefix (the whole profile when prefix
// is empty), largest value first, ties broken by stack name so the order
// is deterministic.
func (p *Profile) Entries(prefix string) []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Entry
	for k, v := range p.samples {
		if prefix != "" && k != prefix && !strings.HasPrefix(k, prefix+";") {
			continue
		}
		out = append(out, Entry{Stack: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Stack < out[j].Stack
	})
	return out
}

// Len reports the number of distinct stacks.
func (p *Profile) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// WriteFolded writes the profile in folded-stack format, sorted by stack
// name so the output is byte-deterministic. The result feeds
// `pprof -flame` (via stackcollapse input) or any flamegraph tool.
func (p *Profile) WriteFolded(w io.Writer) error {
	p.mu.Lock()
	keys := make([]string, 0, len(p.samples))
	for k := range p.samples {
		keys = append(keys, k)
	}
	vals := make(map[string]int64, len(p.samples))
	for k, v := range p.samples {
		vals[k] = v
	}
	p.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// RenderTop writes the n largest stacks under prefix as a table with each
// stack's share of the prefix total. Writes nothing when the prefix has
// no samples (an experiment run without profiling enabled).
func (p *Profile) RenderTop(w io.Writer, prefix string, n int) {
	entries := p.Entries(prefix)
	if len(entries) == 0 {
		return
	}
	var total int64
	for _, e := range entries {
		total += e.Value
	}
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	fmt.Fprintf(w, "virtual-time profile (%s): %d ns total\n", prefix, total)
	for _, e := range entries {
		stack := e.Stack
		if prefix != "" {
			stack = strings.TrimPrefix(stack, prefix+";")
		}
		fmt.Fprintf(w, "  %6.2f%%  %-40s %d ns\n",
			100*float64(e.Value)/float64(total), stack, e.Value)
	}
}

// Scope attributes samples under a fixed frame prefix. The zero Scope
// (nil receiver included) drops everything, so call sites need no guard.
type Scope struct {
	p      *Profile
	prefix string
}

// Add records ns of virtual time under frames, prefixed by the scope's
// frames. Nil scopes and non-positive values are no-ops.
func (s *Scope) Add(ns int64, frames ...string) {
	if s == nil || s.p == nil {
		return
	}
	stack := strings.Join(frames, ";")
	if s.prefix != "" {
		if stack == "" {
			stack = s.prefix
		} else {
			stack = s.prefix + ";" + stack
		}
	}
	s.p.add(stack, ns)
}
