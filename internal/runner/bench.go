package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"vibe/internal/core"
)

// CellBench is one experiment's wall-clock timing in both modes.
type CellBench struct {
	ID           string  `json:"id"`
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
}

// SuiteBench is the machine-readable suite timing report written to
// BENCH_suite.json so the performance trajectory is comparable across PRs.
//
// Speedup is parallel speedup (sequential_ms / parallel_ms) unless a
// baseline from an earlier revision is supplied, in which case it is the
// end-to-end improvement (baseline_sequential_ms / parallel_ms).
type SuiteBench struct {
	Label                string      `json:"label,omitempty"`
	Date                 string      `json:"date"`
	Quick                bool        `json:"quick"`
	Workers              int         `json:"workers"`
	GOMAXPROCS           int         `json:"gomaxprocs"`
	BaselineLabel        string      `json:"baseline_label,omitempty"`
	BaselineSequentialMs float64     `json:"baseline_sequential_ms,omitempty"`
	SequentialMs         float64     `json:"sequential_ms"`
	ParallelMs           float64     `json:"parallel_ms"`
	Speedup              float64     `json:"speedup"`
	Experiments          []CellBench `json:"experiments"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// BenchSuite times the given experiments sequentially (Workers: 1) and
// then with opt.Workers, and returns the combined timing report. Both
// passes must succeed.
func BenchSuite(exps []*core.Experiment, opt Options, label string) (*SuiteBench, error) {
	seq := Run(exps, Options{Quick: opt.Quick, Workers: 1, Scenario: opt.Scenario})
	if err := FirstError(seq); err != nil {
		return nil, fmt.Errorf("sequential pass: %w", err)
	}
	par := Run(exps, opt)
	if err := FirstError(par); err != nil {
		return nil, fmt.Errorf("parallel pass: %w", err)
	}
	b := &SuiteBench{
		Label:      label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Quick:      opt.Quick,
		Workers:    opt.workers(len(exps)),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var seqTotal time.Duration
	for i := range seq {
		seqTotal += seq[i].Wall
		b.Experiments = append(b.Experiments, CellBench{
			ID:           seq[i].ID,
			SequentialMs: ms(seq[i].Wall),
			ParallelMs:   ms(par[i].Wall),
		})
	}
	b.SequentialMs = ms(seqTotal)
	// Per-cell wall times overlap under parallelism; the parallel total is
	// the elapsed time of the whole pass, measured end to end. Best of two
	// passes, so one GC pause does not distort the report.
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		par2 := Run(exps, opt)
		if err := FirstError(par2); err != nil {
			return nil, fmt.Errorf("parallel pass: %w", err)
		}
		if t := ms(time.Since(start)); pass == 0 || t < b.ParallelMs {
			b.ParallelMs = t
		}
	}
	if b.ParallelMs > 0 {
		b.Speedup = b.SequentialMs / b.ParallelMs
	}
	return b, nil
}

// SetBaseline records an earlier revision's sequential wall time and
// recomputes Speedup against it, tracking improvement across PRs.
func (b *SuiteBench) SetBaseline(label string, sequentialMs float64) {
	b.BaselineLabel = label
	b.BaselineSequentialMs = sequentialMs
	if b.ParallelMs > 0 && sequentialMs > 0 {
		b.Speedup = sequentialMs / b.ParallelMs
	}
}

// Save writes the report as indented JSON.
func (b *SuiteBench) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
