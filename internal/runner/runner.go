// Package runner executes experiment cells from the VIBe registry across a
// worker pool. Every cell owns its own simulation engine and shares no
// state with any other cell, so cells are embarrassingly parallel; the
// runner's job is to exploit that while keeping the assembled output
// deterministic: results come back indexed by submission order, so a
// parallel run assembles the exact same report sequence as a sequential
// one regardless of completion order.
//
// A cell is an (experiment, scenario) pair. RunGrid fans every cell of
// the experiments × scenarios grid out across one pool, so parameter
// sweeps parallelize exactly like the base registry.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vibe/internal/core"
)

// Result is the outcome of one experiment cell.
type Result struct {
	Index    int           // position in the submitted experiment slice
	ID       string        // experiment id
	Scenario string        // scenario label the cell ran under
	Report   *core.Report  // nil when Err != nil
	Err      error         // the cell's error, or errSkipped after fail-fast
	Wall     time.Duration // host wall-clock time the cell took
}

// errSkipped marks cells never started because an earlier cell failed.
// Indices are handed to workers in order, so a skipped cell's index is
// always greater than the failing cell's: scanning results in index order
// always reaches a real error before any skipped cell.
var errSkipped = fmt.Errorf("runner: skipped after earlier failure")

// Skipped reports whether r was abandoned due to another cell's failure.
func (r *Result) Skipped() bool { return r.Err == errSkipped }

// Options configures a suite run.
type Options struct {
	// Workers is the number of cells run concurrently. Zero or negative
	// means runtime.NumCPU(). One gives a fully sequential run.
	Workers int

	// Progress, when set, receives one event per cell, delivered in
	// dispatch order (cell 0, 1, 2, ...) regardless of completion order:
	// out-of-order completions are buffered until every earlier cell has
	// reported. Callbacks run serially under an internal lock on whichever
	// goroutine unblocked the sequence, so they must be fast; nil costs
	// nothing.
	Progress func(ProgressEvent)
}

func (o Options) workers(cells int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunGrid executes the experiments × scenarios grid on one shared worker
// pool and returns results as grid[scenario][experiment], each row in
// experiment submission order. A failing cell stops new cells from
// starting (cells already in flight finish) and its error is preserved in
// its slot; fail-fast spans the whole grid, so unstarted cells in every
// scenario are skipped. Panics inside a cell's Run function are converted
// to errors so one bad experiment cannot take down the pool.
func RunGrid(exps []*core.Experiment, scs []*core.Scenario, opt Options) [][]Result {
	grid := make([][]Result, len(scs))
	for i := range grid {
		grid[i] = make([]Result, len(exps))
	}
	cells := len(exps) * len(scs)
	if cells == 0 {
		return grid
	}
	var failed atomic.Bool
	prog := newProgressEmitter(opt.Progress, cells)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(cells); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range idx {
				si, ei := c/len(exps), c%len(exps)
				grid[si][ei] = runCell(ei, exps[ei], scs[si], &failed)
				prog.complete(progressOf(c, &grid[si][ei]))
			}
		}()
	}
	// The fail-fast check lives here, on the ordered dispatch path, not in
	// the workers: indices are skipped in submission order, so a skipped
	// cell's index is always greater than the failing cell's. A worker-side
	// check could observe the failure flag out of order and skip a cell
	// submitted before the one that failed.
	for c := 0; c < cells; c++ {
		si, ei := c/len(exps), c%len(exps)
		if failed.Load() {
			grid[si][ei] = Result{Index: ei, ID: exps[ei].ID, Scenario: scs[si].Label(), Err: errSkipped}
			prog.complete(progressOf(c, &grid[si][ei]))
			continue
		}
		idx <- c
	}
	close(idx)
	wg.Wait()
	return grid
}

func runCell(i int, e *core.Experiment, sc *core.Scenario, failed *atomic.Bool) (res Result) {
	res = Result{Index: i, ID: e.ID, Scenario: sc.Label()}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: experiment %s panicked: %v", e.ID, r)
		}
		if res.Err != nil && !res.Skipped() {
			failed.Store(true)
		}
	}()
	rep, err := e.Run(sc)
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", e.ID, err)
		return res
	}
	res.Report = rep
	return res
}

// FirstError returns the lowest-index real error, or nil if every cell
// succeeded.
func FirstError(results []Result) error {
	for i := range results {
		if err := results[i].Err; err != nil && !results[i].Skipped() {
			return err
		}
	}
	return nil
}

// FirstGridError scans a RunGrid result for the first real error, row by
// row.
func FirstGridError(grid [][]Result) error {
	for _, row := range grid {
		if err := FirstError(row); err != nil {
			return err
		}
	}
	return nil
}
