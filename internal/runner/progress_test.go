package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vibe/internal/core"
)

// TestProgressDispatchOrder fans a grid of jittered fake experiments
// across 8 workers and checks the progress stream: exactly one event per
// cell, delivered strictly in dispatch order (scenario-major,
// experiment-minor) with monotonically increasing Done counters, even
// though cells complete in arbitrary order. Run under -race (make race),
// this is also the emitter's concurrency test: workers publish
// completions from every goroutine in the pool.
func TestProgressDispatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var exps []*core.Experiment
	for i := 0; i < 12; i++ {
		d := time.Duration(rng.Intn(3)) * time.Millisecond
		exps = append(exps, fakeExp(fmt.Sprintf("E%02d", i), func(*core.Scenario) (*core.Report, error) {
			time.Sleep(d)
			return &core.Report{Title: "ok"}, nil
		}))
	}
	specs, err := core.ExpandSweeps(core.ScenarioSpec{}, []string{"TLBCapacity=8,32"})
	if err != nil {
		t.Fatal(err)
	}
	scs, err := core.CompileScenarios(specs, true)
	if err != nil {
		t.Fatal(err)
	}

	var events []ProgressEvent
	grid := RunGrid(exps, scs, Options{Workers: 8, Progress: func(ev ProgressEvent) {
		events = append(events, ev) // serialized by the emitter's lock
	}})
	if err := FirstGridError(grid); err != nil {
		t.Fatal(err)
	}

	total := len(exps) * len(scs)
	if len(events) != total {
		t.Fatalf("got %d events, want %d", len(events), total)
	}
	for i, ev := range events {
		if ev.Cell != i {
			t.Fatalf("event %d: Cell = %d, want dispatch order", i, ev.Cell)
		}
		if ev.Done != i+1 || ev.Total != total {
			t.Fatalf("event %d: Done/Total = %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, total)
		}
		si, ei := i/len(exps), i%len(exps)
		if ev.Experiment != exps[ei].ID || ev.Scenario != scs[si].Label() || ev.Index != ei {
			t.Fatalf("event %d = (%s, %s, idx %d), want (%s, %s, idx %d)",
				i, ev.Experiment, ev.Scenario, ev.Index, exps[ei].ID, scs[si].Label(), ei)
		}
		if ev.Err != nil || ev.Skipped {
			t.Fatalf("event %d unexpectedly failed/skipped: %v/%v", i, ev.Err, ev.Skipped)
		}
	}
}

// TestProgressCoversSkippedCells checks fail-fast interaction: after a
// cell fails, every cell — started, failed, or skipped — still produces
// exactly one event, the failing cell carries its error, and skipped
// cells report Skipped with a nil Err (consumers never see the internal
// sentinel).
func TestProgressCoversSkippedCells(t *testing.T) {
	boom := errors.New("boom")
	var exps []*core.Experiment
	for i := 0; i < 16; i++ {
		i := i
		exps = append(exps, fakeExp(fmt.Sprintf("E%02d", i), func(*core.Scenario) (*core.Report, error) {
			if i == 2 {
				return nil, boom
			}
			time.Sleep(time.Millisecond)
			return &core.Report{}, nil
		}))
	}
	var events []ProgressEvent
	rs := runDefault(exps, false, Options{Workers: 4, Progress: func(ev ProgressEvent) {
		events = append(events, ev)
	}})
	if err := FirstError(rs); !errors.Is(err, boom) {
		t.Fatalf("FirstError = %v, want %v", err, boom)
	}
	if len(events) != len(exps) {
		t.Fatalf("got %d events, want one per cell (%d)", len(events), len(exps))
	}
	for i, ev := range events {
		if ev.Cell != i {
			t.Fatalf("event %d out of dispatch order: cell %d", i, ev.Cell)
		}
		switch {
		case i == 2:
			if !errors.Is(ev.Err, boom) || ev.Skipped {
				t.Fatalf("failing cell event = err %v skipped %v", ev.Err, ev.Skipped)
			}
		case ev.Skipped:
			if ev.Err != nil {
				t.Fatalf("skipped cell %d leaked error %v", i, ev.Err)
			}
		case ev.Err != nil:
			t.Fatalf("cell %d errored unexpectedly: %v", i, ev.Err)
		}
	}
}

// TestProgressNilIsFree checks the nil-callback path stays inert: no
// emitter is constructed and RunGrid behaves exactly as before.
func TestProgressNilIsFree(t *testing.T) {
	if e := newProgressEmitter(nil, 10); e != nil {
		t.Fatal("nil callback must produce a nil emitter")
	}
	var e *progressEmitter
	e.complete(ProgressEvent{}) // must not panic
	var ran atomic.Bool
	exps := []*core.Experiment{fakeExp("A", func(*core.Scenario) (*core.Report, error) {
		ran.Store(true)
		return &core.Report{}, nil
	})}
	if err := FirstError(runDefault(exps, false, Options{Workers: 1})); err != nil || !ran.Load() {
		t.Fatalf("run without progress broke: err=%v ran=%v", err, ran.Load())
	}
}
