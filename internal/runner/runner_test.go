package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vibe/internal/core"
	"vibe/internal/metrics"
	"vibe/internal/provider"
	"vibe/internal/results"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// setJSON serializes run results into the suite's results-repository
// format, the same bytes vibe-report -json would write.
func setJSON(t *testing.T, rs []Result) []byte {
	t.Helper()
	set := &results.Set{}
	for i := range rs {
		if rs[i].Err != nil {
			t.Fatalf("cell %s failed: %v", rs[i].ID, rs[i].Err)
		}
		set.Experiments = append(set.Experiments, results.FromReport(rs[i].ID, rs[i].Report))
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runDefault runs exps as one RunGrid row under the default scenario.
func runDefault(exps []*core.Experiment, quick bool, opt Options) []Result {
	return RunGrid(exps, []*core.Scenario{core.DefaultScenario(quick)}, opt)[0]
}

// TestParallelMatchesSequential runs the full quick registry sequentially
// and with 8 workers and requires byte-identical serialized reports: the
// parallel runner must not perturb any experiment's virtual-time results
// or the assembly order.
func TestParallelMatchesSequential(t *testing.T) {
	exps := core.Experiments()
	seq := runDefault(exps, true, Options{Workers: 1})
	par := runDefault(exps, true, Options{Workers: 8})
	a, b := setJSON(t, seq), setJSON(t, par)
	if string(a) != string(b) {
		t.Fatalf("parallel run diverged from sequential run:\nseq %d bytes, par %d bytes", len(a), len(b))
	}
	for i := range seq {
		if seq[i].Index != i || par[i].Index != i {
			t.Fatalf("result %d out of order: seq idx %d, par idx %d", i, seq[i].Index, par[i].Index)
		}
		if seq[i].ID != exps[i].ID || par[i].ID != exps[i].ID {
			t.Fatalf("result %d id mismatch: want %s, got seq %s par %s", i, exps[i].ID, seq[i].ID, par[i].ID)
		}
	}
}

func fakeExp(id string, run func(*core.Scenario) (*core.Report, error)) *core.Experiment {
	return &core.Experiment{ID: id, Title: id, Run: run}
}

// TestFailingCellPropagates checks that one failing cell surfaces its
// error through FirstError, that the pool drains without deadlocking, and
// that cells never started are marked skipped rather than errored.
func TestFailingCellPropagates(t *testing.T) {
	boom := errors.New("boom")
	var exps []*core.Experiment
	for i := 0; i < 16; i++ {
		i := i
		exps = append(exps, fakeExp(fmt.Sprintf("E%02d", i), func(*core.Scenario) (*core.Report, error) {
			if i == 3 {
				return nil, boom
			}
			time.Sleep(time.Millisecond)
			return &core.Report{Title: "ok"}, nil
		}))
	}
	done := make(chan []Result, 1)
	go func() { done <- runDefault(exps, false, Options{Workers: 4}) }()
	var rs []Result
	select {
	case rs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunGrid deadlocked after a cell failure")
	}
	err := FirstError(rs)
	if !errors.Is(err, boom) {
		t.Fatalf("FirstError = %v, want wrapped %v", err, boom)
	}
	if rs[3].Err == nil || rs[3].Skipped() {
		t.Fatalf("failing cell: Err = %v, Skipped = %v", rs[3].Err, rs[3].Skipped())
	}
	skipped := 0
	for i := range rs {
		if rs[i].Skipped() {
			skipped++
			if i <= 3 {
				t.Fatalf("cell %d skipped, but indices are handed out in order before cell 3 fails", i)
			}
		}
	}
	if skipped == 0 {
		t.Log("no cells were skipped (all started before the failure was observed); fail-fast not exercised")
	}
}

// TestPanickingCellIsContained checks that a panic inside an experiment
// is converted to that cell's error instead of killing the process.
func TestPanickingCellIsContained(t *testing.T) {
	exps := []*core.Experiment{
		fakeExp("OK", func(*core.Scenario) (*core.Report, error) { return &core.Report{}, nil }),
		fakeExp("PANIC", func(*core.Scenario) (*core.Report, error) { panic("kaboom") }),
	}
	rs := runDefault(exps, false, Options{Workers: 2})
	if rs[0].Err != nil && !rs[0].Skipped() {
		t.Fatalf("healthy cell errored: %v", rs[0].Err)
	}
	if rs[1].Err == nil {
		t.Fatal("panicking cell reported no error")
	}
	if err := FirstError(rs); err == nil {
		t.Fatal("FirstError missed the panic-derived error")
	}
}

// TestProcessPanicIsCellError checks the simulated-process failure path
// end to end: a panic inside a process comes out of the engine's Run, the
// experiment's deferred System.Close tears the half-run system down
// without hanging, and the runner reports the panic as the cell's Err
// with the process named — instead of the process taking the whole
// program down. No goroutine of the dead system survives.
func TestProcessPanicIsCellError(t *testing.T) {
	before := runtime.NumGoroutine()
	exp := fakeExp("SIMPANIC", func(*core.Scenario) (*core.Report, error) {
		sys := via.NewSystem(provider.CLAN(), 2, 1)
		defer sys.Close()
		q := sim.NewQueue[int](sys.Eng)
		for i := 0; i < 3; i++ {
			sys.Eng.Spawn("parked", func(p *sim.Proc) {
				p.SetDaemon(true)
				for {
					q.Pop(p)
				}
			})
		}
		sys.Go(0, "oneshot", func(ctx *via.Ctx) {}) // leaves an idle pooled coroutine
		sys.Go(1, "faulty", func(ctx *via.Ctx) {
			ctx.Sleep(sim.Microsecond)
			var m map[string]int
			m["boom"]++ // nil-map write: a runtime panic
		})
		return &core.Report{}, sys.Run()
	})
	done := make(chan []Result)
	go func() { done <- runDefault([]*core.Experiment{exp}, false, Options{Workers: 1}) }()
	var rs []Result
	select {
	case rs = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cell with a panicking process hung")
	}
	err := rs[0].Err
	if err == nil {
		t.Fatal("panicking process reported no error")
	}
	for _, want := range []string{"SIMPANIC", `"h1/faulty"`, "nil map"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("cell error %q does not mention %s", err, want)
		}
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d across the panicked cell", before, after)
	}
}

// TestWorkersClamp checks the worker-count defaults and bounds.
func TestWorkersClamp(t *testing.T) {
	if got := (Options{Workers: 8}).workers(3); got != 3 {
		t.Fatalf("workers(3) with 8 requested = %d, want 3", got)
	}
	if got := (Options{Workers: -1}).workers(100); got < 1 {
		t.Fatalf("workers must be >= 1, got %d", got)
	}
	if got := (Options{Workers: 1}).workers(100); got != 1 {
		t.Fatalf("explicit sequential run got %d workers", got)
	}
}

// TestRunGrid checks that the scenario × experiment fan-out assembles
// results in submission order with the right scenario labels, and that a
// derived scenario actually changes what the experiment sees.
func TestRunGrid(t *testing.T) {
	exps := []*core.Experiment{
		fakeExp("A", func(sc *core.Scenario) (*core.Report, error) {
			return &core.Report{Title: "A/" + sc.Label()}, nil
		}),
		fakeExp("B", func(sc *core.Scenario) (*core.Report, error) {
			return &core.Report{Title: "B/" + sc.Label()}, nil
		}),
	}
	specs, err := core.ExpandSweeps(core.ScenarioSpec{}, []string{"TLBCapacity=8,32"})
	if err != nil {
		t.Fatal(err)
	}
	scs, err := core.CompileScenarios(specs, true)
	if err != nil {
		t.Fatal(err)
	}
	grid := RunGrid(exps, scs, Options{Workers: 4})
	if err := FirstGridError(grid); err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 2 {
		t.Fatalf("grid shape = %dx%d, want 2x2", len(grid), len(grid[0]))
	}
	for si, sc := range scs {
		for ei, e := range exps {
			r := grid[si][ei]
			if r.ID != e.ID || r.Scenario != sc.Label() {
				t.Fatalf("cell [%d][%d] = (%s, %s), want (%s, %s)",
					si, ei, r.ID, r.Scenario, e.ID, sc.Label())
			}
			if want := e.ID + "/" + sc.Label(); r.Report.Title != want {
				t.Fatalf("cell [%d][%d] report = %q, want %q", si, ei, r.Report.Title, want)
			}
		}
	}
	if grid[0][0].Scenario == grid[1][0].Scenario {
		t.Fatal("sweep cells share a scenario label; axis expansion is broken")
	}
}

// TestSharedCollectorUnderParallelRun attaches one metrics.Collector to a
// scenario and fans the quick registry across 8 workers. Every simulated
// system merges into the same collector concurrently, so this test is the
// race detector's view of Collector.Merge; it also checks the merged
// counters look like a real run (systems seen, events dispatched).
func TestSharedCollectorUnderParallelRun(t *testing.T) {
	scs, err := core.CompileScenarios([]core.ScenarioSpec{{}}, true)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	scs[0].Instr = &core.Instr{Metrics: col}

	exps := core.Experiments()
	grid := RunGrid(exps, scs, Options{Workers: 8})
	if err := FirstGridError(grid); err != nil {
		t.Fatal(err)
	}
	if col.Systems() < len(exps) {
		t.Fatalf("collector saw %d systems across %d experiments; every experiment simulates at least one",
			col.Systems(), len(exps))
	}
	snap := col.Snapshot().Map()
	if v, ok := snap["sim.events_dispatched"]; !ok || v == 0 {
		t.Fatalf("sim.events_dispatched = %v (ok=%v); merged snapshot is empty", v, ok)
	}
	if v, ok := snap["fabric.delivered"]; !ok || v == 0 {
		t.Fatalf("fabric.delivered = %v (ok=%v); no packets crossed the fabric", v, ok)
	}
}

// TestEmptyRun checks the degenerate empty registry.
func TestEmptyRun(t *testing.T) {
	rs := runDefault(nil, false, Options{})
	if len(rs) != 0 {
		t.Fatalf("got %d results for empty input", len(rs))
	}
	if err := FirstError(rs); err != nil {
		t.Fatalf("FirstError on empty = %v", err)
	}
}
