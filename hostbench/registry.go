package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vibe/internal/core"
	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/results"
	"vibe/internal/runner"
	"vibe/internal/trace"
)

// The registry workload is what a user runs to reproduce the paper: every
// experiment of the full (non-quick) registry under the default scenario,
// on one runner worker, with instrumentation off. The seed only draws
// the order cells are dispatched in, afresh for every pass; the result set
// is assembled in registry order, so its encoding is the same for every
// seed.

// registryInputs is the compiled scenario and the source of dispatch
// orders.
type registryInputs struct {
	sc   *core.Scenario
	exps []*core.Experiment // registry order
	ids  []string
	rng  *rand.Rand
}

// nextOrder draws the next pass's dispatch order. A fixed order would tie
// each experiment to one place in the collector's cycle for a whole run,
// and its cell walls to whichever place the seed gave it.
func (in *registryInputs) nextOrder() []*core.Experiment {
	order := make([]*core.Experiment, len(in.exps))
	for j, p := range in.rng.Perm(len(in.exps)) {
		order[j] = in.exps[p]
	}
	return order
}

// setupRegistry compiles the default scenario and loads the registry —
// the host work before the first cell runs. It takes microseconds, so it
// is repeated registrySetupReps times, every repetition a setup sample.
func (b *bench) setupRegistry() (*registryInputs, error) {
	var in *registryInputs
	for i := 0; i < registrySetupReps; i++ {
		t0 := time.Now()
		var sc *core.Scenario
		var err error
		b.sp.do("core.NewScenario", 0, func(int) { sc, err = core.NewScenario(core.ScenarioSpec{}, false) })
		if err != nil {
			return nil, err
		}
		exps := core.Experiments()
		in = &registryInputs{sc: sc, exps: exps, rng: rand.New(rand.NewSource(b.opt.seed))}
		for _, e := range exps {
			in.ids = append(in.ids, e.ID)
		}
		b.rep.setup = append(b.rep.setup, time.Since(t0).Seconds())
	}
	return in, nil
}

const registrySetupReps = 101

// runCells runs exps under sc on one worker.
func (b *bench) runCells(exps []*core.Experiment, sc *core.Scenario) []runner.Result {
	var res []runner.Result
	b.sp.do("runner.RunGrid", 0, func(int) {
		res = runner.RunGrid(exps, []*core.Scenario{sc}, runner.Options{Workers: 1})[0]
	})
	return res
}

// encodeRegistry assembles the cells' reports into a result set in
// registry order and returns its encoding and the encoding's sha256.
func (b *bench) encodeRegistry(in *registryInputs, res []runner.Result) ([]byte, string, error) {
	byID := map[string]*core.Report{}
	for _, r := range res {
		byID[r.ID] = r.Report
	}
	set := &results.Set{Scenario: results.ProvenanceOf(in.sc)}
	for _, id := range in.ids {
		if rep := byID[id]; rep != nil {
			set.Experiments = append(set.Experiments, results.FromReport(id, rep))
		}
	}
	var data []byte
	var err error
	b.sp.do("results.Encode", 0, func(int) { data, err = results.Encode(set) })
	sum := sha256.Sum256(data)
	return data, hex.EncodeToString(sum[:]), err
}

// checkRegistry counts each cell as an operation (failed if it errored
// or was skipped) and the encoded result set as one more, failed unless
// its sha256 matches the golden. It returns the encoded bytes.
func (b *bench) checkRegistry(in *registryInputs, res []runner.Result) []byte {
	for _, r := range res {
		b.rep.check(r.Err == nil, "cell %s: %v", r.ID, r.Err)
		if r.Err != nil {
			b.rep.layer["runner.cells_failed"]++
		}
	}
	data, sum, err := b.encodeRegistry(in, res)
	b.rep.check(err == nil && sum == goldens.Registry, "registry result set sha256 %s, golden %s (encode error %v)", sum, goldens.Registry, err)
	return data
}

// registryWarm and registryTracedEvery place the untraced run's traced
// jobs (see interleaved).
const (
	registryWarm        = 2
	registryTracedEvery = 3
)

func runRegistry(b *bench) error {
	in, err := b.setupRegistry()
	if err != nil {
		return err
	}
	// Traced jobs: the whole registry with what -trace-out, -profile-out
	// and -metrics-out turn on — one shared trace recorder, a metrics
	// collector, every message's span and a virtual-time profile — ending
	// with the Chrome trace and folded profile written out. The simulated
	// results must not change. At least three of them, so one slow pass
	// does not move the median. The peak RSS is read before the first.
	isTraced := func(i int) bool { return interleaved(i, registryWarm, registryTracedEvery) }
	var res []runner.Result
	cells := map[string]samples{}
	_, err = b.timed(b.opt.seconds, registryWarm+3*registryTracedEvery,
		func(i int) error {
			if !isTraced(i) {
				res = b.runCells(in.nextOrder(), in.sc)
				return nil
			}
			rec := &trace.Recorder{Limit: 1 << 20}
			p := prof.New()
			sc := *in.sc
			sc.Instr = &core.Instr{Metrics: metrics.NewCollector(), Trace: rec, SpanSample: 1}
			res = b.runCells(core.ProfiledExperiments(in.nextOrder(), p), &sc)
			if err := rec.WriteChrome(io.Discard); err != nil {
				return err
			}
			return p.WriteFolded(io.Discard)
		},
		func(i int, p pass) error {
			b.checkRegistry(in, res)
			if isTraced(i) {
				b.rep.tracedJobs = append(b.rep.tracedJobs, sample{p.wall, p.steal})
				return nil
			}
			b.rep.addPass(p)
			for _, r := range res {
				cells[r.ID] = append(cells[r.ID], sample{r.Wall.Seconds(), p.steal})
			}
			if isTraced(i+1) && b.rep.peakRSS == 0 {
				b.rep.peakRSS = peakRSS()
			}
			return nil
		})
	if err != nil {
		return err
	}
	// A job is one experiment; its latency is its median cell wall over
	// the untraced passes. The 32 experiments differ in cost by three
	// orders of magnitude, so pooling every cell of every pass would make
	// the tail land on a different experiment whenever the pass count
	// changes.
	for _, ws := range cells {
		b.rep.jobs = append(b.rep.jobs, sample{v: median(ws.calm())})
	}
	return nil
}

func tracedRegistry(b *bench) error {
	in, err := b.setupRegistry()
	if err != nil {
		return err
	}
	b.rep.layer["core.compile_s"] = median(b.sp.durations("core.NewScenario"))

	// Untraced base passes: per-experiment wall, pool idle time, and the
	// base of the tracing-overhead ratio.
	var res []runner.Result
	cellWalls := map[string][]float64{}
	var idle []float64
	fn := func(int) error { res = b.runCells(in.nextOrder(), in.sc); return nil }
	base, err := b.timed(b.opt.seconds/3, 2, fn, func(_ int, p pass) error {
		busy := 0.0
		for _, r := range res {
			cellWalls[r.ID] = append(cellWalls[r.ID], r.Wall.Seconds())
			busy += r.Wall.Seconds()
		}
		idle = append(idle, p.wall-busy)
		b.checkRegistry(in, res)
		return nil
	})
	if err != nil {
		return err
	}
	for id, ws := range cellWalls {
		b.rep.layer[fmt.Sprintf("core.exp.%s.wall_s", id)] = median(ws)
	}
	b.rep.layer["runner.pool_idle_s"] = median(idle)

	var traced []pass
	err = b.profiled(func() error {
		var err error
		traced, err = b.timed(b.opt.seconds/3, 1, fn, func(int, pass) error {
			data := b.checkRegistry(in, res)
			b.rep.layer["results.encoded_bytes"] = float64(len(data))
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	b.overhead(base, traced)
	b.rep.layer["results.encode_s"] = median(b.sp.durations("results.Encode"))

	// Counters: one more pass with a metrics collector attached.
	c := metrics.NewCollector()
	sc := *in.sc
	sc.Instr = &core.Instr{Metrics: c}
	b.checkRegistry(in, b.runCells(in.nextOrder(), &sc))
	if err := b.counters(c); err != nil {
		return err
	}
	return b.micro()
}
