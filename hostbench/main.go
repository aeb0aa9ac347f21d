// Command hostbench measures the host cost of the VIBe simulator: how long
// the simulator itself takes, how much CPU and memory it uses, and — in a
// separate traced run — which of its layers the cost goes to. It drives
// the public APIs of core, runner, via, results and serve in-process and
// checks every simulated output it times.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash hostbench/run.sh --workload registry --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	registry  the full 32-experiment registry, default scenario, one worker
//	incast    a 32->1 reliable RDMA-write incast on a routed fat-tree
//	vibed     an in-process vibed daemon driven by one closed-loop client
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds
// the per-layer metrics, from a run with the CPU profiler, benchmark spans
// and the program's counters on. Reports, the per-package CPU rollup and
// the spans are written under .bench_out/hostbench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// report accumulates what one run measured.
type report struct {
	setup                         []float64
	wall, cpu, allocBytes, allocs samples
	jobs, tracedJobs              samples
	peakRSS                       float64

	attempted, failed int
	failures          []string

	layer map[string]float64 // per-layer metrics, traced run only
}

// check counts one attempted operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	r.tally(1, bad, format, args...)
}

// tally counts n attempted operations of which bad failed, describing the
// failure by format and args.
func (r *report) tally(n, bad int, format string, args ...any) {
	r.attempted += n
	if bad == 0 {
		return
	}
	r.failed += bad
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) addPass(p pass) {
	r.wall = append(r.wall, sample{p.wall, p.steal})
	r.cpu = append(r.cpu, sample{p.cpu, p.steal})
	r.allocBytes = append(r.allocBytes, sample{p.allocBytes, p.steal})
	r.allocs = append(r.allocs, sample{p.allocs, p.steal})
}

// bench is the state one run shares across its phases.
type bench struct {
	opt options
	rep *report
	sp  *spans
	out string // report directory

	waited time.Duration // spent waiting for a calm machine, at most maxCalmWait
}

// timed runs passes until at least min passes ran and budget seconds have
// elapsed since the first began, not counting waits for a calm machine
// before the first pass and after each disturbed one. Each pass is fn,
// measured by measure, then post with the measurement, untimed: checks of
// the pass's outputs belong there.
func (b *bench) timed(budget float64, min int, fn func(i int) error, post func(i int, p pass) error) ([]pass, error) {
	b.waitCalm()
	start := time.Now()
	var ps []pass
	for i := 0; i < min || time.Since(start).Seconds() < budget; i++ {
		if i > 0 && ps[i-1].steal > stealMax {
			start = start.Add(b.waitCalm())
		}
		p, err := measure(func() error { return fn(i) })
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
		if err := post(i, p); err != nil {
			return ps, err
		}
	}
	return ps, nil
}

// interleaved reports whether pass i of an untraced run is a traced job:
// after warm untraced passes, every every-th pass is (none for every 0).
// Spread over the whole run, the traced jobs sample the same stretch of
// time as the untraced passes, and their median draws on the whole budget.
func interleaved(i, warm, every int) bool {
	return every > 0 && i >= warm && (i-warm)%every == every-1
}

// workload is one benchmark workload. run fills the end-to-end samples;
// traced fills the per-layer metrics.
type workload struct {
	run    func(b *bench) error
	traced func(b *bench) error
}

var workloads = map[string]workload{
	"registry": {runRegistry, tracedRegistry},
	"incast":   {runIncast, tracedIncast},
	"vibed":    {runVibed, tracedVibed},
}

func main() {
	var o options
	var traceFlag int
	var printGoldens bool
	flag.StringVar(&o.workload, "workload", "", "workload: registry, incast or vibed")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds of timed passes")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&printGoldens, "print-goldens", false, "print the correctness goldens for goldens.json and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if printGoldens {
		if err := printGoldenFile(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	b := &bench{
		opt: o,
		rep: &report{layer: map[string]float64{}},
		sp:  newSpans(o.trace),
		out: filepath.Join(".bench_out", "hostbench"),
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		fatal(err)
	}
	run := w.run
	if o.trace {
		run = w.traced
	}
	if err := run(b); err != nil {
		fatal(fmt.Errorf("%s: %w", o.workload, err))
	}
	res, err := b.result(spec)
	if err != nil {
		fatal(err)
	}
	b.summarize(os.Stdout)
	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, traceFlag))
	if err := writeJSON(base+".json", res); err != nil {
		fatal(err)
	}
	if o.trace {
		if err := b.writeSpans(base + ".spans.json"); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from the run's undisturbed
// samples.
func (r *report) endToEnd() map[string]float64 {
	jobs := r.jobs.calm()
	_, tailV, _ := tail(jobs)
	return map[string]float64{
		"setup_s":                  median(r.setup),
		"wall_s":                   median(r.wall.calm()),
		"cpu_s":                    median(r.cpu.calm()),
		"alloc_bytes":              median(r.allocBytes.calm()),
		"allocs":                   median(r.allocs.calm()),
		"peak_rss_bytes":           r.peakRSS,
		"job_latency_p50_s":        median(jobs),
		"job_latency_tail_s":       tailV,
		"traced_job_latency_p50_s": median(r.tracedJobs.calm()),
	}
}

// result assembles the final JSON object: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one. Every metric the
// spec declares is present; a layer a workload never reaches reads 0. A
// computed metric the spec does not declare is an error.
func (b *bench) result(spec *benchSpec) (*result, error) {
	vals, decl := b.rep.endToEnd(), spec.EndToEnd
	if b.opt.trace {
		b.rep.layer["fail_ratio"] = float64(b.rep.failed) / float64(max(b.rep.attempted, 1))
		vals, decl = b.rep.layer, spec.PerLayer
	}
	res := &result{
		Correct:   b.rep.failed == 0 && b.rep.attempted > 0,
		Attempted: b.rep.attempted,
		Failed:    b.rep.failed,
		Metrics:   map[string]metricValue{},
	}
	units := map[string]string{}
	for _, m := range decl {
		units[m.Name] = m.Unit
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	var extra []string
	for k := range vals {
		if _, ok := units[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %v", extra)
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// summarize prints the human-readable summary: every timing with the
// samples it kept out of those taken, quartiles and tail, then any
// failures.
func (b *bench) summarize(w io.Writer) {
	r := b.rep
	fmt.Fprintf(w, "hostbench %s seed=%d trace=%t: %d operations, %d failed; waited %.2fs for a calm machine\n",
		b.opt.workload, b.opt.seed, b.opt.trace, r.attempted, r.failed, b.waited.Seconds())
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	setup := make(samples, len(r.setup))
	for i, v := range r.setup {
		setup[i] = sample{v: v}
	}
	series := []struct {
		name string
		ss   samples
	}{
		{"setup_s", setup}, {"wall_s", r.wall}, {"cpu_s", r.cpu},
		{"job_latency_s", r.jobs}, {"traced_job_latency_s", r.tracedJobs},
	}
	for _, s := range series {
		xs := s.ss.calm()
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		p, v, ok := tail(xs)
		note := ""
		if !ok {
			note = " (too few samples for a tail; max shown)"
		}
		fmt.Fprintf(w, "  %-22s n=%d/%-4d q1=%.6f median=%.6f q3=%.6f spread=%.3f p%.1f=%.6f%s\n",
			s.name, len(xs), len(s.ss), q1, q2, q3, spread(xs), p, v, note)
	}
	if b.opt.trace {
		keys := make([]string, 0, len(r.layer))
		for k := range r.layer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-34s %.6g\n", k, r.layer[k])
		}
	}
}

func (b *bench) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.sp.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}
