package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vibe/internal/core"
	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/provider"
	"vibe/internal/results"
	"vibe/internal/runner"
	"vibe/internal/serve"
	"vibe/internal/trace"
)

// The vibed workload drives an in-process daemon (serve.New on a loopback
// listener, one runner worker per CPU) with one closed-loop client: the
// next submission goes out only after the previous job's event stream has
// reached its terminal frame, and /metrics is scraped after every job.
// Each pass runs a seeded script on a freshly booted daemon:
//
//   - eight fresh quick jobs that together cover the registry once: each
//     takes one experiment from every cost stratum, under a distinct -set
//     or one-value -sweep, so each is a cache miss; metrics and message
//     spans are on, as the daemon always collects them;
//   - of those, the job holding the cheapest experiment of every stratum
//     also has trace and profile on, so it simulates the same work in
//     every pass and for every seed;
//   - identical resubmissions of earlier jobs, cache hits, each followed
//     by a results.json download.
//
// Every pass thus simulates the same work; the seed decides how it is
// split into jobs, their overrides and their order. Outside the timed
// passes every fresh job's results.json is checked against an in-process
// run of the same submission with results.Compare at tolerance 0, and
// every hit against the bytes of the job it replays.

// vibedHits is the number of cache-hit resubmissions per pass.
const vibedHits = 2

// vibedStrata groups the registry's experiments by their quick-mode host
// cost, costliest first, eight to a stratum. Fresh job j of a pass takes
// the j-th experiment of the first stratum and one of each other stratum,
// so the pass's jobs partition the registry and job j's size is set by
// the first stratum's j-th experiment. The last job, the traced one, takes
// the last (cheapest) experiment of every stratum.
var vibedStrata = [][]string{
	{"F2", "F5", "EXTPROV", "PMMP", "AXLAT", "PMDSM", "XREL", "XFAILOVER"},
	{"XFAULT", "F6", "F3", "PMSOCK", "XRDMA", "F7", "TCQ", "PMEAGER"},
	{"XMTU", "ATLB", "F4", "XALLTOALL", "PMGP", "BREAK", "XLOSS", "XASY"},
	{"XINCAST", "XHOTSPOT", "XPIPE", "XSEG", "APOLL", "ADOOR", "F1", "T1"},
}

type jobKind int

const (
	kindMiss jobKind = iota
	kindTraced
	kindHit
)

// vibedJob is one submission of a pass's script and, once run, what the
// client observed.
type vibedJob struct {
	kind jobKind
	sub  serve.Submission
	src  *vibedJob // the job a hit replays

	id       string
	code     int           // POST status
	terminal string        // type of the stream's last frame
	latency  time.Duration // POST to terminal frame
	finish   time.Duration // last cell frame to terminal frame
	results  []byte        // results.json
}

// vibedScript generates pass's job script from the seed.
func vibedScript(seed int64, pass int) []*vibedJob {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	fresh := len(vibedStrata[0])
	perms := make([][]int, len(vibedStrata))
	for s := 1; s < len(vibedStrata); s++ {
		perms[s] = append(r.Perm(fresh-1), fresh-1)
	}
	var script []*vibedJob
	for j := 0; j < fresh; j++ {
		sub := serve.Submission{Quick: true, Experiments: []string{vibedStrata[0][j]}}
		for s := 1; s < len(vibedStrata); s++ {
			sub.Experiments = append(sub.Experiments, vibedStrata[s][perms[s][j]])
		}
		r.Shuffle(len(sub.Experiments), func(a, b int) {
			sub.Experiments[a], sub.Experiments[b] = sub.Experiments[b], sub.Experiments[a]
		})
		// A distinct VI-creation cost makes every fresh job a cache miss
		// without changing how many events it simulates.
		v := strconv.Itoa(20+j) + "us"
		if r.Intn(2) == 0 {
			sub.Set = map[string]string{"ViCreate": v}
		} else {
			sub.Sweeps = []string{"ViCreate=" + v}
		}
		kind := kindMiss
		if j == fresh-1 {
			kind = kindTraced
			sub.Trace, sub.Profile = true, true
		}
		script = append(script, &vibedJob{kind: kind, sub: sub})
	}
	r.Shuffle(len(script), func(a, b int) { script[a], script[b] = script[b], script[a] })
	for h := 0; h < vibedHits; h++ {
		pos := 1 + r.Intn(len(script))
		var done []*vibedJob
		for _, j := range script[:pos] {
			if j.kind != kindHit {
				done = append(done, j)
			}
		}
		src := done[r.Intn(len(done))]
		hit := &vibedJob{kind: kindHit, sub: src.sub, src: src}
		script = append(script[:pos], append([]*vibedJob{hit}, script[pos:]...)...)
	}
	return script
}

// daemon is one booted in-process vibed.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	hc   *http.Client
	wg   sync.WaitGroup
}

// bootDaemon starts a daemon on a loopback port and returns once it has
// accepted its first request; the boot is one setup sample.
func (b *bench) bootDaemon() (*daemon, error) {
	t0 := time.Now()
	id := b.sp.begin("serve.boot", 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  serve.New(serve.Options{Workers: runtime.NumCPU()}),
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.wg.Add(2)
	go func() { defer d.wg.Done(); d.hs.Serve(ln) }()
	go func() { defer d.wg.Done(); d.srv.Run() }()
	body, code, err := d.get("/healthz")
	if err != nil || code != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("daemon health check: status %d %q: %v", code, body, err)
	}
	b.sp.end(id)
	b.rep.setup = append(b.rep.setup, time.Since(t0).Seconds())
	return d, nil
}

// close stops the HTTP server and the dispatcher and waits for both.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	d.srv.Close()
	d.wg.Wait()
	d.hc.CloseIdleConnections()
}

func (d *daemon) get(path string) ([]byte, int, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// run submits j, follows its event stream to the terminal frame and, for
// a hit, downloads the replayed results.json.
func (d *daemon) run(b *bench, j *vibedJob) error {
	body, err := json.Marshal(j.sub)
	if err != nil {
		return err
	}
	job := b.sp.begin("vibed.job", 0)
	defer b.sp.end(job)
	t0 := time.Now()
	sid := b.sp.begin("serve.POST /api/jobs", job)
	resp, err := d.hc.Post(d.base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.sp.end(sid)
	if err != nil {
		return err
	}
	j.code = resp.StatusCode
	if j.code != http.StatusAccepted {
		return nil
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		return fmt.Errorf("submit reply: %w", err)
	}
	j.id = st.ID

	sid = b.sp.begin("serve.GET events", job)
	resp, err = d.hc.Get(d.base + "/api/jobs/" + j.id + "/events")
	if err != nil {
		return err
	}
	var lastCell time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			j.terminal = ev
			if ev == string(serve.EventCell) {
				lastCell = time.Now()
			}
		}
	}
	resp.Body.Close()
	b.sp.end(sid)
	if err := sc.Err(); err != nil {
		return err
	}
	end := time.Now()
	j.latency = end.Sub(t0)
	if !lastCell.IsZero() {
		j.finish = end.Sub(lastCell)
	}
	if j.kind == kindHit {
		return b.download(d, j, job)
	}
	return nil
}

// download fetches j's results.json inside a span under parent.
func (b *bench) download(d *daemon, j *vibedJob, parent int) error {
	var err error
	var code int
	b.sp.do("serve.GET results.json", parent, func(int) {
		j.results, code, err = d.get("/api/jobs/" + j.id + "/artifacts/results.json")
	})
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("results.json of %s: status %d", j.id, code)
	}
	return err
}

// vibedPass is what one pass leaves for the checks and the metrics.
type vibedPass struct {
	d       *daemon
	script  []*vibedJob
	scrapes []time.Duration
	last    []byte // the last scrape
}

// runScript runs a pass's script against d.
func (b *bench) runScript(p *vibedPass) error {
	for _, j := range p.script {
		if err := p.d.run(b, j); err != nil {
			return err
		}
		t0 := time.Now()
		var body []byte
		var code int
		var err error
		b.sp.do("serve.GET /metrics", 0, func(int) { body, code, err = p.d.get("/metrics") })
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("/metrics: status %d", code)
		}
		p.scrapes = append(p.scrapes, time.Since(t0))
		p.last = body
	}
	return nil
}

// serveStats are the service-path samples of a run.
type serveStats struct {
	queueWait, run, finish, hit, scrape, scrapeBytes []float64
	hits, submitted, rejected                        int
}

// afterPass checks a finished pass (untimed) and keeps its samples:
// response codes and terminal frames, the daemon's own counters in the
// last scrape, the server-side job timestamps, and the downloads the
// in-process comparison needs later.
func (b *bench) afterPass(p *vibedPass, st *serveStats, steal float64) error {
	for _, j := range p.script {
		st.submitted++
		if j.code == http.StatusServiceUnavailable {
			st.rejected++
		}
		want := string(serve.EventDone)
		if j.kind == kindHit {
			want = string(serve.EventCached)
			st.hits++
		}
		b.rep.check(j.code == http.StatusAccepted && j.terminal == want,
			"job %s (%v): POST status %d, terminal frame %q, want %q", j.id, j.sub.Experiments, j.code, j.terminal, want)
		if j.code != http.StatusAccepted {
			continue
		}
		switch j.kind {
		case kindMiss:
			b.rep.jobs = append(b.rep.jobs, sample{j.latency.Seconds(), steal})
		case kindTraced:
			b.rep.tracedJobs = append(b.rep.tracedJobs, sample{j.latency.Seconds(), steal})
		case kindHit:
			st.hit = append(st.hit, j.latency.Seconds())
			continue
		}
		st.finish = append(st.finish, j.finish.Seconds())
		if err := b.download(p.d, j, 0); err != nil {
			return err
		}
		body, code, err := p.d.get("/api/jobs/" + j.id)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("job %s status: %d %v", j.id, code, err)
		}
		var js serve.Job
		if err := json.Unmarshal(body, &js); err != nil {
			return fmt.Errorf("job %s status: %w", j.id, err)
		}
		st.queueWait = append(st.queueWait, js.Started.Sub(js.Created).Seconds())
		st.run = append(st.run, js.Finished.Sub(js.Started).Seconds())
	}
	for _, j := range p.script {
		if j.kind == kindHit && j.src.results != nil {
			b.rep.check(bytes.Equal(j.results, j.src.results), "hit %s: results.json differs from %s's", j.id, j.src.id)
		}
	}
	prom := promValues(p.last)
	b.rep.check(prom["vibed_jobs_submitted"] == float64(len(p.script)) &&
		prom["vibed_jobs_cache_hits"] == float64(vibedHits) &&
		prom["vibed_jobs_done"] == float64(len(p.script)) &&
		prom["vibed_jobs_failed"] == 0,
		"daemon counters after the pass: submitted %v hits %v done %v failed %v; want %d, %d, %d, 0",
		prom["vibed_jobs_submitted"], prom["vibed_jobs_cache_hits"], prom["vibed_jobs_done"], prom["vibed_jobs_failed"],
		len(p.script), vibedHits, len(p.script))
	for _, d := range p.scrapes {
		st.scrape = append(st.scrape, d.Seconds())
	}
	st.scrapeBytes = append(st.scrapeBytes, float64(len(p.last)))
	return nil
}

// promValues reads the unlabelled samples of a Prometheus text exposition.
func promValues(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// vibedPasses runs timed passes, each on a daemon booted before it and
// closed after it, and returns every pass's script for the in-process
// comparison.
func (b *bench) vibedPasses(budget float64, min, first int, st *serveStats) ([]pass, [][]*vibedJob, error) {
	next, err := b.bootDaemon()
	if err != nil {
		return nil, nil, err
	}
	var scripts [][]*vibedJob
	var cur *vibedPass
	ps, err := b.timed(budget, min,
		func(i int) error {
			cur = &vibedPass{d: next, script: vibedScript(b.opt.seed, first+i)}
			next = nil
			return b.runScript(cur)
		},
		func(_ int, p pass) error {
			err := b.afterPass(cur, st, p.steal)
			cur.d.close()
			cur.d = nil
			if err != nil {
				return err
			}
			scripts = append(scripts, cur.script)
			next, err = b.bootDaemon()
			return err
		})
	if cur != nil && cur.d != nil { // a pass failed before its checks ran
		cur.d.close()
	}
	if next != nil {
		next.close()
	}
	return ps, scripts, err
}

// verified is what the in-process comparison runs measured.
type verified struct {
	cellWalls map[string][]float64
	compile   []float64
	idle      []float64
	failed    int
	encode    []float64
	encoded   []float64
	// Per traced job: WriteChrome seconds and bytes, trace records kept
	// and dropped, WriteFolded seconds and folded stacks.
	chrome, traceLen, records, dropped, folded, stacks []float64
}

// verify reruns every fresh job's submission in-process and compares the
// daemon's results.json against it at tolerance 0. With instrument set it
// also attaches collector to every run, records traced jobs' traces and
// profiles, and times the encoders.
func (b *bench) verify(scripts [][]*vibedJob, instrument bool, collector *metrics.Collector) (*verified, error) {
	v := &verified{cellWalls: map[string][]float64{}}
	for _, script := range scripts {
		for _, j := range script {
			if j.kind == kindHit || j.results == nil {
				continue
			}
			var got results.Set
			if err := json.Unmarshal(j.results, &got); err != nil {
				b.rep.check(false, "job %s results.json: %v", j.id, err)
				continue
			}
			var in *core.Instr
			var rec *trace.Recorder
			var profile *prof.Profile
			if instrument {
				in = &core.Instr{Metrics: collector, SpanSample: 1}
				if j.kind == kindTraced {
					rec = &trace.Recorder{Limit: 1 << 20}
					profile = prof.New()
					in.Trace = rec
				}
			}
			sets, err := b.inProcess(j.sub, in, profile, v)
			if err != nil {
				b.rep.check(false, "job %s in-process run: %v", j.id, err)
				continue
			}
			diffs, err := results.CompareChecked(sets[0], &got, 0, false)
			b.rep.check(err == nil && len(diffs) == 0, "job %s: %d diffs against the in-process run (%v)", j.id, len(diffs), err)
			if rec != nil {
				var buf bytes.Buffer
				t0 := time.Now()
				if err := rec.WriteChrome(&buf); err != nil {
					return nil, err
				}
				v.chrome = append(v.chrome, time.Since(t0).Seconds())
				v.traceLen = append(v.traceLen, float64(buf.Len()))
				v.records = append(v.records, float64(rec.Len()))
				v.dropped = append(v.dropped, float64(rec.Dropped()))
			}
			if profile != nil {
				t0 := time.Now()
				if err := profile.WriteFolded(io.Discard); err != nil {
					return nil, err
				}
				v.folded = append(v.folded, time.Since(t0).Seconds())
				v.stacks = append(v.stacks, float64(profile.Len()))
			}
		}
	}
	return v, nil
}

// inProcess runs a submission the way the daemon does — overrides,
// sweeps, compile, RunGrid on the same pool width — and assembles its
// result sets.
func (b *bench) inProcess(sub serve.Submission, in *core.Instr, profile *prof.Profile, v *verified) ([]*results.Set, error) {
	spec := sub.Scenario
	if len(sub.Set) > 0 {
		var pairs []string
		for k, val := range sub.Set {
			pairs = append(pairs, k+"="+val)
		}
		sort.Strings(pairs)
		kv, err := provider.ParseSet(pairs)
		if err != nil {
			return nil, err
		}
		spec.Set = kv
	}
	t0 := time.Now()
	specs, err := core.ExpandSweeps(spec, sub.Sweeps)
	if err != nil {
		return nil, err
	}
	scs, err := core.CompileScenarios(specs, sub.Quick)
	if err != nil {
		return nil, err
	}
	v.compile = append(v.compile, time.Since(t0).Seconds())
	var exps []*core.Experiment
	for _, id := range sub.Experiments {
		e, err := core.ExperimentByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	workers := runtime.NumCPU()
	if in != nil {
		for _, sc := range scs {
			sc.Instr = in
		}
		if in.Trace != nil {
			workers = 1
		}
	}
	run := exps
	if profile != nil {
		run = core.ProfiledExperiments(exps, profile)
	}
	t0 = time.Now()
	grid := runner.RunGrid(run, scs, runner.Options{Workers: workers})
	wall := time.Since(t0).Seconds()
	if err := runner.FirstGridError(grid); err != nil {
		v.failed++
		return nil, err
	}
	sets := make([]*results.Set, len(scs))
	busy := 0.0
	for si, sc := range scs {
		sets[si] = &results.Set{Label: sub.Label, Scenario: results.ProvenanceOf(sc)}
		for ei, e := range exps {
			r := grid[si][ei]
			sets[si].Experiments = append(sets[si].Experiments, results.FromReport(e.ID, r.Report))
			v.cellWalls[e.ID] = append(v.cellWalls[e.ID], r.Wall.Seconds())
			busy += r.Wall.Seconds()
		}
		t0 = time.Now()
		data, err := results.Encode(sets[si])
		if err != nil {
			return nil, err
		}
		v.encode = append(v.encode, time.Since(t0).Seconds())
		v.encoded = append(v.encoded, float64(len(data)))
	}
	v.idle = append(v.idle, float64(workers)*wall-busy)
	return sets, nil
}

// vibedMinPasses is the fewest passes a run times: with eight fresh jobs a
// pass, one traced, it yields at least 7·12 = 84 miss jobs, 12 of them
// holding the costliest experiment.
const vibedMinPasses = 12

// vibedBoots is how many extra daemons a run boots and closes before its
// passes, for setup samples beyond the one boot per pass.
const vibedBoots = 21

func runVibed(b *bench) error {
	for i := 0; i < vibedBoots; i++ {
		d, err := b.bootDaemon()
		if err != nil {
			return err
		}
		d.close()
	}
	// At least vibedMinPasses passes, so the tail (the 11th-slowest miss
	// job) stays among the jobs holding the costliest experiment.
	var st serveStats
	ps, scripts, err := b.vibedPasses(b.opt.seconds, vibedMinPasses, 0, &st)
	if err != nil {
		return err
	}
	for _, p := range ps {
		b.rep.addPass(p)
	}
	b.rep.peakRSS = peakRSS()
	_, err = b.verify(scripts, false, nil)
	return err
}

func tracedVibed(b *bench) error {
	var st serveStats
	base, scripts, err := b.vibedPasses(b.opt.seconds/3, 1, 0, &st)
	if err != nil {
		return err
	}
	var traced []pass
	err = b.profiled(func() error {
		var more [][]*vibedJob
		var err error
		traced, more, err = b.vibedPasses(b.opt.seconds/3, 1, len(base), &st)
		scripts = append(scripts, more...)
		return err
	})
	if err != nil {
		return err
	}
	b.overhead(base, traced)

	c := metrics.NewCollector()
	v, err := b.verify(scripts, true, c)
	if err != nil {
		return err
	}
	if err := b.counters(c); err != nil {
		return err
	}
	l := b.rep.layer
	l["serve.submit_s"] = median(b.sp.durations("serve.POST /api/jobs"))
	l["serve.queue_wait_s"] = median(st.queueWait)
	l["serve.run_s"] = median(st.run)
	l["serve.finish_s"] = median(st.finish)
	l["serve.hit_s"] = median(st.hit)
	l["serve.scrape_s"] = median(st.scrape)
	l["serve.scrape_bytes"] = median(st.scrapeBytes)
	l["serve.cache_hit_ratio"] = float64(st.hits) / float64(max(st.submitted, 1))
	l["serve.rejected"] = float64(st.rejected)
	for id, ws := range v.cellWalls {
		l[fmt.Sprintf("core.exp.%s.wall_s", id)] = median(ws)
	}
	l["core.compile_s"] = median(v.compile)
	l["runner.pool_idle_s"] = median(v.idle)
	l["runner.cells_failed"] = float64(v.failed)
	l["results.encode_s"] = median(v.encode)
	l["results.encoded_bytes"] = median(v.encoded)
	l["trace.write_chrome_s"] = median(v.chrome)
	l["trace.bytes"] = median(v.traceLen)
	l["trace.records"] = median(v.records)
	l["trace.dropped"] = median(v.dropped)
	l["prof.write_folded_s"] = median(v.folded)
	l["prof.stacks"] = median(v.stacks)
	if len(v.chrome) == 0 {
		return errors.New("no traced job was verified")
	}
	return b.micro()
}
