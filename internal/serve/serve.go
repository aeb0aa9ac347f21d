// Package serve implements vibed, the long-lived VIBe benchmark service:
// scenario/sweep submissions become jobs on a bounded queue, scheduled
// one at a time onto the shared runner pool, with live per-cell progress
// over SSE, a Prometheus /metrics endpoint, downloadable artifacts, and a
// provenance-keyed cache that replays completed result sets byte for
// byte. A submission compiles to the same runner.Plan the CLIs build from
// their flags, and a job stores that plan's artifacts, so a set
// downloaded from a job is byte-identical to the same scenario run with
// vibe-report.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"vibe/internal/metrics"
	"vibe/internal/provider"
	"vibe/internal/results"
	"vibe/internal/runner"
)

// Options configures a Server.
type Options struct {
	// Workers is the runner pool width per job (default: 4).
	Workers int
	// QueueCap bounds the number of queued-but-not-started jobs
	// (default: 16). A full queue rejects submissions with 503.
	QueueCap int
}

// Server owns the job table, the bounded queue, the result cache, and the
// daemon counters. Create with New, serve Handler(), and run the
// dispatcher with Run (usually in a goroutine); Close drains it.
type Server struct {
	workers  int
	queueCap int

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string          // submission order, for listings
	byCache  map[string]string // cache key -> completed job id
	nextID   int
	queued   int
	running  int
	done     int
	failed   int
	cacheHit int
	submits  int

	queue chan *Job
	stop  chan struct{}
	// inflight is held by Run for its entire lifetime, so Close can wait
	// for the dispatcher — including any in-flight execute — by acquiring
	// it. If Run was never started the lock is free and Close returns
	// immediately.
	inflight sync.Mutex
}

// New builds a server; Run must be started for jobs to execute.
func New(opt Options) *Server {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = 16
	}
	return &Server{
		workers:  opt.Workers,
		queueCap: opt.QueueCap,
		jobs:     map[string]*Job{},
		byCache:  map[string]string{},
		queue:    make(chan *Job, opt.QueueCap),
		stop:     make(chan struct{}),
	}
}

// Run is the dispatcher loop: jobs execute strictly in submission order,
// one at a time — each job already fans its cells across the worker pool,
// and serial execution keeps every job's virtual-time determinism and the
// cache's byte-identity trivially intact.
func (s *Server) Run() {
	s.inflight.Lock()
	defer s.inflight.Unlock()
	for {
		// Check stop with priority: once Close has been called, no further
		// queued jobs may start even if the queue is non-empty (a bare
		// select picks pseudo-randomly among ready channels).
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.execute(j)
		}
	}
}

// Close stops the dispatcher after the in-flight job (if any) finishes.
// Queued jobs are left in state queued.
func (s *Server) Close() {
	close(s.stop)
	s.inflight.Lock() // blocks until Run returns
	s.inflight.Unlock()
}

// Submit validates and enqueues a submission, compiling its scenario grid
// up front so a bad spec fails at submit time with 400 semantics, not
// inside the run. A submission whose cache key matches a completed job
// returns a new job that is already done, sharing the original's
// artifacts and result bytes.
func (s *Server) Submit(req Submission) (*Job, error) {
	// A map has no order for a later entry to win by, so one parameter
	// named twice (in two spellings) is rejected, not resolved.
	set, err := provider.CanonicalSet(req.Set)
	if err != nil {
		return nil, err
	}
	plan, err := runner.Compile(runner.Request{
		Scenario:    req.Scenario,
		Set:         setPairs(set),
		Sweeps:      req.Sweeps,
		Quick:       req.Quick,
		Experiments: req.Experiments,
		Label:       req.Label,
		Metrics:     true,
		Trace:       req.Trace,
		Profile:     req.Profile,
		SpanSample:  1,
		Workers:     s.workers,
	})
	if err != nil {
		return nil, err
	}

	key := cacheKey(req, plan)

	s.mu.Lock()
	defer s.mu.Unlock()

	// Reject a full queue before minting an ID or counting the submission,
	// so vibed_jobs_submitted counts accepted jobs only and job IDs stay
	// dense. Only Submit sends (under s.mu) and the dispatcher only
	// drains, so len < cap here guarantees the send below cannot block.
	srcID, hit := s.byCache[key]
	if !hit && len(s.queue) == cap(s.queue) {
		return nil, errQueueFull
	}

	s.submits++
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), req)
	j.CacheKey = key
	j.Cells = len(plan.Experiments) * len(plan.Scenarios)

	if hit {
		src := s.jobs[srcID]
		j.Cached = true
		s.cacheHit++
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		j.append(Event{Type: EventCached})
		j.shareArtifacts(src)
		j.setStatus(StatusDone, "")
		s.done++
		return j, nil
	}

	// The plan's collectors exist before the job is published: simSnapshot
	// reads j.collectors under s.mu only, so the field must never mutate
	// once the job is visible. A queued job's empty collectors merge as
	// nothing.
	j.plan = plan
	j.collectors = plan.Collectors

	s.queue <- j
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queued++
	j.append(Event{Type: EventQueued})
	return j, nil
}

var errQueueFull = fmt.Errorf("serve: job queue full")

// execute runs one job end to end on the pool.
func (s *Server) execute(j *Job) {
	s.mu.Lock()
	s.queued--
	s.running++
	s.mu.Unlock()
	j.setStatus(StatusRunning, "")
	j.append(Event{Type: EventStart, Total: j.Cells})

	// Only the dispatcher reads the plan once the job is queued; dropping
	// it frees the trace and profile once they are encoded.
	plan := j.plan
	j.plan = nil
	out, err := plan.Run(func(ev runner.ProgressEvent) {
		j.append(progressEvent(ev))
	})
	if err != nil {
		s.finish(j, StatusFailed, err.Error())
		return
	}
	for _, a := range out.Artifacts {
		j.putArtifact(a.Name, a.Data)
	}

	s.mu.Lock()
	s.byCache[j.CacheKey] = j.ID
	s.mu.Unlock()
	s.finish(j, StatusDone, "")
}

// finish moves a running job to its terminal state. The terminal event is
// appended BEFORE the status flips: an SSE streamer closes once it has
// replayed all history of a terminal job, so the done/failed frame must
// already be in the history when the status becomes observable.
func (s *Server) finish(j *Job, st JobStatus, errMsg string) {
	s.mu.Lock()
	s.running--
	if st == StatusDone {
		s.done++
	} else {
		s.failed++
	}
	s.mu.Unlock()
	if st == StatusDone {
		j.append(Event{Type: EventDone, Done: j.Cells, Total: j.Cells})
	} else {
		j.append(Event{Type: EventFailed, Error: errMsg})
	}
	j.setStatus(st, errMsg)
}

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// listJobs returns jobs in submission order.
func (s *Server) listJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// daemonSnapshot builds the daemon-level gauge family served on /metrics:
// job lifecycle counts, queue occupancy and capacity, and the pool width.
// A fresh single-threaded registry per scrape keeps Registry's
// no-locking contract while the daemon counters live under s.mu.
func (s *Server) daemonSnapshot() metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := metrics.New()
	r.Add("jobs.submitted", float64(s.submits))
	r.Add("jobs.cache_hits", float64(s.cacheHit))
	r.Gauge("jobs.queued", float64(s.queued))
	r.Gauge("jobs.running", float64(s.running))
	r.Gauge("jobs.done", float64(s.done))
	r.Gauge("jobs.failed", float64(s.failed))
	r.Gauge("queue.capacity", float64(s.queueCap))
	r.Gauge("pool.workers", float64(s.workers))
	r.Gauge("cache.entries", float64(len(s.byCache)))
	return r.Snapshot()
}

// simSnapshot merges every job's collectors — running jobs included: the
// collectors field is immutable once a job is published (set at submit
// time under s.mu) and each Collector is internally mutex-guarded — into
// the simulation-metrics families served on /metrics. Cached jobs hold no
// collectors, so a replay never double-counts its source run.
func (s *Server) simSnapshot() metrics.Snapshot {
	s.mu.Lock()
	var cols []*metrics.Collector
	for _, id := range s.order {
		cols = append(cols, s.jobs[id].collectors...)
	}
	s.mu.Unlock()
	return metrics.MergedSnapshot(cols...)
}

// cacheKey hashes everything that decides a job's artifact bytes: the
// quick flag (ProvenanceOf leaves quick-only scenarios nil, so it is named
// here), the experiment list in submission order (results.json lists them
// in that order), each cell's provenance (nil meaning the unmodified
// default; the fault plan included), the label and the trace/profile
// switches. The hash is over canonical JSON, so submissions that describe
// the same run hash identically whatever order their overrides were given
// in, and a hit always replays exactly what the submission would produce.
func cacheKey(req Submission, plan *runner.Plan) string {
	ids := make([]string, len(plan.Experiments))
	for i, e := range plan.Experiments {
		ids[i] = e.ID
	}
	provs := make([]*results.Provenance, len(plan.Scenarios))
	for i, sc := range plan.Scenarios {
		provs[i] = results.ProvenanceOf(sc)
	}
	data, err := json.Marshal(struct {
		Quick       bool                  `json:"quick"`
		Experiments []string              `json:"experiments"`
		Scenarios   []*results.Provenance `json:"scenarios"`
		Label       string                `json:"label"`
		Trace       bool                  `json:"trace"`
		Profile     bool                  `json:"profile"`
	}{req.Quick, ids, provs, req.Label, req.Trace, req.Profile})
	if err != nil {
		// Strings, integers, bools and compiled scenarios, whose fault
		// plans are validated finite: Marshal cannot fail on them.
		panic("serve: cache key marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// setPairs renders a -set style map back into k=v pairs for the runner,
// in sorted order so validation errors are deterministic.
func setPairs(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + "=" + m[k]
	}
	return pairs
}
