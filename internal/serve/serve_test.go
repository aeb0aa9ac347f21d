package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vibe/internal/core"
	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/results"
	"vibe/internal/runner"
)

// startServer boots a server with its dispatcher and tears both down with
// the test.
func startServer(t *testing.T, opt Options) *Server {
	t.Helper()
	s := New(opt)
	go s.Run()
	t.Cleanup(s.Close)
	return s
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		_, notify, st := j.snapshotEvents(1 << 30)
		if st == StatusDone || st == StatusFailed {
			return st
		}
		select {
		case <-notify:
		case <-time.After(time.Second):
		}
	}
	t.Fatalf("job %s did not finish", j.ID)
	return ""
}

// TestSubmitValidation checks bad submissions fail at submit time.
func TestSubmitValidation(t *testing.T) {
	s := New(Options{})
	if _, err := s.Submit(Submission{Sweeps: []string{"NotAParam=1,2"}}); err == nil {
		t.Error("bad sweep accepted")
	}
	if _, err := s.Submit(Submission{Experiments: []string{"NOPE"}}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := s.Submit(Submission{Experiments: []string{"T1", "t1"}}); err == nil {
		t.Error("repeated experiment accepted")
	}
	if _, err := s.Submit(Submission{Set: map[string]string{"NotAParam": "1"}}); err == nil {
		t.Error("unknown -set parameter accepted")
	}
}

// TestQueueBound checks a full queue rejects rather than blocks: with no
// dispatcher draining, QueueCap+? submissions fail fast with errQueueFull.
func TestQueueBound(t *testing.T) {
	s := New(Options{QueueCap: 2}) // dispatcher NOT started
	sub := Submission{Quick: true, Experiments: []string{"T1"}}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(sub2(sub, fmt.Sprintf("q%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(sub2(sub, "overflow")); err != errQueueFull {
		t.Fatalf("overflow submit err = %v, want errQueueFull", err)
	}
	// A rejected submission is not counted and mints no job ID: the
	// submitted counter tracks accepted jobs only and IDs stay dense.
	s.mu.Lock()
	submits, nextID := s.submits, s.nextID
	s.mu.Unlock()
	if submits != 2 || nextID != 2 {
		t.Errorf("after rejection: submits=%d nextID=%d, want 2 and 2", submits, nextID)
	}
}

// TestMetricsScrapeDuringRun hammers the metrics snapshot paths while a
// job executes. Under -race this pins the contract that j.collectors is
// allocated at submit time and never written once the job is published.
func TestMetricsScrapeDuringRun(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	j, err := s.Submit(Submission{Quick: true, Experiments: []string{"XFAILOVER"}, Label: "scrape-race"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.simSnapshot()
				s.daemonSnapshot()
			}
		}
	}()
	st := waitJob(t, j)
	close(stop)
	wg.Wait()
	if st != StatusDone {
		t.Fatalf("job status = %s (%s)", st, j.Error)
	}
}

// sub2 clones a submission with a distinct label (distinct cache key).
func sub2(s Submission, label string) Submission {
	s.Label = label
	return s
}

// TestJobLifecycleAndCache runs one small job end to end and then
// resubmits it: the replay must be an immediate cache hit whose result
// artifact is byte-identical, holding no collectors (no metric
// double-counting), while a submission with a different label misses.
func TestJobLifecycleAndCache(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	sub := Submission{Quick: true, Experiments: []string{"T1"}, Label: "lifecycle"}

	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st != StatusDone {
		t.Fatalf("job status = %s (%s)", st, j1.Error)
	}
	res1, ok := j1.artifact("results.json")
	if !ok {
		t.Fatalf("no results.json artifact; have %v", j1.Artifacts)
	}
	if _, ok := j1.artifact("metrics.txt"); !ok {
		t.Error("no metrics.txt artifact")
	}

	// The artifact decodes as a results.Set with the daemon's label and
	// embedded metrics.
	var set results.Set
	if err := json.Unmarshal(res1, &set); err != nil {
		t.Fatalf("results.json: %v", err)
	}
	if set.Label != "lifecycle" || len(set.Experiments) != 1 || set.Experiments[0].ID != "T1" {
		t.Fatalf("set = label %q, %d experiments", set.Label, len(set.Experiments))
	}
	if len(set.Metrics) == 0 {
		t.Error("set has no embedded metrics")
	}

	// Identical resubmission: cache hit, done immediately, same bytes.
	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached {
		t.Fatal("identical resubmission was not served from cache")
	}
	if st := waitJob(t, j2); st != StatusDone {
		t.Fatalf("cached job status = %s", st)
	}
	res2, ok := j2.artifact("results.json")
	if !ok || !bytes.Equal(res1, res2) {
		t.Error("cached artifact bytes differ from the original")
	}
	if j2.collectors != nil {
		t.Error("cached job holds collectors (would double-count /metrics)")
	}

	// A different label is a different design point for artifact bytes.
	j3, err := s.Submit(sub2(sub, "other"))
	if err != nil {
		t.Fatal(err)
	}
	if j3.Cached {
		t.Error("different label hit the cache")
	}
	waitJob(t, j3)

	// results.json lists experiments in submission order, so a reordered
	// list is a different result set.
	ordered := Submission{Quick: true, Experiments: []string{"T1", "F5"}, Label: "order"}
	if j, err := s.Submit(ordered); err != nil || waitJob(t, j) != StatusDone {
		t.Fatalf("ordered job: %v", err)
	}
	ordered.Experiments = []string{"F5", "T1"}
	j4, err := s.Submit(ordered)
	if err != nil {
		t.Fatal(err)
	}
	if j4.Cached {
		t.Error("reordered experiment list hit the cache")
	}
	if st := waitJob(t, j4); st != StatusDone {
		t.Fatalf("reordered job status = %s (%s)", st, j4.Error)
	}
	res4, _ := j4.artifact("results.json")
	if err := json.Unmarshal(res4, &set); err != nil || len(set.Experiments) != 2 || set.Experiments[0].ID != "F5" {
		t.Errorf("reordered job's results.json does not lead with F5: %v", err)
	}

	// A fault plan is part of the design point: it reaches the set's
	// provenance and the cache key.
	faulted := sub
	faulted.Scenario.Fault = &fault.Plan{Seed: 7, Faults: []fault.Spec{{Kind: fault.KindDoorbellStall, Delay: "5us"}}}
	j5, err := s.Submit(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if j5.Cached {
		t.Error("submission differing only by its fault plan hit the cache")
	}
	if st := waitJob(t, j5); st != StatusDone {
		t.Fatalf("faulted job status = %s (%s)", st, j5.Error)
	}
	res5, _ := j5.artifact("results.json")
	set = results.Set{}
	if err := json.Unmarshal(res5, &set); err != nil || set.Scenario == nil || set.Scenario.Fault.Empty() {
		t.Errorf("faulted job's results.json records no fault plan: %v", err)
	}
}

// TestCacheKeyStable pins the cache key's properties: hex sha256, equal for
// submissions that describe the same run however their overrides are
// spelled, and changed by the experiment order, quick, every provenance
// dimension including the fault plan, and the artifact switches.
func TestCacheKeyStable(t *testing.T) {
	s := New(Options{QueueCap: 64}) // dispatcher not started: nothing runs or hits
	key := func(sub Submission) string {
		t.Helper()
		j, err := s.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		return j.CacheKey
	}
	base := func() Submission {
		sub := Submission{Quick: true, Experiments: []string{"T1", "F1"}}
		sub.Scenario.Base = "clan"
		sub.Scenario.Set = map[string]string{"TLBCapacity": "8"}
		return sub
	}
	k := key(base())
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k) {
		t.Fatalf("key is not hex sha256: %q", k)
	}
	same := map[string]func(*Submission){
		"rebuilt":         func(*Submission) {},
		"override as set": func(s *Submission) { s.Scenario.Set, s.Set = nil, map[string]string{"TLBCapacity": "8"} },
		"spelled lower":   func(s *Submission) { s.Set = map[string]string{"tlbcapacity": "8"} },
		"empty fault":     func(s *Submission) { s.Scenario.Fault = &fault.Plan{Seed: 3} },
	}
	for name, edit := range same {
		sub := base()
		edit(&sub)
		if key(sub) != k {
			t.Errorf("%s changed the key", name)
		}
	}
	differ := map[string]func(*Submission){
		"experiment order": func(s *Submission) { s.Experiments = []string{"F1", "T1"} },
		"experiments":      func(s *Submission) { s.Experiments = []string{"T1"} },
		"quick":            func(s *Submission) { s.Quick = false },
		"base":             func(s *Submission) { s.Scenario.Base = "mvia" },
		"override":         func(s *Submission) { s.Scenario.Set["TLBCapacity"] = "32" },
		"no provenance":    func(s *Submission) { s.Scenario = core.ScenarioSpec{} },
		"name":             func(s *Submission) { s.Scenario.Name = "tuned" },
		"run":              func(s *Submission) { s.Scenario.Run.Iters = 5 },
		"sweep":            func(s *Submission) { s.Sweeps = []string{"TLBCapacity=8,32"} },
		"fault": func(s *Submission) {
			s.Scenario.Fault = &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindDoorbellStall, Delay: "5us"}}}
		},
		"label":   func(s *Submission) { s.Label = "other" },
		"trace":   func(s *Submission) { s.Trace = true },
		"profile": func(s *Submission) { s.Profile = true },
	}
	for name, edit := range differ {
		sub := base()
		edit(&sub)
		if key(sub) == k {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestCacheKeyMatchesCompiledScenarios checks the key is computed from the
// compiled scenario cells: the same sweep compiled twice gives the same
// key, and a different sweep gives a different one.
func TestCacheKeyMatchesCompiledScenarios(t *testing.T) {
	s := New(Options{QueueCap: 64}) // dispatcher not started: nothing runs or hits
	key := func(sweeps []string) string {
		t.Helper()
		sub := Submission{Quick: true, Experiments: []string{"T1"}, Sweeps: sweeps}
		sub.Scenario.Base = "clan"
		j, err := s.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		return j.CacheKey
	}
	a, b := key([]string{"TLBCapacity=8,32"}), key([]string{"TLBCapacity=8,32"})
	if a != b {
		t.Error("same sweep compiled twice produced different keys")
	}
	if c := key([]string{"TLBCapacity=8"}); c == a {
		t.Error("different sweep produced the same key")
	}
}

// TestHTTPAPI exercises the full HTTP surface against a real listener:
// submit, list, status, SSE replay, artifact download, Prometheus scrape,
// and error paths.
func TestHTTPAPI(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Bad submissions are 400s; bad routes 404.
	resp, err := http.Post(hs.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"experiments": ["NOPE"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad submission -> %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/api/jobs/job-99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job -> %d, want 404", resp.StatusCode)
	}

	// Submit a small quick job. XFAILOVER runs the routed fabric, whose
	// sampled message spans feed the span.* histogram families /metrics
	// must expose.
	resp, err = http.Post(hs.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"quick": true, "experiments": ["XFAILOVER"], "label": "http"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d, want 202", resp.StatusCode)
	}
	var job struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.ID == "" || job.Cells != 1 {
		t.Fatalf("job = %+v", job)
	}

	// SSE: read frames until the done event; history replays from the
	// start, so queued and started must appear even if we subscribe late.
	types := sseTypes(t, hs.URL+"/api/jobs/"+job.ID+"/events")
	for _, want := range []string{"queued", "started", "cell", "done"} {
		if !types[want] {
			t.Errorf("SSE stream missing %q event; got %v", want, types)
		}
	}

	// Status and listing.
	var st struct {
		Status JobStatus `json:"status"`
	}
	getJSON(t, hs.URL+"/api/jobs/"+job.ID, &st)
	if st.Status != StatusDone {
		t.Fatalf("status = %s", st.Status)
	}
	var list struct {
		Jobs []struct{ ID string } `json:"jobs"`
	}
	getJSON(t, hs.URL+"/api/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list = %+v", list)
	}

	// Artifact download.
	resp, err = http.Get(hs.URL + "/api/jobs/" + job.ID + "/artifacts/results.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("artifact -> %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var set results.Set
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatalf("downloaded set: %v", err)
	}

	// Prometheus scrape: daemon gauges and at least one simulation family.
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE vibed_jobs_submitted counter",
		"# TYPE vibed_jobs_running gauge",
		"# TYPE vibed_queue_capacity gauge",
		"vibed_pool_workers 2",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// At least one span.* histogram family from the simulation metrics
	// (XFAILOVER's RDMA path feeds span.rdma_write.*).
	if !regexp.MustCompile(`(?m)^# TYPE vibe_span_\w+_ns histogram$`).Match(prom) {
		t.Error("/metrics has no span histogram family")
	}
	if !regexp.MustCompile(`(?m)^vibe_span_\w+_ns_bucket\{le="\+Inf"\} \d+$`).Match(prom) {
		t.Error("/metrics span histogram has no +Inf bucket")
	}

	if resp, err = http.Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz -> %d", resp.StatusCode)
	}
}

// sseTypes subscribes to an SSE stream and returns the set of event types
// seen before the stream closes (which it does once the job is terminal).
func sseTypes(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	types := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			types[ev] = true
		} else if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad SSE data frame %q: %v", data, err)
			}
		}
	}
	return types
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestTraceAndProfileArtifacts checks the instrumented submission path: a
// job asking for trace and profile produces both artifacts, and the trace
// is a valid Chrome document.
func TestTraceAndProfileArtifacts(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	j, err := s.Submit(Submission{
		Quick: true, Experiments: []string{"XFAILOVER"},
		Label: "instr", Trace: true, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st != StatusDone {
		t.Fatalf("job failed: %s", j.Error)
	}
	tr, ok := j.artifact("trace.json")
	if !ok {
		t.Fatal("no trace.json artifact")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace.json invalid (%v) or empty", err)
	}
	if p, ok := j.artifact("profile.folded"); !ok || len(p) == 0 {
		t.Fatal("no profile.folded artifact")
	}
}

// TestSubmitDoesNotAliasScenarioSet checks that merging a submission's
// set overrides leaves the caller's scenario map, and so the job's
// reported request, exactly as submitted, while the compiled scenario
// carries both.
func TestSubmitDoesNotAliasScenarioSet(t *testing.T) {
	s := New(Options{}) // dispatcher not started: the job stays queued
	var spec core.ScenarioSpec
	spec.Set = map[string]string{"DoorbellCost": "2us"}
	j, err := s.Submit(Submission{
		Scenario: spec, Set: map[string]string{"TLBCapacity": "8"},
		Quick: true, Experiments: []string{"T1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"DoorbellCost": "2us"}
	if !maps.Equal(spec.Set, want) {
		t.Errorf("caller's scenario set = %v, want %v", spec.Set, want)
	}
	data, err := j.statusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Request struct {
			Scenario struct {
				Set map[string]string `json:"set"`
			} `json:"scenario"`
		} `json:"request"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Request.Scenario.Set; !maps.Equal(got, want) {
		t.Errorf("job's request.scenario.set = %v, want %v", got, want)
	}
	if got := j.plan.Scenarios[0].Spec.Set; got["DoorbellCost"] != "2us" || got["TLBCapacity"] != "8" {
		t.Errorf("compiled scenario set = %v, want both overrides", got)
	}
}

// TestSubmitBodyLimit checks an oversize POST /api/jobs body is refused
// with 413 before it is parsed: no job ID is minted and nothing counts.
func TestSubmitBodyLimit(t *testing.T) {
	s := New(Options{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"quick": true, "label": "` + strings.Repeat("x", maxSubmitBytes) + `"}`
	resp, err := http.Post(hs.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submission -> %d, want 413", resp.StatusCode)
	}
	s.mu.Lock()
	submits, nextID := s.submits, s.nextID
	s.mu.Unlock()
	if submits != 0 || nextID != 0 {
		t.Errorf("after oversize body: submits=%d nextID=%d, want 0 and 0", submits, nextID)
	}
}

// TestSubmitTrailingData checks a POST /api/jobs body holding anything
// after the submission object is refused with 400, like a scenario or
// fault file with trailing data: no job ID is minted and nothing counts.
func TestSubmitTrailingData(t *testing.T) {
	s := New(Options{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"quick":true,"experiments":["T1"]} {"experiments":["F3"]}`
	resp, err := http.Post(hs.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submission with trailing data -> %d, want 400", resp.StatusCode)
	}
	s.mu.Lock()
	submits, nextID := s.submits, s.nextID
	s.mu.Unlock()
	if submits != 0 || nextID != 0 {
		t.Errorf("after trailing data: submits=%d nextID=%d, want 0 and 0", submits, nextID)
	}
}

// TestSubmitSetNamesParameterTwice checks a submission whose set map names
// one parameter in two spellings is refused with 400 instead of letting
// one spelling win silently, while one spelling in any case is accepted.
func TestSubmitSetNamesParameterTwice(t *testing.T) {
	s := New(Options{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"quick":true,"experiments":["T1"],"set":{"TLBCapacity":"16","tlbcapacity":"8"}}`
	resp, err := http.Post(hs.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("set naming TLBCapacity twice -> %d, want 400", resp.StatusCode)
	}
	s.mu.Lock()
	submits := s.submits
	s.mu.Unlock()
	if submits != 0 {
		t.Errorf("after the duplicate set: submits=%d, want 0", submits)
	}
	j, err := s.Submit(Submission{Quick: true, Experiments: []string{"T1"}, Set: map[string]string{"tlbcapacity": "8"}})
	if err != nil {
		t.Fatalf("lowercase set: %v", err)
	}
	if got := j.plan.Scenarios[0].Model(provider.BVIA()).TLBCapacity; got != 8 {
		t.Errorf("set tlbcapacity=8: capacity %d", got)
	}
}

// TestSweepArtifactsMatchCLI runs a two-cell sweep with trace and profile
// on the daemon and requires every artifact to be byte-identical to what
// the shared pipeline gives vibe-report for the same run
// (-quick -exp ATLB -sweep TLBCapacity=8,32 -label sweep -metrics
// -trace-out -profile-out).
func TestSweepArtifactsMatchCLI(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	sub := Submission{
		Quick: true, Experiments: []string{"ATLB"}, Sweeps: []string{"TLBCapacity=8,32"},
		Label: "sweep", Trace: true, Profile: true,
	}
	j, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st != StatusDone {
		t.Fatalf("job failed: %s", j.Error)
	}

	plan, err := runner.Compile(runner.Request{
		Sweeps: sub.Sweeps, Quick: true, Experiments: sub.Experiments, Label: sub.Label,
		Metrics: true, Trace: true, Profile: true, SpanSample: 1, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cliNames []string
	for _, a := range cli.Artifacts {
		cliNames = append(cliNames, a.Name)
	}
	if !slices.Equal(j.Artifacts, cliNames) {
		t.Fatalf("daemon artifacts %v, CLI artifacts %v", j.Artifacts, cliNames)
	}
	for _, name := range []string{"results.cell0.json", "results.cell1.json"} {
		if !slices.Contains(j.Artifacts, name) {
			t.Errorf("no %s artifact", name)
		}
	}
	for _, name := range j.Artifacts {
		got, _ := j.artifact(name)
		if !bytes.Equal(got, cli.Artifact(name)) {
			t.Errorf("%s differs between daemon and CLI", name)
		}
	}
}

// FuzzScenarioSpec drives a scenario file and a -sweep directive through
// strict decode, compile and sweep expansion. No input may panic; an
// accepted spec must re-encode to a fixed point that compiles to the same
// provenance and, swept, to the same cache key. The corpus starts from a
// spec that fills every field, fault plan included.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"name": "tuned", "base": "clan", "set": {"DoorbellCost": "2us", "TLBCapacity": "16"},
		"run": {"seed": 3, "iters": 10, "warmup": 2, "bw_messages": 8, "nondata_reps": 2},
		"fault": {"seed": 7, "faults": [{"kind": "drop-nth", "nth": 40}, {"kind": "doorbell-stall", "prob": 0.1, "delay": "30us"},
		  {"kind": "link-down", "port": 1, "start": "11ms", "end": "12.5ms"}]}}`), "WireMTU=1500,9000")
	f.Add([]byte(`{}`), "")
	f.Add([]byte(`{"base": "mvia", "set": {"tlbcapacity": "8"}}`), "TLBCapacity=8,32")
	f.Fuzz(func(t *testing.T, data []byte, sweep string) {
		spec, err := core.ParseScenarioSpec(data)
		if err != nil {
			return
		}
		sc, err := core.NewScenario(spec, true)
		if err != nil {
			return
		}
		sc.Label()
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := core.ParseScenarioSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
		sc2, err := core.NewScenario(again, true)
		if err != nil {
			t.Fatalf("re-encoded spec does not compile: %v\n%s", err, enc)
		}
		if p, q := results.ProvenanceOf(sc), results.ProvenanceOf(sc2); !p.Equal(q) {
			t.Fatalf("provenance changed in the round trip: %+v -> %+v", p, q)
		}

		sub := Submission{Scenario: spec, Quick: true}
		if sweep != "" {
			sub.Sweeps = []string{sweep}
		}
		key := func(spec core.ScenarioSpec) string {
			specs, err := core.ExpandSweeps(spec, sub.Sweeps)
			if err != nil {
				return ""
			}
			scs, err := core.CompileScenarios(specs, true)
			if err != nil {
				t.Fatalf("sweep %q of an accepted spec does not compile: %v", sweep, err)
			}
			return cacheKey(sub, &runner.Plan{Scenarios: scs})
		}
		if k, k2 := key(spec), key(again); k != k2 {
			t.Fatalf("round-tripped spec changed the cache key under sweep %q", sweep)
		}
	})
}

// FuzzSubmission posts raw bytes to POST /api/jobs on a server whose
// dispatcher never runs. No body may panic the handler, and the status is
// 202, 400, 413 or 503. A body that is not exactly one JSON value is a 400
// or 413, a body whose sweeps cannot expand is a 400, and an accepted
// job's grid is bounded by MaxSweepCells cells per registry experiment.
// The corpus starts from the smoke and host-benchmark submission shapes,
// a sweep that repeats a parameter, a sweep grid one axis too large, and
// a submission followed by a second object.
func FuzzSubmission(f *testing.F) {
	list := func(n int) string {
		vs := make([]string, n)
		for i := range vs {
			vs[i] = fmt.Sprint(1000 + i)
		}
		return strings.Join(vs, ",")
	}
	f.Add([]byte(`{"quick": true, "label": "vibed-smoke"}`))
	f.Add([]byte(`{"set": {"ViCreate": "20us"}, "experiments": ["F2", "XFAULT", "XMTU", "XINCAST"], "quick": true}`))
	f.Add([]byte(`{"sweeps": ["ViCreate=27us"], "experiments": ["XFAILOVER", "PMEAGER", "XASY", "T1"], "quick": true, "trace": true, "profile": true}`))
	f.Add([]byte(`{"quick": true, "experiments": ["T1"], "sweeps": ["TLBCapacity=8,32", "tlbcapacity=64"]}`))
	f.Add([]byte(`{"quick": true, "experiments": ["T1"], "sweeps": ["TLBCapacity=` + list(64) + `", "WireMTU=` + list(65) + `"]}`))
	f.Add([]byte(`{"quick":true,"experiments":["T1"]} {"experiments":["F3"]}`))
	f.Add([]byte(`{"quick": true, "experiments": ["T1"], "set": {"TLBCapacity": "16", "tlbcapacity": "8"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Options{})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if !json.Valid(body) && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("body is not one JSON value, but status %d", rec.Code)
		}
		var sub Submission
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sub) == nil {
			if _, err := core.ExpandSweeps(core.ScenarioSpec{}, sub.Sweeps); err != nil && rec.Code != http.StatusBadRequest {
				t.Fatalf("sweeps %q: %v, but status %d", sub.Sweeps, err, rec.Code)
			}
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var job Job
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatalf("accepted job does not decode: %v", err)
		}
		if max := core.MaxSweepCells * len(core.Experiments()); job.Cells < 1 || job.Cells > max {
			t.Fatalf("accepted job has %d cells, want 1..%d", job.Cells, max)
		}
	})
}
