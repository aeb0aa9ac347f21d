package serve

import (
	"encoding/json"
	"sync"
	"time"

	"vibe/internal/core"
	"vibe/internal/metrics"
	"vibe/internal/runner"
)

// Submission is the body of POST /api/jobs: the same scenario language the
// CLIs speak — a PR-2 JSON scenario spec plus -set/-sweep semantics — with
// the experiment selection and instrumentation switches that the CLI flags
// carry.
type Submission struct {
	// Scenario is the base design point: {"base":..., "set":{...},
	// "run":{...}, "fault":{...}} — exactly the -scenario file format.
	Scenario core.ScenarioSpec `json:"scenario,omitzero"`

	// Set applies -set style overrides on top of the scenario (repeatable
	// flag semantics: later keys win).
	Set map[string]string `json:"set,omitempty"`

	// Sweeps expands the scenario into a grid, -sweep style:
	// ["TLBCapacity=8,32,128", ...]. Cells form the cross product.
	Sweeps []string `json:"sweeps,omitempty"`

	// Experiments selects registry experiment IDs (default: all).
	Experiments []string `json:"experiments,omitempty"`

	// Quick runs the reduced sweeps the CI smoke passes use.
	Quick bool `json:"quick,omitempty"`

	// Label is recorded in the result sets, like -label.
	Label string `json:"label,omitempty"`

	// Trace records a Chrome trace (forces one worker, like -trace-out).
	Trace bool `json:"trace,omitempty"`

	// Profile records a folded-stack virtual-time profile.
	Profile bool `json:"profile,omitempty"`
}

// EventType labels one entry in a job's progress stream.
type EventType string

const (
	EventQueued EventType = "queued"
	EventStart  EventType = "started"
	EventCell   EventType = "cell"
	EventDone   EventType = "done"
	EventFailed EventType = "failed"
	EventCached EventType = "cached"
)

// Event is one SSE frame in a job's stream. Cell events carry the runner's
// per-cell progress; terminal events carry the job status.
type Event struct {
	Seq        int       `json:"seq"`
	Type       EventType `json:"type"`
	Experiment string    `json:"experiment,omitempty"`
	Scenario   string    `json:"scenario,omitempty"`
	Done       int       `json:"done,omitempty"`
	Total      int       `json:"total,omitempty"`
	Skipped    bool      `json:"skipped,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// Job is one submitted run on the daemon's queue. All mutable state is
// guarded by mu; the notify channel is closed and replaced on every
// mutation so SSE streamers wake without polling.
type Job struct {
	ID        string     `json:"id"`
	Req       Submission `json:"request"`
	CacheKey  string     `json:"cache_key"`
	Cached    bool       `json:"cached"`
	Created   time.Time  `json:"created"`
	Started   time.Time  `json:"started,omitzero"`
	Finished  time.Time  `json:"finished,omitzero"`
	Status    JobStatus  `json:"status"`
	Error     string     `json:"error,omitempty"`
	Cells     int        `json:"cells"`
	Artifacts []string   `json:"artifacts,omitempty"`

	mu        sync.Mutex
	events    []Event
	notify    chan struct{}
	artifacts map[string][]byte

	// compiled at submission time; nil for a cache hit
	plan       *runner.Plan
	collectors []*metrics.Collector
}

func newJob(id string, req Submission) *Job {
	return &Job{
		ID:        id,
		Req:       req,
		Created:   time.Now().UTC(),
		Status:    StatusQueued,
		notify:    make(chan struct{}),
		artifacts: map[string][]byte{},
	}
}

// append records an event and wakes every waiting streamer.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// snapshotEvents returns the events from seq onward plus the channel that
// closes on the next append, so a streamer can replay history and then
// block for more.
func (j *Job) snapshotEvents(seq int) ([]Event, chan struct{}, JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.notify, j.Status
}

// setStatus transitions the job, stamping timestamps.
func (j *Job) setStatus(st JobStatus, errMsg string) {
	j.mu.Lock()
	j.Status = st
	j.Error = errMsg
	switch st {
	case StatusRunning:
		j.Started = time.Now().UTC()
	case StatusDone, StatusFailed:
		j.Finished = time.Now().UTC()
	}
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// putArtifact stores one downloadable blob under name.
func (j *Job) putArtifact(name string, data []byte) {
	j.mu.Lock()
	j.artifacts[name] = data
	j.Artifacts = append(j.Artifacts, name)
	j.mu.Unlock()
}

// artifact fetches one blob.
func (j *Job) artifact(name string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	d, ok := j.artifacts[name]
	return d, ok
}

// shareArtifacts copies the completed source job's artifact table and
// event history into j — the cache-hit replay. Blobs are shared (they are
// immutable once a job completes); collectors are NOT shared, so a cached
// job contributes nothing extra to /metrics.
func (j *Job) shareArtifacts(src *Job) {
	src.mu.Lock()
	arts := make(map[string][]byte, len(src.artifacts))
	for k, v := range src.artifacts {
		arts[k] = v
	}
	names := append([]string(nil), src.Artifacts...)
	src.mu.Unlock()

	j.mu.Lock()
	j.artifacts = arts
	j.Artifacts = names
	j.mu.Unlock()
}

// statusJSON renders the job's public state (under the lock, since the
// exported fields mutate over the lifecycle).
func (j *Job) statusJSON() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// progressEvent converts a runner progress callback into a cell event.
func progressEvent(ev runner.ProgressEvent) Event {
	e := Event{
		Type:       EventCell,
		Experiment: ev.Experiment,
		Scenario:   ev.Scenario,
		Done:       ev.Done,
		Total:      ev.Total,
		Skipped:    ev.Skipped,
	}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	return e
}
