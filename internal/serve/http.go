package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"vibe/internal/metrics"
)

// Handler returns the daemon's HTTP API:
//
//	POST /api/jobs                       submit a Submission, returns the job
//	GET  /api/jobs                       list jobs in submission order
//	GET  /api/jobs/{id}                  one job's status
//	GET  /api/jobs/{id}/events           SSE progress stream (replays history)
//	GET  /api/jobs/{id}/artifacts/{name} download one artifact
//	GET  /metrics                        Prometheus text exposition
//	GET  /healthz                        liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/jobs", s.handleList)
	mux.HandleFunc("GET /api/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxSubmitBytes bounds a POST /api/jobs body. A submission is a scenario
// spec plus a few lists; anything near this size is not one.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("serve: bad submission: %w", err))
		return
	}
	var req Submission
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad submission: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, errors.New("serve: bad submission: trailing data after the submission"))
		return
	}
	j, err := s.Submit(req)
	switch {
	case errors.Is(err, errQueueFull):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJobJSON(w, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID     string    `json:"id"`
		Status JobStatus `json:"status"`
		Cached bool      `json:"cached"`
		Cells  int       `json:"cells"`
	}
	var rows []row
	for _, j := range s.listJobs() {
		j.mu.Lock()
		rows = append(rows, row{j.ID, j.Status, j.Cached, j.Cells})
		j.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Jobs []row `json:"jobs"`
	}{rows})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJobJSON(w, j)
}

// handleEvents streams the job's progress as Server-Sent Events: the full
// history first (so late subscribers see every cell), then live events
// until the job reaches a terminal state. Each frame is
// "event: <type>\ndata: <json>\n\n"; the stream ends after the done or
// failed frame.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	seq := 0
	for {
		evs, notify, status := j.snapshotEvents(seq)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			seq = ev.Seq + 1
		}
		if canFlush {
			fl.Flush()
		}
		if status == StatusDone || status == StatusFailed {
			// Terminal state and history fully replayed: the last frame
			// (done/failed/cached) has been written, close the stream.
			if len(evs) == 0 {
				return
			}
			continue // drain any events appended after the status flip
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	name := r.PathValue("name")
	data, ok := j.artifact(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no artifact %q", name))
		return
	}
	switch {
	case strings.HasSuffix(name, ".json"):
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(data)
}

// handleMetrics serves the Prometheus text exposition: daemon job/queue/
// pool gauges under the vibed_ prefix, then every job's merged simulation
// counters and histograms under vibe_. Scraping is safe mid-run — the
// collectors are mutex-guarded and the daemon counters copy under s.mu.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PromContentType)
	if err := s.daemonSnapshot().WritePrometheus(w, "vibed"); err != nil {
		return
	}
	s.simSnapshot().WritePrometheus(w, "vibe")
}

func writeJobJSON(w http.ResponseWriter, j *Job) {
	data, err := j.statusJSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(data)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{err.Error()})
	w.Write(append(data, '\n'))
}
