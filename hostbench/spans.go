package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer's public
// API. Parent is the enclosing span's id (0 for a root).
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

// spans records spans in memory for the traced run. A disabled recorder
// costs one branch per call and records nothing, so the untraced run
// measures the program without it.
type spans struct {
	on   bool
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans(on bool) *spans { return &spans{on: on, t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when disabled).
func (s *spans) begin(name string, parent int) int {
	if !s.on {
		return 0
	}
	at := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: at})
	return len(s.list)
}

// end closes the span id opened by begin.
func (s *spans) end(id int) {
	if id == 0 {
		return
	}
	at := time.Since(s.t0)
	s.mu.Lock()
	s.list[id-1].End = at
	s.mu.Unlock()
}

// do runs fn inside a span named name.
func (s *spans) do(name string, parent int, fn func(id int)) {
	id := s.begin(name, parent)
	fn(id)
	s.end(id)
}

// durations returns the wall seconds of every closed span named name.
func (s *spans) durations(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name && sp.End > 0 {
			out = append(out, (sp.End - sp.Start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds, each span's id and parent id in its args),
// loadable in chrome://tracing or Perfetto.
func (s *spans) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	s.mu.Lock()
	events := make([]event, 0, len(s.list))
	for _, sp := range s.list {
		if sp.End == 0 {
			continue
		}
		events = append(events, event{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
		})
	}
	s.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
