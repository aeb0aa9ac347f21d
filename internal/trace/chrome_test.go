package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"vibe/internal/sim"
)

// TestWriteChromeSchema validates the export against the Chrome
// trace-event format: a top-level traceEvents array whose records carry
// name/ph/ts/pid/tid, instant events scoped to threads, complete events
// with durations, and thread_name plus sort-index metadata for every
// (pid, tid) used.
func TestWriteChromeSchema(t *testing.T) {
	var r Recorder
	t1 := r.ForSystem()
	t2 := r.ForSystem()
	t1.Trace(instant(1500, kDoorbell, 0, 1))
	t1.Trace(instant(2500, kNICRx, 1))
	t2.Trace(instant(500, kLinkTx, 3, 1, 64))

	var b bytes.Buffer
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}

	named := make(map[[2]int]bool)  // (pid, tid) with thread_name metadata
	sorted := make(map[[2]int]bool) // (pid, tid) with thread_sort_index
	procSorted := make(map[int]bool)
	instants := 0
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		pid, tid := int(ev["pid"].(float64)), int(ev["tid"].(float64))
		switch ph := ev["ph"].(string); ph {
		case "M":
			args := ev["args"].(map[string]interface{})
			switch ev["name"] {
			case "thread_name":
				if args["name"] == "" {
					t.Fatalf("metadata without thread name: %v", ev)
				}
				named[[2]int{pid, tid}] = true
			case "thread_sort_index":
				if _, ok := args["sort_index"].(float64); !ok {
					t.Fatalf("thread_sort_index without numeric sort_index: %v", ev)
				}
				sorted[[2]int{pid, tid}] = true
			case "process_sort_index":
				if _, ok := args["sort_index"].(float64); !ok {
					t.Fatalf("process_sort_index without numeric sort_index: %v", ev)
				}
				procSorted[pid] = true
			default:
				t.Fatalf("unexpected metadata event %v", ev)
			}
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Fatalf("instant event not thread-scoped: %v", ev)
			}
			if !named[[2]int{pid, tid}] {
				t.Fatalf("instant on unnamed thread pid=%d tid=%d", pid, tid)
			}
			if !sorted[[2]int{pid, tid}] || !procSorted[pid] {
				t.Fatalf("instant on unsorted track pid=%d tid=%d", pid, tid)
			}
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if instants != 3 {
		t.Fatalf("instants = %d, want 3", instants)
	}
}

// decodedEvent is the part of a Chrome trace event the tests inspect.
type decodedEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

// writeChrome exports r and decodes the result.
func writeChrome(t *testing.T, r *Recorder) []decodedEvent {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []decodedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestWriteChromeTracks checks the track and pid mapping: entries from
// different systems land in different processes, distinct component
// instances land on distinct threads, and timestamps convert from virtual
// nanoseconds to microseconds.
func TestWriteChromeTracks(t *testing.T) {
	var r Recorder
	sys := r.ForSystem()
	sys.Trace(instant(3000, kDoorbell, 0, 1))
	sys.Trace(instant(4000, kNICRx, 1))
	r.Trace(instant(1000, kDoorbell, 0, 2)) // pid 0, via the Recorder directly

	pids := make(map[int]bool)
	tidByName := make(map[string]int)
	for _, ev := range writeChrome(t, &r) {
		pids[ev.Pid] = true
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == 1 {
			tidByName[ev.Args["name"].(string)] = ev.Tid
		}
		if ev.Ph == "i" && ev.Name == "doorbell vi=1 op=0 len=0" && ev.Ts != 3.0 {
			t.Fatalf("ts = %v us, want 3.0", ev.Ts)
		}
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("pids = %v, want both 0 and 1", pids)
	}
	if len(tidByName) != 2 || tidByName["nic0"] == tidByName["nic1"] {
		t.Fatalf("thread mapping = %v, want distinct nic0/nic1", tidByName)
	}
}

// TestWriteChromeSpans checks duration-carrying entries export as "X"
// complete events with start and duration in microseconds.
func TestWriteChromeSpans(t *testing.T) {
	var r Recorder
	tr := r.ForSystem()
	tr.Trace(instant(1000, kDoorbell, 0))
	span := instant(2000, kSpan, 0, 4096)
	span.Dur = 5000
	r.Trace(span)

	var complete *decodedEvent
	evs := writeChrome(t, &r)
	for i, ev := range evs {
		if ev.Ph == "X" {
			complete = &evs[i]
		}
	}
	if complete == nil {
		t.Fatal("no complete event exported")
	}
	if complete.Name != "send 4096B ok" || complete.Ts != 2.0 || complete.Dur != 5.0 {
		t.Fatalf("complete event = %+v, want ts=2us dur=5us", complete)
	}
}

// TestThreadSortIndex checks pipeline ordering: span before nic before
// link before switch, instances in numeric order within a family.
func TestThreadSortIndex(t *testing.T) {
	var r Recorder
	tr := r.ForSystem()
	for _, k := range []*sim.TraceKind{kFwd, kLinkRx, kNICRx, kSpan} {
		for _, inst := range []int32{10, 1, 0} {
			tr.Trace(instant(1, k, inst))
		}
	}
	names := make(map[int]string)
	rank := make(map[string]float64)
	for _, ev := range writeChrome(t, &r) {
		switch ev.Name {
		case "thread_name":
			names[ev.Tid] = ev.Args["name"].(string)
		case "thread_sort_index":
			rank[names[ev.Tid]] = ev.Args["sort_index"].(float64)
		}
	}
	order := []string{"span0", "span1", "span10", "nic0", "nic1", "nic10", "link0", "link1", "link10", "switch0", "switch1", "switch10"}
	for i := 1; i < len(order); i++ {
		if a, b := rank[order[i-1]], rank[order[i]]; a >= b {
			t.Errorf("rank(%s)=%v >= rank(%s)=%v", order[i-1], a, order[i], b)
		}
	}
	if rank["span0"] != 300 || rank["switch10"] != 610 {
		t.Errorf("span0=%v switch10=%v, want 300 and 610", rank["span0"], rank["switch10"])
	}
}

// TestWriteChromeEmpty checks an empty recorder writes an empty event list.
func TestWriteChromeEmpty(t *testing.T) {
	var r Recorder
	var b bytes.Buffer
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "{\"traceEvents\":[]}\n" {
		t.Fatalf("empty export = %q", got)
	}
}
