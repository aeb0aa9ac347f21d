package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"vibe/internal/sim"
)

// WriteChrome exports the buffered entries as a Chrome trace-event JSON
// document, the format chrome://tracing and Perfetto (ui.perfetto.dev)
// load directly. Each recorded system (pid) becomes a process track and
// each component instance (nic0, link3, ...) a thread track of it, so the
// NIC engines of each host line up as parallel timelines. Instants are
// thread-scoped "i" events; entries with a duration are complete "X"
// events that render as bars. A track's metadata precedes its first
// event; thread_sort_index orders the tracks span → nic → link → switch,
// then by instance.
//
// The entries stream through a buffered writer, byte for byte what
// encoding/json would write for the same events: timestamps are float
// microseconds in its shortest 'f' form, which covers every magnitude an
// int64 nanosecond count reaches.
func (r *Recorder) WriteChrome(w io.Writer) error {
	type track struct {
		pid  int32
		fam  sim.Track
		inst int32
	}
	tids := make(map[track]int)
	lastTid := make(map[int32]int) // per pid: the last tid handed out
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(`{"traceEvents":[`)
	sep := "" // before the document's first event, always a process's
	for _, part := range [2][]Entry{r.buf[r.head:], r.buf[:r.head]} {
		for i := range part {
			e := &part[i]
			// The entry's events are appended straight into the writer's
			// free space; flushing early keeps that space large enough.
			if bw.Available() < 1<<10 {
				bw.Flush()
			}
			b := bw.AvailableBuffer()
			k := track{e.Pid, e.Kind.Track, e.Inst}
			tid, ok := tids[k]
			if !ok {
				n, seen := lastTid[e.Pid]
				if !seen {
					b = fmt.Appendf(b, `%s{"name":"process_sort_index","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"sort_index":%[2]d}}`, sep, e.Pid)
					sep = ","
				}
				tid = n + 1
				tids[k], lastTid[e.Pid] = tid, tid
				// Sort indices start at 300 so files stay byte-identical to
				// earlier exports, which kept 100 and 200 for cpu and via.
				b = fmt.Appendf(b, `,{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":"%s%d"}}`+
					`,{"name":"thread_sort_index","ph":"M","ts":0,"pid":%[1]d,"tid":%[2]d,"args":{"sort_index":%[5]d}}`,
					e.Pid, tid, e.Kind.Track, e.Inst, 300+100*int(e.Kind.Track)+int(e.Inst))
			}
			span := e.Dur > 0
			b = append(b, `,{"name":"`...)
			b = e.Kind.AppendName(b, &e.Args)
			if span {
				b = append(b, `","ph":"X","ts":`...)
			} else {
				b = append(b, `","ph":"i","ts":`...)
			}
			b = appendMicros(b, e.At)
			if span {
				b = appendMicros(append(b, `,"dur":`...), sim.Time(e.Dur))
			}
			b = strconv.AppendInt(append(b, `,"pid":`...), int64(e.Pid), 10)
			b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
			if !span {
				b = append(b, `,"s":"t"`...)
			}
			bw.Write(append(b, '}'))
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush() // a bufio write error sticks, so this reports any
}

// appendMicros appends a nanosecond count as float microseconds.
func appendMicros(b []byte, ns sim.Time) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}
