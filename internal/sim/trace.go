package sim

import (
	"strconv"
	"strings"
)

// Track is the component family a trace record belongs to; each instance
// (nic0, link3, ...) is one timeline in a trace viewer. Families are in
// pipeline order, the order a message's costs accrue.
type Track uint8

const (
	TrackSpan   Track = iota // completed message lifecycle spans, per node
	TrackNIC                 // NIC engine events, per host
	TrackLink                // host link tx/rx, per node
	TrackSwitch              // switch forwarding spans, per switch
)

var trackNames = [...]string{"span", "nic", "link", "switch"}

func (t Track) String() string { return trackNames[t] }

// TraceArgs is the number of integer arguments a TraceRecord carries.
const TraceArgs = 6

// TraceKind is the static descriptor of one trace call site: the track
// family its records land on and the layout of their display name. Call
// sites build theirs once, at package initialisation.
type TraceKind struct {
	Track Track
	parts []string // name text around the arguments: parts[i] precedes Args[i]
}

// NewTraceKind describes records on track family tr whose display name
// is layout with each "%d" replaced by the next integer argument, e.g.
// "tx dst=%d %dB". The layout is written verbatim into JSON, so it may
// not hold quotes, backslashes, HTML-escaped or non-ASCII characters;
// NewTraceKind panics on those and on more than TraceArgs arguments.
func NewTraceKind(tr Track, layout string) *TraceKind {
	parts := strings.Split(layout, "%d")
	ok := len(parts) <= TraceArgs+1
	for _, c := range []byte(layout) {
		ok = ok && c >= 0x20 && c < 0x7f && strings.IndexByte(`"\<>&`, c) < 0
	}
	if !ok {
		panic("sim: bad trace layout " + strconv.Quote(layout))
	}
	return &TraceKind{Track: tr, parts: parts}
}

// AppendName appends the display name of a record with arguments args.
func (k *TraceKind) AppendName(b []byte, args *[TraceArgs]int32) []byte {
	b = append(b, k.parts[0]...)
	for i, p := range k.parts[1:] {
		b = strconv.AppendInt(b, int64(args[i]), 10)
		b = append(b, p...)
	}
	return b
}

// TraceRecord is one traced simulation event. The instance and arguments
// are 32-bit: call sites pass node, VI and message ids, byte counts and
// hop indices, which must lie in the int32 range to be rendered exactly.
// Byte counts are bounded by the model's MaxTransferSize, which provider
// caps at math.MaxInt32.
type TraceRecord struct {
	At   Time
	Dur  Duration // 0 for an instant; a completed span covers [At, At+Dur)
	Kind *TraceKind
	Inst int32 // component instance on Kind's track family: nic1, link3, ...
	Args [TraceArgs]int32
}

// Tracer receives every traced simulation event. A record is passed by
// value, so recording one need not allocate.
type Tracer interface {
	Trace(rec TraceRecord)
}

// SetTracer installs tr as the engine's tracer. Pass nil to disable.
func (e *Engine) SetTracer(tr Tracer) { e.tracer = tr }

// Tracing reports whether a tracer is installed. Call sites check it
// before computing Trace's arguments, so an untraced run pays one branch.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Trace records an event of kind k on component instance inst at virtual
// time at, lasting dur (0 for an instant), if a tracer is installed. inst
// and args are narrowed to int32 without a check (see TraceRecord).
func (e *Engine) Trace(at Time, dur Duration, k *TraceKind, inst int, args ...int) {
	if e.tracer == nil {
		return
	}
	rec := TraceRecord{At: at, Dur: dur, Kind: k, Inst: int32(inst)}
	for i, a := range args {
		rec.Args[i] = int32(a)
	}
	e.tracer.Trace(rec)
}
