package trace

import (
	"io"
	"strconv"
	"testing"

	"vibe/internal/sim"
)

// BenchmarkTraceAtLimit measures the steady-state cost of a traced call
// site once the ring is full: the engine builds the six-argument NIC rx
// record and the recorder overwrites one slot, flat in Limit.
func BenchmarkTraceAtLimit(b *testing.B) {
	for _, limit := range []int{1024, 16384} {
		b.Run(strconv.Itoa(limit), func(b *testing.B) {
			e := sim.NewEngine(1)
			r := Recorder{Limit: limit}
			e.SetTracer(r.ForSystem())
			for i := 0; i < limit; i++ {
				e.Trace(sim.Time(i), 0, kLinkTx, 0, 1, 64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Trace(sim.Time(limit+i), 0, kNICRx, 1, 0, 0, 1, i, 0, 64)
			}
		})
	}
}

// syntheticRing fills a recorder with n records cycling through the six
// call-site shapes, spread over four systems run one after another and
// eight component instances per track family.
func syntheticRing(n int) *Recorder {
	r := &Recorder{Limit: n}
	var sys [4]sim.Tracer
	for i := range sys {
		sys[i] = r.ForSystem()
	}
	for i := 0; i < n; i++ {
		tr := sys[i*len(sys)/n]
		at := sim.Time(2440400 + 1337*i)
		inst, j := int32(i%8), int32(i)
		var rec sim.TraceRecord
		switch i % 6 {
		case 0:
			rec = instant(at, kLinkTx, inst, inst^1, 64+j%4096)
		case 1:
			rec = instant(at, kFwd, inst/2, inst^1, 64+j%4096, 1, 2)
			rec.Dur = 606
		case 2:
			rec = instant(at, kLinkRx, inst^1, inst, 64+j%4096)
		case 3:
			rec = instant(at, kNICRx, inst^1, 0, inst, 1, j/6, (j%8)*1024, 1024)
		case 4:
			rec = instant(at, kDoorbell, inst, 1, 0, 64+j%4096)
		case 5:
			rec = instant(at, kSpan, inst, 64+j%4096)
			rec.Dur = 6173
		}
		tr.Trace(rec)
	}
	return r
}

// BenchmarkWriteChrome measures the Chrome export of a full ring of 64k
// mixed records.
func BenchmarkWriteChrome(b *testing.B) {
	r := syntheticRing(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
