package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPkgOf(t *testing.T) {
	cases := map[string]string{
		"vibe/internal/sim.(*Engine).Run":                                         "vibe/internal/sim",
		"vibe/internal/sim.(*Queue[go.shape.*vibe/internal/fabric.Delivery]).Pop": "vibe/internal/sim",
		"vibe/internal/via.(*Nic).PostSend.func1":                                 "vibe/internal/via",
		"runtime.mallocgc":       "runtime",
		"net/http.(*conn).serve": "net/http",
		"main.main":              "main",
		"gcWriteBarrier":         "runtime",
	}
	for fn, want := range cases {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf("vibe/internal/vmem"); got != "vmem" {
		t.Errorf("layerOf = %q, want vmem", got)
	}
	if got := layerOf("net/http"); got != "net/http" {
		t.Errorf("layerOf = %q, want net/http", got)
	}
}

// TestRollup checks self time goes to the leaf's layer, cumulative time to
// every layer on the stack once per sample, and the runtime buckets.
func TestRollup(t *testing.T) {
	ms := int64(time.Millisecond)
	samples := []cpuSample{
		{stack: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "vibe/internal/vmem.(*AddressSpace).Alloc", "vibe/internal/via.(*Ctx).Malloc", "vibe/internal/core.run"}, ns: 10 * ms},
		{stack: []string{"vibe/internal/sim.(*Engine).dispatch", "vibe/internal/sim.(*Engine).Run", "vibe/internal/sim.(*Engine).Run"}, ns: 20 * ms},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, ns: 5 * ms},
		{stack: []string{"vibe/internal/via.(*spanTracker).close", "vibe/internal/via.(*Nic).complete", "vibe/internal/sim.(*Engine).Run"}, ns: 3 * ms},
		{stack: nil, ns: 2 * ms},
	}
	r := rollupProfile(samples)
	want := func(what string, got, w float64) {
		t.Helper()
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", what, got, w)
		}
	}
	want("total", r.Total, 0.040)
	want("self runtime", r.Self["runtime"], 0.015)
	want("self sim", r.Self["sim"], 0.020)
	want("self via", r.Self["via"], 0.003)
	want("self vmem", r.Self["vmem"], 0)
	want("cum vmem", r.Cum["vmem"], 0.010)
	want("cum via", r.Cum["via"], 0.013)
	want("cum sim", r.Cum["sim"], 0.023) // Run twice on one stack counts once
	want("cum core", r.Cum["core"], 0.010)
	want("cum runtime", r.Cum["runtime"], 0.015)
	want("bucket gc", r.Buckets[bucketGC], 0.005)
	want("bucket memclr", r.Buckets[bucketMemclr], 0.010)
	want("bucket mallocgc", r.Buckets[bucketMallocgc], 0.010)
	want("bucket via.span", r.Buckets[bucketViaSpan], 0.003)
	var text bytes.Buffer
	if err := r.writeText(&text); err != nil || !bytes.Contains(text.Bytes(), []byte("vmem")) {
		t.Errorf("writeText: %v\n%s", err, text.Bytes())
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestParseCPUProfile decodes a hand-built profile: two sample types
// (the second is cpu), a location with an inlined frame, packed and
// unpacked repeated fields, and a fixed64 field to skip.
func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "main.leaf", "main.inlinedCaller", "main.root"}
	var prof pb
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	prof.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	// Sample 1: packed fields. Sample 2: one varint per element.
	prof.bytes(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(7, 70_000_000)).b)
	prof.bytes(2, (&pb{}).varint(1, 2).varint(2, 1).varint(2, 10_000_000).b)
	// Location 1 holds leaf inlined into inlinedCaller; location 2 is root.
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 1).b).bytes(4, (&pb{}).varint(1, 2).b).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 3).b).b)
	for id, name := range []uint64{5, 6, 7} {
		prof.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, name).b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.b = append(binary.AppendUvarint(prof.b, 9<<3|1), 0, 0, 0, 0, 0, 0, 0, 0) // time_nanos as fixed64
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	if got := samples[0].stack; len(got) != 3 || got[0] != "main.leaf" || got[1] != "main.inlinedCaller" || got[2] != "main.root" {
		t.Errorf("stack = %v", got)
	}
	if samples[0].ns != 70_000_000 || samples[1].ns != 10_000_000 {
		t.Errorf("cpu values = %d, %d", samples[0].ns, samples[1].ns)
	}
	if got := samples[1].stack; len(got) != 1 || got[0] != "main.root" {
		t.Errorf("second stack = %v", got)
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage input parsed without error")
	}
}

// TestParseRealProfile round-trips a profile runtime/pprof wrote: some
// sample must carry this test's spinning function.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := rollupProfile(samples)
	if r.Total <= 0 || r.Cum["vibe/hostbench"] <= 0 && r.Cum["main"] <= 0 {
		t.Errorf("rollup of a spinning test saw no benchmark-package CPU: %+v", r.Cum)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*31 + uint64(i)
		}
	}
}
