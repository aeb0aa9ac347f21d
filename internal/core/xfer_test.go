package core

import (
	"runtime"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/via"
)

func latAt(t *testing.T, m *provider.Model, size int, o XferOpts) XferResult {
	t.Helper()
	r, err := Latency(quickCfg(m), size, o)
	if err != nil {
		t.Fatalf("latency %s %d: %v", m.Name, size, err)
	}
	return r
}

func bwAt(t *testing.T, m *provider.Model, size int, o XferOpts) XferResult {
	t.Helper()
	r, err := Bandwidth(quickCfg(m), size, o)
	if err != nil {
		t.Fatalf("bandwidth %s %d: %v", m.Name, size, err)
	}
	return r
}

// TestXferHeapBytes gates the host heap one 64 KiB cLAN point costs. The
// benchmark never writes its buffers, so the NIC moves their zero ranges as
// lengths: neither side's buffer is materialized and no fragment carries a
// payload slice. Gathering or scattering real bytes again costs a
// bandwidth point about 1.9 MiB and a latency point about 400 KiB.
// Heap bytes are deterministic on any machine, unlike a wall-time gate.
func TestXferHeapBytes(t *testing.T) {
	const size = 64 << 10
	for _, c := range []struct {
		name  string
		run   func(Config, int, XferOpts) (XferResult, error)
		limit uint64
	}{
		{"Bandwidth", Bandwidth, 640 << 10},
		{"Latency", Latency, 160 << 10},
	} {
		cfg := DefaultConfig(provider.CLAN())
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := c.run(cfg, size, XferOpts{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s(%d): allocated %d KiB", c.name, size, d>>10)
		if d >= c.limit {
			t.Errorf("%s(%d) allocated %d KiB, want < %d KiB", c.name, size, d>>10, c.limit>>10)
		}
	}
}

// --- paper conclusions the registry's reports cannot check ---
//
// The F3-F6 claims live on their experiments (core.Experiment.Claims).
// These four need values no report carries: F3 notes polling CPU rather
// than plotting it, F4 does not run polling, and F5/F6 keep M-VIA's and
// cLAN's points only in note text.

func TestPollingCPUIsFullyBusy(t *testing.T) {
	for _, m := range provider.All() {
		r := latAt(t, m, 1024, XferOpts{})
		if r.CPUUtil < 0.99 {
			t.Errorf("%s polling CPU utilization %.2f, want ~1.0", m.Name, r.CPUUtil)
		}
	}
}

func TestFig4BlockingRaisesLatency(t *testing.T) {
	for _, m := range provider.All() {
		poll := latAt(t, m, 4, XferOpts{})
		block := latAt(t, m, 4, XferOpts{Mode: Blocking})
		if block.LatencyUs < poll.LatencyUs+3 {
			t.Errorf("%s blocking (%.1f) should significantly exceed polling (%.1f)",
				m.Name, block.LatencyUs, poll.LatencyUs)
		}
	}
}

func TestFig5OthersInsensitive(t *testing.T) {
	for _, m := range []*provider.Model{provider.MVIA(), provider.CLAN()} {
		base := latAt(t, m, 28672, XferOpts{})
		noReuse := latAt(t, m, 28672, XferOpts{VaryBuffers: true, ReusePct: 0})
		if noReuse.LatencyUs > base.LatencyUs*1.02 {
			t.Errorf("%s should be reuse-insensitive: base %.1f vs 0%% %.1f",
				m.Name, base.LatencyUs, noReuse.LatencyUs)
		}
	}
}

func TestFig6OthersInsensitive(t *testing.T) {
	for _, m := range []*provider.Model{provider.MVIA(), provider.CLAN()} {
		one := latAt(t, m, 4, XferOpts{ActiveVIs: 1})
		sixteen := latAt(t, m, 4, XferOpts{ActiveVIs: 16})
		if sixteen.LatencyUs > one.LatencyUs*1.02 {
			t.Errorf("%s should be VI-count-insensitive: %.1f vs %.1f",
				m.Name, one.LatencyUs, sixteen.LatencyUs)
		}
	}
}

// --- cross-cutting properties ---

func TestLatencyDeterminism(t *testing.T) {
	a := latAt(t, provider.BVIA(), 1024, XferOpts{VaryBuffers: true, ReusePct: 50})
	b := latAt(t, provider.BVIA(), 1024, XferOpts{VaryBuffers: true, ReusePct: 50})
	if a != b {
		t.Fatalf("non-deterministic latency: %+v vs %+v", a, b)
	}
}

func TestBlockingAndCQComposition(t *testing.T) {
	// The suite's opts compose: blocking + CQ must still complete and
	// cost more than either alone.
	m := provider.BVIA()
	base := latAt(t, m, 1024, XferOpts{})
	both := latAt(t, m, 1024, XferOpts{Mode: Blocking, RecvViaCQ: true})
	if both.LatencyUs <= base.LatencyUs {
		t.Errorf("blocking+CQ (%.1f) should exceed base (%.1f)", both.LatencyUs, base.LatencyUs)
	}
}

func TestReliabilityLatencyOrdering(t *testing.T) {
	m := provider.CLAN()
	u := latAt(t, m, 1024, XferOpts{})
	rd := latAt(t, m, 1024, XferOpts{Reliability: via.ReliableDelivery})
	if rd.LatencyUs < u.LatencyUs {
		t.Errorf("reliable delivery (%.1f) should not beat unreliable (%.1f)",
			rd.LatencyUs, u.LatencyUs)
	}
}

func TestSegmentsAddCost(t *testing.T) {
	for _, m := range provider.All() {
		one := latAt(t, m, 4096, XferOpts{Segments: 1})
		four := latAt(t, m, 4096, XferOpts{Segments: 4})
		if four.LatencyUs <= one.LatencyUs {
			t.Errorf("%s: 4 segments (%.1f) should cost more than 1 (%.1f)",
				m.Name, four.LatencyUs, one.LatencyUs)
		}
	}
}

func TestNotifyAddsDispatchCost(t *testing.T) {
	m := provider.CLAN()
	sync := latAt(t, m, 64, XferOpts{})
	asy := latAt(t, m, 64, XferOpts{Notify: true})
	if asy.LatencyUs <= sync.LatencyUs {
		t.Errorf("notify (%.1f) should cost more than polling (%.1f)",
			asy.LatencyUs, sync.LatencyUs)
	}
}

func TestRDMATransfersWork(t *testing.T) {
	for _, m := range provider.All() {
		r := latAt(t, m, 4096, XferOpts{RDMA: true})
		if r.LatencyUs <= 0 {
			t.Errorf("%s RDMA latency %.1f", m.Name, r.LatencyUs)
		}
	}
}

func TestPipelineBandwidthMonotone(t *testing.T) {
	s, err := PipelineSweep(quickCfg(provider.CLAN()), 4096, []int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1]*0.99 {
			t.Errorf("bandwidth fell with deeper pipeline: %v", s.Y)
		}
	}
	if s.Y[len(s.Y)-1] < s.Y[0]*1.5 {
		t.Errorf("pipelining should raise bandwidth substantially: %v", s.Y)
	}
}

func TestWindowOneIsSlowerThanUnbounded(t *testing.T) {
	// With unreliable delivery a send completes when the last fragment
	// leaves the adapter, so window-1 stalls the host on the adapter
	// drain; with reliable delivery it additionally waits for the ack
	// round trip. Both must fall well below the unbounded pipeline.
	m := provider.CLAN()
	free := bwAt(t, m, 4096, XferOpts{})
	w1 := bwAt(t, m, 4096, XferOpts{Window: 1})
	if w1.MBps >= free.MBps*0.8 {
		t.Errorf("window-1 bandwidth %.0f too close to unbounded %.0f", w1.MBps, free.MBps)
	}
	w1rel := bwAt(t, m, 4096, XferOpts{Window: 1, Reliability: via.ReliableDelivery})
	if w1rel.MBps >= w1.MBps {
		t.Errorf("reliable window-1 (%.0f) should be slower than unreliable (%.0f): it waits for acks",
			w1rel.MBps, w1.MBps)
	}
	// Reliable window-1 is ack-round-trip bound.
	lat := latAt(t, m, 4096, XferOpts{})
	bound := 4096.0 / lat.LatencyUs * 1.5
	if w1rel.MBps > bound {
		t.Errorf("reliable window-1 bandwidth %.0f exceeds RTT-ish bound %.0f", w1rel.MBps, bound)
	}
}

func TestMTULadderShape(t *testing.T) {
	l := MTULadder(4096)
	if len(l) != 8 || l[2] != 4096 || l[3] != 4100 {
		t.Fatalf("MTULadder = %v", l)
	}
	// Crossing the MTU boundary costs a visible step (a second fragment).
	m := provider.BVIA()
	at := latAt(t, m, 4096, XferOpts{})
	over := latAt(t, m, 4100, XferOpts{})
	if over.LatencyUs-at.LatencyUs < 3 {
		t.Errorf("MTU crossing step too small: %.1f -> %.1f", at.LatencyUs, over.LatencyUs)
	}
}

// TestRDMALatencyAtShortOneWayTrips: with RDMA, the latency server posts
// its first receive before it publishes its buffer addresses. If it
// posted after, a short enough one-way trip let the client's first RDMA
// write with immediate data reach an empty receive queue, where the
// unreliable VI dropped it and both sides waited forever. The cLAN 4 B
// point at a faster wire or a shorter link is such a trip.
func TestRDMALatencyAtShortOneWayTrips(t *testing.T) {
	for _, set := range [][2]string{{"BandwidthBps", "1.9e9"}, {"LinkLatency", "0.05us"}} {
		m := provider.CLAN()
		p, err := provider.ParamByName(set[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Set(m, set[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := Latency(quickCfg(m), 4, XferOpts{RDMA: true}); err != nil {
			t.Errorf("%s=%s: %v", set[0], set[1], err)
		}
	}
}
