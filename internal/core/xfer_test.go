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

// --- Figure 3 shapes: base latency and bandwidth with polling ---

func TestFig3SmallMessageLatencyOrdering(t *testing.T) {
	clan := latAt(t, provider.CLAN(), 4, XferOpts{})
	mvia := latAt(t, provider.MVIA(), 4, XferOpts{})
	bvia := latAt(t, provider.BVIA(), 4, XferOpts{})
	// cLAN lowest; M-VIA below BVIA for short messages.
	if !(clan.LatencyUs < mvia.LatencyUs && mvia.LatencyUs < bvia.LatencyUs) {
		t.Errorf("small-message ordering clan < mvia < bvia violated: %.1f %.1f %.1f",
			clan.LatencyUs, mvia.LatencyUs, bvia.LatencyUs)
	}
	// Rough magnitudes from the paper's era: clan ~8-10us, mvia ~15-25us,
	// bvia ~20-35us.
	if clan.LatencyUs < 5 || clan.LatencyUs > 12 {
		t.Errorf("clan 4B latency %.1fus outside plausible band", clan.LatencyUs)
	}
	if mvia.LatencyUs < 12 || mvia.LatencyUs > 28 {
		t.Errorf("mvia 4B latency %.1fus outside plausible band", mvia.LatencyUs)
	}
	if bvia.LatencyUs < 18 || bvia.LatencyUs > 40 {
		t.Errorf("bvia 4B latency %.1fus outside plausible band", bvia.LatencyUs)
	}
}

func TestFig3LargeMessageLatencyCrossover(t *testing.T) {
	// BVIA outperforms M-VIA for longer messages (M-VIA's extra copies).
	mvia := latAt(t, provider.MVIA(), 28672, XferOpts{})
	bvia := latAt(t, provider.BVIA(), 28672, XferOpts{})
	if !(bvia.LatencyUs < mvia.LatencyUs) {
		t.Errorf("bvia (%.0f) should beat mvia (%.0f) at 28KB", bvia.LatencyUs, mvia.LatencyUs)
	}
	if mvia.LatencyUs < 2*bvia.LatencyUs {
		t.Errorf("mvia/bvia large-message gap too small: %.0f vs %.0f", mvia.LatencyUs, bvia.LatencyUs)
	}
}

func TestFig3LatencyMonotonicInSize(t *testing.T) {
	for _, m := range provider.All() {
		lat, _, err := LatencySweep(quickCfg(m), []int{4, 1024, 4096, 28672}, XferOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(lat.Y); i++ {
			if lat.Y[i] <= lat.Y[i-1] {
				t.Errorf("%s latency not increasing at %g", m.Name, lat.X[i])
			}
		}
	}
}

func TestFig3BandwidthOrdering(t *testing.T) {
	// Large messages: BVIA > cLAN > M-VIA (the paper's "BVIA outperforms
	// both for large messages").
	bvia := bwAt(t, provider.BVIA(), 28672, XferOpts{})
	clan := bwAt(t, provider.CLAN(), 28672, XferOpts{})
	mvia := bwAt(t, provider.MVIA(), 28672, XferOpts{})
	if !(bvia.MBps > clan.MBps && clan.MBps > mvia.MBps) {
		t.Errorf("28KB bandwidth ordering bvia > clan > mvia violated: %.0f %.0f %.0f",
			bvia.MBps, clan.MBps, mvia.MBps)
	}
	// Mid-range: cLAN superiority (paper: "for a large range of sizes").
	clanMid := bwAt(t, provider.CLAN(), 1024, XferOpts{})
	bviaMid := bwAt(t, provider.BVIA(), 1024, XferOpts{})
	mviaMid := bwAt(t, provider.MVIA(), 1024, XferOpts{})
	if !(clanMid.MBps > bviaMid.MBps && clanMid.MBps > mviaMid.MBps) {
		t.Errorf("1KB bandwidth: clan should lead: clan=%.0f bvia=%.0f mvia=%.0f",
			clanMid.MBps, bviaMid.MBps, mviaMid.MBps)
	}
	// Plateaus in plausible bands: mvia ~45-60, bvia ~120-145, clan ~105-125.
	if mvia.MBps < 40 || mvia.MBps > 65 {
		t.Errorf("mvia plateau %.0f MB/s implausible", mvia.MBps)
	}
	if bvia.MBps < 115 || bvia.MBps > 150 {
		t.Errorf("bvia plateau %.0f MB/s implausible", bvia.MBps)
	}
	if clan.MBps < 100 || clan.MBps > 130 {
		t.Errorf("clan plateau %.0f MB/s implausible", clan.MBps)
	}
}

func TestPollingCPUIsFullyBusy(t *testing.T) {
	for _, m := range provider.All() {
		r := latAt(t, m, 1024, XferOpts{})
		if r.CPUUtil < 0.99 {
			t.Errorf("%s polling CPU utilization %.2f, want ~1.0", m.Name, r.CPUUtil)
		}
	}
}

// --- Figure 4 shapes: blocking ---

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

func TestFig4BlockingCPU(t *testing.T) {
	var utils = map[string]float64{}
	for _, m := range provider.All() {
		r := latAt(t, m, 4, XferOpts{Mode: Blocking})
		if r.CPUUtil >= 0.9 {
			t.Errorf("%s blocking CPU %.2f: should be well below polling", m.Name, r.CPUUtil)
		}
		utils[m.Name] = r.CPUUtil
	}
	// M-VIA (kernel emulation) highest for small messages.
	if !(utils["mvia"] > utils["bvia"] && utils["mvia"] > utils["clan"]) {
		t.Errorf("mvia should have the highest blocking CPU at 4B: %v", utils)
	}
}

// --- Figure 5 shapes: buffer reuse (address translation) ---

func TestFig5BviaReuseSensitivity(t *testing.T) {
	m := provider.BVIA()
	base := latAt(t, m, 28672, XferOpts{})
	noReuse := latAt(t, m, 28672, XferOpts{VaryBuffers: true, ReusePct: 0})
	if noReuse.LatencyUs < base.LatencyUs+40 {
		t.Errorf("bvia 0%%-reuse latency %.0f should far exceed base %.0f",
			noReuse.LatencyUs, base.LatencyUs)
	}
	// Impact is more severe (in absolute us) for large messages: more
	// pages per message.
	smallBase := latAt(t, m, 4, XferOpts{})
	smallNoReuse := latAt(t, m, 4, XferOpts{VaryBuffers: true, ReusePct: 0})
	largeDelta := noReuse.LatencyUs - base.LatencyUs
	smallDelta := smallNoReuse.LatencyUs - smallBase.LatencyUs
	if largeDelta <= smallDelta {
		t.Errorf("reuse impact should grow with size: 4B delta %.1f, 28KB delta %.1f",
			smallDelta, largeDelta)
	}
	// Bandwidth drops too.
	bwBase := bwAt(t, m, 28672, XferOpts{})
	bwNo := bwAt(t, m, 28672, XferOpts{VaryBuffers: true, ReusePct: 0})
	if bwNo.MBps >= bwBase.MBps*0.9 {
		t.Errorf("bvia 0%%-reuse bandwidth %.0f should drop well below base %.0f",
			bwNo.MBps, bwBase.MBps)
	}
}

func TestFig5ReuseMonotonicAtSmallSizes(t *testing.T) {
	// At one-page messages the pool always outlives the TLB, so latency
	// falls monotonically as reuse rises.
	m := provider.BVIA()
	prev := -1.0
	for _, pct := range []int{100, 75, 50, 25, 0} {
		r := latAt(t, m, 4, XferOpts{VaryBuffers: true, ReusePct: pct})
		if prev > 0 && r.LatencyUs < prev {
			t.Errorf("latency at %d%% reuse (%.1f) below %.1f at higher reuse", pct, r.LatencyUs, prev)
		}
		prev = r.LatencyUs
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

// --- Figure 6 shapes: multiple VIs ---

func TestFig6BviaMultiViDegradation(t *testing.T) {
	m := provider.BVIA()
	one := latAt(t, m, 4, XferOpts{ActiveVIs: 1})
	sixteen := latAt(t, m, 4, XferOpts{ActiveVIs: 16})
	if sixteen.LatencyUs < one.LatencyUs*2 {
		t.Errorf("bvia 16-VI latency %.1f should be >=2x the 1-VI %.1f",
			sixteen.LatencyUs, one.LatencyUs)
	}
	// Monotone in VI count.
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		r := latAt(t, m, 4, XferOpts{ActiveVIs: n})
		if r.LatencyUs <= prev {
			t.Errorf("bvia latency not increasing at %d VIs", n)
		}
		prev = r.LatencyUs
	}
	// Bandwidth drops.
	bw1 := bwAt(t, m, 4096, XferOpts{ActiveVIs: 1})
	bw16 := bwAt(t, m, 4096, XferOpts{ActiveVIs: 16})
	if bw16.MBps >= bw1.MBps*0.7 {
		t.Errorf("bvia 16-VI bandwidth %.0f should drop well below %.0f", bw16.MBps, bw1.MBps)
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

// --- §4.3.3: CQ overhead ---

func TestCQOverheadBands(t *testing.T) {
	deltas := map[string]float64{}
	for _, m := range provider.All() {
		_, _, d, err := CQOverhead(quickCfg(m), []int{4})
		if err != nil {
			t.Fatal(err)
		}
		deltas[m.Name] = d.Y[0]
	}
	if deltas["bvia"] < 2 || deltas["bvia"] > 5 {
		t.Errorf("bvia CQ overhead %.1fus outside the paper's 2-5us", deltas["bvia"])
	}
	for _, name := range []string{"mvia", "clan"} {
		if deltas[name] > 1 {
			t.Errorf("%s CQ overhead %.1fus should be negligible", name, deltas[name])
		}
	}
}

// --- Figure 7 shapes: client-server ---

func TestFig7ClientServerShapes(t *testing.T) {
	tps := func(m *provider.Model, req, reply int) float64 {
		r, err := Transaction(quickCfg(m), req, reply)
		if err != nil {
			t.Fatalf("%s cs %d/%d: %v", m.Name, req, reply, err)
		}
		return r.TPS
	}
	clan16 := tps(provider.CLAN(), 16, 16)
	mvia16 := tps(provider.MVIA(), 16, 16)
	bvia16 := tps(provider.BVIA(), 16, 16)
	// cLAN dominates; the paper's peak is ~55K/s at 16B requests.
	if !(clan16 > mvia16 && clan16 > bvia16) {
		t.Errorf("clan should lead at 16B: %.0f vs %.0f/%.0f", clan16, mvia16, bvia16)
	}
	if clan16 < 45000 || clan16 > 70000 {
		t.Errorf("clan 16B peak %.0f tx/s outside the paper's ~55K band", clan16)
	}
	// M-VIA beats BVIA for short replies; BVIA wins mid-size.
	if !(mvia16 > bvia16) {
		t.Errorf("mvia (%.0f) should beat bvia (%.0f) at 16B replies", mvia16, bvia16)
	}
	mviaMid := tps(provider.MVIA(), 16, 4096)
	bviaMid := tps(provider.BVIA(), 16, 4096)
	if !(bviaMid > mviaMid) {
		t.Errorf("bvia (%.0f) should beat mvia (%.0f) at 4KB replies", bviaMid, mviaMid)
	}
	// Larger requests shift every curve down.
	clan256 := tps(provider.CLAN(), 256, 16)
	if !(clan256 < clan16) {
		t.Errorf("256B requests (%.0f) should be slower than 16B (%.0f)", clan256, clan16)
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
