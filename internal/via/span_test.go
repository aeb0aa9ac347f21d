package via

import (
	"strconv"
	"strings"
	"testing"

	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// runSpanWorkload drives msgs reliable sends client→server on a
// span-sampled system and tears the connection down explicitly, so every
// sampled span must end up closed (completed, errored, or flushed).
func runSpanWorkload(t *testing.T, sys *System, msgs, size int) {
	t.Helper()
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		nic.SetErrorCallback(func(*Ctx, ErrorEvent) {})
		vi, err := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer vi.Destroy(ctx)
		if err := vi.ConnectRequest(ctx, 1, "span", 100*sim.Millisecond); err != nil {
			return // handshake eaten by the plan: nothing sampled, nothing leaked
		}
		defer vi.Disconnect(ctx)
		buf := ctx.Malloc(size)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := vi.PostSend(ctx, SimpleSend(buf, h, size)); err != nil {
				return // connection broke: Disconnect/Destroy still flush
			}
			if _, err := vi.SendWait(ctx, sim.Second); err != nil {
				return
			}
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		nic.SetErrorCallback(func(*Ctx, ErrorEvent) {})
		vi, err := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer vi.Destroy(ctx)
		bufs := make([]*vmem.Buffer, msgs)
		for i := range bufs {
			bufs[i] = ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, bufs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if err := vi.PostRecv(ctx, SimpleRecv(bufs[i], h, size)); err != nil {
				t.Error(err)
				return
			}
		}
		req, err := nic.ConnectWait(ctx, "span", 100*sim.Millisecond)
		if err != nil {
			return
		}
		if err := req.Accept(ctx, vi); err != nil {
			return
		}
		defer vi.Disconnect(ctx)
		for i := 0; i < msgs; i++ {
			if _, err := vi.RecvWait(ctx, 200*sim.Millisecond); err != nil {
				return
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSpanLifecycleClean checks the happy path: every sampled span opens
// and closes exactly once, and the per-phase histograms cover both
// directions of the transfer.
func TestSpanLifecycleClean(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.EnableSpans(1)
	runSpanWorkload(t, sys, 8, 1200)

	opened, closed, doubles := sys.spans.opened, sys.spans.closedN, sys.spans.doubles
	if opened == 0 {
		t.Fatal("no spans sampled")
	}
	if opened != closed {
		t.Errorf("opened %d spans, closed %d: leak", opened, closed)
	}
	if doubles != 0 {
		t.Errorf("%d double-closes", doubles)
	}

	tr := sys.spans
	if tr.totals[pathSend].Count() == 0 {
		t.Error("no send spans recorded")
	}
	if tr.totals[pathRecv].Count() == 0 {
		t.Error("no recv spans recorded")
	}
	for _, ph := range []spanPhase{phasePost, phaseDoorbell, phaseFetch, phaseWire, phaseDMA, phaseAck} {
		if tr.phaseH[pathSend][ph].Count() == 0 {
			t.Errorf("send path: phase %s never attributed", phaseNames[ph])
		}
	}
}

// TestCloseFailsOnSpanDoubleClose checks that span accounting is audited on
// every run: a span closed twice (a descriptor completed or flushed more
// than once) makes System.Close fail, as a leaked process does, so a cell
// that hits the bug fails instead of reporting skewed span histograms.
func TestCloseFailsOnSpanDoubleClose(t *testing.T) {
	for _, closes := range []int{1, 2} {
		sys := NewSystem(provider.CLAN(), 2, 1)
		sys.EnableSpans(1)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		sp := sys.spans.open(pathSend, 0, 64, 0)
		for i := 0; i < closes; i++ {
			sys.spans.close(sp, phaseAck, true, 10)
		}
		err := sys.Close()
		switch {
		case closes == 1 && err != nil:
			t.Errorf("one close: Close = %v, want nil", err)
		case closes == 2 && (err == nil || !strings.Contains(err.Error(), "1 message span(s) closed twice")):
			t.Errorf("double close: Close = %v, want the double close reported", err)
		}
	}
}

// TestSpanSampling checks the -span-sample stride: with sampling 1 in N,
// roughly 1/N of the messages allocate spans, and the unsampled rest are
// free (nil span pointers everywhere).
func TestSpanSampling(t *testing.T) {
	const msgs = 16
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.EnableSpans(4)
	runSpanWorkload(t, sys, msgs, 1200)

	opened, closed, doubles := sys.spans.opened, sys.spans.closedN, sys.spans.doubles
	if doubles != 0 {
		t.Errorf("%d double-closes", doubles)
	}
	if opened != closed {
		t.Errorf("opened %d, closed %d", opened, closed)
	}
	// 16 sends and 16 recv consumes pass through open(); stride 4 samples
	// a quarter of each stream (interleaving may shift the split by one).
	if opened < 6 || opened > 10 {
		t.Errorf("sampled %d spans from %d messages at stride 4", opened, 2*msgs)
	}
}

// TestSpanIntegrityUnderFaults is the chaos guard for span accounting:
// across many random fault plans — drops, duplicates, corruption, delays,
// stalls, retransmissions, broken connections — spans must never leak
// (the workload tears down explicitly, so every open span funnels
// through complete or flush) and never double-close.
func TestSpanIntegrityUnderFaults(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		t.Run(strconv.Itoa(seed), func(t *testing.T) {
			sys := NewSystem(provider.CLAN(), 2, int64(seed)+1)
			sys.InstallFaults(fault.RandomPlan(int64(seed)))
			sys.EnableSpans(1)
			runSpanWorkload(t, sys, 12, 1200)

			opened, closed, doubles := sys.spans.opened, sys.spans.closedN, sys.spans.doubles
			if doubles != 0 {
				t.Errorf("seed %d: %d double-closed spans", seed, doubles)
			}
			if opened != closed {
				t.Errorf("seed %d: opened %d spans, closed %d: leak", seed, opened, closed)
			}
		})
	}
}

// TestSpansDoNotChangeVirtualTime is the local version of the
// zero-overhead guarantee: the same workload with and without span
// recording finishes at the same virtual instant with the same event
// count.
func TestSpansDoNotChangeVirtualTime(t *testing.T) {
	run := func(spans bool) (sim.Time, uint64) {
		sys := NewSystem(provider.BVIA(), 2, 42)
		if spans {
			sys.EnableSpans(1)
		}
		runSpanWorkload(t, sys, 8, 4096)
		return sys.Eng.Now(), sys.Eng.EventsDispatched()
	}
	bareT, bareEv := run(false)
	spanT, spanEv := run(true)
	if spanT != bareT {
		t.Errorf("virtual end time: with spans %v != bare %v", spanT, bareT)
	}
	if spanEv != bareEv {
		t.Errorf("events dispatched: with spans %d != bare %d", spanEv, bareEv)
	}
}
