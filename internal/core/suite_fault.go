package core

import (
	"fmt"

	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/table"
	"vibe/internal/via"
)

// FaultOutcome summarizes how a paced streaming transfer fared under a
// fault plan: completions by terminal status on both sides, posts the
// provider rejected after the connection left the connected state, and
// whether the asynchronous error handler fired.
type FaultOutcome struct {
	SendOK       uint64 // sends completed StatusSuccess
	SendFailed   uint64 // sends completed Flushed or TransportError
	RecvOK       uint64 // receives completed StatusSuccess
	RecvFailed   uint64 // receives completed with an error status
	PostRejected uint64 // PostSend calls refused (connection no longer usable)
	Callbacks    uint64 // asynchronous error callbacks fired, both sides
	ConnBroken   bool   // either side's error callback fired
}

// xfaultStreamStart is the virtual time at which the FaultRun client
// begins streaming. It is past the slowest provider's connection setup,
// so time-windowed faults land at the same stream offset on every model.
const xfaultStreamStart = 10 * sim.Millisecond

// xfaultGap paces the stream: one message every gap keeps the transfer
// spread over several milliseconds so windowed faults overlap it.
const xfaultGap = 250 * sim.Microsecond

// FaultRun streams msgs messages of the given size over a single VI at
// the requested reliability level while cfg.Fault is active, and reports
// how the transfer degraded. Every wait is bounded, so the run
// terminates no matter what the plan drops, stalls or severs.
func FaultRun(cfg Config, size, msgs int, rel via.ReliabilityLevel) (FaultOutcome, error) {
	o := XferOpts{Reliability: rel}.normalized()
	sys := via.NewSystem(cfg.Model, 2, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)
	var out FaultOutcome

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	onError := func(*via.Ctx, via.ErrorEvent) {
		out.Callbacks++
		out.ConnBroken = true
	}

	// Recovery from a mid-stream fault is bounded by the full backoff
	// ladder; a drain longer than that means the descriptor is stuck.
	drainBound := 500 * sim.Millisecond
	var receiverReady bool

	sys.Go(0, "fault-client", func(ctx *via.Ctx) {
		ep, err := setup(ctx, cfg, o, size, 4, false, true, 1)
		if err != nil {
			fail(err)
			return
		}
		ep.nic.SetErrorCallback(onError)
		for !receiverReady {
			ctx.Sleep(10 * sim.Microsecond)
		}
		if d := sim.Time(xfaultStreamStart).Sub(ctx.Now()); d > 0 {
			ctx.Sleep(d)
		}
		classify := func(d *via.Descriptor) {
			if d.Status == via.StatusSuccess {
				out.SendOK++
			} else {
				out.SendFailed++
			}
		}
		posted, done := 0, 0
		for i := 0; i < msgs; i++ {
			if err := ep.postSend(ep.send[0], size, 0, nil); err != nil {
				out.PostRejected++
			} else {
				posted++
			}
			for {
				d, ok := ep.vi.SendDone(ctx)
				if !ok {
					break
				}
				classify(d)
				done++
			}
			ctx.Sleep(xfaultGap)
		}
		for done < posted {
			d, err := ep.vi.SendWait(ctx, drainBound)
			if err != nil {
				break // timed out or queue flushed empty: stuck sends stay unaccounted
			}
			classify(d)
			done++
		}
	})

	sys.Go(1, "fault-server", func(ctx *via.Ctx) {
		ep, err := setup(ctx, cfg, o, 4, size, false, false, 0)
		if err != nil {
			fail(err)
			return
		}
		ep.nic.SetErrorCallback(onError)
		for i := 0; i < msgs; i++ {
			if err := ep.postRecv(ep.recv[0], size); err != nil {
				fail(err)
				return
			}
		}
		receiverReady = true
		for i := 0; i < msgs; i++ {
			d, err := ep.vi.RecvWait(ctx, drainBound)
			if err != nil {
				break // lost tail (unreliable) or flushed-empty queue
			}
			if d.Status == via.StatusSuccess {
				out.RecvOK++
			} else {
				out.RecvFailed++
			}
		}
	})

	if err := sys.Run(); err != nil {
		return out, err
	}
	return out, runErr
}

// xfaultCase is one row family of the XFAULT table: a named deterministic
// fault plan exercising a single fault kind.
type xfaultCase struct {
	name string
	plan *fault.Plan
}

// xfaultCases covers every fault kind the plan schema knows, each with
// fixed parameters (and a fixed plan seed for the probabilistic ones) so
// reruns reproduce byte-identical outcome tables. Windowed faults are
// placed relative to xfaultStreamStart.
func xfaultCases() []xfaultCase {
	n25 := uint64(25)
	f20, t30 := uint64(20), uint64(30)
	return []xfaultCase{
		{"none", nil},
		{fault.KindDropNth, &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindDropNth, Nth: &n25}}}},
		{fault.KindDropRange, &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindDropRange, From: &f20, To: &t30}}}},
		{fault.KindDrop, &fault.Plan{Seed: 11, Faults: []fault.Spec{{Kind: fault.KindDrop, Prob: 0.08}}}},
		{fault.KindCorrupt, &fault.Plan{Seed: 12, Faults: []fault.Spec{{Kind: fault.KindCorrupt, Prob: 0.08}}}},
		{fault.KindDuplicate, &fault.Plan{Seed: 13, Faults: []fault.Spec{{Kind: fault.KindDuplicate, Prob: 0.10}}}},
		{fault.KindDelay, &fault.Plan{Seed: 14, Faults: []fault.Spec{{Kind: fault.KindDelay, Prob: 0.25, Delay: "40us"}}}},
		{fault.KindJitter, &fault.Plan{Seed: 15, Faults: []fault.Spec{{Kind: fault.KindJitter, Prob: 0.25, Delay: "80us"}}}},
		{fault.KindLinkDown, &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindLinkDown, Start: "11ms", End: "12.5ms"}}}},
		// A partition outlasting the whole backoff ladder: reliable VIs
		// exhaust retransmission, sever the connection and flush; the
		// unreliable level keeps completing sends into the void.
		{"partition", &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindLinkDown, Start: "11ms", End: "400ms"}}}},
		{fault.KindDoorbellStall, &fault.Plan{Seed: 16, Faults: []fault.Spec{{Kind: fault.KindDoorbellStall, Prob: 0.10, Delay: "30us"}}}},
		{fault.KindDMAStall, &fault.Plan{Seed: 17, Faults: []fault.Spec{{Kind: fault.KindDMAStall, Prob: 0.10, Delay: "20us"}}}},
	}
}

func expXFAULT() *Experiment {
	return &Experiment{
		ID:    "XFAULT",
		Title: "Extension: fault kinds vs reliability levels (error semantics)",
		PaperClaim: "(robustness extension) The VIA spec's Table 1 guarantees " +
			"dictate how each reliability level degrades: unreliable VIs drop " +
			"faulted data silently while sends still succeed; reliable delivery " +
			"retransmits through transient faults and severs the connection " +
			"only on exhaustion; reliable reception additionally delivers " +
			"without gaps or duplicates.",
		Run: func(sc *Scenario) (*Report, error) {
			msgs := 40
			if sc.Quick {
				msgs = 12
			}
			levels := []via.ReliabilityLevel{via.Unreliable, via.ReliableDelivery, via.ReliableReception}
			var tables []*table.Table
			for _, m := range provider.All() {
				t := table.New(
					fmt.Sprintf("%s: %d x 2KB paced stream under fault plans", m.Name, msgs),
					"Fault x reliability", "sends ok", "sends failed", "recvs ok", "recvs failed", "posts rejected", "conn broken")
				for _, fc := range xfaultCases() {
					for _, lv := range levels {
						cfg := sc.Config(m)
						if !cfg.Model.Supports(uint8(lv)) {
							continue
						}
						cfg.Fault = fc.plan
						res, err := FaultRun(cfg, 2048, msgs, lv)
						if err != nil {
							return nil, fmt.Errorf("xfault %s %s %s: %w", m.Name, fc.name, lv, err)
						}
						broken := "no"
						if res.ConnBroken {
							broken = "yes"
						}
						t.AddRow(fmt.Sprintf("%s / %s", fc.name, lv),
							float64(res.SendOK), float64(res.SendFailed),
							float64(res.RecvOK), float64(res.RecvFailed),
							float64(res.PostRejected), broken)
					}
				}
				tables = append(tables, t)
			}
			return &Report{Tables: tables, Notes: []string{
				"Duplicated packets can complete an extra posted receive on " +
					"unreliable VIs (no sequence check); the reliable levels " +
					"discard them, so recv counts never exceed sends there.",
			}}, nil
		},
	}
}
