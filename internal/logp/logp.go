// Package logp extracts LogP parameters (Culler et al., the model the
// paper's introduction argues is insufficient for comparing VIA
// implementations) from VIBe-style measurements, so the suite can
// demonstrate what LogP captures and what it misses.
//
// Parameters, per the model:
//
//	L — network latency: one-way time not attributable to the processors
//	o — processor overhead per message (send overhead os + receive
//	    overhead or), time the host CPU is busy injecting/extracting
//	g — gap: minimum interval between consecutive small messages
//	    (reciprocal of small-message rate)
//
// The extraction runs its own micro-measurements on a core.Config's
// design point (its model, seed, fault plan and instrumentation). Its
// point — made by ExplainInsufficiency and the LogP tests — is that two
// providers with near-identical (L, o, g) can diverge wildly once buffer
// reuse, completion queues, or the number of VIs change, which is exactly
// the paper's motivation for VIBe.
package logp

import (
	"fmt"

	"vibe/internal/core"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// Params are extracted LogP parameters in microseconds.
type Params struct {
	L  float64 // one-way wire+NIC latency
	Os float64 // send overhead (host CPU)
	Or float64 // receive overhead (host CPU)
	G  float64 // gap between small messages
}

// MessageSize is the "small message" size LogP is defined over.
const MessageSize = 4

// Extract measures LogP parameters on cfg's design point.
func Extract(cfg core.Config) (Params, error) {
	var p Params

	// os and or: host CPU busy time around posting a send and around
	// retrieving a completed receive, measured directly in a round trip.
	osUs, orUs, rttUs, err := overheads(cfg)
	if err != nil {
		return p, err
	}
	p.Os, p.Or = osUs, orUs

	// L = RTT/2 - os - or (the processor-free part of a one-way trip).
	p.L = rttUs/2 - osUs - orUs
	if p.L < 0 {
		p.L = 0
	}

	// g: steady-state interval between back-to-back small messages.
	bw, err := core.Bandwidth(cfg, MessageSize, core.XferOpts{})
	if err != nil {
		return p, err
	}
	if bw.MBps > 0 {
		p.G = float64(MessageSize) / (bw.MBps * 1e6) * 1e6
	}
	return p, nil
}

// overheads measures send overhead, receive overhead, and the round-trip
// time of a small ping-pong.
func overheads(cfg core.Config) (osUs, orUs, rttUs float64, err error) {
	const iters = 50
	tmo := 10 * sim.Second

	err = cfg.Simulate(2, func(sys *via.System, fail func(error)) {
		sys.Go(0, "logp-client", func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, e := nic.CreateVi(ctx, via.ViAttributes{}, nil, nil)
			if e != nil {
				fail(e)
				return
			}
			if e := via.Pair(ctx, vi, 1, "logp", true, tmo); e != nil {
				fail(e)
				return
			}
			r, e := nic.AllocReg(ctx, MessageSize)
			if e != nil {
				fail(e)
				return
			}
			buf, h := r.Buf, r.H
			var osSum sim.Duration
			var t0 sim.Time
			for i := 0; i < iters; i++ {
				if i == 5 {
					t0 = ctx.Now()
				}
				if e := vi.PostRecv(ctx, via.SimpleRecv(buf, h, MessageSize)); e != nil {
					fail(e)
					return
				}
				b0 := ctx.Host.CPU.Busy()
				if e := vi.PostSend(ctx, via.SimpleSend(buf, h, MessageSize)); e != nil {
					fail(e)
					return
				}
				if i >= 5 {
					osSum += ctx.Host.CPU.Busy() - b0
				}
				if _, e := vi.SendWaitPoll(ctx); e != nil {
					fail(e)
					return
				}
				if _, e := vi.RecvWaitPoll(ctx); e != nil {
					fail(e)
					return
				}
			}
			n := float64(iters - 5)
			osUs = (sim.Duration(float64(osSum) / n)).Micros()
			// The receive-side extraction cost is the provider's completion
			// check; spinning time is L, not overhead.
			orUs = cfg.Model.CheckCost.Micros() + cfg.Model.PostRecvCost.Micros()
			rttUs = ctx.Now().Sub(t0).Micros() / n
		})
		sys.Go(1, "logp-server", func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, e := nic.CreateVi(ctx, via.ViAttributes{}, nil, nil)
			if e != nil {
				fail(e)
				return
			}
			ring, e := vi.PostRing(ctx, 1, MessageSize)
			if e != nil {
				fail(e)
				return
			}
			slot := ring.Slot(0)
			if e := via.Pair(ctx, vi, 0, "logp", false, tmo); e != nil {
				fail(e)
				return
			}
			for i := 0; i < iters; i++ {
				if _, e := ring.Next(ctx); e != nil {
					fail(e)
					return
				}
				if i+1 < iters {
					if e := ring.Repost(ctx, 0); e != nil {
						fail(e)
						return
					}
				}
				if e := vi.PostSendPoll(ctx, via.SimpleSend(slot.Buf, slot.H, MessageSize)); e != nil {
					fail(e)
					return
				}
			}
		})
	}, nil)
	return osUs, orUs, rttUs, err
}

// Insufficiency quantifies what LogP misses: for a provider, the relative
// change in 4-byte latency when a VIA component changes even though
// (L, o, g) are measured on the base configuration and do not change.
type Insufficiency struct {
	Params        Params
	BaseLatencyUs float64
	// LatencyAt16VIs and LatencyAt0Reuse are the same "small message
	// latency" LogP would predict as constant.
	LatencyAt16VIs  float64
	LatencyAt0Reuse float64
}

// Explain runs the demonstration on cfg's design point.
func Explain(cfg core.Config) (Insufficiency, error) {
	var ins Insufficiency
	p, err := Extract(cfg)
	if err != nil {
		return ins, err
	}
	ins.Params = p
	base, err := core.Latency(cfg, MessageSize, core.XferOpts{})
	if err != nil {
		return ins, err
	}
	ins.BaseLatencyUs = base.LatencyUs
	multi, err := core.Latency(cfg, MessageSize, core.XferOpts{ActiveVIs: 16})
	if err != nil {
		return ins, err
	}
	ins.LatencyAt16VIs = multi.LatencyUs
	reuse, err := core.Latency(cfg, MessageSize, core.XferOpts{VaryBuffers: true, ReusePct: 0})
	if err != nil {
		return ins, err
	}
	ins.LatencyAt0Reuse = reuse.LatencyUs
	return ins, nil
}

func (p Params) String() string {
	return fmt.Sprintf("L=%.2fus os=%.2fus or=%.2fus g=%.2fus", p.L, p.Os, p.Or, p.G)
}
