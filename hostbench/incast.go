package main

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"vibe/internal/core"
	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/trace"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// The incast workload is a 32->1 reliable RDMA-write incast on a routed
// fat-tree (degree 4, 8-packet switch buffers): every sender posts its
// whole stream of writes into its own window of host 0's memory, then
// reaps the completions. It exercises the event heap, actor dispatch,
// fabric routing and credits and the NIC reliability windows, and barely
// touches simulated memory. The seed picks each sender's message size and
// the order the senders start in.

const (
	incastSenders = 32
	incastMsgs    = 250 // writes per sender
)

// incastSizes are the message sizes, in bytes, a sender may draw. They all
// fit one wire fragment, so the seed varies the traffic mix without
// changing its shape.
var incastSizes = []int{48, 56, 64}

// incastPlan is the input the seed generates.
type incastPlan struct {
	sizes []int // message size per host; index 0 (the sink) unused
	order []int // sender hosts in start order
}

func incastPlanFor(seed int64) incastPlan {
	r := rand.New(rand.NewSource(seed))
	p := incastPlan{sizes: make([]int, incastSenders+1)}
	for s := 1; s <= incastSenders; s++ {
		p.sizes[s] = incastSizes[r.Intn(len(incastSizes))]
	}
	for _, i := range r.Perm(incastSenders) {
		p.order = append(p.order, i+1)
	}
	return p
}

// incastOutcome is the simulation's fingerprint: events dispatched and
// the final virtual instant.
type incastOutcome struct {
	Events uint64 `json:"events"`
	EndNs  int64  `json:"end_ns"`
}

// incastRun is one built, not yet run, incast system.
type incastRun struct {
	sys   *via.System
	plan  incastPlan
	sinks []*vmem.Buffer // host 0's window per sender
	done  []int          // successful completions per sender
	err   error
}

// incastModel is the cLAN provider on the routed fat-tree.
func incastModel() *provider.Model {
	m := provider.CLAN()
	m.Network.Topology = "fattree"
	m.Network.TopologyDegree = 4
	m.Network.SwitchBufPkts = 8
	return m
}

// newIncast builds the system and spawns its processes, attaching the
// optional instrumentation the way core attaches a scenario's.
func newIncast(plan incastPlan, in *core.Instr) *incastRun {
	const timeout = 30 * sim.Second
	n := incastSenders + 1
	r := &incastRun{
		sys:   via.NewSystem(incastModel(), n, 1),
		plan:  plan,
		sinks: make([]*vmem.Buffer, n),
		done:  make([]int, n),
	}
	sys := r.sys
	if in != nil {
		if in.Metrics != nil {
			sys.SetCollector(in.Metrics)
		}
		if in.Trace != nil {
			sys.Eng.SetTracer(in.Trace.ForSystem())
		}
		if in.SpanSample > 0 {
			sys.EnableSpans(in.SpanSample)
		}
		if in.Profile != nil {
			sys.SetProfile(in.Profile)
		}
	}
	fail := func(err error) {
		if r.err == nil {
			r.err = err
		}
		sys.Eng.Stop()
	}
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery, EnableRdmaWrite: true}
	targets := make([]via.AddressSegment, n)
	registered := 0
	for _, s := range plan.order {
		s, size := s, plan.sizes[s]
		disc := "in-" + strconv.Itoa(s)
		sys.Go(0, "sink-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, err := nic.CreateVi(ctx, attrs, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			buf := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, buf)
			if err != nil {
				fail(err)
				return
			}
			r.sinks[s] = buf
			targets[s] = via.AddressSegment{Addr: buf.Addr(), Handle: h}
			registered++
			req, err := nic.ConnectWait(ctx, disc, timeout)
			if err != nil {
				fail(fmt.Errorf("wait %s: %w", disc, err))
				return
			}
			if err := req.Accept(ctx, vi); err != nil {
				fail(fmt.Errorf("accept %s: %w", disc, err))
			}
		})
		sys.Go(s, "src-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, err := nic.CreateVi(ctx, attrs, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			if err := vi.ConnectRequest(ctx, 0, disc, timeout); err != nil {
				fail(fmt.Errorf("connect %s: %w", disc, err))
				return
			}
			for registered < incastSenders { // address exchange
				ctx.Sleep(10 * sim.Microsecond)
			}
			buf := ctx.Malloc(size)
			buf.FillPattern(byte(s))
			h, err := nic.RegisterMem(ctx, buf)
			if err != nil {
				fail(err)
				return
			}
			remote := targets[s]
			for i := 0; i < incastMsgs; i++ {
				d := &via.Descriptor{
					Op:     via.OpRdmaWrite,
					Segs:   []via.DataSegment{{Addr: buf.Addr(), Handle: h, Length: size}},
					Remote: &remote,
				}
				if err := vi.PostSend(ctx, d); err != nil {
					fail(fmt.Errorf("%s post %d: %w", disc, i, err))
					return
				}
			}
			for i := 0; i < incastMsgs; i++ {
				d, err := vi.SendWait(ctx, timeout)
				if err != nil {
					fail(fmt.Errorf("%s reap %d: %w", disc, i, err))
					return
				}
				if d.Status == via.StatusSuccess {
					r.done[s]++
				}
			}
		})
	}
	return r
}

// run simulates the incast to completion and tears the system down. It
// returns the fingerprint; the error is the first simulation or teardown
// failure (a failed completion is counted by check, not returned).
func (r *incastRun) run() (incastOutcome, error) {
	err := r.sys.Run()
	if r.err != nil {
		err = r.err
	}
	out := incastOutcome{Events: r.sys.Eng.EventsDispatched(), EndNs: int64(r.sys.Eng.Now())}
	if cerr := r.sys.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// check counts every write as an operation, failed unless it completed
// successfully; each sender's landed bytes as one more, failed unless they
// carry its pattern; the fabric's conservation (delivered = sent − dropped
// + duplicated, no leaked credits) as one more; and the fingerprint as
// one more, failed unless it matches the seed's golden, or, for a seed
// without one, the run's first pass.
func (b *bench) checkIncast(r *incastRun, out incastOutcome, runErr error, want *incastOutcome) {
	b.rep.check(runErr == nil, "incast run: %v", runErr)
	for _, s := range r.plan.order {
		b.rep.tally(incastMsgs, incastMsgs-r.done[s], "sender %d: %d of %d writes completed", s, r.done[s], incastMsgs)
		var err error = fmt.Errorf("no sink buffer")
		if buf := r.sinks[s]; buf != nil {
			err = buf.CheckPattern(byte(s), r.plan.sizes[s])
		}
		b.rep.check(err == nil, "sender %d payload: %v", s, err)
	}
	nw := r.sys.Net
	b.rep.check(nw.Delivered == nw.Sent-nw.Dropped+nw.Duplicated && nw.LeakedCredits() == 0,
		"fabric conservation: sent %d delivered %d dropped %d duplicated %d leaked credits %d",
		nw.Sent, nw.Delivered, nw.Dropped, nw.Duplicated, nw.LeakedCredits())
	b.rep.check(out == *want, "incast fingerprint %+v, want %+v", out, *want)
}

// incastGolden returns the seed's golden fingerprint, or nil when
// goldens.json has none for it.
func incastGolden(seed int64) *incastOutcome {
	if g, ok := goldens.Incast[strconv.FormatInt(seed, 10)]; ok {
		return &g
	}
	return nil
}

// buildIncast builds the next system, timing it as a setup sample.
func (b *bench) buildIncast(plan incastPlan) *incastRun {
	t0 := time.Now()
	var r *incastRun
	b.sp.do("via.NewSystem", 0, func(int) { r = newIncast(plan, nil) })
	b.rep.setup = append(b.rep.setup, time.Since(t0).Seconds())
	return r
}

// incastWarm and incastTracedEvery place the untraced run's traced jobs
// (see interleaved).
const (
	incastWarm        = 8
	incastTracedEvery = 3
)

// incastPasses runs timed passes and checks every pass. An untraced pass
// runs a system built before it. With tracedEvery > 0 the passes after
// incastWarm alternate with traced jobs: the same incast with a trace
// recorder, metrics, every message's span and a virtual-time profile, the
// trace and profile written out, all timed. A seed without a golden is
// checked against its first pass, which *want then holds. The process's
// peak RSS is read before the first traced job.
func (b *bench) incastPasses(budget float64, min, tracedEvery int, plan incastPlan, want **incastOutcome) (untraced, traced []pass, err error) {
	isTraced := func(i int) bool { return interleaved(i, incastWarm, tracedEvery) }
	next := b.buildIncast(plan)
	var cur *incastRun
	var out incastOutcome
	var runErr error
	_, err = b.timed(budget, min,
		func(i int) error {
			if !isTraced(i) {
				cur = next
				b.sp.do("via.System.Run", 0, func(int) { out, runErr = cur.run() })
				return nil
			}
			rec := &trace.Recorder{Limit: 1 << 20}
			p := prof.New()
			cur = newIncast(plan, &core.Instr{Metrics: metrics.NewCollector(), Trace: rec, SpanSample: 1, Profile: p.Scope("incast")})
			out, runErr = cur.run()
			if err := rec.WriteChrome(io.Discard); err != nil {
				return err
			}
			return p.WriteFolded(io.Discard)
		},
		func(i int, p pass) error {
			if *want == nil {
				first := out
				*want = &first
			}
			b.checkIncast(cur, out, runErr, *want)
			if isTraced(i) {
				traced = append(traced, p)
				return nil
			}
			untraced = append(untraced, p)
			if isTraced(i+1) && b.rep.peakRSS == 0 {
				b.rep.peakRSS = peakRSS()
			}
			next = b.buildIncast(plan)
			return nil
		})
	return untraced, traced, err
}

func runIncast(b *bench) error {
	plan := incastPlanFor(b.opt.seed)
	want := incastGolden(b.opt.seed)
	ps, traced, err := b.incastPasses(b.opt.seconds, incastWarm+3*incastTracedEvery, incastTracedEvery, plan, &want)
	if err != nil {
		return err
	}
	for _, p := range ps {
		b.rep.addPass(p)
		b.rep.jobs = append(b.rep.jobs, sample{p.wall, p.steal})
	}
	for _, p := range traced {
		b.rep.tracedJobs = append(b.rep.tracedJobs, sample{p.wall, p.steal})
	}
	return nil
}

func tracedIncast(b *bench) error {
	plan := incastPlanFor(b.opt.seed)
	want := incastGolden(b.opt.seed)
	base, _, err := b.incastPasses(b.opt.seconds/3, 2, 0, plan, &want)
	if err != nil {
		return err
	}
	var traced []pass
	err = b.profiled(func() error {
		var err error
		traced, _, err = b.incastPasses(b.opt.seconds/3, 1, 0, plan, &want)
		return err
	})
	if err != nil {
		return err
	}
	b.overhead(base, traced)

	c := metrics.NewCollector()
	r := newIncast(plan, &core.Instr{Metrics: c})
	out, runErr := r.run()
	b.checkIncast(r, out, runErr, want)
	if err := b.counters(c); err != nil {
		return err
	}
	return b.micro()
}
