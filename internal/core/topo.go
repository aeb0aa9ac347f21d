package core

import (
	"fmt"

	"vibe/internal/fabric"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// TopoResult is one routed-fabric workload measurement: how fast the
// collective finished and how hard the switch fabric worked to carry it.
type TopoResult struct {
	Hosts     int
	Messages  int // total messages carried
	Size      int
	ElapsedUs float64 // timed region: first post to last completion
	MBps      float64 // aggregate goodput over the timed region

	// Fabric congestion evidence, from the switch credit accounting.
	CreditStalls uint64
	MaxQueue     int
}

// finish computes the derived fields from the timed region.
func (r *TopoResult) finish(t0, t1 sim.Time) {
	el := t1.Sub(t0)
	r.ElapsedUs = el.Micros()
	if el > 0 {
		r.MBps = float64(r.Messages) * float64(r.Size) / (float64(el) / float64(sim.Second)) / 1e6
	}
}

// IncastRun drives the N-to-1 incast on whatever topology cfg.Model
// selects: senders hosts each stream msgs reliable RDMA writes of the
// given size at host 0, bulk-posting then reaping, so the fabric (not the
// applications) sets the pace. On a fat-tree the destination-based spine
// selection funnels every flow through one spine and the receiver's
// downlink — the canonical congestion benchmark for a routed fabric.
func IncastRun(cfg Config, senders, msgs, size int) (TopoResult, error) {
	res := TopoResult{Hosts: senders + 1, Messages: senders * msgs, Size: size}
	sys := via.NewSystem(cfg.Model, senders+1, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery, EnableRdmaWrite: true}
	targets := make([]via.AddressSegment, senders+1)
	var registered int
	var started bool
	var t0, t1 sim.Time

	for s := 1; s <= senders; s++ {
		s := s
		disc := fmt.Sprintf("inc-%d", s)
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
			targets[s] = via.AddressSegment{Addr: buf.Addr(), Handle: h}
			registered++
			req, err := nic.ConnectWait(ctx, disc, cfg.Timeout)
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
			if err := vi.ConnectRequest(ctx, 0, disc, cfg.Timeout); err != nil {
				fail(fmt.Errorf("connect %s: %w", disc, err))
				return
			}
			for registered < senders { // address exchange
				ctx.Sleep(10 * sim.Microsecond)
			}
			buf := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, buf)
			if err != nil {
				fail(err)
				return
			}
			// The first sender to reach the post loop opens the timed
			// region; the burst is simultaneous within one sleep quantum.
			if !started {
				started = true
				t0 = ctx.Now()
			}
			remote := targets[s]
			for i := 0; i < msgs; i++ {
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
			for i := 0; i < msgs; i++ {
				d, err := vi.SendWait(ctx, cfg.Timeout)
				if err != nil {
					fail(fmt.Errorf("%s reap %d: %w", disc, i, err))
					return
				}
				if d.Status != via.StatusSuccess {
					fail(fmt.Errorf("%s write %d completed %v", disc, i, d.Status))
					return
				}
			}
			if now := ctx.Now(); now > t1 {
				t1 = now
			}
		})
	}
	if err := sys.Run(); err != nil && runErr == nil {
		runErr = err
	}
	res.CreditStalls = sys.Net.CreditStalls()
	res.MaxQueue = sys.Net.MaxQueueDepth()
	res.finish(t0, t1)
	return res, runErr
}

// AllToAllRun drives the complete exchange: every one of hosts peers
// streams msgs reliable RDMA writes of the given size to every other
// peer, destinations walked in the staggered order (self+k) mod hosts so
// the instantaneous traffic matrix is a rotating permutation rather than
// a synchronized incast. On a torus this exercises every ring direction;
// aggregate goodput measures how much of the bisection the routing
// actually extracts.
func AllToAllRun(cfg Config, hosts, msgs, size int) (TopoResult, error) {
	res := TopoResult{Hosts: hosts, Messages: hosts * (hosts - 1) * msgs, Size: size}
	sys := via.NewSystem(cfg.Model, hosts, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery, EnableRdmaWrite: true}

	// targets[i][j]: host i's sink window for writes arriving from j.
	targets := make([][]via.AddressSegment, hosts)
	for i := range targets {
		targets[i] = make([]via.AddressSegment, hosts)
	}
	var ready int // hosts that have registered all their sinks
	var started bool
	var t0, t1 sim.Time

	for i := 0; i < hosts; i++ {
		i := i
		sys.Go(i, fmt.Sprintf("a2a-%d", i), func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			// One VI pair per ordered peer; the lower-numbered host plays
			// the connect side of each pair.
			vis := make([]*via.Vi, hosts)
			for j := 0; j < hosts; j++ {
				if j == i {
					continue
				}
				vi, err := nic.CreateVi(ctx, attrs, nil, nil)
				if err != nil {
					fail(err)
					return
				}
				lo, hi := i, j
				if lo > hi {
					lo, hi = hi, lo
				}
				disc := fmt.Sprintf("a2a-%d-%d", lo, hi)
				if i < j {
					if err := vi.ConnectRequest(ctx, fabric.NodeID(j), disc, cfg.Timeout); err != nil {
						fail(fmt.Errorf("connect %s: %w", disc, err))
						return
					}
				} else {
					req, err := nic.ConnectWait(ctx, disc, cfg.Timeout)
					if err != nil {
						fail(fmt.Errorf("wait %s: %w", disc, err))
						return
					}
					if err := req.Accept(ctx, vi); err != nil {
						fail(fmt.Errorf("accept %s: %w", disc, err))
						return
					}
				}
				vis[j] = vi
				sink := ctx.Malloc(size)
				h, err := nic.RegisterMem(ctx, sink)
				if err != nil {
					fail(err)
					return
				}
				targets[i][j] = via.AddressSegment{Addr: sink.Addr(), Handle: h}
			}
			ready++
			for ready < hosts { // barrier: all windows published
				ctx.Sleep(10 * sim.Microsecond)
			}
			src := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, src)
			if err != nil {
				fail(err)
				return
			}
			if !started {
				started = true
				t0 = ctx.Now()
			}
			// Staggered destination walk: round k sends to (i+k) mod hosts.
			for k := 1; k < hosts; k++ {
				j := (i + k) % hosts
				remote := targets[j][i]
				for n := 0; n < msgs; n++ {
					d := &via.Descriptor{
						Op:     via.OpRdmaWrite,
						Segs:   []via.DataSegment{{Addr: src.Addr(), Handle: h, Length: size}},
						Remote: &remote,
					}
					if err := vis[j].PostSend(ctx, d); err != nil {
						fail(fmt.Errorf("a2a %d->%d post %d: %w", i, j, n, err))
						return
					}
				}
				for n := 0; n < msgs; n++ {
					d, err := vis[j].SendWait(ctx, cfg.Timeout)
					if err != nil {
						fail(fmt.Errorf("a2a %d->%d reap %d: %w", i, j, n, err))
						return
					}
					if d.Status != via.StatusSuccess {
						fail(fmt.Errorf("a2a %d->%d write %d completed %v", i, j, n, d.Status))
						return
					}
				}
			}
			if now := ctx.Now(); now > t1 {
				t1 = now
			}
		})
	}
	if err := sys.Run(); err != nil && runErr == nil {
		runErr = err
	}
	res.CreditStalls = sys.Net.CreditStalls()
	res.MaxQueue = sys.Net.MaxQueueDepth()
	res.finish(t0, t1)
	return res, runErr
}

// HotspotRun offers an aggregate load of offered x the link bandwidth at
// host 0 from every other host, as paced unreliable sends, and measures
// the goodput the fabric actually delivers. Below saturation goodput
// tracks the offer; past it the receiver's downlink caps throughput and —
// with finite switch buffers — credit backpressure, not queue growth,
// absorbs the excess.
func HotspotRun(cfg Config, senders, msgs, size int, offered float64) (TopoResult, error) {
	res := TopoResult{Hosts: senders + 1, Messages: senders * msgs, Size: size}
	sys := via.NewSystem(cfg.Model, senders+1, cfg.Seed)
	defer sys.Close()
	cfg.instrument(sys)

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	attrs := via.ViAttributes{Reliability: via.Unreliable}

	// Per-sender message gap hitting the aggregate offered fraction of the
	// receiver's link bandwidth.
	perSenderBps := offered * cfg.Model.Network.BandwidthBps / float64(senders)
	gap := sim.Duration(float64(size*8) / perSenderBps * float64(sim.Second))

	var connected int
	var started bool
	var t0, t1 sim.Time
	var recvOK uint64

	for s := 1; s <= senders; s++ {
		s := s
		disc := fmt.Sprintf("hot-%d", s)
		sys.Go(0, "hot-sink-"+disc, func(ctx *via.Ctx) {
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
			req, err := nic.ConnectWait(ctx, disc, cfg.Timeout)
			if err != nil {
				fail(fmt.Errorf("wait %s: %w", disc, err))
				return
			}
			if err := req.Accept(ctx, vi); err != nil {
				fail(fmt.Errorf("accept %s: %w", disc, err))
				return
			}
			// Pre-post the whole stream so no frame dies for lack of a
			// descriptor — losses, if any, are the fabric's doing.
			for i := 0; i < msgs; i++ {
				d := &via.Descriptor{Segs: []via.DataSegment{{Addr: buf.Addr(), Handle: h, Length: size}}}
				if err := vi.PostRecv(ctx, d); err != nil {
					fail(err)
					return
				}
			}
			connected++
			// Unreliable tail loss is legitimate: bound each wait and stop
			// reaping when the stream has clearly ended.
			for i := 0; i < msgs; i++ {
				d, err := vi.RecvWait(ctx, 100*sim.Millisecond)
				if err != nil {
					break
				}
				if d.Status == via.StatusSuccess {
					recvOK++
				}
				if now := ctx.Now(); now > t1 {
					t1 = now
				}
			}
		})
		sys.Go(s, "hot-src-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, err := nic.CreateVi(ctx, attrs, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			if err := vi.ConnectRequest(ctx, 0, disc, cfg.Timeout); err != nil {
				fail(fmt.Errorf("connect %s: %w", disc, err))
				return
			}
			buf := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, buf)
			if err != nil {
				fail(err)
				return
			}
			for connected < senders { // all streams armed before load starts
				ctx.Sleep(10 * sim.Microsecond)
			}
			if !started {
				started = true
				t0 = ctx.Now()
			}
			// Open-loop pacing: each post has an absolute deadline start+i*gap,
			// so fabric backpressure delays the wire, never the offered
			// schedule — overdriving past saturation stays overdriven.
			// Completions are reaped opportunistically and drained at the end.
			start := ctx.Now()
			reaped := 0
			for i := 0; i < msgs; i++ {
				if next := start.Add(sim.Duration(i) * gap); next > ctx.Now() {
					ctx.Sleep(next.Sub(ctx.Now()))
				}
				d := &via.Descriptor{Segs: []via.DataSegment{{Addr: buf.Addr(), Handle: h, Length: size}}}
				if err := vi.PostSend(ctx, d); err != nil {
					fail(fmt.Errorf("%s post %d: %w", disc, i, err))
					return
				}
				for {
					d, ok := vi.SendDone(ctx)
					if !ok {
						break
					}
					if d.Status != via.StatusSuccess {
						fail(fmt.Errorf("%s send completed %v", disc, d.Status))
						return
					}
					reaped++
				}
			}
			for ; reaped < msgs; reaped++ {
				if err := checkOK(vi.SendWait(ctx, cfg.Timeout)); err != nil {
					fail(fmt.Errorf("%s reap: %w", disc, err))
					return
				}
			}
		})
	}
	if err := sys.Run(); err != nil && runErr == nil {
		runErr = err
	}
	res.Messages = int(recvOK)
	res.CreditStalls = sys.Net.CreditStalls()
	res.MaxQueue = sys.Net.MaxQueueDepth()
	res.finish(t0, t1)
	return res, runErr
}
