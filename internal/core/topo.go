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

// readFabric records the switch fabric's congestion evidence after a run.
func (r *TopoResult) readFabric(sys *via.System) {
	r.CreditStalls = sys.Net.CreditStalls()
	r.MaxQueue = sys.Net.MaxQueueDepth()
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
	var started bool
	var t0, t1 sim.Time

	err := cfg.Simulate(senders+1, func(sys *via.System, fail func(error)) {
		incastSetup(sys, cfg, fail, "inc", senders, size, nil,
			func(ctx *via.Ctx, vi *via.Vi, src via.Reg, remote via.AddressSegment, disc string) {
				// The first sender to reach the post loop opens the timed
				// region; the burst is simultaneous within one sleep quantum.
				if !started {
					started = true
					t0 = ctx.Now()
				}
				if err := writeBurst(ctx, vi, src, remote, msgs, size, cfg.Timeout); err != nil {
					fail(fmt.Errorf("%s: %w", disc, err))
					return
				}
				if now := ctx.Now(); now > t1 {
					t1 = now
				}
			})
	}, res.readFabric)
	res.finish(t0, t1)
	return res, err
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
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery, EnableRdmaWrite: true}

	// targets[i][j]: host i's sink window for writes arriving from j.
	targets := make([][]via.AddressSegment, hosts)
	for i := range targets {
		targets[i] = make([]via.AddressSegment, hosts)
	}
	var ready int // hosts that have registered all their sinks
	var started bool
	var t0, t1 sim.Time

	err := cfg.Simulate(hosts, func(sys *via.System, fail func(error)) {
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
					if err := via.Pair(ctx, vi, fabric.NodeID(j), disc, i < j, cfg.Timeout); err != nil {
						fail(err)
						return
					}
					vis[j] = vi
					sink, err := nic.AllocReg(ctx, size)
					if err != nil {
						fail(err)
						return
					}
					targets[i][j] = via.AddressSegment{Addr: sink.Buf.Addr(), Handle: sink.H}
				}
				ready++
				barrier(ctx, func() bool { return ready >= hosts }) // all windows published
				src, err := nic.AllocReg(ctx, size)
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
					if err := writeBurst(ctx, vis[j], src, targets[j][i], msgs, size, cfg.Timeout); err != nil {
						fail(fmt.Errorf("a2a %d->%d: %w", i, j, err))
						return
					}
				}
				if now := ctx.Now(); now > t1 {
					t1 = now
				}
			})
		}
	}, res.readFabric)
	res.finish(t0, t1)
	return res, err
}

// HotspotRun offers an aggregate load of offered x the link bandwidth at
// host 0 from every other host, as paced unreliable sends, and measures
// the goodput the fabric actually delivers. Below saturation goodput
// tracks the offer; past it the receiver's downlink caps throughput and —
// with finite switch buffers — credit backpressure, not queue growth,
// absorbs the excess.
func HotspotRun(cfg Config, senders, msgs, size int, offered float64) (TopoResult, error) {
	res := TopoResult{Hosts: senders + 1, Messages: senders * msgs, Size: size}
	attrs := via.ViAttributes{Reliability: via.Unreliable}

	// Per-sender message gap hitting the aggregate offered fraction of the
	// receiver's link bandwidth.
	perSenderBps := offered * cfg.Model.Network.BandwidthBps / float64(senders)
	gap := sim.Duration(float64(size*8) / perSenderBps * float64(sim.Second))

	var connected int
	var started bool
	var t0, t1 sim.Time
	var recvOK uint64

	err := cfg.Simulate(senders+1, func(sys *via.System, fail func(error)) {
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
				sink, err := nic.AllocReg(ctx, size)
				if err != nil {
					fail(err)
					return
				}
				if err := via.Pair(ctx, vi, fabric.NodeID(s), disc, false, cfg.Timeout); err != nil {
					fail(err)
					return
				}
				// Pre-post the whole stream so no frame dies for lack of a
				// descriptor — losses, if any, are the fabric's doing.
				for i := 0; i < msgs; i++ {
					if err := vi.PostRecv(ctx, via.SimpleRecv(sink.Buf, sink.H, size)); err != nil {
						fail(err)
						return
					}
				}
				connected++
				// Unreliable tail loss is legitimate: bound each wait and stop
				// reaping when the stream has clearly ended. The bound is
				// shorter than drainBound, as no recovery ladder runs here; a
				// lost tail is visible in the hosts' idle time.
				_ = waitEach(ctx, vi.RecvWait, msgs, 100*sim.Millisecond, func(d *via.Descriptor) error {
					if d.Status == via.StatusSuccess {
						recvOK++
					}
					if now := ctx.Now(); now > t1 {
						t1 = now
					}
					return nil
				})
			})
			sys.Go(s, "hot-src-"+disc, func(ctx *via.Ctx) {
				nic := ctx.OpenNic()
				vi, err := nic.CreateVi(ctx, attrs, nil, nil)
				if err != nil {
					fail(err)
					return
				}
				if err := via.Pair(ctx, vi, 0, disc, true, cfg.Timeout); err != nil {
					fail(err)
					return
				}
				src, err := nic.AllocReg(ctx, size)
				if err != nil {
					fail(err)
					return
				}
				barrier(ctx, func() bool { return connected >= senders }) // all streams armed before load starts
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
					sleepUntil(ctx, start.Add(sim.Duration(i)*gap))
					if err := vi.PostSend(ctx, via.SimpleSend(src.Buf, src.H, size)); err != nil {
						fail(fmt.Errorf("%s post %d: %w", disc, i, err))
						return
					}
					n, err := retireSends(ctx, vi, succeeded)
					if err != nil {
						fail(fmt.Errorf("%s: %w", disc, err))
						return
					}
					reaped += n
				}
				if err := waitEach(ctx, vi.SendWait, msgs-reaped, cfg.Timeout, succeeded); err != nil {
					fail(fmt.Errorf("%s reap: %w", disc, err))
				}
			})
		}
	}, res.readFabric)
	res.Messages = int(recvOK)
	res.finish(t0, t1)
	return res, err
}
