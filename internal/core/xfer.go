package core

import (
	"fmt"

	"vibe/internal/cpu"
	"vibe/internal/fabric"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// XferResult is one data-transfer measurement in the paper's units.
type XferResult struct {
	Size      int
	RTTus     float64 // request-reply round trip
	LatencyUs float64 // one-way latency (RTT/2 for symmetric ping-pong)
	MBps      float64 // bandwidth runs only
	CPUUtil   float64 // sender/client CPU utilization in [0,1]
	TPS       float64 // transactions per second (client-server)
}

// endpoint bundles one side's VIA objects and buffer pools.
type endpoint struct {
	ctx    *via.Ctx
	nic    *via.Nic
	vi     *via.Vi
	extras []*via.Vi
	cq     *via.CQ
	send   []via.Reg
	recv   []via.Reg
	o      XferOpts
	cfg    Config
}

// rdmaXchg carries each side's receive-pool addresses to the other for
// RDMA transfers (the address exchange a real application would do over an
// initial send/receive).
type rdmaXchg struct {
	cli, srv []via.AddressSegment
}

func makePool(ctx *via.Ctx, nic *via.Nic, count, size int) ([]via.Reg, error) {
	pool := make([]via.Reg, count)
	for i := range pool {
		var err error
		if pool[i], err = nic.AllocReg(ctx, max(size, 4)); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// addressSegments exports a pool for RDMA targeting.
func addressSegments(pool []via.Reg) []via.AddressSegment {
	segs := make([]via.AddressSegment, len(pool))
	for i, b := range pool {
		segs[i] = via.AddressSegment{Addr: b.Buf.Addr(), Handle: b.H}
	}
	return segs
}

// setup creates the endpoint: CQ if requested, ActiveVIs connected VI
// pairs (traffic uses the first), and the send/receive buffer pools.
// share aliases the receive pool to the send pool, matching the paper's
// base setup where one user buffer serves as both.
func setup(ctx *via.Ctx, cfg Config, o XferOpts, sendSize, recvSize int, share, isClient bool, peer fabric.NodeID) (*endpoint, error) {
	ep := &endpoint{ctx: ctx, nic: ctx.OpenNic(), o: o, cfg: cfg}
	var err error
	if o.RecvViaCQ {
		if ep.cq, err = ep.nic.CreateCQ(ctx, 4096); err != nil {
			return nil, err
		}
	}
	attrs := via.ViAttributes{Reliability: o.Reliability, EnableRdmaWrite: o.RDMA}
	for k := 0; k < o.ActiveVIs; k++ {
		var recvCQ *via.CQ
		if k == 0 {
			recvCQ = ep.cq
		}
		vi, err := ep.nic.CreateVi(ctx, attrs, nil, recvCQ)
		if err != nil {
			return nil, err
		}
		if err := via.Pair(ctx, vi, peer, fmt.Sprintf("vi-%d", k), isClient, cfg.Timeout); err != nil {
			return nil, err
		}
		if k == 0 {
			ep.vi = vi
		} else {
			ep.extras = append(ep.extras, vi)
		}
	}

	poolN := o.PoolBuffers
	if share {
		size := sendSize
		if recvSize > size {
			size = recvSize
		}
		if ep.send, err = makePool(ctx, ep.nic, poolN, size); err != nil {
			return nil, err
		}
		ep.recv = ep.send
		return ep, nil
	}
	if ep.send, err = makePool(ctx, ep.nic, poolN, sendSize); err != nil {
		return nil, err
	}
	if ep.recv, err = makePool(ctx, ep.nic, poolN, recvSize); err != nil {
		return nil, err
	}
	return ep, nil
}

// segments splits buffer b into k contiguous data segments covering
// exactly n bytes.
func segments(b via.Reg, n, k int) []via.DataSegment {
	if n > 0 && k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	segs := make([]via.DataSegment, 0, k)
	base := n / k
	off := 0
	for i := 0; i < k; i++ {
		l := base
		if i == k-1 {
			l = n - off
		}
		segs = append(segs, via.DataSegment{Addr: b.Buf.AddrAt(off), Handle: b.H, Length: l})
		off += l
	}
	return segs
}

// postRecv posts a receive descriptor sized for an n-byte message into
// pool buffer b.
func (ep *endpoint) postRecv(b via.Reg, n int) error {
	d := &via.Descriptor{Segs: segments(b, n, ep.o.Segments)}
	return ep.vi.PostRecv(ep.ctx, d)
}

// postSend posts the send (or RDMA write) of n bytes from pool buffer b.
// For RDMA, the write targets the peer's receive-pool buffer of the same
// index, carrying immediate data so the peer's posted descriptor
// completes. With no peer pool (control messages like the bandwidth ack),
// a plain send is used even in RDMA mode.
func (ep *endpoint) postSend(b via.Reg, n, poolIdx int, peerRecv []via.AddressSegment) error {
	d := &via.Descriptor{Op: via.OpSend, Segs: segments(b, n, ep.o.Segments)}
	if ep.o.RDMA && peerRecv != nil {
		d.Op = via.OpRdmaWrite
		r := peerRecv[poolIdx]
		d.Remote = &r
		d.ImmediateData = uint32(poolIdx)
		d.HasImmediate = true
	}
	return ep.vi.PostSend(ep.ctx, d)
}

// waitSend completes the head send descriptor per the configured mode.
func (ep *endpoint) waitSend() (*via.Descriptor, error) {
	if ep.o.Mode == Blocking {
		return ep.vi.SendWait(ep.ctx, ep.cfg.Timeout)
	}
	return ep.vi.SendWaitPoll(ep.ctx)
}

// waitRecv completes the head receive descriptor per the configured mode,
// going through the completion queue when configured.
func (ep *endpoint) waitRecv() (*via.Descriptor, error) {
	if ep.o.RecvViaCQ {
		var err error
		if ep.o.Mode == Blocking {
			_, err = ep.cq.Wait(ep.ctx, ep.cfg.Timeout)
		} else {
			_, err = ep.cq.WaitPoll(ep.ctx)
		}
		if err != nil {
			return nil, err
		}
		d, ok := ep.vi.RecvDone(ep.ctx)
		if !ok {
			return nil, fmt.Errorf("vibe: CQ entry without completed descriptor")
		}
		return d, nil
	}
	if ep.o.Mode == Blocking {
		return ep.vi.RecvWait(ep.ctx, ep.cfg.Timeout)
	}
	return ep.vi.RecvWaitPoll(ep.ctx)
}

// roundTrip is the suite's core engine: a synchronous request/reply loop
// between two nodes, parameterized by XferOpts. Ping-pong latency,
// CQ/buffer-reuse/multi-VI/segment/RDMA/reliability variants, and the
// client-server benchmark are all instances of it.
func roundTrip(cfg Config, reqSize, replySize int, separateBufs bool, o XferOpts) (XferResult, error) {
	o = o.normalized()
	total := cfg.Warmup + cfg.Iters
	res := XferResult{Size: reqSize}

	// The base setup uses one user buffer as both send and receive buffer
	// (§3.2.1); the buffer-reuse and RDMA experiments use distinct send
	// and receive buffers (§3.2.2).
	share := !separateBufs && !o.RDMA && !o.VaryBuffers

	var x rdmaXchg
	var cliReady, srvReady bool

	err := cfg.Simulate(2, func(sys *via.System, fail func(error)) {
		sys.Go(0, "vibe-client", func(ctx *via.Ctx) {
			ep, err := setup(ctx, cfg, o, reqSize, replySize, share, true, 1)
			if err != nil {
				fail(err)
				return
			}
			if o.RDMA {
				x.cli = addressSegments(ep.recv)
				cliReady = true
				barrier(ctx, func() bool { return srvReady })
			}
			var t0 sim.Time
			var meter *cpu.Meter
			for i := 0; i < total; i++ {
				if i == cfg.Warmup {
					t0 = ctx.Now()
					meter = ctx.Host.CPU.StartMeter()
				}
				bi := o.pickBuf(i)
				if err := ep.postRecv(ep.recv[bi], replySize); err != nil {
					fail(err)
					return
				}
				if err := ep.postSend(ep.send[bi], reqSize, bi, x.srv); err != nil {
					fail(err)
					return
				}
				if err := via.CheckOK(ep.waitSend()); err != nil {
					fail(fmt.Errorf("client send %d: %w", i, err))
					return
				}
				if err := via.CheckOK(ep.waitRecv()); err != nil {
					fail(fmt.Errorf("client recv %d: %w", i, err))
					return
				}
			}
			rtt := ctx.Now().Sub(t0)
			res.RTTus = rtt.Micros() / float64(cfg.Iters)
			res.LatencyUs = res.RTTus / 2
			res.CPUUtil = meter.Utilization()
			if res.RTTus > 0 {
				res.TPS = 1e6 / res.RTTus
			}
		})

		sys.Go(1, "vibe-server", func(ctx *via.Ctx) {
			ep, err := setup(ctx, cfg, o, replySize, reqSize, share, false, 0)
			if err != nil {
				fail(err)
				return
			}
			// The first receive is posted before the address goes out:
			// the client's first RDMA write with immediate data consumes
			// it, and an unreliable VI drops one that finds none.
			if !o.Notify {
				if err := ep.postRecv(ep.recv[o.pickBuf(0)], reqSize); err != nil {
					fail(err)
					return
				}
			}
			if o.RDMA {
				x.srv = addressSegments(ep.recv)
				srvReady = true
				barrier(ctx, func() bool { return cliReady })
			}
			if o.Notify {
				ep.serveNotify(total, reqSize, replySize, &x, fail)
				return
			}
			for i := 0; i < total; i++ {
				if err := via.CheckOK(ep.waitRecv()); err != nil {
					fail(fmt.Errorf("server recv %d: %w", i, err))
					return
				}
				if i+1 < total {
					if err := ep.postRecv(ep.recv[o.pickBuf(i+1)], reqSize); err != nil {
						fail(err)
						return
					}
				}
				bi := o.pickBuf(i)
				if err := ep.postSend(ep.send[bi], replySize, bi, x.cli); err != nil {
					fail(err)
					return
				}
				if err := via.CheckOK(ep.waitSend()); err != nil {
					fail(fmt.Errorf("server send %d: %w", i, err))
					return
				}
			}
		})
	}, nil)
	return res, err
}

// serveNotify is the server loop of the asynchronous-message benchmark:
// each completed receive is handled by an upcall that posts the next
// receive and sends the reply.
func (ep *endpoint) serveNotify(total, reqSize, replySize int, x *rdmaXchg, fail func(error)) {
	o := ep.o
	done := 0
	ep.vi.SetRecvNotify(func(hctx *via.Ctx, d *via.Descriptor) {
		i := done
		done++
		if err := via.CheckOK(d, nil); err != nil {
			fail(fmt.Errorf("vibe notify: %w", err))
			return
		}
		// Handlers run with their own context; redirect the endpoint's
		// posting calls through it for this upcall.
		hep := *ep
		hep.ctx = hctx
		if i+1 < total {
			if err := hep.postRecv(ep.recv[o.pickBuf(i+1)], reqSize); err != nil {
				fail(err)
				return
			}
		}
		bi := o.pickBuf(i)
		if err := hep.postSend(ep.send[bi], replySize, bi, x.cli); err != nil {
			fail(err)
			return
		}
		if err := via.CheckOK(hep.waitSend()); err != nil {
			fail(err)
		}
	})
	if err := ep.postRecv(ep.recv[o.pickBuf(0)], reqSize); err != nil {
		fail(err)
		return
	}
	for done < total {
		ep.ctx.Sleep(20 * sim.Microsecond)
	}
}
