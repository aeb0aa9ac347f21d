package getput

import (
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// Node is one host's handle on the get/put fabric.
type Node struct {
	fab  *Fabric
	me   int
	ctx  *via.Ctx
	nic  *via.Nic
	cq   *via.CQ
	wake *sim.Signal

	peers   []*gpPeer
	byVi    map[int]viRef
	regions map[string]via.Reg
	pending map[uint32]*opState
	nextReq uint32

	// Counters for tests and reports.
	Puts         uint64
	HardwareGets uint64 // RDMA-read gets
	ServicedGets uint64 // daemon-serviced fallback gets (as owner)
	Lookups      uint64
}

// viRef locates a VI within the node's peer table.
type viRef struct {
	peer  int
	isSrv bool
}

// Me returns this node's id.
func (nd *Node) Me() int { return nd.me }

// Size returns the fabric size.
func (nd *Node) Size() int { return nd.fab.n }

// Expose publishes buf under name so peers can Put/Get it.
func (nd *Node) Expose(ctx *via.Ctx, name string, buf *vmem.Buffer) error {
	if len(name) > nd.fab.cfg.MaxName {
		return fmt.Errorf("getput: name %q too long", name)
	}
	if _, dup := nd.regions[name]; dup {
		return fmt.Errorf("getput: region %q already exposed", name)
	}
	h, err := nd.nic.RegisterMem(ctx, buf)
	if err != nil {
		return err
	}
	nd.regions[name] = via.Reg{Buf: buf, H: h}
	return nil
}

// memcpyPerByte prices local (self-targeted) puts and gets: a plain host
// copy at the testbed's ~100 MB/s.
const memcpyPerByte = 10 * sim.Nanosecond

// local returns the locally exposed region, for self-targeted operations.
func (nd *Node) local(name string) (via.Reg, error) {
	r, ok := nd.regions[name]
	if !ok {
		return via.Reg{}, fmt.Errorf("getput: region %q not exposed locally", name)
	}
	return r, nil
}

// Put writes src[0:n] into [off, off+n) of the named region on peer.
// It returns once delivery is guaranteed (reliable-delivery semantics).
// A self-targeted put is a host memory copy.
func (nd *Node) Put(ctx *via.Ctx, peer int, name string, off int, src *vmem.Buffer, n int, srcHandle via.MemHandle) error {
	if peer == nd.me {
		r, err := nd.local(name)
		if err != nil {
			return err
		}
		if off < 0 || off+n > r.Buf.Len() {
			return fmt.Errorf("getput: put [%d,+%d) outside region %q", off, n, name)
		}
		copy(r.Buf.Bytes()[off:off+n], src.Bytes()[:n])
		ctx.Compute(sim.Duration(n) * memcpyPerByte)
		nd.Puts++
		return nil
	}
	r, err := nd.resolve(ctx, peer, name)
	if err != nil {
		return err
	}
	if off < 0 || off+n > r.length {
		return fmt.Errorf("getput: put [%d,+%d) outside region %q of %d bytes", off, n, name, r.length)
	}
	gp := nd.peers[peer]
	d := &via.Descriptor{
		Op:     via.OpRdmaWrite,
		Segs:   []via.DataSegment{{Addr: src.Addr(), Handle: srcHandle, Length: n}},
		Remote: &via.AddressSegment{Addr: r.addr.Advance(off), Handle: r.handle},
	}
	if err := gp.req.PostSendPoll(ctx, d); err != nil {
		return fmt.Errorf("getput: put: %w", err)
	}
	nd.Puts++
	return nil
}

// Get reads [off, off+n) of the named region on peer into dst (which must
// be registered under dstHandle). On providers with RDMA read it is fully
// one-sided; otherwise the owner's daemon writes the data back. A
// self-targeted get is a host memory copy.
func (nd *Node) Get(ctx *via.Ctx, peer int, name string, off, n int, dst *vmem.Buffer, dstHandle via.MemHandle) error {
	if peer == nd.me {
		r, err := nd.local(name)
		if err != nil {
			return err
		}
		if off < 0 || off+n > r.Buf.Len() {
			return fmt.Errorf("getput: get [%d,+%d) outside region %q", off, n, name)
		}
		copy(dst.Bytes()[:n], r.Buf.Bytes()[off:off+n])
		ctx.Compute(sim.Duration(n) * memcpyPerByte)
		return nil
	}
	r, err := nd.resolve(ctx, peer, name)
	if err != nil {
		return err
	}
	if off < 0 || off+n > r.length {
		return fmt.Errorf("getput: get [%d,+%d) outside region %q of %d bytes", off, n, name, r.length)
	}
	gp := nd.peers[peer]
	if nd.nic.Attributes().RdmaReadSupported {
		d := &via.Descriptor{
			Op:     via.OpRdmaRead,
			Segs:   []via.DataSegment{{Addr: dst.Addr(), Handle: dstHandle, Length: n}},
			Remote: &via.AddressSegment{Addr: r.addr.Advance(off), Handle: r.handle},
		}
		if err := gp.req.PostSendPoll(ctx, d); err != nil {
			return fmt.Errorf("getput: rdma-read get: %w", err)
		}
		nd.HardwareGets++
		return nil
	}
	// Fallback: ask the owner's daemon to RDMA-write the range to us.
	st, err := nd.request(ctx, gp, ctl{kind: opGetReq, off: off, n: n, addr: dst.Addr(), handle: dstHandle, name: name})
	if err != nil {
		return err
	}
	if st.status != stOK {
		return fmt.Errorf("getput: get %q failed with status %d", name, st.status)
	}
	return nil
}

// Fence completes when every earlier Put/Get toward peer has been
// processed ahead of it on the (ordered, reliable) channel. A self fence
// is a no-op: local operations are immediate.
func (nd *Node) Fence(ctx *via.Ctx, peer int) error {
	if peer == nd.me {
		return nil
	}
	_, err := nd.request(ctx, nd.peers[peer], ctl{kind: opFenceReq})
	return err
}

// resolve returns the cached or freshly looked-up descriptor of a remote
// region.
func (nd *Node) resolve(ctx *via.Ctx, peer int, name string) (remoteRegion, error) {
	gp := nd.peers[peer]
	if r, ok := gp.lookups[name]; ok {
		return r, nil
	}
	nd.Lookups++
	st, err := nd.request(ctx, gp, ctl{kind: opLookupReq, name: name})
	if err != nil {
		return remoteRegion{}, err
	}
	if st.status != stOK {
		return remoteRegion{}, fmt.Errorf("getput: region %q not found on node %d", name, peer)
	}
	gp.lookups[name] = st.region
	return st.region, nil
}

// request sends c, numbered as a new operation, to peer's daemon on the
// request VI (the application process is its only sender) and parks
// until the daemon routes back the response.
func (nd *Node) request(ctx *via.Ctx, gp *gpPeer, c ctl) (*opState, error) {
	nd.nextReq++
	c.req = nd.nextReq
	st := &opState{}
	nd.pending[c.req] = st
	n := c.encode(gp.reqBounce.Buf.Bytes())
	if err := gp.req.PostSendPoll(ctx, via.SimpleSend(gp.reqBounce.Buf, gp.reqBounce.H, n)); err != nil {
		return nil, fmt.Errorf("getput: control send: %w", err)
	}
	for !st.done {
		nd.wake.Wait(ctx.P)
	}
	return st, nil
}

// --- daemon ---

// daemon services the node's completion queue for its lifetime: requests
// from peers on srv VIs, responses to our own requests on req VIs.
func (nd *Node) daemon(ctx *via.Ctx) {
	if nd.byVi == nil {
		nd.byVi = map[int]viRef{}
		for p, gp := range nd.peers {
			if gp == nil {
				continue
			}
			nd.byVi[gp.req.ID()] = viRef{peer: p, isSrv: false}
			nd.byVi[gp.srv.ID()] = viRef{peer: p, isSrv: true}
		}
	}
	for {
		comp, err := nd.cq.WaitBlockForever(ctx)
		if err != nil {
			return
		}
		ref, ok := nd.byVi[comp.Vi.ID()]
		if !ok || !comp.IsRecv {
			continue
		}
		gp := nd.peers[ref.peer]
		d, got := comp.Vi.RecvDone(ctx)
		if !got {
			continue
		}
		ring := gp.reqRing
		if ref.isSrv {
			ring = gp.srvRing
		}
		slot, err := ring.Landed(d)
		if err != nil {
			continue
		}
		c := decode(ring.Slot(slot).Buf.Bytes())
		// Repost the slot before servicing.
		if err := ring.Repost(ctx, slot); err != nil {
			return
		}
		if ref.isSrv {
			nd.serve(ctx, gp, c)
		} else {
			nd.completeOp(c)
		}
	}
}

// serve handles one request from a peer, responding on the srv VI (the
// daemon is its only sender).
func (nd *Node) serve(ctx *via.Ctx, gp *gpPeer, c ctl) {
	switch c.kind {
	case opLookupReq:
		resp := ctl{kind: opLookupResp, req: c.req, status: stNotFound}
		if r, ok := nd.regions[c.name]; ok {
			resp.status = stOK
			resp.addr = r.Buf.Addr()
			resp.handle = r.H
			resp.n = r.Buf.Len()
		}
		nd.respond(ctx, gp, &resp)
	case opGetReq:
		resp := ctl{kind: opGetDone, req: c.req, status: stNotFound}
		if r, ok := nd.regions[c.name]; ok {
			if c.off < 0 || c.off+c.n > r.Buf.Len() {
				resp.status = stRange
			} else {
				wr := &via.Descriptor{
					Op:     via.OpRdmaWrite,
					Segs:   []via.DataSegment{{Addr: r.Buf.AddrAt(c.off), Handle: r.H, Length: c.n}},
					Remote: &via.AddressSegment{Addr: c.addr, Handle: c.handle},
				}
				if err := gp.srv.PostSendPoll(ctx, wr); err != nil {
					resp.status = stRange
				} else {
					resp.status = stOK
					nd.ServicedGets++
				}
			}
		}
		nd.respond(ctx, gp, &resp)
	case opFenceReq:
		nd.respond(ctx, gp, &ctl{kind: opFenceResp, req: c.req, status: stOK})
	}
}

// respond sends a response on the srv VI. It ignores a failed send: the
// daemon has no caller to report it to.
func (nd *Node) respond(ctx *via.Ctx, gp *gpPeer, c *ctl) {
	n := c.encode(gp.srvBounce.Buf.Bytes())
	_ = gp.srv.PostSendPoll(ctx, via.SimpleSend(gp.srvBounce.Buf, gp.srvBounce.H, n))
}

// completeOp routes a response to the waiting application process.
func (nd *Node) completeOp(c ctl) {
	st, ok := nd.pending[c.req]
	if !ok {
		return
	}
	delete(nd.pending, c.req)
	st.status = c.status
	st.region = remoteRegion{addr: c.addr, handle: c.handle, length: c.n}
	st.done = true
	nd.wake.Broadcast()
}
