package dsm

import (
	"encoding/binary"
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/via"
)

// The lock/barrier manager runs on node 0, the centralized-manager design
// TreadMarks offers. Remote nodes talk to it over dedicated VIs; node 0's
// own operations act on the manager state directly and wait on local
// signals.

const (
	mgrLockReq = iota + 1
	mgrLockGrant
	mgrUnlock
	mgrBarrierReq
	mgrBarrierGo
)

const mgrMsgBytes = 12
const mgrRing = 8

// manager is shared (in Go memory) across the world's nodes for setup,
// but all cross-node runtime traffic flows over the VIs.
type manager struct {
	w *World
	// fail receives a lock grant or barrier release that could not be
	// sent: the daemon, which sends most of them, has no caller to
	// return the error to.
	fail func(error)

	// Node-0 state (touched only by node-0 processes; the cooperative
	// scheduler serializes them).
	locks        map[int]*lockState
	barrierCount int
	barrierSig   *sim.Signal

	// Node-0 transport: one VI per remote node, indexed by node id.
	srvVis  []*via.Vi
	srvRing [][]via.Reg
	srvAt   []int
	bounce  []via.Reg
}

type lockState struct {
	held  bool
	queue []lockWaiter
}

// lockWaiter is a parked acquire: remote (node id) or local (signal).
type lockWaiter struct {
	node  int
	local *sim.Signal
}

// nodeLink is a remote node's connection to the manager.
type nodeLink struct {
	vi   *via.Vi
	ring []via.Reg
	at   int
	out  via.Reg
}

func newManager(w *World, fail func(error)) *manager {
	return &manager{w: w, fail: fail, locks: map[int]*lockState{}}
}

// register wires the calling node into the manager mesh. Node 0 accepts
// every remote link and then starts the service daemon; remote nodes dial
// and keep their link on the Node.
func (m *manager) register(ctx *via.Ctx, d *Node) error {
	nic := ctx.OpenNic()
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery}
	if d.me == 0 {
		m.barrierSig = sim.NewSignal(ctx.P.Engine())
		m.srvVis = make([]*via.Vi, m.w.n)
		m.srvRing = make([][]via.Reg, m.w.n)
		m.srvAt = make([]int, m.w.n)
		m.bounce = make([]via.Reg, m.w.n)
		cq, err := nic.CreateCQ(ctx, 1024)
		if err != nil {
			return err
		}
		for p := 1; p < m.w.n; p++ {
			vi, err := nic.CreateVi(ctx, attrs, nil, cq)
			if err != nil {
				return err
			}
			if m.srvRing[p], err = vi.PostRing(ctx, mgrRing, mgrMsgBytes); err != nil {
				return err
			}
			if m.bounce[p], err = nic.AllocReg(ctx, mgrMsgBytes); err != nil {
				return err
			}
			if err := via.Pair(ctx, vi, m.w.sys.Host(p).ID(), fmt.Sprintf("dsm-mgr-%d", p), false, m.w.cfg.Timeout); err != nil {
				return err
			}
			m.srvVis[p] = vi
		}
		// Identify VIs by id for the daemon.
		byVi := map[int]int{}
		for p := 1; p < m.w.n; p++ {
			byVi[m.srvVis[p].ID()] = p
		}
		m.w.sys.Go(0, "dsm-mgr", func(dctx *via.Ctx) {
			dctx.P.SetDaemon(true)
			m.daemon(dctx, cq, byVi)
		})
		return nil
	}

	vi, err := nic.CreateVi(ctx, attrs, nil, nil)
	if err != nil {
		return err
	}
	link := &nodeLink{vi: vi}
	if link.out, err = nic.AllocReg(ctx, mgrMsgBytes); err != nil {
		return err
	}
	if link.ring, err = vi.PostRing(ctx, mgrRing, mgrMsgBytes); err != nil {
		return err
	}
	if err := via.Pair(ctx, vi, m.w.sys.Host(0).ID(), fmt.Sprintf("dsm-mgr-%d", d.me), true, m.w.cfg.Timeout); err != nil {
		return err
	}
	d.link = link
	return nil
}

// --- wire helpers ---

func encodeMgr(dst []byte, kind byte, id, node int) {
	dst[0] = kind
	binary.LittleEndian.PutUint32(dst[4:], uint32(id))
	binary.LittleEndian.PutUint32(dst[8:], uint32(node))
}

func decodeMgr(src []byte) (kind byte, id, node int) {
	return src[0], int(binary.LittleEndian.Uint32(src[4:])), int(binary.LittleEndian.Uint32(src[8:]))
}

// sendOn stages and sends one manager message on a VI whose out buffer is
// given; the caller is the VI's only sender.
func sendOn(ctx *via.Ctx, vi *via.Vi, out via.Reg, kind byte, id, node int) error {
	encodeMgr(out.Buf.Bytes(), kind, id, node)
	d := &via.Descriptor{Op: via.OpSend, Segs: []via.DataSegment{{
		Addr: out.Buf.Addr(), Handle: out.H, Length: mgrMsgBytes}}}
	if err := vi.PostSend(ctx, d); err != nil {
		return err
	}
	done, err := vi.SendWaitPoll(ctx)
	if err != nil {
		return err
	}
	if done.Status != via.StatusSuccess {
		return fmt.Errorf("dsm manager: send failed: %v", done.Status)
	}
	return nil
}

// recvOn blocks for one manager message on a remote node's link.
func (l *nodeLink) recv(ctx *via.Ctx) (kind byte, id int, err error) {
	d, err := l.vi.RecvWaitPoll(ctx)
	if err != nil {
		return 0, 0, err
	}
	if d.Status != via.StatusSuccess {
		return 0, 0, fmt.Errorf("dsm manager: recv failed: %v", d.Status)
	}
	rb := l.ring[l.at%mgrRing]
	l.at++
	kind, id, _ = decodeMgr(rb.Buf.Bytes())
	if err := l.vi.PostRecv(ctx, via.SimpleRecv(rb.Buf, rb.H, mgrMsgBytes)); err != nil {
		return 0, 0, err
	}
	return kind, id, nil
}

// --- manager daemon (node 0) ---

func (m *manager) daemon(ctx *via.Ctx, cq *via.CQ, byVi map[int]int) {
	for {
		comp, err := cq.WaitBlockForever(ctx)
		if err != nil {
			return
		}
		node, ok := byVi[comp.Vi.ID()]
		if !ok || !comp.IsRecv {
			continue
		}
		d, got := comp.Vi.RecvDone(ctx)
		if !got || d.Status != via.StatusSuccess {
			continue
		}
		rb := m.srvRing[node][m.srvAt[node]%mgrRing]
		m.srvAt[node]++
		kind, id, _ := decodeMgr(rb.Buf.Bytes())
		if err := comp.Vi.PostRecv(ctx, via.SimpleRecv(rb.Buf, rb.H, mgrMsgBytes)); err != nil {
			return
		}
		switch kind {
		case mgrLockReq:
			m.lockReq(ctx, id, lockWaiter{node: node})
		case mgrUnlock:
			m.unlockOp(ctx, id)
		case mgrBarrierReq:
			m.barrierArrive(ctx)
		}
	}
}

// lockReq grants the lock or queues the waiter.
func (m *manager) lockReq(ctx *via.Ctx, id int, w lockWaiter) {
	ls := m.locks[id]
	if ls == nil {
		ls = &lockState{}
		m.locks[id] = ls
	}
	if !ls.held {
		ls.held = true
		m.grant(ctx, id, w)
		return
	}
	ls.queue = append(ls.queue, w)
}

// unlockOp passes the lock to the next waiter or frees it.
func (m *manager) unlockOp(ctx *via.Ctx, id int) {
	ls := m.locks[id]
	if ls == nil || !ls.held {
		return
	}
	if len(ls.queue) == 0 {
		ls.held = false
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	m.grant(ctx, id, next)
}

func (m *manager) grant(ctx *via.Ctx, id int, w lockWaiter) {
	if w.local != nil {
		w.local.Broadcast()
		return
	}
	if err := sendOn(ctx, m.srvVis[w.node], m.bounce[w.node], mgrLockGrant, id, 0); err != nil {
		m.fail(fmt.Errorf("dsm manager grant: %w", err))
	}
}

// barrierArrive counts arrivals and releases everyone on the last one.
func (m *manager) barrierArrive(ctx *via.Ctx) {
	m.barrierCount++
	if m.barrierCount < m.w.n {
		return
	}
	m.barrierCount = 0
	for p := 1; p < m.w.n; p++ {
		if err := sendOn(ctx, m.srvVis[p], m.bounce[p], mgrBarrierGo, 0, 0); err != nil {
			m.fail(fmt.Errorf("dsm manager barrier: %w", err))
			return
		}
	}
	m.barrierSig.Broadcast()
}

// --- node-side operations ---

func (m *manager) acquire(ctx *via.Ctx, d *Node, lock int) error {
	if d.me == 0 {
		ls := m.locks[lock]
		if ls == nil {
			ls = &lockState{}
			m.locks[lock] = ls
		}
		if !ls.held {
			ls.held = true
			return nil
		}
		sig := sim.NewSignal(ctx.P.Engine())
		ls.queue = append(ls.queue, lockWaiter{local: sig})
		sig.Wait(ctx.P)
		return nil
	}
	if err := sendOn(ctx, d.link.vi, d.link.out, mgrLockReq, lock, d.me); err != nil {
		return err
	}
	for {
		kind, id, err := d.link.recv(ctx)
		if err != nil {
			return err
		}
		if kind == mgrLockGrant && id == lock {
			return nil
		}
		return fmt.Errorf("dsm: unexpected manager message %d/%d awaiting lock %d", kind, id, lock)
	}
}

func (m *manager) release(ctx *via.Ctx, d *Node, lock int) error {
	if d.me == 0 {
		m.unlockOp(ctx, lock)
		return nil
	}
	return sendOn(ctx, d.link.vi, d.link.out, mgrUnlock, lock, d.me)
}

func (m *manager) barrier(ctx *via.Ctx, d *Node) error {
	if d.me == 0 {
		if m.barrierCount+1 < m.w.n {
			m.barrierCount++
			m.barrierSig.Wait(ctx.P)
			return nil
		}
		// Node 0 is the last arrival: barrierArrive completes the count
		// and releases everyone.
		m.barrierArrive(ctx)
		return nil
	}
	if err := sendOn(ctx, d.link.vi, d.link.out, mgrBarrierReq, 0, d.me); err != nil {
		return err
	}
	kind, _, err := d.link.recv(ctx)
	if err != nil {
		return err
	}
	if kind != mgrBarrierGo {
		return fmt.Errorf("dsm: unexpected manager message %d awaiting barrier", kind)
	}
	return nil
}
