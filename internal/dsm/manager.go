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
	srvVis []*via.Vi
	bounce []via.Reg
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
	ring *via.Ring
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
		m.bounce = make([]via.Reg, m.w.n)
		rings := make([]*via.Ring, m.w.n)
		cq, err := nic.CreateCQ(ctx, 1024)
		if err != nil {
			return err
		}
		for p := 1; p < m.w.n; p++ {
			vi, err := nic.CreateVi(ctx, attrs, nil, cq)
			if err != nil {
				return err
			}
			if rings[p], err = vi.PostRing(ctx, mgrRing, mgrMsgBytes); err != nil {
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
			m.daemon(dctx, cq, byVi, rings)
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

// --- wire format: [kind:1][pad:3][id:4][node:4] ---

// sendMgr encodes one manager message into out and sends it on vi, whose
// only sender the caller is.
func sendMgr(ctx *via.Ctx, vi *via.Vi, out via.Reg, kind byte, id, node int) error {
	b := out.Buf.Bytes()
	b[0] = kind
	binary.LittleEndian.PutUint32(b[4:], uint32(id))
	binary.LittleEndian.PutUint32(b[8:], uint32(node))
	if err := vi.PostSendPoll(ctx, via.SimpleSend(out.Buf, out.H, mgrMsgBytes)); err != nil {
		return fmt.Errorf("dsm manager: send: %w", err)
	}
	return nil
}

// decodeMgr returns a manager message's kind and id; the receiver knows
// the sending node from the VI.
func decodeMgr(src []byte) (kind byte, id int) {
	return src[0], int(binary.LittleEndian.Uint32(src[4:]))
}

// recv blocks for one manager message on a remote node's link.
func (l *nodeLink) recv(ctx *via.Ctx) (kind byte, id int, err error) {
	slot, err := l.ring.Next(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("dsm manager: recv: %w", err)
	}
	kind, id = decodeMgr(l.ring.Slot(slot).Buf.Bytes())
	return kind, id, l.ring.Repost(ctx, slot)
}

// --- manager daemon (node 0) ---

func (m *manager) daemon(ctx *via.Ctx, cq *via.CQ, byVi map[int]int, rings []*via.Ring) {
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
		if !got {
			continue
		}
		slot, err := rings[node].Landed(d)
		if err != nil {
			continue
		}
		kind, id := decodeMgr(rings[node].Slot(slot).Buf.Bytes())
		if err := rings[node].Repost(ctx, slot); err != nil {
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
	if err := sendMgr(ctx, m.srvVis[w.node], m.bounce[w.node], mgrLockGrant, id, 0); err != nil {
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
		if err := sendMgr(ctx, m.srvVis[p], m.bounce[p], mgrBarrierGo, 0, 0); err != nil {
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
	if err := sendMgr(ctx, d.link.vi, d.link.out, mgrLockReq, lock, d.me); err != nil {
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
	return sendMgr(ctx, d.link.vi, d.link.out, mgrUnlock, lock, d.me)
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
	if err := sendMgr(ctx, d.link.vi, d.link.out, mgrBarrierReq, 0, d.me); err != nil {
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
