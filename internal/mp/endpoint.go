package mp

import (
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// memcpyPerByte models the host's application-level memcpy rate
// (~100 MB/s on the paper's 300 MHz Pentium II testbed). The eager
// protocol pays it twice per message — staging into the bounce buffer and
// copying out at the receiver — which is exactly the cost rendezvous
// avoids and what makes the eager-limit crossover real.
const memcpyPerByte = 10 * sim.Nanosecond

// Endpoint is one rank's handle on the world.
type Endpoint struct {
	world *World
	rank  int
	nic   *via.Nic
	peers []*peer
	cache *regCache

	nextReq uint32

	// Counters for tests and ablation reports.
	EagerSends      uint64
	RendezvousSends uint64
	CreditMsgs      uint64
}

// Rank returns this endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size returns the world size.
func (ep *Endpoint) Size() int { return ep.world.n }

// Send delivers buf[0:n] to rank dst with the given tag (tags must be
// non-negative; negative tags are reserved for collectives). Small
// payloads copy through the pre-registered bounce buffer (eager); large
// ones register the user buffer (through the cache) and move zero-copy
// with rendezvous RDMA.
func (ep *Endpoint) Send(ctx *via.Ctx, dst, tag int, buf *vmem.Buffer, n int) error {
	if tag < 0 {
		return fmt.Errorf("mp: negative tags are reserved")
	}
	return ep.send(ctx, dst, int32(tag), buf, n)
}

func (ep *Endpoint) send(ctx *via.Ctx, dst int, tag int32, buf *vmem.Buffer, n int) error {
	if dst == ep.rank {
		return fmt.Errorf("mp: self-send not supported")
	}
	p := ep.peers[dst]
	if n <= ep.world.cfg.EagerLimit {
		ep.EagerSends++
		if err := ep.waitCredit(ctx, p); err != nil {
			return err
		}
		hdr := p.bounce.Buf.Bytes()
		putHeader(hdr, kindEager, tag, 0, n)
		copy(hdr[headerBytes:], buf.Bytes()[:n])
		ctx.Compute(sim.Duration(n) * memcpyPerByte)
		if err := p.vi.PostSendPoll(ctx, via.SimpleSend(p.bounce.Buf, p.bounce.H, headerBytes+n)); err != nil {
			return fmt.Errorf("mp: eager send: %w", err)
		}
		return nil
	}

	// Rendezvous: RTS -> CTS -> RDMA write -> FIN.
	ep.RendezvousSends++
	ep.nextReq++
	req := ep.nextReq
	h, err := ep.cache.handle(ctx, buf)
	if err != nil {
		return err
	}
	if err := ep.waitCredit(ctx, p); err != nil {
		return err
	}
	hdr := p.bounce.Buf.Bytes()
	putHeader(hdr, kindRTS, tag, req, n)
	putAddr(hdr, buf.Addr(), h)
	if err := p.vi.PostSendPoll(ctx, via.SimpleSend(p.bounce.Buf, p.bounce.H, headerBytes+addrBytes)); err != nil {
		return fmt.Errorf("mp: RTS send: %w", err)
	}
	// Wait for the receiver's clear-to-send.
	var cts ctsInfo
	for {
		if c, ok := p.cts[req]; ok {
			delete(p.cts, req)
			cts = c
			break
		}
		if err := ep.poll(ctx, p); err != nil {
			return err
		}
	}
	// Zero-copy write into the receiver's buffer, chunked to the
	// provider's maximum transfer size.
	maxXfer := ep.world.sys.Model.MaxTransferSize
	for off := 0; off < n; off += maxXfer {
		chunk := n - off
		if chunk > maxXfer {
			chunk = maxXfer
		}
		wr := &via.Descriptor{
			Op:     via.OpRdmaWrite,
			Segs:   []via.DataSegment{{Addr: buf.AddrAt(off), Handle: h, Length: chunk}},
			Remote: &via.AddressSegment{Addr: cts.addr.Advance(off), Handle: cts.handle},
		}
		if err := p.vi.PostSendPoll(ctx, wr); err != nil {
			return fmt.Errorf("mp: rendezvous write: %w", err)
		}
	}
	if err := ep.waitCredit(ctx, p); err != nil {
		return err
	}
	putHeader(p.bounce.Buf.Bytes(), kindFin, tag, req, 0)
	if err := p.vi.PostSendPoll(ctx, via.SimpleSend(p.bounce.Buf, p.bounce.H, headerBytes)); err != nil {
		return fmt.Errorf("mp: FIN send: %w", err)
	}
	return nil
}

// Recv returns the next message from rank src with the given tag. The
// returned buffer is freshly allocated in the caller's address space.
func (ep *Endpoint) Recv(ctx *via.Ctx, src, tag int) (*vmem.Buffer, int, error) {
	if tag < 0 {
		return nil, 0, fmt.Errorf("mp: negative tags are reserved")
	}
	return ep.recv(ctx, src, int32(tag))
}

func (ep *Endpoint) recv(ctx *via.Ctx, src int, tag int32) (*vmem.Buffer, int, error) {
	p := ep.peers[src]
	for {
		for i, m := range p.unexpected {
			if (m.kind == kindEager || m.kind == kindRTS) && m.tag == tag {
				p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
				return ep.complete(ctx, p, m)
			}
		}
		if err := ep.poll(ctx, p); err != nil {
			return nil, 0, err
		}
	}
}

// complete finishes delivery of a matched message.
func (ep *Endpoint) complete(ctx *via.Ctx, p *peer, m inbound) (*vmem.Buffer, int, error) {
	size := m.n
	if size < 1 {
		size = 1
	}
	dst := ctx.Malloc(size)
	if m.kind == kindEager {
		copy(dst.Bytes(), m.data)
		ctx.Compute(sim.Duration(m.n) * memcpyPerByte)
		return dst, m.n, nil
	}
	// Rendezvous: answer with CTS, then wait for the FIN that marks the
	// RDMA write complete.
	h, err := ep.cache.handle(ctx, dst)
	if err != nil {
		return nil, 0, err
	}
	if err := ep.waitCredit(ctx, p); err != nil {
		return nil, 0, err
	}
	hdr := p.bounce.Buf.Bytes()
	putHeader(hdr, kindCTS, m.tag, m.req, m.n)
	putAddr(hdr, dst.Addr(), h)
	if err := p.vi.PostSendPoll(ctx, via.SimpleSend(p.bounce.Buf, p.bounce.H, headerBytes+addrBytes)); err != nil {
		return nil, 0, fmt.Errorf("mp: CTS send: %w", err)
	}
	for !p.fin[m.req] {
		if err := ep.poll(ctx, p); err != nil {
			return nil, 0, err
		}
	}
	delete(p.fin, m.req)
	return dst, m.n, nil
}

// poll consumes exactly one inbound message on the peer VI, reposts its
// ring buffer, and dispatches it.
func (ep *Endpoint) poll(ctx *via.Ctx, p *peer) error {
	idx, err := p.ring.Next(ctx)
	if err != nil {
		return fmt.Errorf("mp: transport receive: %w", err)
	}
	rb := p.ring.Slot(idx)
	kind, tag, req, n := parseHeader(rb.Buf.Bytes())

	switch kind {
	case kindEager:
		data := make([]byte, n)
		copy(data, rb.Buf.Bytes()[headerBytes:headerBytes+n])
		p.unexpected = append(p.unexpected, inbound{kind: kind, tag: tag, n: n, data: data})
	case kindRTS:
		addr, h := parseAddr(rb.Buf.Bytes())
		p.unexpected = append(p.unexpected, inbound{kind: kind, tag: tag, req: req, n: n, raddr: addr, rh: h})
	case kindCTS:
		addr, h := parseAddr(rb.Buf.Bytes())
		p.cts[req] = ctsInfo{addr: addr, handle: h}
	case kindFin:
		p.fin[req] = true
	case kindCredit:
		p.credits += n
	default:
		return fmt.Errorf("mp: unknown message %s", kindName(kind))
	}

	// Repost the ring slot, then return credit in batches. Credit
	// messages themselves consume the reserve slot (waitCredit keeps one
	// in hand), so this cannot deadlock the ring.
	if err := p.ring.Repost(ctx, idx); err != nil {
		return err
	}
	if kind != kindCredit {
		p.consumed++
	}
	if p.consumed >= ep.world.cfg.RingSize/2 {
		freed := p.consumed
		p.consumed = 0
		ep.CreditMsgs++
		putHeader(p.bounce.Buf.Bytes(), kindCredit, 0, 0, freed)
		if err := p.vi.PostSendPoll(ctx, via.SimpleSend(p.bounce.Buf, p.bounce.H, headerBytes)); err != nil {
			return fmt.Errorf("mp: credit return: %w", err)
		}
	}
	return nil
}

// waitCredit blocks until a send credit is available, keeping one in
// reserve so credit-return messages can always flow.
func (ep *Endpoint) waitCredit(ctx *via.Ctx, p *peer) error {
	for p.credits <= 1 {
		if err := ep.poll(ctx, p); err != nil {
			return err
		}
	}
	p.credits--
	return nil
}
