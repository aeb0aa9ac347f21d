// Package stream is a sockets-like byte-stream programming-model layer
// over the VIA substrate, modeled on the paper's reference [17] (Shah,
// Pu, Madukkarumukumana: "High Performance Sockets and RPC over Virtual
// Interface (VI) Architecture"). It provides ordered, reliable,
// flow-controlled byte streams with Dial/Listen/Read/Write/Close
// semantics on top of VIA message descriptors.
//
// Design choices driven by VIBe measurements:
//
//   - All buffers (the receive ring and the send staging buffers) are
//     registered once at connection setup — Figure 1 prices registration
//     far too high to pay per operation.
//   - Payloads are segmented to one VIA message per ring slot, with
//     slot-granularity window updates returned as data slots drain (the
//     receiver may Read slowly, so the window — not the wire — paces the
//     sender); control messages ride reserved headroom slots, mirroring
//     the credit design of [17].
//   - Two alternating send staging buffers keep a segment in flight while
//     the next is being staged, recovering most of the pipeline the
//     copy costs (Figure 3's M-VIA curves) would otherwise forfeit.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vibe/internal/fabric"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// Config tunes the stream layer.
type Config struct {
	// Segment is the largest payload per underlying VIA message (and the
	// ring slot size).
	Segment int
	// RingSlots is the receive-ring depth per connection; Segment *
	// RingSlots is the receive window in bytes.
	RingSlots int
	// Timeout bounds connection setup.
	Timeout sim.Duration
}

// DefaultConfig returns production-shaped defaults (a 64 KB window of
// 8 KB segments).
func DefaultConfig() Config {
	return Config{Segment: 8 * 1024, RingSlots: 8, Timeout: 30 * sim.Second}
}

// ctlHeadroom is the number of ring slots reserved for control messages
// (window updates and FIN). Data is flow-controlled to RingSlots -
// ctlHeadroom, and the protocol bounds in-flight control traffic below
// the headroom: updates flow only in response to the peer's own data, at
// most one per drained data slot, and a closed writer's ring can still
// absorb the trailing updates for its last window of data.
const ctlHeadroom = 4

func (c Config) normalized(maxXfer int) Config {
	if c.Segment < 256 {
		c.Segment = 256
	}
	if c.Segment+headerBytes > maxXfer {
		c.Segment = maxXfer - headerBytes
	}
	if c.RingSlots < ctlHeadroom+2 {
		c.RingSlots = ctlHeadroom + 2
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * sim.Second
	}
	return c
}

// Wire header: [kind:1][pad:3][n:4].
const headerBytes = 8

const (
	kindData   = 1 // n payload bytes follow
	kindWindow = 2 // n = bytes the receiver freed
	kindFin    = 3 // orderly close
)

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("stream: connection closed")

// memcpyPerByte models the host's copy rate for staging writes and
// draining reads (~100 MB/s on the paper's testbed). Like real sockets
// over VIA, the stream layer is copy-based on both sides — the price [17]
// pays for byte semantics.
const memcpyPerByte = 10 * sim.Nanosecond

// Listen blocks until a stream connection request arrives for the given
// service name and returns the accepted connection, mirroring a listening
// socket's accept.
func Listen(ctx *via.Ctx, service string, cfg Config) (*Conn, error) {
	return open(ctx, 0, service, cfg, false)
}

// Dial connects to a listening service on the remote host.
func Dial(ctx *via.Ctx, remote int, service string, cfg Config) (*Conn, error) {
	return open(ctx, ctx.Host.System().Host(remote).ID(), service, cfg, true)
}

// open sets up one end of a stream connection: the VI and its buffers
// first, then the connection, dialing peer when dial is set and
// otherwise accepting whoever dials the service.
func open(ctx *via.Ctx, peer fabric.NodeID, service string, cfg Config, dial bool) (*Conn, error) {
	nic := ctx.OpenNic()
	cfg = cfg.normalized(nic.Attributes().MaxTransferSize)
	vi, err := nic.CreateVi(ctx, via.ViAttributes{Reliability: via.ReliableDelivery}, nil, nil)
	if err != nil {
		return nil, err
	}
	c, err := newConn(ctx, nic, vi, cfg)
	if err != nil {
		return nil, err
	}
	if err := via.Pair(ctx, vi, peer, "stream:"+service, dial, cfg.Timeout); err != nil {
		return nil, err
	}
	return c, nil
}

// Conn is a reliable, ordered, flow-controlled byte stream.
type Conn struct {
	ctx *via.Ctx
	nic *via.Nic
	vi  *via.Vi
	cfg Config

	// ring holds data slots until Read drains them; control slots are
	// re-posted as soon as they are processed.
	ring *via.Ring

	// unread holds arrived-but-unconsumed data as (slot, from, to) spans.
	unread []span

	// dataWindow is the sender-side count of data slots the peer can still
	// absorb (control messages are exempt: they use the reserved
	// headroom).
	dataWindow int
	// freedData counts drained data slots not yet reported to the peer.
	freedData int

	bounce   [2]via.Reg // alternating send staging buffers
	bounceI  int
	inFlight int // staged sends not yet retired

	peerFin bool
	closed  bool

	// Counters for tests.
	BytesSent     uint64
	BytesReceived uint64
	WindowUpdates uint64
	WindowStalls  uint64
}

// span is a range of unread payload inside a ring slot.
type span struct {
	slot     int
	from, to int
}

func newConn(ctx *via.Ctx, nic *via.Nic, vi *via.Vi, cfg Config) (*Conn, error) {
	c := &Conn{
		ctx:        ctx,
		nic:        nic,
		vi:         vi,
		cfg:        cfg,
		dataWindow: cfg.RingSlots - ctlHeadroom,
	}
	slot := headerBytes + cfg.Segment
	var err error
	if c.ring, err = vi.PostRing(ctx, cfg.RingSlots, slot); err != nil {
		return nil, err
	}
	for i := range c.bounce {
		if c.bounce[i], err = nic.AllocReg(ctx, slot); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Write sends all of p, blocking as the peer's window requires. It
// returns len(p) unless the connection fails.
func (c *Conn) Write(ctx *via.Ctx, p []byte) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > c.cfg.Segment {
			n = c.cfg.Segment
		}
		// Opportunistically absorb window updates (and a possible FIN) so
		// the peer's control traffic never piles up in our ring.
		if err := c.drain(ctx); err != nil {
			return written, err
		}
		// Respect the receiver's window. Accounting is slot-granular: a
		// short segment still occupies a whole ring slot at the peer.
		stalled := false
		for c.dataWindow == 0 {
			if !stalled {
				c.WindowStalls++
				stalled = true
			}
			if err := c.pump(ctx); err != nil {
				return written, err
			}
			if err := c.flushUpdates(ctx); err != nil {
				return written, err
			}
		}
		// Stage into the next bounce buffer; keep at most one send in
		// flight per buffer.
		if c.inFlight >= len(c.bounce) {
			if err := c.retireSend(ctx); err != nil {
				return written, err
			}
		}
		b := c.bounce[c.bounceI]
		c.bounceI = (c.bounceI + 1) % len(c.bounce)
		hdr := b.Buf.Bytes()
		hdr[0] = kindData
		binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
		copy(hdr[headerBytes:], p[written:written+n])
		ctx.Compute(sim.Duration(n) * memcpyPerByte)
		if err := c.vi.PostSend(ctx, via.SimpleSend(b.Buf, b.H, headerBytes+n)); err != nil {
			return written, err
		}
		c.inFlight++
		c.dataWindow--
		written += n
		c.BytesSent += uint64(n)
	}
	return written, nil
}

// Read fills p with at least one byte (blocking until data arrives) and
// returns the count; it returns io.EOF after the peer closes and all data
// has been drained.
func (c *Conn) Read(ctx *via.Ctx, p []byte) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	for len(c.unread) == 0 {
		if c.peerFin {
			return 0, io.EOF
		}
		if err := c.pump(ctx); err != nil {
			return 0, err
		}
	}
	read := 0
	for read < len(p) && len(c.unread) > 0 {
		s := &c.unread[0]
		data := c.ring.Slot(s.slot).Buf.Bytes()[s.from:s.to]
		n := copy(p[read:], data)
		ctx.Compute(sim.Duration(n) * memcpyPerByte)
		read += n
		s.from += n
		if s.from == s.to {
			// Slot drained: repost it and owe the sender a window update.
			c.unread = c.unread[1:]
			if err := c.ring.Repost(ctx, s.slot); err != nil {
				return read, err
			}
			c.freedData++
			if err := c.flushUpdates(ctx); err != nil {
				return read, err
			}
		}
	}
	c.BytesReceived += uint64(read)
	return read, nil
}

// flushUpdates returns freed data slots to the sender, batching to half
// the data window (as [17] does) — except when the sender's view of our
// window may have reached zero, in which case any owed slots flush
// immediately so the sender can never stall forever on an update below
// the batching threshold.
func (c *Conn) flushUpdates(ctx *via.Ctx) error {
	if c.freedData == 0 {
		return nil
	}
	dataCap := c.cfg.RingSlots - ctlHeadroom
	peerView := dataCap - c.freedData - len(c.unread)
	if c.freedData < dataCap/2 && peerView > 0 {
		return nil
	}
	n := c.freedData
	c.freedData = 0
	c.WindowUpdates++
	return c.sendCtl(ctx, kindWindow, n)
}

// sendCtl sends a control message. Control is exempt from the data
// window: it rides the ctlHeadroom ring slots the protocol reserves.
func (c *Conn) sendCtl(ctx *via.Ctx, kind byte, n int) error {
	if c.inFlight >= len(c.bounce) {
		if err := c.retireSend(ctx); err != nil {
			return err
		}
	}
	b := c.bounce[c.bounceI]
	c.bounceI = (c.bounceI + 1) % len(c.bounce)
	hdr := b.Buf.Bytes()
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	if err := c.vi.PostSend(ctx, via.SimpleSend(b.Buf, b.H, headerBytes)); err != nil {
		return err
	}
	c.inFlight++
	return nil
}

// retireSend completes the oldest staged send.
func (c *Conn) retireSend(ctx *via.Ctx) error {
	if err := via.CheckOK(c.vi.SendWaitPoll(ctx)); err != nil {
		return fmt.Errorf("stream: send: %w", err)
	}
	c.inFlight--
	return nil
}

// pump blocks for one inbound message and processes it.
func (c *Conn) pump(ctx *via.Ctx) error {
	slot, err := c.ring.Next(ctx)
	if err != nil {
		return fmt.Errorf("stream: receive: %w", err)
	}
	return c.process(ctx, slot)
}

// drain processes any already-completed inbound messages without
// blocking.
func (c *Conn) drain(ctx *via.Ctx) error {
	for {
		d, ok := c.vi.RecvDone(ctx)
		if !ok {
			return nil
		}
		slot, err := c.ring.Landed(d)
		if err != nil {
			return fmt.Errorf("stream: receive: %w", err)
		}
		if err := c.process(ctx, slot); err != nil {
			return err
		}
	}
}

// process handles the message that landed in ring slot slot.
func (c *Conn) process(ctx *via.Ctx, slot int) error {
	hdr := c.ring.Slot(slot).Buf.Bytes()
	kind := hdr[0]
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	switch kind {
	case kindData:
		c.unread = append(c.unread, span{slot: slot, from: headerBytes, to: headerBytes + n})
		return nil // slot stays consumed until Read drains it
	case kindWindow:
		c.dataWindow += n
	case kindFin:
		c.peerFin = true
	default:
		return fmt.Errorf("stream: unknown message kind %d", kind)
	}
	// Control messages free their slot immediately; they are not part of
	// the data window, so nothing is reported.
	return c.ring.Repost(ctx, slot)
}

// Close sends an orderly FIN and retires outstanding sends. Reads on the
// peer return io.EOF once drained.
func (c *Conn) Close(ctx *via.Ctx) error {
	if c.closed {
		return ErrClosed
	}
	if err := c.sendCtl(ctx, kindFin, 0); err != nil {
		return err
	}
	for c.inFlight > 0 {
		if err := c.retireSend(ctx); err != nil {
			return err
		}
	}
	c.closed = true
	return nil
}
