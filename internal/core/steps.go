package core

import (
	"fmt"

	"vibe/internal/fabric"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// The traffic steps the streaming drivers (bandwidth, FaultRun, IncastRun,
// AllToAllRun, HotspotRun, FailoverRun) share. Each step is a fixed VIPL
// call sequence; a driver is its setup plus a choice of steps, so the
// drivers differ only where their workloads do.

// drainBound caps each wait of a bounded drain. Recovery from a mid-stream
// fault is bounded by the full backoff ladder and an unreliable stream's
// lost tail never completes, so a wait longer than this means the stream
// has ended or the descriptor is stuck.
const drainBound = 500 * sim.Millisecond

// sleepUntil parks ctx until virtual time t; it returns at once if t has
// passed. Open-loop pacing sleeps to absolute deadlines, so a delayed wire
// never shifts the offered schedule.
func sleepUntil(ctx *via.Ctx, t sim.Time) {
	if d := t.Sub(ctx.Now()); d > 0 {
		ctx.Sleep(d)
	}
}

// barrier parks ctx until ready reports true, polling every 10 µs of
// virtual time: how the drivers wait on an out-of-band handshake (an
// address exchange, armed receivers) or on a VI's state.
func barrier(ctx *via.Ctx, ready func() bool) {
	for !ready() {
		ctx.Sleep(10 * sim.Microsecond)
	}
}

// succeeded is the completion check for streams that must not lose a
// message: it fails a descriptor that completed unsuccessfully.
func succeeded(d *via.Descriptor) error { return via.CheckOK(d, nil) }

// retireSends dequeues each send on vi that has already completed and
// passes it to done, stopping at the first error done returns. It returns
// how many completions done accepted.
func retireSends(ctx *via.Ctx, vi *via.Vi, done func(*via.Descriptor) error) (int, error) {
	for n := 0; ; n++ {
		d, ok := vi.SendDone(ctx)
		if !ok {
			return n, nil
		}
		if err := done(d); err != nil {
			return n, err
		}
	}
}

// waitEach calls wait, a VI's SendWait or RecvWait, for up to n
// completions, each wait bounded by timeout, and passes each to done. It
// stops at the first wait that times out or finds the queue flushed empty,
// returning its error, and at the first error done returns. Bounded drains
// pass drainBound and ignore the wait's error: descriptors stuck past it
// stay unaccounted.
func waitEach(ctx *via.Ctx, wait func(*via.Ctx, sim.Duration) (*via.Descriptor, error),
	n int, timeout sim.Duration, done func(*via.Descriptor) error) error {
	for ; n > 0; n-- {
		d, err := wait(ctx, timeout)
		if err != nil {
			return err
		}
		if err := done(d); err != nil {
			return err
		}
	}
	return nil
}

// rdmaWrite builds the descriptor of an RDMA write of size bytes from src
// to the remote window.
func rdmaWrite(src via.Reg, size int, remote *via.AddressSegment) *via.Descriptor {
	return &via.Descriptor{
		Op:     via.OpRdmaWrite,
		Segs:   []via.DataSegment{{Addr: src.Buf.Addr(), Handle: src.H, Length: size}},
		Remote: remote,
	}
}

// writeBurst posts n RDMA writes of size bytes from src to remote on vi,
// then reaps their n completions, each within timeout, so the fabric (not
// the application) sets the pace. Any refused post, timed-out reap or
// unsuccessful write fails the burst.
func writeBurst(ctx *via.Ctx, vi *via.Vi, src via.Reg, remote via.AddressSegment, n, size int, timeout sim.Duration) error {
	for i := 0; i < n; i++ {
		if err := vi.PostSend(ctx, rdmaWrite(src, size, &remote)); err != nil {
			return fmt.Errorf("post %d: %w", i, err)
		}
	}
	if err := waitEach(ctx, vi.SendWait, n, timeout, succeeded); err != nil {
		return fmt.Errorf("reap: %w", err)
	}
	return nil
}

// incastSetup spawns the N-to-1 reliable RDMA-write connection setup on
// sys. For each sender s in 1..senders, a sink process on host 0 registers
// a size-byte window and accepts s's connection; a source process on host
// s connects, waits until every sink has registered its window, registers
// its own size-byte buffer and calls stream with its connected VI, that
// buffer, its window at the sink and the connection's discriminator,
// tag-s. A non-nil onError is installed on every NIC.
func incastSetup(sys *via.System, cfg Config, fail func(error), tag string, senders, size int,
	onError func(*via.Ctx, via.ErrorEvent),
	stream func(ctx *via.Ctx, vi *via.Vi, src via.Reg, remote via.AddressSegment, disc string)) {
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery, EnableRdmaWrite: true}
	targets := make([]via.AddressSegment, senders+1)
	registered := 0
	for s := 1; s <= senders; s++ {
		disc := fmt.Sprintf("%s-%d", tag, s)
		sys.Go(0, "sink-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			nic.SetErrorCallback(onError)
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
			targets[s] = via.AddressSegment{Addr: sink.Buf.Addr(), Handle: sink.H}
			registered++
			if err := via.Pair(ctx, vi, fabric.NodeID(s), disc, false, cfg.Timeout); err != nil {
				fail(err)
			}
		})
		sys.Go(s, "src-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			nic.SetErrorCallback(onError)
			vi, err := nic.CreateVi(ctx, attrs, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			if err := via.Pair(ctx, vi, 0, disc, true, cfg.Timeout); err != nil {
				fail(err)
				return
			}
			barrier(ctx, func() bool { return registered >= senders }) // address exchange
			src, err := nic.AllocReg(ctx, size)
			if err != nil {
				fail(err)
				return
			}
			stream(ctx, vi, src, targets[s], disc)
		})
	}
}

// SendTally counts a stream's sends by outcome and the asynchronous error
// callbacks its NICs fired.
type SendTally struct {
	SendOK       uint64 // sends completed StatusSuccess
	SendFailed   uint64 // sends completed Flushed or TransportError
	PostRejected uint64 // posts refused (connection no longer usable)
	Callbacks    uint64 // asynchronous error callbacks fired, all NICs
	ConnBroken   bool   // any error callback fired
}

// onError is the NIC error handler that feeds the tally.
func (t *SendTally) onError(*via.Ctx, via.ErrorEvent) {
	t.Callbacks++
	t.ConnBroken = true
}

// count tallies one completed send by its terminal status. It never fails;
// it returns an error to fit retireSends and waitEach.
func (t *SendTally) count(d *via.Descriptor) error {
	if d.Status == via.StatusSuccess {
		t.SendOK++
	} else {
		t.SendFailed++
	}
	return nil
}
