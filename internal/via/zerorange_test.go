package via

import (
	"bytes"
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// The NIC moves a range of never-written memory as a length: the packet
// carries no payload, an untouched destination stays untouched, and a
// materialized one has exactly the landed range cleared.

var zeroOps = []Op{OpSend, OpRdmaWrite, OpRdmaRead}

// moveRange moves n bytes by op between two cLAN hosts: from a fresh n-byte
// source buffer into a fresh dstLen-byte destination buffer at offset
// dstOff. fillSrc and fillDst, when non-nil, prepare each buffer on its own
// host before the transfer. Sends and RDMA writes flow from host 0 to host
// 1; an RDMA read (reliable, as VIA requires) pulls host 1's source into
// host 0's destination. moveRange returns once the data has landed.
func moveRange(t *testing.T, op Op, n, dstOff, dstLen int, fillSrc, fillDst func(*vmem.Buffer)) (src, dst *vmem.Buffer) {
	t.Helper()
	attrs := ViAttributes{EnableRdmaWrite: true, EnableRdmaRead: true}
	if op == OpRdmaRead {
		attrs.Reliability = ReliableDelivery
	}
	var (
		remote      MemHandle
		ready, done bool
	)
	alloc := func(ctx *Ctx, nic *Nic, size int, fill func(*vmem.Buffer)) (*vmem.Buffer, MemHandle) {
		b := ctx.Malloc(size)
		h, err := nic.RegisterMem(ctx, b)
		if err != nil {
			t.Error(err)
		}
		if fill != nil {
			fill(b)
		}
		return b, h
	}
	wait := func(ctx *Ctx, flag *bool) {
		for !*flag {
			ctx.Sleep(10 * sim.Microsecond)
		}
	}
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			d := &Descriptor{Op: op}
			if op == OpRdmaRead {
				var h MemHandle
				dst, h = alloc(ctx, nic, dstLen, fillDst)
				wait(ctx, &ready)
				d.Segs = []DataSegment{{Addr: dst.AddrAt(dstOff), Handle: h, Length: n}}
				d.Remote = &AddressSegment{Addr: src.Addr(), Handle: remote}
			} else {
				var h MemHandle
				src, h = alloc(ctx, nic, n, fillSrc)
				wait(ctx, &ready)
				d.Segs = []DataSegment{{Addr: src.Addr(), Handle: h, Length: n}}
				if op == OpRdmaWrite {
					d.Remote = &AddressSegment{Addr: dst.AddrAt(dstOff), Handle: remote}
				}
			}
			if err := vi.PostSend(ctx, d); err != nil {
				t.Errorf("PostSend: %v", err)
				return
			}
			got, err := vi.SendWaitPoll(ctx)
			if err != nil || got.Status != StatusSuccess {
				t.Errorf("%v completion: %v %v", op, err, got)
			}
			ctx.Sleep(5 * sim.Millisecond) // let an RDMA write land
			done = true
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			switch op {
			case OpRdmaRead:
				src, remote = alloc(ctx, nic, n, fillSrc)
			case OpRdmaWrite:
				dst, remote = alloc(ctx, nic, dstLen, fillDst)
			default:
				var h MemHandle
				dst, h = alloc(ctx, nic, dstLen, fillDst)
				d := &Descriptor{Segs: []DataSegment{{Addr: dst.AddrAt(dstOff), Handle: h, Length: n}}}
				if err := vi.PostRecv(ctx, d); err != nil {
					t.Errorf("PostRecv: %v", err)
					return
				}
			}
			ready = true
			if op == OpSend {
				if got, err := vi.RecvWaitPoll(ctx); err != nil || got.Status != StatusSuccess || got.Length != n {
					t.Errorf("recv completion: %v %v", err, got)
				}
			}
			wait(ctx, &done)
		})
	env.run()
	return src, dst
}

// checkBytes reports the first byte of b[lo:hi) that is not want.
func checkBytes(b *vmem.Buffer, lo, hi int, want byte) error {
	for i, v := range b.Bytes()[lo:hi] {
		if v != want {
			return fmt.Errorf("byte %d = %#x, want %#x", lo+i, v, want)
		}
	}
	return nil
}

// A multi-fragment transfer between untouched buffers materializes neither
// side, on every data path.
func TestZeroRangeLeavesUntouchedBuffers(t *testing.T) {
	n := 3*provider.CLAN().WireMTU + 100
	for _, op := range zeroOps {
		t.Run(op.String(), func(t *testing.T) {
			src, dst := moveRange(t, op, n, 0, n, nil, nil)
			if src.HasStorage() || dst.HasStorage() {
				t.Fatalf("storage materialized: src %v, dst %v", src.HasStorage(), dst.HasStorage())
			}
			if err := checkBytes(dst, 0, n, 0); err != nil {
				t.Error(err)
			}
		})
	}
}

// A zero range landing in a destination that holds stale bytes clears
// exactly the landed range, on every inbound path: send/receive, RDMA-write
// landing and read-response landing.
func TestZeroRangeClearsLandedRangeOnly(t *testing.T) {
	const pad, stale = 300, 0xAA
	n := 2*provider.CLAN().WireMTU + 100
	for _, op := range zeroOps {
		t.Run(op.String(), func(t *testing.T) {
			src, dst := moveRange(t, op, n, pad, n+2*pad, nil, func(b *vmem.Buffer) { copy(b.Bytes(), bytes.Repeat([]byte{stale}, b.Len())) })
			if src.HasStorage() {
				t.Error("source materialized")
			}
			for _, r := range []struct {
				lo, hi int
				want   byte
			}{{0, pad, stale}, {pad, pad + n, 0}, {pad + n, n + 2*pad, stale}} {
				if err := checkBytes(dst, r.lo, r.hi, r.want); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// A fragment gathered partly from a patterned buffer and partly from an
// untouched one carries the pattern followed by zeros, even when its pool
// payload buffer still holds an earlier message's bytes.
func TestZeroRangeMixedGather(t *testing.T) {
	mtu := provider.CLAN().WireMTU
	a, b := mtu/2+100, mtu+500 // the first fragment straddles both segments
	var got1 bool
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			// Message 1 is all pattern; its unreliable packets return
			// their payloads to the pool, dirty, for message 2 to reuse.
			for msg, touchB := range []bool{true, false} {
				var segs []DataSegment
				for i, n := range []int{a, b} {
					buf := ctx.Malloc(n)
					h, _ := nic.RegisterMem(ctx, buf)
					if i == 0 || touchB {
						buf.FillPattern(byte(10*msg + i + 1))
					}
					segs = append(segs, DataSegment{Addr: buf.Addr(), Handle: h, Length: n})
				}
				if err := vi.PostSend(ctx, &Descriptor{Op: OpSend, Segs: segs}); err != nil {
					t.Errorf("PostSend: %v", err)
					return
				}
				if d, err := vi.SendWaitPoll(ctx); err != nil || d.Status != StatusSuccess {
					t.Errorf("send %d: %v %v", msg, err, d)
				}
				for !got1 {
					ctx.Sleep(10 * sim.Microsecond)
				}
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			var bufs [2]*vmem.Buffer
			for i := range bufs {
				bufs[i] = ctx.Malloc(a + b)
				h, _ := nic.RegisterMem(ctx, bufs[i])
				vi.PostRecv(ctx, SimpleRecv(bufs[i], h, a+b))
			}
			for msg := range bufs {
				if d, err := vi.RecvWaitPoll(ctx); err != nil || d.Length != a+b {
					t.Errorf("recv %d: %v %v", msg, err, d)
					return
				}
				got1 = true
			}
			if err := bufs[1].CheckPattern(11, a); err != nil {
				t.Error(err)
			}
			if err := checkBytes(bufs[1], a, a+b, 0); err != nil {
				t.Error(err)
			}
		})
	env.run()
}
