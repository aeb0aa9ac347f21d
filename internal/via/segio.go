package via

import (
	"fmt"

	"vibe/internal/nicsim"
	"vibe/internal/vmem"
)

// segRun is one resolved data segment: n bytes at offset off of buf, so the
// NIC engine can DMA without re-resolving. Resolving does not materialize
// the buffer's storage.
type segRun struct {
	buf *vmem.Buffer
	off int
	n   int
}

// locateRun resolves the virtual range [addr, addr+n) to a run, with
// vmem's errors.
func locateRun(as *vmem.AddressSpace, addr vmem.Addr, n int) (segRun, error) {
	buf, off, err := as.Locate(addr, n)
	return segRun{buf: buf, off: off, n: n}, err
}

// resolveSegs maps a descriptor's data segments to runs. It fails if any
// segment is unmapped, which the simulated NIC treats as a fault.
func resolveSegs(as *vmem.AddressSpace, segs []DataSegment) ([]segRun, error) {
	runs := make([]segRun, 0, len(segs))
	for i, s := range segs {
		r, err := locateRun(as, s.Addr, s.Length)
		if err != nil {
			return nil, fmt.Errorf("via: segment %d: %w", i, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// totalLen sums the resolved run lengths.
func totalLen(runs []segRun) int {
	n := 0
	for _, r := range runs {
		n += r.n
	}
	return n
}

// gather reads n bytes starting at logical offset off (across the
// concatenated runs), modelling the NIC's gathering DMA read. A range that
// lies wholly in untouched buffers is all zeros and comes back as a nil
// payload: the wire carries its length, not its bytes. Otherwise the
// payload is a pool buffer (dirty, so untouched pieces are cleared).
func gather(runs []segRun, off, n int, pool *nicsim.BufPool) []byte {
	touched := false
	eachPiece(runs, off, n, func(b *vmem.Buffer, _, _, _ int) {
		touched = touched || b.HasStorage()
	})
	if !touched {
		return nil
	}
	dst := pool.Get(n)
	eachPiece(runs, off, n, func(b *vmem.Buffer, bufOff, take, rangeOff int) {
		if b.HasStorage() {
			copy(dst[rangeOff:rangeOff+take], b.Bytes()[bufOff:])
		} else {
			clear(dst[rangeOff : rangeOff+take])
		}
	})
	return dst
}

// scatter writes the n-byte payload src into the concatenated runs starting
// at logical offset off, modelling the NIC's scattering DMA write. A nil
// src is n zero bytes: it clears the landed range of a buffer that has
// storage and leaves an untouched one untouched.
func scatter(runs []segRun, off, n int, src []byte) {
	eachPiece(runs, off, n, func(b *vmem.Buffer, bufOff, take, rangeOff int) {
		switch {
		case src != nil:
			copy(b.Bytes()[bufOff:bufOff+take], src[rangeOff:])
		case b.HasStorage():
			clear(b.Bytes()[bufOff : bufOff+take])
		}
	})
}

// eachPiece walks the byte range [off, off+n) of the concatenated runs and
// calls fn for each contiguous piece: the buffer it lies in, its offset
// there, its length, and its offset from the start of the range.
func eachPiece(runs []segRun, off, n int, fn func(b *vmem.Buffer, bufOff, take, rangeOff int)) {
	rangeOff := 0
	for _, r := range runs {
		if n <= 0 {
			return
		}
		if off >= r.n {
			off -= r.n
			continue
		}
		take := min(r.n-off, n)
		fn(r.buf, r.off+off, take, rangeOff)
		rangeOff += take
		n -= take
		off = 0
	}
	if n > 0 {
		panic(fmt.Sprintf("via: range overruns segments by %d bytes", n))
	}
}

// pagesIn appends to pages[:0] the distinct virtual page numbers touched by
// the byte range [off, off+n) of the concatenated runs, in access order.
// This is what the NIC must translate to move that range.
func pagesIn(runs []segRun, off, n int, pages []uint64) []uint64 {
	pages = pages[:0]
	eachPiece(runs, off, n, func(b *vmem.Buffer, bufOff, take, _ int) {
		first := b.AddrAt(bufOff).Page()
		last := b.AddrAt(bufOff + take - 1).Page()
		for p := first; p <= last; p++ {
			if len(pages) == 0 || pages[len(pages)-1] != p {
				pages = append(pages, p)
			}
		}
	})
	return pages
}
