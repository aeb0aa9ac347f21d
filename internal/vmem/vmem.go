// Package vmem models per-process paged virtual memory for the simulated
// cluster. Buffers carry both a virtual address (what VIA descriptors and
// the NIC translation machinery operate on) and a real byte slice (so data
// integrity can be checked end to end).
//
// Like demand-zero pages in a real kernel, a buffer's storage is
// materialized on first touch: Alloc records only the address and length,
// and the first accessor that needs the bytes allocates them zeroed. So
// untouched memory reads as zeros, and a benchmark that only registers
// large buffers never pays to clear them.
package vmem

import (
	"errors"
	"fmt"
	"sort"
)

// PageSize is the simulated page size, matching the i386 Linux hosts of the
// paper's testbed.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

var (
	// ErrBadAddress reports an access outside any allocated buffer.
	ErrBadAddress = errors.New("vmem: address not mapped")
	// ErrOutOfRange reports an access that starts inside but runs past a
	// buffer.
	ErrOutOfRange = errors.New("vmem: access out of range")
)

// Addr is a simulated virtual address.
type Addr uint64

// Page returns the virtual page number containing a.
func (a Addr) Page() uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func (a Addr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// NumPages reports how many pages the byte range [addr, addr+length) spans.
func NumPages(addr Addr, length int) int {
	if length <= 0 {
		return 0
	}
	first := addr.Page()
	last := (Addr(uint64(addr) + uint64(length) - 1)).Page()
	return int(last - first + 1)
}

// Buffer is a contiguous allocation in a simulated address space. Its
// storage is allocated, zeroed, on first touch by Bytes, Slice, Fill,
// FillPattern, CheckPattern or AddressSpace.Resolve; until then the buffer
// costs one small struct and reads as zeros. Simulated DMA keeps untouched
// memory untouched: the NIC looks buffers up with AddressSpace.Locate and
// moves a zero range between untouched buffers as a length, so a buffer
// the host never touches keeps no storage however much traffic it carries.
type Buffer struct {
	addr Addr
	n    int
	data []byte // nil until first touch, then len(data) == n
	as   *AddressSpace
}

// Addr returns the buffer's starting virtual address.
func (b *Buffer) Addr() Addr { return b.addr }

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int { return b.n }

// HasStorage reports whether the buffer's storage has been materialized.
// An untouched buffer reads as zeros.
func (b *Buffer) HasStorage() bool { return b.data != nil }

// Bytes returns the backing storage, materializing it on first use.
// Mutations are visible to simulated DMA, exactly as host memory would be.
func (b *Buffer) Bytes() []byte {
	if b.data == nil {
		b.data = make([]byte, b.n)
	}
	return b.data
}

// Slice returns the sub-range [off, off+n) of the buffer's storage.
func (b *Buffer) Slice(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > b.n {
		return nil, fmt.Errorf("%w: slice [%d,%d) of %d-byte buffer", ErrOutOfRange, off, off+n, b.n)
	}
	return b.Bytes()[off : off+n], nil
}

// AddrAt returns the virtual address of byte off within the buffer.
func (b *Buffer) AddrAt(off int) Addr { return Addr(uint64(b.addr) + uint64(off)) }

// Fill sets every byte of the buffer to v.
func (b *Buffer) Fill(v byte) {
	data := b.Bytes()
	for i := range data {
		data[i] = v
	}
}

// FillPattern writes a position-dependent pattern seeded by seed, for
// end-to-end integrity checks.
func (b *Buffer) FillPattern(seed byte) {
	data := b.Bytes()
	for i := range data {
		data[i] = seed + byte(i*31)
	}
}

// CheckPattern verifies FillPattern(seed) over the first n bytes.
func (b *Buffer) CheckPattern(seed byte, n int) error {
	if n > b.n {
		return ErrOutOfRange
	}
	data := b.Bytes()
	for i := 0; i < n; i++ {
		if data[i] != seed+byte(i*31) {
			return fmt.Errorf("vmem: pattern mismatch at offset %d: got %#x want %#x", i, data[i], seed+byte(i*31))
		}
	}
	return nil
}

// AddressSpace is the virtual memory of one simulated process. Allocations
// are page-aligned and never overlap; address zero is never handed out so
// it can serve as a null value.
type AddressSpace struct {
	next    Addr
	buffers []*Buffer // sorted by addr
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: PageSize} // skip page 0
}

// Alloc allocates a page-aligned buffer of n bytes. Its storage is not
// allocated until first touch.
func (as *AddressSpace) Alloc(n int) *Buffer {
	if n <= 0 {
		panic(fmt.Sprintf("vmem: Alloc(%d)", n))
	}
	b := &Buffer{addr: as.next, n: n, as: as}
	as.buffers = append(as.buffers, b)
	pages := (n + PageSize - 1) / PageSize
	// Leave a guard page between allocations so off-by-one accesses fault
	// instead of silently landing in a neighbor.
	as.next = as.next.Advance((pages + 1) * PageSize)
	return b
}

// Advance returns a shifted by n bytes.
func (a Addr) Advance(n int) Addr { return Addr(uint64(a) + uint64(n)) }

// Check reports whether the virtual range [addr, addr+n) lies inside one
// allocation, with the same errors Resolve returns, without materializing
// the buffer's storage.
func (as *AddressSpace) Check(addr Addr, n int) error {
	_, _, err := as.Locate(addr, n)
	return err
}

// Resolve maps the virtual range [addr, addr+n) to backing storage. It
// fails if the range is unmapped or spans an allocation boundary, the
// simulated equivalent of a fault during DMA.
func (as *AddressSpace) Resolve(addr Addr, n int) ([]byte, error) {
	b, off, err := as.Locate(addr, n)
	if err != nil {
		return nil, err
	}
	return b.Bytes()[off : off+n], nil
}

// Locate finds the buffer holding [addr, addr+n) and addr's offset in it,
// with the same errors Resolve returns, without materializing the
// buffer's storage.
func (as *AddressSpace) Locate(addr Addr, n int) (*Buffer, int, error) {
	b := as.find(addr)
	if b == nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadAddress, addr)
	}
	off := int(uint64(addr) - uint64(b.addr))
	if n < 0 || off+n > b.n {
		return nil, 0, fmt.Errorf("%w: [%v,+%d) beyond buffer of %d bytes", ErrOutOfRange, addr, n, b.n)
	}
	return b, off, nil
}

// Owner returns the buffer containing addr, or nil.
func (as *AddressSpace) Owner(addr Addr) *Buffer { return as.find(addr) }

// find binary-searches the address-sorted buffer list: Alloc appends at a
// rising address and nothing is ever freed.
func (as *AddressSpace) find(addr Addr) *Buffer {
	i := sort.Search(len(as.buffers), func(i int) bool {
		b := as.buffers[i]
		return uint64(addr) < uint64(b.addr)+uint64(b.n)
	})
	if i < len(as.buffers) && addr >= as.buffers[i].addr {
		return as.buffers[i]
	}
	return nil
}

// Buffers returns every live allocation, in address order.
func (as *AddressSpace) Buffers() []*Buffer { return as.buffers }
