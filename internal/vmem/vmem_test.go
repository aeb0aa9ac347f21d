package vmem

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndSeparation(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(100)
	b := as.Alloc(PageSize + 1)
	c := as.Alloc(1)
	for _, buf := range []*Buffer{a, b, c} {
		if uint64(buf.Addr())%PageSize != 0 {
			t.Errorf("buffer at %v not page-aligned", buf.Addr())
		}
	}
	if a.Addr() == 0 {
		t.Error("address zero handed out")
	}
	// Guard page: next allocation starts at least one full page past the
	// previous buffer's end.
	endA := uint64(a.Addr()) + uint64(a.Len())
	if uint64(b.Addr()) < endA+1 {
		t.Errorf("allocations too close: a ends %#x, b starts %v", endA, b.Addr())
	}
}

func TestResolve(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(8192)
	b.Bytes()[100] = 42

	got, err := as.Resolve(b.AddrAt(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("resolved wrong storage: %v", got[0])
	}
	// Writing through the resolved slice mutates the buffer (DMA
	// semantics).
	got[1] = 7
	if b.Bytes()[101] != 7 {
		t.Error("resolved slice does not alias buffer storage")
	}

	if _, err := as.Resolve(Addr(8), 1); !errors.Is(err, ErrBadAddress) {
		t.Errorf("unmapped resolve: err = %v", err)
	}
	if _, err := as.Resolve(b.AddrAt(8190), 4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overrun resolve: err = %v", err)
	}
	// A negative length is out of range, not a slice-bounds panic.
	if _, err := as.Resolve(b.AddrAt(100), -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative-length resolve: err = %v", err)
	}
}

func TestOwner(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(100)
	b := as.Alloc(64)
	c := as.Alloc(PageSize)
	cases := []struct {
		name string
		addr Addr
		want *Buffer
	}{
		{"null page", 0, nil},
		{"first byte of first buffer", a.Addr(), a},
		{"last byte of first buffer", a.AddrAt(99), a},
		{"one past first buffer", a.AddrAt(100), nil},
		{"first byte", b.Addr(), b},
		{"last byte", b.AddrAt(63), b},
		{"one past the end", b.AddrAt(64), nil},
		{"inside guard page", b.Addr().Advance(PageSize + 1), nil},
		{"last byte of guard page", c.Addr() - 1, nil},
		{"first byte of last buffer", c.Addr(), c},
		{"last byte of last buffer", c.AddrAt(PageSize - 1), c},
		{"past last buffer", c.AddrAt(PageSize), nil},
	}
	for _, tc := range cases {
		if got := as.find(tc.addr); got != tc.want {
			t.Errorf("%s: find(%v) = %p, want %p", tc.name, tc.addr, got, tc.want)
		}
	}
}

func TestFillAndPattern(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(300)
	b.FillPattern(3)
	if err := b.CheckPattern(3, 300); err != nil {
		t.Fatalf("pattern roundtrip: %v", err)
	}
	if err := b.CheckPattern(4, 300); err == nil {
		t.Fatal("wrong seed passed CheckPattern")
	}
	b.Bytes()[200] ^= 0xFF
	if err := b.CheckPattern(3, 300); err == nil {
		t.Fatal("corruption passed CheckPattern")
	}
	if err := b.CheckPattern(3, 301); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong check: err = %v", err)
	}
}

func TestNumPages(t *testing.T) {
	cases := []struct {
		addr Addr
		n    int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{Addr(PageSize - 1), 2, 2},
		{Addr(PageSize), PageSize, 1},
		{Addr(100), 3 * PageSize, 4},
	}
	for _, c := range cases {
		if got := NumPages(c.addr, c.n); got != c.want {
			t.Errorf("NumPages(%v,%d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestPageArithmetic(t *testing.T) {
	a := Addr(2*PageSize + 17)
	if a.Page() != 2 {
		t.Errorf("Page = %d", a.Page())
	}
	if a.String() != "0x2011" {
		t.Errorf("String = %s", a.String())
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	NewAddressSpace().Alloc(0)
}

// Property: for any set of allocation sizes, every byte of every buffer
// resolves back to exactly its own storage, and no two buffers overlap.
func TestAllocationsNeverOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := NewAddressSpace()
		var bufs []*Buffer
		for _, s := range sizes {
			n := int(s%20000) + 1
			bufs = append(bufs, as.Alloc(n))
		}
		for i, b := range bufs {
			// Check first, last, and a middle byte.
			for _, off := range []int{0, b.Len() / 2, b.Len() - 1} {
				if as.find(b.AddrAt(off)) != b {
					t.Logf("buffer %d byte %d resolved to wrong owner", i, off)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NumPages equals the count of distinct page numbers touched.
func TestNumPagesMatchesEnumeration(t *testing.T) {
	f := func(addr uint32, n uint16) bool {
		a := Addr(addr)
		length := int(n)
		want := 0
		if length > 0 {
			first := a.Page()
			last := Addr(uint64(a) + uint64(length) - 1).Page()
			want = int(last - first + 1)
		}
		return NumPages(a, length) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocIsLazy(t *testing.T) {
	as := NewAddressSpace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := as.Alloc(32 << 20)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1024 {
		t.Errorf("Alloc(32 MiB) allocated %d heap bytes, want < 1 KiB", d)
	}
	if n := testing.AllocsPerRun(10, func() { as.Alloc(32 << 20) }); n > 2 {
		t.Errorf("Alloc(32 MiB) made %.0f allocations, want at most 2", n)
	}

	// Metadata and bounds checks never materialize storage.
	if b.Len() != 32<<20 || b.Addr() == 0 || b.AddrAt(10) != b.Addr().Advance(10) {
		t.Errorf("Len/Addr/AddrAt wrong: %d %v %v", b.Len(), b.Addr(), b.AddrAt(10))
	}
	if err := as.Check(b.AddrAt(1<<20), 1<<20); err != nil {
		t.Errorf("Check: %v", err)
	}
	if as.find(b.AddrAt(b.Len()-1)) != b {
		t.Error("find missed last byte of untouched buffer")
	}
	if got, off, err := as.Locate(b.AddrAt(1<<20), 1<<20); got != b || off != 1<<20 || err != nil {
		t.Errorf("Locate = %p, %d, %v; want %p, %d, nil", got, off, err, b, 1<<20)
	}
	if b.HasStorage() {
		t.Fatal("metadata accessors materialized the buffer")
	}

	// First touch reads as zeros and is stable across calls.
	small := as.Alloc(300)
	data := small.Bytes()
	for i, v := range data {
		if v != 0 {
			t.Fatalf("untouched byte %d = %#x, want 0", i, v)
		}
	}
	if len(data) != 300 || &small.Bytes()[0] != &data[0] {
		t.Error("Bytes not stable across calls")
	}
	data[7] = 9
	got, err := as.Resolve(small.AddrAt(7), 1)
	if err != nil || got[0] != 9 {
		t.Errorf("write through Bytes not seen by Resolve: %v %v", got, err)
	}

	// Resolve on an untouched buffer materializes zeroed storage.
	fresh := as.Alloc(64)
	got, err = as.Resolve(fresh.AddrAt(8), 8)
	if err != nil || len(got) != 8 || got[0] != 0 {
		t.Errorf("Resolve of untouched buffer: %v %v", got, err)
	}
	if !fresh.HasStorage() {
		t.Error("Resolve did not materialize the buffer")
	}
}

func TestCheckMatchesResolve(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(8192)
	cases := []struct {
		addr Addr
		n    int
	}{
		{b.Addr(), 8192},
		{b.AddrAt(100), 4},
		{b.AddrAt(8190), 4},
		{b.AddrAt(100), -1},
		{b.AddrAt(8192), 1},
		{Addr(8), 1},
		{0, 0},
	}
	for _, c := range cases {
		checkErr := as.Check(c.addr, c.n)
		_, _, locateErr := as.Locate(c.addr, c.n)
		_, resolveErr := as.Resolve(c.addr, c.n)
		for _, err := range []error{checkErr, locateErr} {
			if (err == nil) != (resolveErr == nil) ||
				err != nil && err.Error() != resolveErr.Error() {
				t.Errorf("[%v,+%d): Check = %v, Locate = %v, Resolve = %v", c.addr, c.n, checkErr, locateErr, resolveErr)
			}
		}
	}
}

func benchmarkAlloc(b *testing.B, n int) {
	as := NewAddressSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			as = NewAddressSpace() // bound the buffer list
		}
		as.Alloc(n)
	}
}

// BenchmarkAlloc times the allocation sizes hostbench reports as
// vmem.alloc_ns.28k and vmem.alloc_ns.32m.
func BenchmarkAlloc(b *testing.B) {
	b.Run("28KiB", func(b *testing.B) { benchmarkAlloc(b, 28<<10) })
	b.Run("32MiB", func(b *testing.B) { benchmarkAlloc(b, 32<<20) })
}

// liveSpace returns an address space holding 1000 live buffers, as
// hostbench's vmem.resolve_ns does, and the address of a byte in the
// middle one.
func liveSpace() (*AddressSpace, Addr) {
	as := NewAddressSpace()
	var mid Addr
	for i := 0; i < 1000; i++ {
		buf := as.Alloc(4096)
		if i == 500 {
			buf.Bytes() // time Resolve on materialized storage
			mid = buf.AddrAt(100)
		}
	}
	return as, mid
}

func BenchmarkResolve(b *testing.B) {
	as, addr := liveSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Resolve(addr, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheck(b *testing.B) {
	as, addr := liveSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Check(addr, 64); err != nil {
			b.Fatal(err)
		}
	}
}
