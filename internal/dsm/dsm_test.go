package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/via"
)

// runWorld builds an n-node DSM world and runs fn on every node.
func runWorld(t *testing.T, m *provider.Model, n int, fn func(ctx *via.Ctx, d *Node) error) {
	t.Helper()
	sys := via.NewSystem(m, n, 1)
	w := New(sys, DefaultConfig())
	w.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, d *Node) {
		if err := fn(ctx, d); err != nil {
			t.Errorf("node %d: %v", d.Me(), err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedCounterUnderLock(t *testing.T) {
	// The canonical DSM litmus test: every node increments a shared
	// counter k times under a lock; the total must be exact.
	for _, m := range []*provider.Model{provider.CLAN(), provider.BVIA()} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			const nodes, incs = 3, 10
			runWorld(t, m, nodes, func(ctx *via.Ctx, d *Node) error {
				if err := d.Alloc(ctx, "counter", 1); err != nil {
					return err
				}
				if err := d.Barrier(ctx); err != nil {
					return err
				}
				buf := make([]byte, 8)
				for i := 0; i < incs; i++ {
					if err := d.Acquire(ctx, 1); err != nil {
						return err
					}
					if err := d.Read(ctx, "counter", 0, buf); err != nil {
						return err
					}
					v := binary.LittleEndian.Uint64(buf)
					binary.LittleEndian.PutUint64(buf, v+1)
					if err := d.Write(ctx, "counter", 0, buf); err != nil {
						return err
					}
					if err := d.Release(ctx, 1); err != nil {
						return err
					}
				}
				if err := d.Barrier(ctx); err != nil {
					return err
				}
				if err := d.Read(ctx, "counter", 0, buf); err != nil {
					return err
				}
				if got := binary.LittleEndian.Uint64(buf); got != nodes*incs {
					return fmt.Errorf("counter = %d, want %d", got, nodes*incs)
				}
				return nil
			})
		})
	}
}

func TestBarrierPublishesWrites(t *testing.T) {
	// Node 0 writes a multi-page pattern; after a barrier every node
	// reads it back.
	const pages = 3
	size := pages * PageSize
	runWorld(t, provider.CLAN(), 3, func(ctx *via.Ctx, d *Node) error {
		if err := d.Alloc(ctx, "data", pages); err != nil {
			return err
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i * 7)
		}
		if d.Me() == 0 {
			if err := d.Write(ctx, "data", 0, want); err != nil {
				return err
			}
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		got := make([]byte, size)
		if err := d.Read(ctx, "data", 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("node %d read stale/corrupt data", d.Me())
		}
		return nil
	})
}

func TestCrossPageUnalignedAccess(t *testing.T) {
	// A write straddling a page boundary at an odd offset must read back
	// exactly, from another node, after synchronization.
	runWorld(t, provider.CLAN(), 2, func(ctx *via.Ctx, d *Node) error {
		if err := d.Alloc(ctx, "x", 2); err != nil {
			return err
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		const off = PageSize - 100
		payload := []byte("this 200-ish byte payload straddles the boundary between page zero and page one of the region")
		if d.Me() == 1 {
			if err := d.Write(ctx, "x", off, payload); err != nil {
				return err
			}
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if err := d.Read(ctx, "x", off, got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("node %d: straddling write corrupted", d.Me())
		}
		return nil
	})
}

func TestLockMutualExclusionOrdering(t *testing.T) {
	// Nodes append their id to a shared log under a lock; the log must
	// contain exactly n entries with no overwrites (lost updates would
	// leave zeros or duplicates).
	const nodes = 4
	runWorld(t, provider.CLAN(), nodes, func(ctx *via.Ctx, d *Node) error {
		if err := d.Alloc(ctx, "log", 1); err != nil {
			return err
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		if err := d.Acquire(ctx, 7); err != nil {
			return err
		}
		head := make([]byte, 1)
		if err := d.Read(ctx, "log", 0, head); err != nil {
			return err
		}
		idx := int(head[0])
		entry := []byte{byte(0x10 + d.Me())}
		if err := d.Write(ctx, "log", 1+idx, entry); err != nil {
			return err
		}
		head[0] = byte(idx + 1)
		if err := d.Write(ctx, "log", 0, head); err != nil {
			return err
		}
		if err := d.Release(ctx, 7); err != nil {
			return err
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		buf := make([]byte, 1+nodes)
		if err := d.Read(ctx, "log", 0, buf); err != nil {
			return err
		}
		if int(buf[0]) != nodes {
			return fmt.Errorf("log head %d, want %d", buf[0], nodes)
		}
		seen := map[byte]bool{}
		for _, b := range buf[1:] {
			if b < 0x10 || b >= 0x10+nodes || seen[b] {
				return fmt.Errorf("log corrupt: % x", buf)
			}
			seen[b] = true
		}
		return nil
	})
}

func TestMultipleRegionsDifferentHomes(t *testing.T) {
	// Several regions hash to different homes; traffic to each must stay
	// independent.
	names := []string{"alpha", "beta", "gamma", "delta"}
	const nodes = 3
	homes := map[string]int{}
	for _, n := range names {
		homes[n] = homeOf(n, nodes)
	}
	distinct := map[int]bool{}
	for _, h := range homes {
		distinct[h] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("test names all hash to one home: %v", homes)
	}
	runWorld(t, provider.CLAN(), nodes, func(ctx *via.Ctx, d *Node) error {
		for _, name := range names {
			if err := d.Alloc(ctx, name, 1); err != nil {
				return err
			}
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		// Each node writes its id into a distinct slot of every region.
		me := []byte{byte(0xA0 + d.Me())}
		for _, name := range names {
			if err := d.Acquire(ctx, 100); err != nil {
				return err
			}
			if err := d.Write(ctx, name, d.Me(), me); err != nil {
				return err
			}
			if err := d.Release(ctx, 100); err != nil {
				return err
			}
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		for _, name := range names {
			buf := make([]byte, nodes)
			if err := d.Read(ctx, name, 0, buf); err != nil {
				return err
			}
			for r := 0; r < nodes; r++ {
				if buf[r] != byte(0xA0+r) {
					return fmt.Errorf("region %s slot %d = %x", name, r, buf[r])
				}
			}
		}
		return nil
	})
}

func TestErrors(t *testing.T) {
	runWorld(t, provider.CLAN(), 2, func(ctx *via.Ctx, d *Node) error {
		if err := d.Alloc(ctx, "r", 1); err != nil {
			return err
		}
		if err := d.Alloc(ctx, "r", 1); err == nil {
			return fmt.Errorf("duplicate alloc accepted")
		}
		if err := d.Alloc(ctx, "zero", 0); err == nil {
			return fmt.Errorf("zero-page alloc accepted")
		}
		if err := d.Read(ctx, "ghost", 0, make([]byte, 1)); err == nil {
			return fmt.Errorf("unknown region read accepted")
		}
		if err := d.Write(ctx, "r", PageSize-1, make([]byte, 2)); err == nil {
			return fmt.Errorf("out-of-range write accepted")
		}
		return d.Barrier(ctx)
	})
}

func TestFetchCountersAndCaching(t *testing.T) {
	runWorld(t, provider.CLAN(), 2, func(ctx *via.Ctx, d *Node) error {
		if err := d.Alloc(ctx, "c", 1); err != nil {
			return err
		}
		if err := d.Barrier(ctx); err != nil {
			return err
		}
		if d.Me() != 1 {
			return d.Barrier(ctx)
		}
		buf := make([]byte, 16)
		for i := 0; i < 5; i++ {
			if err := d.Read(ctx, "c", 0, buf); err != nil {
				return err
			}
		}
		if d.PageFetches != 1 {
			return fmt.Errorf("fetches = %d, want 1 (cached)", d.PageFetches)
		}
		if err := d.Acquire(ctx, 1); err != nil {
			return err
		}
		if err := d.Read(ctx, "c", 0, buf); err != nil {
			return err
		}
		if d.PageFetches != 2 {
			return fmt.Errorf("fetches after acquire = %d, want 2 (invalidated)", d.PageFetches)
		}
		if err := d.Release(ctx, 1); err != nil {
			return err
		}
		return d.Barrier(ctx)
	})
}

func TestDSMDeterminism(t *testing.T) {
	run := func() uint64 {
		sys := via.NewSystem(provider.BVIA(), 3, 4)
		w := New(sys, DefaultConfig())
		var sum uint64
		w.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, d *Node) {
			if err := d.Alloc(ctx, "det", 1); err != nil {
				t.Error(err)
				return
			}
			if err := d.Barrier(ctx); err != nil {
				t.Error(err)
				return
			}
			b := make([]byte, 4)
			for i := 0; i < 5; i++ {
				if err := d.Acquire(ctx, 3); err != nil {
					t.Error(err)
					return
				}
				d.Read(ctx, "det", 0, b)
				b[0]++
				d.Write(ctx, "det", 0, b)
				if err := d.Release(ctx, 3); err != nil {
					t.Error(err)
					return
				}
			}
			d.Barrier(ctx)
			sum += uint64(ctx.Now())
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}
