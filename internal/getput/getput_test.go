package getput

import (
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// runFabric builds an n-host fabric and runs fn on every node.
func runFabric(t *testing.T, m *provider.Model, n int, fn func(ctx *via.Ctx, nd *Node) error) {
	t.Helper()
	sys := via.NewSystem(m, n, 1)
	f := NewFabric(sys, DefaultConfig())
	f.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, nd *Node) {
		if err := fn(ctx, nd); err != nil {
			t.Errorf("node %d: %v", nd.Me(), err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			const n = 12000
			var ready bool
			runFabric(t, m, 2, func(ctx *via.Ctx, nd *Node) error {
				nic := ctx.OpenNic()
				if nd.Me() == 1 {
					region := ctx.Malloc(64 * 1024)
					if err := nd.Expose(ctx, "data", region); err != nil {
						return err
					}
					ready = true
					// Wait for the peer's fence to guarantee the put
					// landed, then idle until the run ends.
					ctx.Sleep(20 * sim.Millisecond)
					return nil
				}
				for !ready {
					ctx.Sleep(100 * sim.Microsecond)
				}
				src := ctx.Malloc(n)
				sh, err := nic.RegisterMem(ctx, src)
				if err != nil {
					return err
				}
				src.FillPattern(2)
				if err := nd.Put(ctx, 1, "data", 4096, src, n, sh); err != nil {
					return err
				}
				if err := nd.Fence(ctx, 1); err != nil {
					return err
				}
				dst := ctx.Malloc(n)
				dh, err := nic.RegisterMem(ctx, dst)
				if err != nil {
					return err
				}
				if err := nd.Get(ctx, 1, "data", 4096, n, dst, dh); err != nil {
					return err
				}
				return dst.CheckPattern(2, n)
			})
		})
	}
}

func TestGetPathSelection(t *testing.T) {
	// cLAN (RDMA read in hardware) must use one-sided gets; Berkeley VIA
	// must fall back to daemon-serviced gets.
	check := func(m *provider.Model, wantHardware bool) {
		var hwGets, served uint64
		var ready bool
		runFabric(t, m, 2, func(ctx *via.Ctx, nd *Node) error {
			nic := ctx.OpenNic()
			if nd.Me() == 1 {
				region := ctx.Malloc(8192)
				region.FillPattern(5)
				if err := nd.Expose(ctx, "r", region); err != nil {
					return err
				}
				ready = true
				ctx.Sleep(20 * sim.Millisecond)
				served = nd.ServicedGets
				return nil
			}
			for !ready {
				ctx.Sleep(100 * sim.Microsecond)
			}
			dst := ctx.Malloc(4096)
			dh, err := nic.RegisterMem(ctx, dst)
			if err != nil {
				return err
			}
			if err := nd.Get(ctx, 1, "r", 0, 4096, dst, dh); err != nil {
				return err
			}
			hwGets = nd.HardwareGets
			return dst.CheckPattern(5, 4096)
		})
		if wantHardware && (hwGets != 1 || served != 0) {
			t.Errorf("%s: want hardware get, got hw=%d served=%d", m.Name, hwGets, served)
		}
		if !wantHardware && (hwGets != 0 || served != 1) {
			t.Errorf("%s: want serviced get, got hw=%d served=%d", m.Name, hwGets, served)
		}
	}
	check(provider.CLAN(), true)
	check(provider.BVIA(), false)
}

func TestLookupCaching(t *testing.T) {
	var ready bool
	runFabric(t, provider.CLAN(), 2, func(ctx *via.Ctx, nd *Node) error {
		nic := ctx.OpenNic()
		if nd.Me() == 1 {
			region := ctx.Malloc(4096)
			if err := nd.Expose(ctx, "x", region); err != nil {
				return err
			}
			ready = true
			ctx.Sleep(10 * sim.Millisecond)
			return nil
		}
		for !ready {
			ctx.Sleep(100 * sim.Microsecond)
		}
		src := ctx.Malloc(256)
		sh, _ := nic.RegisterMem(ctx, src)
		for i := 0; i < 5; i++ {
			if err := nd.Put(ctx, 1, "x", 0, src, 256, sh); err != nil {
				return err
			}
		}
		if nd.Lookups != 1 {
			return fmt.Errorf("lookups = %d, want 1 (cached)", nd.Lookups)
		}
		return nil
	})
}

func TestErrors(t *testing.T) {
	var ready bool
	runFabric(t, provider.CLAN(), 2, func(ctx *via.Ctx, nd *Node) error {
		nic := ctx.OpenNic()
		if nd.Me() == 1 {
			region := ctx.Malloc(1000)
			if err := nd.Expose(ctx, "small", region); err != nil {
				return err
			}
			if err := nd.Expose(ctx, "small", region); err == nil {
				return fmt.Errorf("duplicate expose accepted")
			}
			ready = true
			ctx.Sleep(10 * sim.Millisecond)
			return nil
		}
		for !ready {
			ctx.Sleep(100 * sim.Microsecond)
		}
		src := ctx.Malloc(256)
		sh, _ := nic.RegisterMem(ctx, src)
		// Unknown region.
		if err := nd.Put(ctx, 1, "ghost", 0, src, 256, sh); err == nil {
			return fmt.Errorf("put to unknown region accepted")
		}
		// Out of range.
		if err := nd.Put(ctx, 1, "small", 900, src, 256, sh); err == nil {
			return fmt.Errorf("out-of-range put accepted")
		}
		if err := nd.Get(ctx, 1, "small", 900, 256, src, sh); err == nil {
			return fmt.Errorf("out-of-range get accepted")
		}
		return nil
	})
}

func TestThreeNodeSharing(t *testing.T) {
	// Node 0 puts; node 2 gets the same region from node 1: cross-node
	// visibility through the owner.
	const n = 2048
	sys := via.NewSystem(provider.CLAN(), 3, 1)
	f := NewFabric(sys, DefaultConfig())
	step := make([]bool, 3)
	f.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, nd *Node) {
		nic := ctx.OpenNic()
		switch nd.Me() {
		case 1:
			region := ctx.Malloc(n)
			if err := nd.Expose(ctx, "shared", region); err != nil {
				t.Error(err)
				return
			}
			step[1] = true
			ctx.Sleep(50 * sim.Millisecond)
		case 0:
			for !step[1] {
				ctx.Sleep(100 * sim.Microsecond)
			}
			src := ctx.Malloc(n)
			sh, _ := nic.RegisterMem(ctx, src)
			src.FillPattern(8)
			if err := nd.Put(ctx, 1, "shared", 0, src, n, sh); err != nil {
				t.Error(err)
				return
			}
			if err := nd.Fence(ctx, 1); err != nil {
				t.Error(err)
				return
			}
			step[0] = true
		case 2:
			for !step[0] {
				ctx.Sleep(100 * sim.Microsecond)
			}
			dst := ctx.Malloc(n)
			dh, _ := nic.RegisterMem(ctx, dst)
			if err := nd.Get(ctx, 1, "shared", 0, n, dst, dh); err != nil {
				t.Error(err)
				return
			}
			if err := dst.CheckPattern(8, n); err != nil {
				t.Error(err)
			}
			step[2] = true
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !step[2] {
		t.Fatal("node 2 never completed its get")
	}
}

func TestGetPutDeterminism(t *testing.T) {
	run := func() sim.Time {
		sys := via.NewSystem(provider.BVIA(), 2, 5)
		f := NewFabric(sys, DefaultConfig())
		var end sim.Time
		var ready bool
		f.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, nd *Node) {
			nic := ctx.OpenNic()
			if nd.Me() == 1 {
				region := ctx.Malloc(8192)
				nd.Expose(ctx, "d", region)
				ready = true
				ctx.Sleep(10 * sim.Millisecond)
				return
			}
			for !ready {
				ctx.Sleep(100 * sim.Microsecond)
			}
			src := ctx.Malloc(4096)
			sh, _ := nic.RegisterMem(ctx, src)
			for i := 0; i < 5; i++ {
				if err := nd.Put(ctx, 1, "d", 0, src, 4096, sh); err != nil {
					t.Error(err)
					return
				}
			}
			nd.Fence(ctx, 1)
			end = ctx.Now()
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestSelfPutGet(t *testing.T) {
	// Self-targeted operations are local memory copies: no wire traffic,
	// no daemon involvement.
	runFabric(t, provider.CLAN(), 2, func(ctx *via.Ctx, nd *Node) error {
		if nd.Me() != 0 {
			ctx.Sleep(5 * sim.Millisecond)
			return nil
		}
		nic := ctx.OpenNic()
		region := ctx.Malloc(8192)
		if err := nd.Expose(ctx, "self", region); err != nil {
			return err
		}
		src := ctx.Malloc(1000)
		sh, _ := nic.RegisterMem(ctx, src)
		src.FillPattern(4)
		before := ctx.Host.System().Net.Sent
		if err := nd.Put(ctx, 0, "self", 100, src, 1000, sh); err != nil {
			return err
		}
		dst := ctx.Malloc(1000)
		dh, _ := nic.RegisterMem(ctx, dst)
		if err := nd.Get(ctx, 0, "self", 100, 1000, dst, dh); err != nil {
			return err
		}
		if err := nd.Fence(ctx, 0); err != nil {
			return err
		}
		if ctx.Host.System().Net.Sent != before {
			return fmt.Errorf("self put/get generated wire traffic")
		}
		if err := dst.CheckPattern(4, 1000); err != nil {
			return err
		}
		// Bounds still enforced locally.
		if err := nd.Put(ctx, 0, "self", 8000, src, 1000, sh); err == nil {
			return fmt.Errorf("out-of-range self put accepted")
		}
		if err := nd.Get(ctx, 0, "ghost", 0, 10, dst, dh); err == nil {
			return fmt.Errorf("self get of unknown region accepted")
		}
		return nil
	})
}
