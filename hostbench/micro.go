package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vibe/internal/fabric"
	"vibe/internal/metrics"
	"vibe/internal/nicsim"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// microBench is one per-layer microbenchmark: op performs n operations of
// the layer's public API.
type microBench struct {
	name string
	op   func(n int) error
}

var micros = []microBench{
	{"sim.schedule_ns", simSchedule},
	{"sim.proc_switch_ns", simProcSwitch},
	{"vmem.alloc_ns.28k", func(n int) error { return vmemAlloc(n, 28<<10) }},
	{"vmem.alloc_ns.32m", func(n int) error { return vmemAlloc(n, 32<<20) }},
	{"vmem.resolve_ns", vmemResolve},
	{"nicsim.tlb_lookup_ns", nicsimTLB},
	{"nicsim.window_ns", nicsimWindow},
	{"nicsim.frag_ns", nicsimFrag},
	{"via.post_completion_ns", viaPostCompletion},
	{"fabric.send_ns.crossbar", func(n int) error { return fabricSend(n, "") }},
	{"fabric.send_ns.fattree", func(n int) error { return fabricSend(n, "fattree") }},
	{"metrics.add_ns", metricsAdd},
	{"metrics.observe_ns", metricsObserve},
}

// micro runs every microbenchmark and records its host ns per operation.
func (b *bench) micro() error {
	for _, m := range micros {
		ns, err := nsPerOp(m.op)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		b.rep.layer[m.name] = ns
	}
	return nil
}

// nsPerOp sizes a batch to about 20ms by doubling, then reports the
// median ns per operation over five batches of that size.
func nsPerOp(op func(n int) error) (float64, error) {
	const target = 20 * time.Millisecond
	n := 1
	for {
		t0 := time.Now()
		if err := op(n); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d >= target/2 || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(target)/float64(max(d, 1))))
			break
		}
		n *= 2
	}
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := op(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// simSchedule schedules n no-op events and dispatches them, 64 at a time:
// the heap push/pop path with no processes.
func simSchedule(n int) error {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < n; i++ {
		e.After(sim.Duration(i%16), fn)
		if i%64 == 63 {
			if err := e.Run(); err != nil {
				return err
			}
		}
	}
	return e.Run()
}

// simProcSwitch hands a queue item back and forth between two processes:
// n handoffs, each a push that wakes the other process and a switch to it.
func simProcSwitch(n int) error {
	e := sim.NewEngine(1)
	ping, pong := sim.NewQueue[int](e), sim.NewQueue[int](e)
	e.Spawn("server", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			pong.Push(ping.Pop(p))
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < (n+1)/2; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	return e.Run()
}

// vmemAlloc allocates n buffers of size bytes, in address spaces of at
// most 64 MiB each so the live set stays bounded.
func vmemAlloc(n, size int) error {
	perSpace := max(1, (64<<20)/size)
	var as *vmem.AddressSpace
	for i := 0; i < n; i++ {
		if i%perSpace == 0 {
			as = vmem.NewAddressSpace()
		}
		if as.Alloc(size).Len() != size {
			return errors.New("short allocation")
		}
	}
	return nil
}

// vmemResolve resolves n 64-byte ranges at seeded offsets in an address
// space holding 1000 live 4 KiB buffers.
func vmemResolve(n int) error {
	as := vmem.NewAddressSpace()
	bufs := make([]*vmem.Buffer, 1000)
	for i := range bufs {
		bufs[i] = as.Alloc(4096)
	}
	r := rand.New(rand.NewSource(1))
	addrs := make([]vmem.Addr, 1024)
	for i := range addrs {
		addrs[i] = bufs[r.Intn(len(bufs))].AddrAt(r.Intn(4096 - 64))
	}
	for i := 0; i < n; i++ {
		if _, err := as.Resolve(addrs[i%len(addrs)], 64); err != nil {
			return err
		}
	}
	return nil
}

// nicsimTLB looks up n seeded pages from a working set twice the size of
// a 64-entry LRU TLB.
func nicsimTLB(n int) error {
	t := nicsim.NewTLB(64, nicsim.LRU)
	r := rand.New(rand.NewSource(1))
	pages := make([]uint64, 1024)
	for i := range pages {
		pages[i] = uint64(r.Intn(128))
	}
	for i := 0; i < n; i++ {
		t.Lookup(pages[i%len(pages)])
	}
	return nil
}

// nicsimWindow adds n packets to a go-back-N window, acknowledging them
// cumulatively eight at a time.
func nicsimWindow(n int) error {
	var w nicsim.Window
	for i := 0; i < n; i++ {
		w.Add(nil, sim.Time(i))
		if i%8 == 7 {
			w.Ack(w.NextSeq() - 1)
		}
	}
	if w.Outstanding() >= 8 {
		return fmt.Errorf("%d packets left unacknowledged", w.Outstanding())
	}
	return nil
}

// nicsimFrag fragments n 16 KiB messages at a 1500-byte MTU and
// reassembles each.
func nicsimFrag(n int) error {
	const size, mtu = 16 << 10, 1500
	var r nicsim.Reassembler
	for i := 0; i < n; i++ {
		frags := nicsim.Fragments(size, mtu)
		for j, f := range frags {
			done, ok := r.Accept(uint64(i), f, size)
			if !ok || done != (j == len(frags)-1) {
				return fmt.Errorf("message %d fragment %d: done=%t ok=%t", i, j, done, ok)
			}
		}
	}
	return nil
}

// viaPostCompletion runs a two-host cLAN ping-pong of 4-byte messages:
// every message is one posted send, its completion and the matching
// receive completion. n messages make n/2 round trips; connection set-up
// is amortized over them.
func viaPostCompletion(n int) error {
	const size = 4
	const timeout = 10 * sim.Second
	rounds := max(1, n/2)
	sys := via.NewSystem(provider.CLAN(), 2, 1)
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	endpoint := func(ctx *via.Ctx, client bool) {
		nic := ctx.OpenNic()
		vi, err := nic.CreateVi(ctx, via.ViAttributes{}, nil, nil)
		if err != nil {
			fail(err)
			return
		}
		buf := ctx.Malloc(size)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			fail(err)
			return
		}
		if client {
			if err := vi.ConnectRequest(ctx, 1, "pp", timeout); err != nil {
				fail(err)
				return
			}
		} else {
			if err := vi.PostRecv(ctx, via.SimpleRecv(buf, h, size)); err != nil {
				fail(err)
				return
			}
			req, err := nic.ConnectWait(ctx, "pp", timeout)
			if err != nil {
				fail(err)
				return
			}
			if err := req.Accept(ctx, vi); err != nil {
				fail(err)
				return
			}
		}
		for i := 0; i < rounds; i++ {
			if client {
				if err := vi.PostRecv(ctx, via.SimpleRecv(buf, h, size)); err != nil {
					fail(err)
					return
				}
			} else {
				if _, err := vi.RecvWaitPoll(ctx); err != nil {
					fail(err)
					return
				}
				if i+1 < rounds {
					if err := vi.PostRecv(ctx, via.SimpleRecv(buf, h, size)); err != nil {
						fail(err)
						return
					}
				}
			}
			if err := vi.PostSend(ctx, via.SimpleSend(buf, h, size)); err != nil {
				fail(err)
				return
			}
			if _, err := vi.SendWaitPoll(ctx); err != nil {
				fail(err)
				return
			}
			if client {
				if _, err := vi.RecvWaitPoll(ctx); err != nil {
					fail(err)
					return
				}
			}
		}
	}
	sys.Go(0, "client", func(ctx *via.Ctx) { endpoint(ctx, true) })
	sys.Go(1, "server", func(ctx *via.Ctx) { endpoint(ctx, false) })
	if err := sys.Run(); err != nil && runErr == nil {
		runErr = err
	}
	if err := sys.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// fabricSend sends n 64-byte packets between rotating pairs of 16 hosts
// on the cLAN fabric with the given topology, running the engine and
// draining the inboxes every 64 sends.
func fabricSend(n int, topology string) error {
	const hosts = 16
	params := provider.CLAN().Network
	if topology != "" {
		params.Topology, params.TopologyDegree, params.SwitchBufPkts = topology, 4, 8
	}
	e := sim.NewEngine(1)
	nw := fabric.New(e, hosts, params)
	drain := func() error {
		if err := e.Run(); err != nil {
			return err
		}
		for id := 0; id < hosts; id++ {
			for {
				d, ok := nw.Inbox(fabric.NodeID(id)).TryPop()
				if !ok {
					break
				}
				nw.Recycle(d)
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		src := i % hosts
		dst := (src + 1 + i/hosts%(hosts-1)) % hosts
		nw.Send(fabric.NodeID(src), fabric.NodeID(dst), 64, nil)
		if i%64 == 63 {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	if err := drain(); err != nil {
		return err
	}
	if nw.Delivered != uint64(n) {
		return fmt.Errorf("%d of %d packets delivered", nw.Delivered, n)
	}
	return nil
}

var microKeys = func() []string {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = metrics.Join(fmt.Sprintf("nic%d", i), "window", "acked")
	}
	return keys
}()

// metricsAdd adds to n counters spread over 16 keys of one registry.
func metricsAdd(n int) error {
	r := metrics.New()
	for i := 0; i < n; i++ {
		r.Add(microKeys[i&15], 1)
	}
	return nil
}

// metricsObserve records n histogram observations over 16 keys.
func metricsObserve(n int) error {
	r := metrics.New()
	for i := 0; i < n; i++ {
		r.Observe(microKeys[i&15], float64(i&1023))
	}
	return nil
}
