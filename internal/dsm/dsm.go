// Package dsm is a software distributed-shared-memory programming-model
// layer over the VIA substrate — the "software distributed shared memory"
// model the paper's §3.3 names, and the system its reference [7]
// (TreadMarks over VIA, by the same authors) builds. It implements a
// home-based release-consistent DSM in the style of home-based lazy
// release consistency:
//
//   - Every shared region has a home node holding the master copy in an
//     exposed get/put region; other nodes cache pages.
//   - Reads fetch missing pages from the home with one-sided gets;
//     writes dirty the local cache.
//   - Release consistency: Acquire invalidates the local cache (so the
//     next access refetches anything peers published) and Release flushes
//     dirty pages to the home with one-sided puts before the lock moves.
//     Data races outside acquire/release are the application's problem,
//     exactly as in TreadMarks.
//   - Locks and barriers are served by a manager daemon on node 0.
//
// The data path rides internal/getput (so the provider's RDMA
// capabilities decide whether fetches are one-sided), and VIBe's
// measurements justify the design: registration costs (Fig 1) are paid
// once per region at setup, and the page size balances the per-transfer
// fixed costs (Fig 3) against false-sharing traffic.
package dsm

import (
	"fmt"

	"vibe/internal/getput"
	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// PageSize is the DSM sharing granularity. It matches the simulated VM
// page, as TreadMarks' did.
const PageSize = vmem.PageSize

// Config tunes the layer.
type Config struct {
	// GP configures the underlying get/put fabric.
	GP getput.Config
	// Timeout bounds lock/barrier waits.
	Timeout sim.Duration
}

// DefaultConfig returns standard settings.
func DefaultConfig() Config {
	return Config{GP: getput.DefaultConfig(), Timeout: 30 * sim.Second}
}

// World is a DSM cluster, one node per host. Node 0 additionally runs the
// lock/barrier manager.
type World struct {
	sys *via.System
	n   int
	cfg Config
	gp  *getput.Fabric
}

// New prepares a DSM world over sys.
func New(sys *via.System, cfg Config) *World {
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * sim.Second
	}
	return &World{sys: sys, n: sys.Hosts(), cfg: cfg, gp: getput.NewFabric(sys, cfg.GP)}
}

// Run spawns one application process per node and invokes fn with its DSM
// node handle. A setup error, or a send the lock manager's daemon cannot
// complete, goes to fail; a node whose setup fails never calls fn. Call
// sys.Run() afterwards.
func (w *World) Run(fail func(error), fn func(ctx *via.Ctx, d *Node)) {
	mgr := newManager(w, fail)
	w.gp.Run(fail, func(ctx *via.Ctx, gpn *getput.Node) {
		d, err := newNode(ctx, w, gpn, mgr)
		if err != nil {
			fail(fmt.Errorf("dsm: node %d init: %w", gpn.Me(), err))
			return
		}
		fn(ctx, d)
	})
}

// pageKey identifies one cached page.
type pageKey struct {
	region string
	page   int
}

// cachedPage is one node's copy of a shared page.
type cachedPage struct {
	buf    *vmem.Buffer
	handle via.MemHandle
	valid  bool
	dirty  bool
}

// regionMeta is what a node knows about a shared region.
type regionMeta struct {
	name  string
	home  int
	pages int
}

// Node is one host's DSM handle.
type Node struct {
	w    *World
	gp   *getput.Node
	mgr  *manager
	me   int
	link *nodeLink // connection to the node-0 manager (nil on node 0)

	regions map[string]*regionMeta
	cache   map[pageKey]*cachedPage

	// Counters for tests and reports.
	PageFetches uint64
	PageFlushes uint64
	Invalidates uint64
}

func newNode(ctx *via.Ctx, w *World, gpn *getput.Node, mgr *manager) (*Node, error) {
	d := &Node{
		w:       w,
		gp:      gpn,
		mgr:     mgr,
		me:      gpn.Me(),
		regions: make(map[string]*regionMeta),
		cache:   make(map[pageKey]*cachedPage),
	}
	if err := mgr.register(ctx, d); err != nil {
		return nil, fmt.Errorf("manager: %w", err)
	}
	return d, nil
}

// Me returns this node's id.
func (d *Node) Me() int { return d.me }

// Size returns the world size.
func (d *Node) Size() int { return d.w.n }

// Alloc creates (on the home node) or attaches to (elsewhere) a shared
// region of the given page count. The home is chosen by hashing the name
// across the world; the call is collective in effect but not
// synchronizing — callers typically follow it with Barrier.
func (d *Node) Alloc(ctx *via.Ctx, name string, pages int) error {
	if _, dup := d.regions[name]; dup {
		return fmt.Errorf("dsm: region %q already allocated", name)
	}
	if pages <= 0 {
		return fmt.Errorf("dsm: region %q needs at least one page", name)
	}
	home := homeOf(name, d.w.n)
	d.regions[name] = &regionMeta{name: name, home: home, pages: pages}
	if home == d.me {
		master := ctx.Malloc(pages * PageSize)
		if err := d.gp.Expose(ctx, "dsm:"+name, master); err != nil {
			return err
		}
	}
	return nil
}

// homeOf hashes a region name onto a node.
func homeOf(name string, n int) int {
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % n
}

// page returns the cached page, fetching it from the home if invalid.
func (d *Node) page(ctx *via.Ctx, r *regionMeta, idx int) (*cachedPage, error) {
	key := pageKey{r.name, idx}
	cp := d.cache[key]
	if cp == nil {
		r, err := ctx.OpenNic().AllocReg(ctx, PageSize)
		if err != nil {
			return nil, err
		}
		cp = &cachedPage{buf: r.Buf, handle: r.H}
		d.cache[key] = cp
	}
	if !cp.valid {
		// The home's master copy is authoritative; even the home node
		// reads through it so the protocol has one code path.
		if err := d.gp.Get(ctx, r.home, "dsm:"+r.name, idx*PageSize, PageSize, cp.buf, cp.handle); err != nil {
			return nil, err
		}
		cp.valid = true
		d.PageFetches++
	}
	return cp, nil
}

// Read copies [off, off+len(p)) of the named region into p.
func (d *Node) Read(ctx *via.Ctx, name string, off int, p []byte) error {
	r, err := d.meta(name, off, len(p))
	if err != nil {
		return err
	}
	for done := 0; done < len(p); {
		addr := off + done
		idx := addr / PageSize
		po := addr % PageSize
		n := PageSize - po
		if n > len(p)-done {
			n = len(p) - done
		}
		cp, err := d.page(ctx, r, idx)
		if err != nil {
			return err
		}
		copy(p[done:done+n], cp.buf.Bytes()[po:po+n])
		done += n
	}
	return nil
}

// Write copies p into [off, off+len(p)) of the named region, dirtying the
// covered pages locally. The update becomes visible to other nodes after
// this node Releases (or passes a Barrier) and they Acquire.
func (d *Node) Write(ctx *via.Ctx, name string, off int, p []byte) error {
	r, err := d.meta(name, off, len(p))
	if err != nil {
		return err
	}
	for done := 0; done < len(p); {
		addr := off + done
		idx := addr / PageSize
		po := addr % PageSize
		n := PageSize - po
		if n > len(p)-done {
			n = len(p) - done
		}
		cp, err := d.page(ctx, r, idx) // write needs the rest of the page
		if err != nil {
			return err
		}
		copy(cp.buf.Bytes()[po:po+n], p[done:done+n])
		cp.dirty = true
		done += n
	}
	return nil
}

func (d *Node) meta(name string, off, n int) (*regionMeta, error) {
	r, ok := d.regions[name]
	if !ok {
		return nil, fmt.Errorf("dsm: unknown region %q", name)
	}
	if off < 0 || off+n > r.pages*PageSize {
		return nil, fmt.Errorf("dsm: access [%d,+%d) outside region %q (%d pages)",
			off, n, name, r.pages)
	}
	return r, nil
}

// flush writes every dirty page back to its home and marks it clean.
func (d *Node) flush(ctx *via.Ctx) error {
	for key, cp := range d.cache {
		if !cp.dirty {
			continue
		}
		r := d.regions[key.region]
		if err := d.gp.Put(ctx, r.home, "dsm:"+key.region, key.page*PageSize,
			cp.buf, PageSize, cp.handle); err != nil {
			return err
		}
		// Ensure the put has landed before the lock/barrier moves on.
		if err := d.gp.Fence(ctx, r.home); err != nil {
			return err
		}
		cp.dirty = false
		d.PageFlushes++
	}
	return nil
}

// invalidate drops every clean cached page so post-synchronization reads
// refetch from the homes.
func (d *Node) invalidate() {
	for _, cp := range d.cache {
		if cp.valid && !cp.dirty {
			cp.valid = false
		}
	}
	d.Invalidates++
}

// Acquire takes the global lock with the given id, then invalidates the
// local cache (release-consistency entry point).
func (d *Node) Acquire(ctx *via.Ctx, lock int) error {
	if err := d.mgr.acquire(ctx, d, lock); err != nil {
		return err
	}
	d.invalidate()
	return nil
}

// Release flushes dirty pages to their homes and releases the lock.
func (d *Node) Release(ctx *via.Ctx, lock int) error {
	if err := d.flush(ctx); err != nil {
		return err
	}
	return d.mgr.release(ctx, d, lock)
}

// Barrier flushes dirty pages, waits for every node, and invalidates the
// cache — the bulk-synchronous pattern of DSM applications.
func (d *Node) Barrier(ctx *via.Ctx) error {
	if err := d.flush(ctx); err != nil {
		return err
	}
	if err := d.mgr.barrier(ctx, d); err != nil {
		return err
	}
	d.invalidate()
	return nil
}
