// Package mp is a message-passing programming-model layer built on the
// VIA substrate — the "distributed memory (MPI)" layer the paper's §3.3
// and §5 target with VIBe. It exists both as a usable library and as the
// demonstration that VIBe's measurements drive layer design:
//
//   - Figure 1 (registration is expensive) motivates the eager protocol's
//     pre-registered bounce buffers and the rendezvous protocol's
//     registration cache.
//   - Figure 3 (per-byte copy costs) motivates switching from
//     copy-through-bounce (eager) to zero-copy RDMA (rendezvous) above a
//     crossover size.
//   - Figure 6 (multi-VI sensitivity) is why the layer opens exactly one
//     VI per peer.
//
// The layer provides tagged, in-order, reliable point-to-point messaging
// (Send/Recv), plus a Barrier collective. Transport is one
// reliable-delivery VI per peer pair with credit-based flow control over a
// pre-posted receive ring.
package mp

import (
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// Config tunes the layer's protocol choices.
type Config struct {
	// EagerLimit is the largest payload sent through the copy-based eager
	// path; larger messages use rendezvous RDMA. The PM benchmarks sweep
	// this to locate the crossover VIBe predicts.
	EagerLimit int
	// RingSize is the number of pre-posted receive buffers (and thus the
	// credit budget) per peer.
	RingSize int
	// RegCache is the registration-cache capacity in buffers (0 disables
	// caching: every rendezvous registers and deregisters).
	RegCache int
	// Timeout bounds internal waits.
	Timeout sim.Duration
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		EagerLimit: 8 * 1024,
		RingSize:   16,
		RegCache:   32,
		Timeout:    30 * sim.Second,
	}
}

// World is a set of ranks, one per host, fully meshed.
type World struct {
	sys *via.System
	n   int
	cfg Config
}

// NewWorld prepares a message-passing world of one rank per host.
func NewWorld(sys *via.System, cfg Config) *World {
	if cfg.RingSize < 4 {
		cfg.RingSize = 4
	}
	if cfg.EagerLimit < 64 {
		cfg.EagerLimit = 64
	}
	// An eager message (header + payload) must fit a single VIA
	// descriptor on this provider.
	if maxEager := sys.Model.MaxTransferSize - headerBytes; cfg.EagerLimit > maxEager {
		cfg.EagerLimit = maxEager
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * sim.Second
	}
	return &World{sys: sys, n: sys.Hosts(), cfg: cfg}
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.n }

// Run spawns one process per rank, initializes the full mesh, and invokes
// fn with the rank's endpoint. A rank whose setup fails passes the error
// to fail instead and never calls fn. Call sys.Run() afterwards to
// execute.
func (w *World) Run(fail func(error), fn func(ctx *via.Ctx, ep *Endpoint)) {
	for r := 0; r < w.n; r++ {
		r := r
		w.sys.Go(r, fmt.Sprintf("mp-rank%d", r), func(ctx *via.Ctx) {
			ep, err := w.init(ctx, r)
			if err != nil {
				fail(fmt.Errorf("mp: rank %d init: %w", r, err))
				return
			}
			fn(ctx, ep)
		})
	}
}

// init builds rank r's endpoint: one reliable VI per peer with RDMA write
// enabled, the receive rings pre-posted before connecting.
func (w *World) init(ctx *via.Ctx, rank int) (*Endpoint, error) {
	nic := ctx.OpenNic()
	ep := &Endpoint{
		world: w,
		rank:  rank,
		nic:   nic,
		peers: make([]*peer, w.n),
		cache: newRegCache(nic, w.cfg.RegCache),
	}
	attrs := via.ViAttributes{
		Reliability:     via.ReliableDelivery,
		EnableRdmaWrite: true,
	}
	// Create all VIs and pre-post their rings first.
	for p := 0; p < w.n; p++ {
		if p == rank {
			continue
		}
		vi, err := nic.CreateVi(ctx, attrs, nil, nil)
		if err != nil {
			return nil, err
		}
		pr := &peer{vi: vi, credits: w.cfg.RingSize - 2}
		bufSize := headerBytes + w.cfg.EagerLimit
		if pr.ring, err = vi.PostRing(ctx, w.cfg.RingSize, bufSize); err != nil {
			return nil, err
		}
		for i := range pr.ring {
			pr.posted = append(pr.posted, i)
		}
		if pr.bounce, err = nic.AllocReg(ctx, bufSize); err != nil {
			return nil, err
		}
		pr.cts = make(map[uint32]ctsInfo)
		pr.fin = make(map[uint32]bool)
		ep.peers[p] = pr
	}
	// Connect the mesh: the lower rank dials.
	for p := 0; p < w.n; p++ {
		if p == rank {
			continue
		}
		lo, hi := min(rank, p), max(rank, p)
		disc := fmt.Sprintf("mp-%d-%d", lo, hi)
		if err := via.Pair(ctx, ep.peers[p].vi, ctx.Host.System().Host(p).ID(), disc, rank == lo, w.cfg.Timeout); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// peer is the per-neighbour transport state.
type peer struct {
	vi     *via.Vi
	ring   []via.Reg // pre-posted receive buffers
	posted []int     // ring indices in posting order (completion order)
	bounce via.Reg   // send-side staging buffer

	credits  int // sends allowed before the remote ring might overflow
	consumed int // remote buffers we have freed since the last credit return

	unexpected []inbound // matched later by Recv
	cts        map[uint32]ctsInfo
	fin        map[uint32]bool
}

// ctsInfo is the receiver's clear-to-send answer in a rendezvous.
type ctsInfo struct {
	addr   vmem.Addr
	handle via.MemHandle
}

// inbound is a decoded arrived message awaiting a matching Recv.
type inbound struct {
	kind  byte
	tag   int32
	req   uint32
	n     int
	data  []byte // copied payload (eager)
	raddr vmem.Addr
	rh    via.MemHandle
}
