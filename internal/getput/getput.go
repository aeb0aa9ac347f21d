// Package getput is a one-sided get/put programming-model layer over the
// VIA substrate — the "get/put" layer the paper's §3.3 lists among VIBe's
// target models. Each node exposes named memory regions; peers Put into
// and Get from them without involving the owner's application thread.
//
// Design choices driven by VIBe results:
//
//   - Puts are RDMA writes on reliable-delivery connections: zero-copy and
//     owner-CPU-free on every provider (all three support RDMA write).
//   - Gets use hardware RDMA read where the provider offers it (cLAN,
//     M-VIA); on Berkeley VIA — whose NIC cannot read — the layer falls
//     back transparently to a request serviced by the owner's daemon,
//     which RDMA-writes the data back. The PM benchmarks quantify the
//     fallback's cost.
//   - Region descriptors (address + memory handle) are resolved once via
//     a lookup protocol and cached, because VIBe's Figure 1 prices
//     per-operation metadata traffic.
//   - Each node's daemon multiplexes every peer through one completion
//     queue (the Figure 6 guidance: few VIs, one CQ).
package getput

import (
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// Config tunes the layer.
type Config struct {
	// MaxName bounds exposed-region names.
	MaxName int
	// Timeout bounds internal waits.
	Timeout sim.Duration
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{MaxName: 48, Timeout: 30 * sim.Second}
}

// Fabric is a set of get/put nodes, one per host.
type Fabric struct {
	sys *via.System
	n   int
	cfg Config
}

// NewFabric prepares one node per host.
func NewFabric(sys *via.System, cfg Config) *Fabric {
	if cfg.MaxName == 0 {
		cfg.MaxName = 48
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * sim.Second
	}
	return &Fabric{sys: sys, n: sys.Hosts(), cfg: cfg}
}

// Run spawns each node's service daemon and application process; fn runs
// as the application. A node whose setup fails passes the error to fail
// instead and never calls fn. Call sys.Run() afterwards.
func (f *Fabric) Run(fail func(error), fn func(ctx *via.Ctx, nd *Node)) {
	for i := 0; i < f.n; i++ {
		i := i
		f.sys.Go(i, fmt.Sprintf("gp-node%d", i), func(ctx *via.Ctx) {
			nd, err := f.initNode(ctx, i)
			if err != nil {
				fail(fmt.Errorf("getput: node %d init: %w", i, err))
				return
			}
			fn(ctx, nd)
		})
	}
}

// ringSlots is the pre-posted control-message depth per inbound VI.
const ringSlots = 16

// initNode wires node i: for every ordered pair, one VI whose requests
// flow toward the higher endpoint of the exchange. Concretely, node a
// keeps two VIs per peer b: reqVI (a requests, b's daemon responds) and
// srvVI (b requests, a's daemon responds).
func (f *Fabric) initNode(ctx *via.Ctx, me int) (*Node, error) {
	nic := ctx.OpenNic()
	nd := &Node{
		fab:     f,
		me:      me,
		ctx:     ctx,
		nic:     nic,
		peers:   make([]*gpPeer, f.n),
		regions: map[string]via.Reg{},
		pending: map[uint32]*opState{},
		wake:    sim.NewSignal(ctx.P.Engine()),
	}
	cq, err := nic.CreateCQ(ctx, 1024)
	if err != nil {
		return nil, err
	}
	nd.cq = cq

	supportsRead := nic.Attributes().RdmaReadSupported
	reqAttrs := via.ViAttributes{
		Reliability:     via.ReliableDelivery,
		EnableRdmaWrite: true,
		EnableRdmaRead:  supportsRead,
	}

	// Create both VIs per peer; receive sides feed the daemon CQ.
	for p := 0; p < f.n; p++ {
		if p == me {
			continue
		}
		gp := &gpPeer{}
		if gp.req, err = nic.CreateVi(ctx, reqAttrs, nil, cq); err != nil {
			return nil, err
		}
		if gp.srv, err = nic.CreateVi(ctx, reqAttrs, nil, cq); err != nil {
			return nil, err
		}
		msg := ctlBytes + f.cfg.MaxName
		if gp.reqRing, err = gp.req.PostRing(ctx, ringSlots, msg); err != nil {
			return nil, err
		}
		if gp.srvRing, err = gp.srv.PostRing(ctx, ringSlots, msg); err != nil {
			return nil, err
		}
		// Each VI gets its own bounce: the user proc sends on req, the
		// daemon sends on srv — never both on one queue.
		if gp.reqBounce, err = nic.AllocReg(ctx, msg); err != nil {
			return nil, err
		}
		if gp.srvBounce, err = nic.AllocReg(ctx, msg); err != nil {
			return nil, err
		}
		gp.lookups = map[string]remoteRegion{}
		nd.peers[p] = gp
	}

	// Connect: for each ordered (a, b), a's req VI pairs with b's srv VI;
	// the lower host id dials both of its directions first to keep the
	// handshake order deterministic.
	for p := 0; p < f.n; p++ {
		if p == me {
			continue
		}
		gp := nd.peers[p]
		for _, dial := range []bool{me < p, me > p} {
			vi, disc := gp.srv, fmt.Sprintf("gp-%d-%d", p, me)
			if dial { // my requests toward p
				vi, disc = gp.req, fmt.Sprintf("gp-%d-%d", me, p)
			}
			if err := via.Pair(ctx, vi, f.sys.Host(p).ID(), disc, dial, f.cfg.Timeout); err != nil {
				return nil, err
			}
		}
	}

	// The daemon services inbound control traffic for the node's
	// lifetime.
	f.sys.Go(me, fmt.Sprintf("gp-daemon%d", me), func(dctx *via.Ctx) {
		dctx.P.SetDaemon(true)
		nd.daemon(dctx)
	})
	return nd, nil
}

// gpPeer is the per-peer connection state.
type gpPeer struct {
	req       *via.Vi // this node requests / puts / reads
	srv       *via.Vi // the peer requests; our daemon responds
	reqRing   *via.Ring
	srvRing   *via.Ring
	reqBounce via.Reg // user-proc staging (requests)
	srvBounce via.Reg // daemon staging (responses)

	lookups map[string]remoteRegion
}

// remoteRegion is a cached answer to a region lookup.
type remoteRegion struct {
	addr   vmem.Addr
	handle via.MemHandle
	length int
}

// opState tracks one in-flight user operation awaiting a daemon-routed
// response.
type opState struct {
	done   bool
	status byte
	region remoteRegion
}
