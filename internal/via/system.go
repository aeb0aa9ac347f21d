// Package via is a complete software implementation of the Virtual
// Interface Architecture on top of a deterministic discrete-event
// hardware simulation. The user-facing API mirrors VIPL: NICs, VIs with
// send/receive work queues, descriptor-based data transfer, memory
// registration, completion queues, connection management, RDMA, and the
// three VIA reliability levels.
//
// The same engine implements every provider; a provider.Model selects the
// behaviours (where translation runs, whether the host copies, whether the
// firmware polls each VI) and the cost constants.
package via

import (
	"errors"
	"fmt"

	"vibe/internal/cpu"
	"vibe/internal/fabric"
	"vibe/internal/fault"
	"vibe/internal/metrics"
	"vibe/internal/nicsim"
	"vibe/internal/prof"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// System is a simulated cluster: an engine, a fabric, and a set of hosts
// each with one VIA NIC.
type System struct {
	Eng   *sim.Engine
	Net   *fabric.Network
	Model *provider.Model
	hosts []*Host

	// bufs and pktFree are engine-local free lists for wire payload
	// snapshots and wirePacket headers. Only packets outside any
	// retransmission window are ever recycled (see recvEngine), so a
	// pooled buffer can never alias an in-flight retransmission.
	bufs    *nicsim.BufPool
	pktFree []*wirePacket

	// collector and profile, when set, receive the system's metrics and
	// per-component virtual-time attribution once, after the first Run
	// completes (see SetCollector and SetProfile in metrics.go).
	collector *metrics.Collector
	profile   *prof.Scope
	reported  bool

	// faults is the system's compiled fault plan, nil when none is
	// installed (see InstallFaults).
	faults *fault.Injector

	// spans, when set, samples message lifecycles into per-phase latency
	// histograms (see span.go / EnableSpans).
	spans *spanTracker
}

// InstallFaults compiles a fault plan into this system: the injector
// hooks the fabric's packet path and every NIC's doorbell/DMA paths.
// Each system compiles its own injector, so per-spec state (application
// counts, the plan RNG) never leaks between simulations and a plan
// replays identically. Empty or nil plans install nothing — the
// simulation stays byte-identical to an uninstrumented run.
func (s *System) InstallFaults(p *fault.Plan) {
	if p.Empty() {
		return
	}
	inj := p.NewInjector()
	s.faults = inj
	s.Net.SetInjector(inj)
	if inj.HasElementFaults() {
		// Switch/link outages hook route selection: the fabric steers each
		// packet around dead elements (or drops it when no candidate path
		// survives). Installed only when the plan declares one, so routing
		// for every other plan stays on the exact pre-multipath path.
		s.Net.SetElementOracle(inj)
	}
	for _, h := range s.hosts {
		h.nic.faults = inj
	}
}

// getPkt draws a zeroed wirePacket from the free list, allocating on miss.
func (s *System) getPkt() *wirePacket {
	if n := len(s.pktFree); n > 0 {
		pkt := s.pktFree[n-1]
		s.pktFree[n-1] = nil
		s.pktFree = s.pktFree[:n-1]
		return pkt
	}
	return &wirePacket{}
}

// recyclePkt returns a consumed packet (and its payload snapshot) to the
// free lists. The caller must guarantee no reference to pkt or its data
// survives — in particular that pkt is not parked in a sender's
// retransmission window.
func (s *System) recyclePkt(pkt *wirePacket) {
	if pkt.data != nil {
		s.bufs.Put(pkt.data)
	}
	*pkt = wirePacket{}
	s.pktFree = append(s.pktFree, pkt)
}

// NewSystem builds a cluster of n hosts connected by the model's network.
// The seed drives all randomness (loss injection); equal seeds give
// identical runs.
func NewSystem(model *provider.Model, n int, seed int64) *System {
	eng := sim.NewEngine(seed)
	net := fabric.New(eng, n, model.Network)
	sys := &System{Eng: eng, Net: net, Model: model, bufs: nicsim.NewBufPool()}
	for i := 0; i < n; i++ {
		h := &Host{
			sys: sys,
			id:  fabric.NodeID(i),
			CPU: cpu.New(eng),
			AS:  vmem.NewAddressSpace(),
		}
		h.nic = newNic(h)
		sys.hosts = append(sys.hosts, h)
	}
	return sys
}

// Close verifies the simulation wound down without leaking processes
// (every daemon and callback process parked or finished — see
// sim.Engine.CheckLeaks) and, with spans on, without closing any message
// span twice (a descriptor completed or flushed more than once), and then
// tears the engine down so no goroutine outlives the system. It is safe to
// call while a process panic is unwinding out of Run (a deferred Close).
// Safe to call more than once; the system must not be used afterwards.
func (s *System) Close() error {
	err := s.Eng.CheckLeaks()
	if s.spans != nil && s.spans.doubles > 0 {
		err = errors.Join(err, fmt.Errorf("via: %d message span(s) closed twice", s.spans.doubles))
	}
	s.Eng.Shutdown()
	return err
}

// Host returns host i.
func (s *System) Host(i int) *Host { return s.hosts[i] }

// Hosts reports the number of hosts.
func (s *System) Hosts() int { return len(s.hosts) }

// Go spawns a user process on host node. The function runs in virtual
// time, interleaved deterministically with all other processes.
func (s *System) Go(node int, name string, fn func(ctx *Ctx)) {
	h := s.hosts[node]
	s.Eng.Spawn(fmt.Sprintf("h%d/%s", node, name), func(p *sim.Proc) {
		fn(&Ctx{P: p, Host: h})
	})
}

// Run drives the simulation until every user process finishes. It returns
// an error on deadlock (a protocol bug in the simulated code). If a metrics
// collector or profile is installed, the first Run to complete records
// the system into it.
func (s *System) Run() error {
	err := s.Eng.Run()
	if !s.reported {
		s.reported = true
		if s.collector != nil {
			s.collector.Record(s.writeMetrics)
		}
		if s.profile != nil {
			s.CollectProfile(s.profile)
		}
	}
	return err
}

// MustRun is Run, panicking on error.
func (s *System) MustRun() {
	if err := s.Run(); err != nil {
		panic(err)
	}
}

// Host is one simulated machine: a CPU, an address space, and a VIA NIC.
type Host struct {
	sys *System
	id  fabric.NodeID
	CPU *cpu.CPU
	AS  *vmem.AddressSpace
	nic *Nic
}

// ID returns the host's fabric node id.
func (h *Host) ID() fabric.NodeID { return h.id }

// System returns the owning system.
func (h *Host) System() *System { return h.sys }

// Ctx is the execution context of one user process: the simulated process
// plus the host it runs on. All VIPL-style calls take a Ctx so their costs
// land on the right CPU.
type Ctx struct {
	P    *sim.Proc
	Host *Host
}

// Now reports the current virtual time.
func (c *Ctx) Now() sim.Time { return c.P.Now() }

// Sleep suspends the process for d without consuming CPU (e.g. modeling a
// think time).
func (c *Ctx) Sleep(d sim.Duration) { c.P.Sleep(d) }

// Compute models d of application computation on the host CPU.
func (c *Ctx) Compute(d sim.Duration) { c.Host.CPU.Use(c.P, d) }

// Malloc allocates a page-aligned buffer in the host's address space.
// Allocation itself is free in virtual time (the benchmarks allocate
// outside their timed sections, as the paper does).
func (c *Ctx) Malloc(n int) *vmem.Buffer { return c.Host.AS.Alloc(n) }

// OpenNic returns the host's VIA NIC, mirroring VipOpenNic.
func (c *Ctx) OpenNic() *Nic { return c.Host.nic }

// use charges d of host CPU.
func (c *Ctx) use(d sim.Duration) { c.Host.CPU.Use(c.P, d) }
