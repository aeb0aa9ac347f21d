// Package vibe is a reproduction of "VIBe: A Micro-benchmark Suite for
// Evaluating Virtual Interface Architecture (VIA) Implementations"
// (Banikazemi et al., IPPS/IPDPS 2001) as a pure-Go library.
//
// Because VIA hardware is extinct, the library contains a complete
// software implementation of the Virtual Interface Architecture running on
// a deterministic discrete-event hardware simulation, three provider
// models calibrated to the paper's systems (M-VIA on Gigabit Ethernet,
// Berkeley VIA on Myrinet, Giganet cLAN), and the VIBe suite itself.
//
// This package is the public facade: it re-exports the VIA programming
// interface (a VIPL-style API), the provider models, and the benchmark
// suite. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	sys, _ := vibe.NewCluster("clan", 2, 1)
//	sys.Go(0, "client", func(ctx *vibe.Ctx) {
//	    nic := ctx.OpenNic()
//	    vi, _ := nic.CreateVi(ctx, vibe.ViAttributes{}, nil, nil)
//	    _ = vi.ConnectRequest(ctx, 1, "svc", 10*vibe.Second)
//	    ...
//	})
//	sys.MustRun()
package vibe

import (
	"vibe/internal/core"
	"vibe/internal/dsm"
	"vibe/internal/getput"
	"vibe/internal/mp"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/stream"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// Simulated-memory types: VIA data segments name buffers by virtual
// address, and Ctx.Malloc returns a Buffer.
type (
	// Buffer is a page-aligned allocation in a host's simulated address
	// space, backed by real bytes.
	Buffer = vmem.Buffer
	// Addr is a simulated virtual address.
	Addr = vmem.Addr
)

// --- VIA programming interface (VIPL-style) ---

// Core VIA types, re-exported from the implementation.
type (
	// System is a simulated cluster of hosts connected by a provider's
	// network.
	System = via.System
	// Ctx is a simulated process's execution context; all VIA calls take
	// one.
	Ctx = via.Ctx
	// Nic, Vi, CQ are the VIA objects (VipNic, VipVi, VipCQ).
	Nic = via.Nic
	Vi  = via.Vi
	CQ  = via.CQ
	// Descriptor and its segments form VIA work requests.
	Descriptor     = via.Descriptor
	DataSegment    = via.DataSegment
	AddressSegment = via.AddressSegment
	MemHandle      = via.MemHandle
	ViAttributes   = via.ViAttributes
	// Completion is a completion-queue entry.
	Completion = via.Completion
)

// Reliability levels of the VIA specification.
const (
	Unreliable        = via.Unreliable
	ReliableDelivery  = via.ReliableDelivery
	ReliableReception = via.ReliableReception
)

// Descriptor operations.
const (
	OpSend      = via.OpSend
	OpRdmaWrite = via.OpRdmaWrite
	OpRdmaRead  = via.OpRdmaRead
)

// Virtual-time units for timeouts and think times.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Convenience descriptor constructors.
var (
	SimpleSend = via.SimpleSend
	SimpleRecv = via.SimpleRecv
)

// NewCluster builds a simulated cluster of n hosts on the named provider
// ("mvia", "bvia", or "clan"). Equal seeds give bit-identical runs.
func NewCluster(providerName string, n int, seed int64) (*System, error) {
	m, err := provider.ByName(providerName)
	if err != nil {
		return nil, err
	}
	return via.NewSystem(m, n, seed), nil
}

// Providers lists the available provider model names.
func Providers() []string {
	var names []string
	for _, m := range provider.All() {
		names = append(names, m.Name)
	}
	return names
}

// --- The VIBe suite ---

// Suite types, re-exported.
type (
	// Config carries benchmark run parameters.
	Config = core.Config
	// XferOpts vary one VIA component at a time relative to the base
	// configuration.
	XferOpts = core.XferOpts
	// XferResult is one data-transfer measurement.
	XferResult = core.XferResult
	// Report is the output of one experiment.
	Report = core.Report
	// Experiment regenerates one paper artifact.
	Experiment = core.Experiment
)

// Completion-check modes.
const (
	Polling  = core.Polling
	Blocking = core.Blocking
)

// DefaultConfig returns the paper-reproduction configuration for the
// named provider.
func DefaultConfig(providerName string) (Config, error) {
	m, err := provider.ByName(providerName)
	if err != nil {
		return Config{}, err
	}
	return core.DefaultConfig(m), nil
}

// Scenario types: a scenario is a first-class design point — a base
// provider model, parameter overrides, run-config overrides and an
// optional fault plan — that every experiment can execute under.
type (
	// Scenario is a compiled, validated design point.
	Scenario = core.Scenario
	// ScenarioSpec is the serializable scenario description
	// ({name, base, set, run, fault}) that compiles into a Scenario.
	ScenarioSpec = core.ScenarioSpec
)

// NewScenario validates and compiles a scenario spec.
func NewScenario(spec ScenarioSpec, quick bool) (*Scenario, error) {
	return core.NewScenario(spec, quick)
}

// LoadScenario reads a scenario spec from a JSON file and compiles it.
func LoadScenario(path string, quick bool) (*Scenario, error) {
	return core.LoadScenario(path, quick)
}

// DefaultScenario is the unmodified paper configuration.
func DefaultScenario(quick bool) *Scenario { return core.DefaultScenario(quick) }

// Experiments returns the full experiment registry (Table 1, Figures 1-7,
// the §3.2.5 extensions, and the ablations).
func Experiments() []*Experiment { return core.Experiments() }

// RunExperiment runs one experiment by id (e.g. "T1", "F3", "XRDMA")
// under the default scenario.
func RunExperiment(id string, quick bool) (*Report, error) {
	return RunExperimentScenario(id, core.DefaultScenario(quick))
}

// RunExperimentScenario runs one experiment by id under the given
// scenario.
func RunExperimentScenario(id string, sc *Scenario) (*Report, error) {
	e, err := core.ExperimentByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(sc)
}

// Latency measures one ping-pong latency point on the named provider.
func Latency(providerName string, size int, o XferOpts) (XferResult, error) {
	cfg, err := DefaultConfig(providerName)
	if err != nil {
		return XferResult{}, err
	}
	return core.Latency(cfg, size, o)
}

// Bandwidth measures one streaming bandwidth point on the named provider.
func Bandwidth(providerName string, size int, o XferOpts) (XferResult, error) {
	cfg, err := DefaultConfig(providerName)
	if err != nil {
		return XferResult{}, err
	}
	return core.Bandwidth(cfg, size, o)
}

// --- Programming-model layers (the paper's §3.3/§5 targets) ---

// Message-passing layer types: tagged, reliable Send/Recv with
// eager/rendezvous protocols, plus Barrier/Bcast/Gather collectives.
type (
	// MPWorld is a fully-meshed set of message-passing ranks, one per
	// host.
	MPWorld = mp.World
	// MPEndpoint is one rank's handle.
	MPEndpoint = mp.Endpoint
	// MPConfig tunes the layer (eager limit, ring size, registration
	// cache).
	MPConfig = mp.Config
)

// NewMPWorld prepares a message-passing world over sys with one rank per
// host. Use MPDefaultConfig() for production-shaped protocol settings.
// The world's Run(fail, fn) spawns the ranks: a rank whose setup fails
// passes the error to fail and never calls fn.
func NewMPWorld(sys *System, cfg MPConfig) *MPWorld { return mp.NewWorld(sys, cfg) }

// MPDefaultConfig returns the message-passing layer's default tuning.
func MPDefaultConfig() MPConfig { return mp.DefaultConfig() }

// One-sided get/put layer types: named exposed regions, RDMA-write puts,
// RDMA-read gets with a daemon-serviced fallback.
type (
	// GPFabric is a set of get/put nodes, one per host.
	GPFabric = getput.Fabric
	// GPNode is one node's handle.
	GPNode = getput.Node
	// GPConfig tunes the layer.
	GPConfig = getput.Config
)

// NewGPFabric prepares a get/put fabric over sys with one node per host.
// The fabric's Run(fail, fn) spawns the nodes: a node whose setup fails
// passes the error to fail and never calls fn.
func NewGPFabric(sys *System, cfg GPConfig) *GPFabric { return getput.NewFabric(sys, cfg) }

// GPDefaultConfig returns the get/put layer's default tuning.
func GPDefaultConfig() GPConfig { return getput.DefaultConfig() }

// Sockets-like byte-stream layer types (the paper's reference [17]):
// reliable, ordered, flow-controlled streams with Dial/Listen/Read/Write.
type (
	// StreamConn is a byte-stream connection.
	StreamConn = stream.Conn
	// StreamConfig tunes segmentation and the receive window.
	StreamConfig = stream.Config
)

// StreamDial connects a byte stream to a listening service on the remote
// host.
func StreamDial(ctx *Ctx, remote int, service string, cfg StreamConfig) (*StreamConn, error) {
	return stream.Dial(ctx, remote, service, cfg)
}

// StreamListen blocks until a stream connection arrives for the service.
func StreamListen(ctx *Ctx, service string, cfg StreamConfig) (*StreamConn, error) {
	return stream.Listen(ctx, service, cfg)
}

// StreamDefaultConfig returns the stream layer's default tuning.
func StreamDefaultConfig() StreamConfig { return stream.DefaultConfig() }

// Distributed-shared-memory layer types (the paper's reference [7],
// TreadMarks over VIA): home-based release-consistent shared regions with
// locks and barriers.
type (
	// DSMWorld is a DSM cluster; node 0 runs the lock/barrier manager.
	DSMWorld = dsm.World
	// DSMNode is one host's DSM handle.
	DSMNode = dsm.Node
	// DSMConfig tunes the layer.
	DSMConfig = dsm.Config
)

// DSMPageSize is the DSM sharing granularity in bytes.
const DSMPageSize = dsm.PageSize

// NewDSMWorld prepares a DSM world over sys with one node per host. The
// world's Run(fail, fn) spawns the nodes: a setup error, or a send the
// lock manager cannot complete, goes to fail, and a node whose setup
// fails never calls fn.
func NewDSMWorld(sys *System, cfg DSMConfig) *DSMWorld { return dsm.New(sys, cfg) }

// DSMDefaultConfig returns the DSM layer's default tuning.
func DSMDefaultConfig() DSMConfig { return dsm.DefaultConfig() }
