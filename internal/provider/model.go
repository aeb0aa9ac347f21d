// Package provider defines the cost/behaviour models that distinguish the
// simulated VIA implementations. All three of the paper's systems — M-VIA
// on Gigabit Ethernet, Berkeley VIA on Myrinet, and Giganet cLAN — run the
// exact same engine (internal/via) parameterized by a Model.
//
// Parameters come in two kinds: behavioural switches (where translation
// happens, whether the host copies data, whether the firmware polls every
// VI) that reproduce the paper's observations *mechanistically*, and cost
// constants calibrated so the simulated Table 1 and figure shapes match
// the paper.
package provider

import (
	"vibe/internal/fabric"
	"vibe/internal/nicsim"
	"vibe/internal/sim"
)

// TranslationSite says which processor performs virtual-to-physical
// address translation for data transfers.
type TranslationSite int

const (
	// TranslateAtHost: the host (kernel) translates while posting; the NIC
	// receives physical addresses. M-VIA works this way.
	TranslateAtHost TranslationSite = iota
	// TranslateAtNIC: the NIC translates using its own table/cache.
	// Berkeley VIA and cLAN work this way.
	TranslateAtNIC
)

func (t TranslationSite) String() string {
	if t == TranslateAtNIC {
		return "nic"
	}
	return "host"
}

// TableSite says where the translation tables live when the NIC
// translates.
type TableSite int

const (
	// TablesInHostMemory: the NIC caches entries in a small TLB and must
	// DMA to host memory on a miss (Berkeley VIA).
	TablesInHostMemory TableSite = iota
	// TablesInNICMemory: the full table is NIC-resident; every lookup is
	// fast (cLAN).
	TablesInNICMemory
)

func (t TableSite) String() string {
	if t == TablesInNICMemory {
		return "nic-memory"
	}
	return "host-memory"
}

// Model is the complete parameterization of one VIA implementation.
// Durations are virtual time; "host" costs execute on (and are accounted
// to) the host CPU, "NIC" costs execute on the NIC processor.
type Model struct {
	Name    string
	Network fabric.Params

	// --- Non-data-transfer operation costs (host side) ---

	ViCreate  sim.Duration
	ViDestroy sim.Duration

	// Connection management. The client pays ConnRequestCost before its
	// request leaves; the server pays ConnAcceptCost before the accept
	// returns. The paper's "establishing connection" number is what the
	// client observes: request cost + round trip + accept cost.
	ConnRequestCost  sim.Duration
	ConnAcceptCost   sim.Duration
	ConnTeardownCost sim.Duration

	CqCreate  sim.Duration
	CqDestroy sim.Duration

	MemRegBase      sim.Duration
	MemRegPerPage   sim.Duration
	MemDeregBase    sim.Duration
	MemDeregPerPage sim.Duration

	// --- Host data-path costs ---

	PostSendCost   sim.Duration // build + enqueue a send descriptor
	PostRecvCost   sim.Duration // build + enqueue a receive descriptor
	PerSegmentCost sim.Duration // per data segment beyond the first
	DoorbellCost   sim.Duration // MMIO write (hardware) or trap (M-VIA)

	// HostCopies models M-VIA's kernel emulation: payloads are copied
	// between user and kernel buffers on both sides.
	HostCopies  bool
	CopyPerByte sim.Duration

	// HostXlatePerPage is the per-page translation cost when
	// TranslationAt == TranslateAtHost.
	HostXlatePerPage sim.Duration

	CheckCost      sim.Duration // one polling status check (VipSendDone et al.)
	CqCheckExtra   sim.Duration // additional cost when checking via a CQ
	BlockWakeCost  sim.Duration // interrupt + wakeup on a blocking wait
	NotifyDispatch sim.Duration // dispatching an async completion handler

	// --- NIC engine costs ---

	TranslationAt TranslationSite
	TablesAt      TableSite
	TLBCapacity   int
	TLBPolicy     nicsim.TLBPolicy

	XlateHit           sim.Duration // NIC TLB hit, per page
	XlateMissHostTable sim.Duration // NIC TLB miss, table in host memory (DMA)
	XlateNICTable      sim.Duration // table lookup in NIC memory, per page

	DoorbellProc    sim.Duration // NIC processing of one doorbell
	DescFetch       sim.Duration // DMA descriptor from host
	PerFragment     sim.Duration // NIC send-side work per wire fragment
	PerFragmentRecv sim.Duration // NIC receive-side work per wire fragment
	DMAPerByte      sim.Duration // host<->NIC data movement per byte
	CompletionWrite sim.Duration // NIC writes completion status to host

	// PollSweep models Berkeley VIA firmware scanning every open VI's
	// send queue: each descriptor pickup costs PollPerVI for every open VI
	// beyond the first.
	PollSweep bool
	PollPerVI sim.Duration

	// --- Wire / transport ---

	WireMTU int // fragment payload bytes on the wire

	AckProcessing     sim.Duration // NIC cost to create or absorb an ack
	AckBytes          int
	RetransmitTimeout sim.Duration // fixed, like paper-era firmware timers
	MaxRetries        int

	// --- VIA attributes ---

	MaxTransferSize   int // largest message a single descriptor may move
	MaxSegments       int
	SupportsRDMAWrite bool
	SupportsRDMARead  bool
	// ReliabilityLevels this provider supports; the engine rejects VI
	// attributes asking for an unsupported level. Encoded as a bitmask of
	// 1<<level.
	ReliabilityMask uint8
}

// Supports reports whether the model supports reliability level bit lv
// (callers pass via.ReliabilityLevel converted to uint8).
func (m *Model) Supports(lv uint8) bool { return m.ReliabilityMask&(1<<lv) != 0 }

// Clone returns a deep-enough copy for tests and ablations to mutate.
func (m *Model) Clone() *Model {
	c := *m
	return &c
}
