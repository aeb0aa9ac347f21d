package provider

import (
	"vibe/internal/fabric"
	"vibe/internal/nicsim"
	"vibe/internal/sim"
)

// The paper evaluates three implementations but cites two more systems
// its authors worked on: FirmVIA on IBM SP switch-connected NT clusters
// (reference [8]) and the then-upcoming InfiniBand Architecture (§5
// future work: "develop a similar micro-benchmark suite for IBA"). These
// models let the suite exercise both; they are approximations built from
// the cited papers' published numbers, not calibration targets.

// FIRMVIA approximates FirmVIA on an IBM SP switch-connected cluster:
// VIA implemented in adapter microcode on the TB3 adapter's onboard
// PowerPC. Translation runs on the adapter with adapter-resident tables
// (FirmVIA pre-translates at registration time into adapter memory), so —
// like cLAN and unlike Berkeley VIA — it is insensitive to buffer reuse.
// The microcoded data path is slower than cLAN's hardware engines but the
// SP switch links are fast.
func FIRMVIA() *Model {
	return &Model{
		Name: "firmvia",
		Network: fabric.Params{
			Name:          "sp-switch",
			BandwidthBps:  1.2e9, // 150 MB/s SP switch links
			LinkLatency:   us(0.6),
			SwitchLatency: us(1.0),
			FrameOverhead: 20,
		},

		ViCreate:  us(15),
		ViDestroy: us(0.2),

		ConnRequestCost:  us(750),
		ConnAcceptCost:   us(20),
		ConnTeardownCost: us(12),

		CqCreate:  us(40),
		CqDestroy: us(12),

		// FirmVIA translates at registration time into adapter memory,
		// making registration pricier per page but transfers cheap.
		MemRegBase:      us(12),
		MemRegPerPage:   us(2.2),
		MemDeregBase:    us(8),
		MemDeregPerPage: 0,

		PostSendCost:   us(1.2),
		PostRecvCost:   us(1.0),
		PerSegmentCost: us(0.5),
		DoorbellCost:   us(0.5),

		HostCopies:  false,
		CopyPerByte: 0,

		TranslationAt: TranslateAtNIC,
		TablesAt:      TablesInNICMemory,
		TLBCapacity:   0,
		TLBPolicy:     nicsim.FIFO,

		XlateNICTable: us(0.25),

		CheckCost:      us(0.25),
		CqCheckExtra:   us(0.4),
		BlockWakeCost:  us(8),
		NotifyDispatch: us(7),

		DoorbellProc:    us(1.5),
		DescFetch:       us(1.8),
		PerFragment:     us(2.5), // microcode, faster than LANai 4.3, slower than ASIC
		PerFragmentRecv: us(2.5),
		DMAPerByte:      us(0.0067),
		CompletionWrite: us(0.8),

		PollSweep: false,

		WireMTU: 4096,

		AckProcessing:     us(1.0),
		AckBytes:          16,
		RetransmitTimeout: sim.Millisecond,
		MaxRetries:        6,

		MaxTransferSize:   32 * 1024,
		MaxSegments:       8,
		SupportsRDMAWrite: true,
		SupportsRDMARead:  false,
		ReliabilityMask:   0b011,
	}
}

// IBA approximates a first-generation InfiniBand 1x host channel adapter
// (the architecture the paper's conclusion targets for a follow-on
// suite): a 2.5 Gb/s link, fully offloaded hardware data path with
// NIC-resident translation, native reliable connections, and RDMA read
// and write in hardware.
func IBA() *Model {
	return &Model{
		Name: "iba",
		Network: fabric.Params{
			Name:          "infiniband-1x",
			BandwidthBps:  2.0e9, // 2.5 Gb/s signalling, 2.0 Gb/s data (8b/10b)
			LinkLatency:   us(0.2),
			SwitchLatency: us(0.3),
			FrameOverhead: 12,
		},

		ViCreate:  us(2),
		ViDestroy: us(0.1),

		ConnRequestCost:  us(900),
		ConnAcceptCost:   us(10),
		ConnTeardownCost: us(40),

		CqCreate:  us(25),
		CqDestroy: us(8),

		MemRegBase:      us(10),
		MemRegPerPage:   us(1.0),
		MemDeregBase:    us(5),
		MemDeregPerPage: 0,

		PostSendCost:   us(0.5),
		PostRecvCost:   us(0.4),
		PerSegmentCost: us(0.2),
		DoorbellCost:   us(0.15),

		HostCopies:  false,
		CopyPerByte: 0,

		TranslationAt: TranslateAtNIC,
		TablesAt:      TablesInNICMemory,
		TLBCapacity:   0,
		TLBPolicy:     nicsim.LRU,

		XlateNICTable: us(0.1),

		CheckCost:      us(0.15),
		CqCheckExtra:   us(0.05),
		BlockWakeCost:  us(5),
		NotifyDispatch: us(4),

		DoorbellProc:    us(0.3),
		DescFetch:       us(0.4),
		PerFragment:     us(0.3),
		PerFragmentRecv: us(0.3),
		DMAPerByte:      us(0.004), // 64-bit/66 MHz PCI
		CompletionWrite: us(0.3),

		PollSweep: false,

		WireMTU: 2048, // IBA MTU

		AckProcessing:     us(0.3),
		AckBytes:          8,
		RetransmitTimeout: 300 * sim.Microsecond,
		MaxRetries:        8,

		MaxTransferSize:   128 * 1024,
		MaxSegments:       32,
		SupportsRDMAWrite: true,
		SupportsRDMARead:  true,
		ReliabilityMask:   0b111,
	}
}

// Extended returns the paper's three providers plus the FirmVIA and IBA
// approximations.
func Extended() []*Model {
	return append(All(), FIRMVIA(), IBA())
}

// ByNameExtended resolves any of the five models.
func ByNameExtended(name string) (*Model, error) {
	for _, m := range Extended() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, errUnknown(name)
}

// Names lists the built-in provider models in registry order.
func Names() []string {
	models := Extended()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}
