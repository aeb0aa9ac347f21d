package via

import (
	"strconv"

	"vibe/internal/fabric"
	"vibe/internal/metrics"
	"vibe/internal/prof"
)

// SetCollector arranges for the system's metrics to be recorded into c
// when Run finishes. Counters always accumulate (they are cheap integer
// increments that never touch virtual time); the collector only controls
// whether anyone reads them, so simulations without one behave — and time —
// identically.
func (s *System) SetCollector(c *metrics.Collector) { s.collector = c }

// writeMetrics writes every component counter into r, the registry of
// the run's collector (see Run), under hierarchical keys: sim.* (engine),
// cpu{i}.* (host processors), nic{i}.* (NIC engines, TLB, reliability
// window), via{i}.* (VIPL-level operations), link{i}.* (per-host fabric
// links), fabric.* (whole interconnect).
func (s *System) writeMetrics(r *metrics.Registry) {
	r.AddUint("sim.events_dispatched", s.Eng.EventsDispatched())
	r.Gauge("sim.heap_high_water", float64(s.Eng.HeapHighWater()))

	elapsed := s.Eng.Now().Sub(0)
	for i, h := range s.hosts {
		cpuK := "cpu" + strconv.Itoa(i)
		busy := h.CPU.Busy()
		r.Add(metrics.Join(cpuK, "busy_ns"), float64(busy))
		r.Add(metrics.Join(cpuK, "idle_ns"), float64(max(elapsed-busy, 0)))
		r.Add(metrics.Join(cpuK, "spin_ns"), float64(h.CPU.SpinBusy()))
		r.Add(metrics.Join(cpuK, "wake_ns"), float64(h.CPU.WakeBusy()))
		r.AddUint(metrics.Join(cpuK, "spin_waits"), h.CPU.SpinWaits())
		r.AddUint(metrics.Join(cpuK, "block_waits"), h.CPU.BlockWaits())

		n := h.nic
		nicK := "nic" + strconv.Itoa(i)
		// One doorbell consumed is exactly one descriptor fetch in this
		// NIC model, but the two keys map to distinct paper cost terms.
		r.AddUint(metrics.Join(nicK, "doorbells"), n.SendsProcessed)
		r.AddUint(metrics.Join(nicK, "desc_fetches"), n.SendsProcessed)
		if n.tlb != nil {
			r.AddUint(metrics.Join(nicK, "tlb", "hits"), n.tlb.Hits)
			r.AddUint(metrics.Join(nicK, "tlb", "misses"), n.tlb.Misses)
		}
		r.AddUint(metrics.Join(nicK, "dma", "bytes_out"), n.DMABytesOut)
		r.AddUint(metrics.Join(nicK, "dma", "bytes_in"), n.DMABytesIn)
		r.AddUint(metrics.Join(nicK, "frags", "sent"), n.FragsSent)
		r.AddUint(metrics.Join(nicK, "frags", "recv"), n.FragsRecv)
		r.AddUint(metrics.Join(nicK, "acks", "sent"), n.AcksSent)
		r.AddUint(metrics.Join(nicK, "acks", "recv"), n.AcksRecv)
		r.AddUint(metrics.Join(nicK, "drops", "no_desc"), n.DroppedNoDesc)

		w := n.windowTotals()
		r.AddUint(metrics.Join(nicK, "window", "acked"), w.acked)
		r.AddUint(metrics.Join(nicK, "window", "retransmits"), w.retransmits)
		r.AddUint(metrics.Join(nicK, "window", "recv_duplicates"), w.dups)
		r.AddUint(metrics.Join(nicK, "window", "recv_gaps"), w.gaps)
		r.AddUint(metrics.Join(nicK, "window", "backoffs"), w.backoffs)

		// Error-semantics counters.
		r.AddUint(metrics.Join(nicK, "drops", "corrupt"), n.CorruptDrops)
		r.AddUint(metrics.Join(nicK, "flushed"), n.FlushedDescs)
		r.AddUint(metrics.Join(nicK, "transport_errors"), n.TransportErrs)
		r.AddUint(metrics.Join(nicK, "conn_errors"), n.ConnErrors)
		r.Add(metrics.Join(nicK, "fault_stall_ns"), float64(n.FaultStallTime))

		// Busy-time attribution: virtual time the NIC engines spent per
		// cost-component phase (the profiler's source, exported here too so
		// metrics tables show the same decomposition).
		r.Add(metrics.Join(nicK, "busy", "doorbell_ns"), float64(n.BusyDoorbell))
		r.Add(metrics.Join(nicK, "busy", "desc_fetch_ns"), float64(n.BusyFetch))
		r.Add(metrics.Join(nicK, "busy", "frag_ns"), float64(n.BusyFrag))
		r.Add(metrics.Join(nicK, "busy", "xlate_ns"), float64(n.BusyXlate))
		r.Add(metrics.Join(nicK, "busy", "dma_ns"), float64(n.BusyDMA))
		r.Add(metrics.Join(nicK, "busy", "ack_ns"), float64(n.BusyAck))

		viaK := "via" + strconv.Itoa(i)
		r.AddUint(metrics.Join(viaK, "sends_posted"), n.PostedSends)
		r.AddUint(metrics.Join(viaK, "recvs_posted"), n.PostedRecvs)
		r.AddUint(metrics.Join(viaK, "recvs_completed"), n.RecvsCompleted)
		r.AddUint(metrics.Join(viaK, "rdma", "writes"), n.RdmaWrites)
		r.AddUint(metrics.Join(viaK, "rdma", "reads"), n.RdmaReads)
		r.AddUint(metrics.Join(viaK, "completions", "unreliable"), n.completions[Unreliable])
		r.AddUint(metrics.Join(viaK, "completions", "delivery"), n.completions[ReliableDelivery])
		r.AddUint(metrics.Join(viaK, "completions", "reception"), n.completions[ReliableReception])

		ls := s.Net.LinkStats(h.id)
		linkK := "link" + strconv.Itoa(i)
		r.AddUint(metrics.Join(linkK, "tx_packets"), ls.TxPackets)
		r.AddUint(metrics.Join(linkK, "tx_bytes"), ls.TxBytes)
		r.AddUint(metrics.Join(linkK, "rx_packets"), ls.RxPackets)
		r.AddUint(metrics.Join(linkK, "rx_bytes"), ls.RxBytes)
		r.AddUint(metrics.Join(linkK, "rx_corrupt"), ls.RxCorrupt)
		r.AddUint(metrics.Join(linkK, "dropped"), ls.Dropped)
		r.AddUint(metrics.Join(linkK, "dropped_fault"), ls.DroppedFault)
		r.AddUint(metrics.Join(linkK, "dropped_rate"), ls.DroppedRate)
	}

	// Per-switch output-port activity: forwarded traffic, credit stalls
	// (admissions that waited for a downstream buffer slot) and the
	// deepest queue occupancy seen, per switch of the topology.
	for si := 0; si < s.Net.Switches(); si++ {
		ss := s.Net.SwitchStats(fabric.SwitchID(si))
		swK := "switch" + strconv.Itoa(si)
		r.AddUint(metrics.Join(swK, "tx_packets"), ss.TxPackets)
		r.AddUint(metrics.Join(swK, "tx_bytes"), ss.TxBytes)
		r.AddUint(metrics.Join(swK, "credit_stalls"), ss.CreditStalls)
		r.Add(metrics.Join(swK, "stall_ns"), float64(ss.StallTime))
		r.Gauge(metrics.Join(swK, "max_queue"), float64(ss.MaxQueue))
	}

	r.AddUint("fabric.sent", s.Net.Sent)
	r.AddUint("fabric.delivered", s.Net.Delivered)
	r.AddUint("fabric.dropped", s.Net.Dropped)
	r.AddUint("fabric.dropped_fault", s.Net.DroppedBy(fabric.DropCauseFault))
	r.AddUint("fabric.dropped_rate", s.Net.DroppedBy(fabric.DropCauseRate))
	r.AddUint("fabric.duplicated", s.Net.Duplicated)
	r.AddUint("fabric.corrupted", s.Net.Corrupted)
	r.AddUint("fabric.bytes", s.Net.BytesSent)
	r.Add("fabric.serialization_ns", float64(s.Net.SerTime))
	r.Add("fabric.propagation_ns", float64(s.Net.PropTime))
	r.AddUint("fabric.credit_stalls", s.Net.CreditStalls())
	r.Gauge("fabric.max_switch_queue", float64(s.Net.MaxQueueDepth()))
	r.AddUint("fabric.rerouted", s.Net.Rerouted)
	r.AddUint("fabric.unroutable", s.Net.Unroutable)

	// Fault-plan application counts by kind, when a plan is installed.
	if s.faults != nil {
		for kind, count := range s.faults.Counts() {
			r.AddUint(metrics.Join("fault", kind), count)
		}
	}

	// Message-lifecycle span histograms: end-to-end and per-phase latency
	// distributions for each sampled path (see span.go).
	if t := s.spans; t != nil {
		r.AddUint("span.sampled", t.opened)
		r.AddUint("span.completed", t.closedN)
		for pi := spanPath(0); pi < numPaths; pi++ {
			if t.totals[pi].Count() == 0 {
				continue
			}
			r.MergeHist(metrics.Join("span", pathNames[pi], "total_ns"), &t.totals[pi])
			for ph := spanPhase(0); ph < numPhases; ph++ {
				if t.phaseH[pi][ph].Count() > 0 {
					r.MergeHist(metrics.Join("span", pathNames[pi], phaseNames[ph]+"_ns"), &t.phaseH[pi][ph])
				}
			}
		}
	}
}

// windowTotals are reliability-window counters. A NIC's totals are what
// teardown absorbed into it plus what live connections hold now (teardown
// zeroes the connection's counters, so the sum never double counts).
type windowTotals struct {
	acked, retransmits, dups, gaps, backoffs uint64
}

// add folds connection c's window counters into w.
func (w *windowTotals) add(c *connState) {
	w.acked += c.window.Acked
	w.retransmits += c.window.Retransmits
	w.dups += c.recvSeq.Duplicates
	w.gaps += c.recvSeq.Gaps
	w.backoffs += c.rto.Backoffs
}

func (n *Nic) windowTotals() windowTotals {
	w := n.absorbed
	for _, vi := range n.vis {
		if vi.conn != nil {
			w.add(vi.conn)
		}
	}
	return w
}

// Retransmits reports the go-back-N retransmissions of every NIC in the
// system: the sum of the nic{i}.window.retransmits metrics.
func (s *System) Retransmits() uint64 {
	var n uint64
	for _, h := range s.hosts {
		n += h.nic.windowTotals().retransmits
	}
	return n
}

// SetProfile arranges for the system's virtual-time attribution to be
// folded into sc when Run finishes. Like SetCollector, it only controls
// whether the always-on busy accumulators are read.
func (s *System) SetProfile(sc *prof.Scope) { s.profile = sc }

// CollectProfile folds per-component busy-time attribution into sc as
// `host{i};component;phase` stacks: where every simulated nanosecond of
// CPU and NIC engine time went, plus the fabric's serialization and
// propagation totals.
func (s *System) CollectProfile(sc *prof.Scope) {
	for i, h := range s.hosts {
		hostK := "host" + strconv.Itoa(i)
		spin, wake := h.CPU.SpinBusy(), h.CPU.WakeBusy()
		sc.Add(int64(h.CPU.Busy()-spin-wake), hostK, "cpu", "compute")
		sc.Add(int64(spin), hostK, "cpu", "spin")
		sc.Add(int64(wake), hostK, "cpu", "wake")

		n := h.nic
		sc.Add(int64(n.BusyDoorbell), hostK, "nic", "doorbell")
		sc.Add(int64(n.BusyFetch), hostK, "nic", "desc_fetch")
		sc.Add(int64(n.BusyFrag), hostK, "nic", "frag")
		sc.Add(int64(n.BusyXlate), hostK, "nic", "xlate")
		sc.Add(int64(n.BusyDMA), hostK, "nic", "dma")
		sc.Add(int64(n.BusyAck), hostK, "nic", "ack")
		sc.Add(int64(n.FaultStallTime), hostK, "nic", "stall")
	}
	sc.Add(int64(s.Net.SerTime), "fabric", "serialization")
	sc.Add(int64(s.Net.PropTime), "fabric", "propagation")
}
