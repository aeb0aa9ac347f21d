package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"vibe/internal/metrics"
)

// profiled runs fn with the CPU profiler and the Go runtime sampler on. It
// records each layer's self and cumulative CPU and the runtime figures as
// per-layer metrics, and writes the profile and its per-package rollup
// beside the run's report, so the layer breakdown of every traced run is
// kept.
func (b *bench) profiled(fn func() error) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	stop := watchGo()
	err := fn()
	g := stop()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	r := rollupProfile(samples)
	l := b.rep.layer
	for _, name := range []string{"sim", "cpu", "vmem", "nicsim", "fabric", "metrics", "trace", "serve"} {
		l[name+".cpu_cum_s"] = r.Cum[name]
	}
	l["sim.cpu_self_s"] = r.Self["sim"]
	l["via.cpu_self_s"] = r.Self["via"]
	l["via.span.cpu_cum_s"] = r.Buckets[bucketViaSpan]
	l["host.cpu_total_s"] = r.Total
	l["runtime.gc_cum_s"] = r.Buckets[bucketGC]
	l["runtime.memclr_self_s"] = r.Buckets[bucketMemclr]
	l["runtime.mallocgc_cum_s"] = r.Buckets[bucketMallocgc]
	l["go.gc_count"] = g.gcCount
	l["go.gc_pause_s"] = g.gcPause
	l["go.gc_cpu_s"] = g.gcCPU
	l["go.heap_peak_bytes"] = g.heapPeak

	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed))
	var txt bytes.Buffer
	fmt.Fprintf(&txt, "hostbench %s seed=%d: per-package host CPU of the profiled passes\n", b.opt.workload, b.opt.seed)
	if err := r.writeText(&txt); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".rollup.txt", txt.Bytes(), 0o644); err != nil {
		return err
	}
	return writeJSON(base+".rollup.json", r)
}

// overhead records the traced passes' wall time against the untraced
// passes of the same run: the ratio and its base.
func (b *bench) overhead(base, traced []pass) {
	bw, tw := median(walls(base).calm()), median(walls(traced).calm())
	b.rep.layer["trace_overhead.base_wall_s"] = bw
	if bw > 0 {
		b.rep.layer["trace_overhead.wall_ratio"] = tw / bw
	}
}

func walls(ps []pass) samples {
	out := make(samples, len(ps))
	for i, p := range ps {
		out[i] = sample{p.wall, p.steal}
	}
	return out
}

// counters reads the program's own counters from a collector: events and
// heap depth from the engine, packets and credit stalls from the fabric,
// and retransmissions over packets sent from the NIC windows. Reading them
// is itself timed, as the metrics layer's snapshot and exposition cost.
func (b *bench) counters(c *metrics.Collector) error {
	var snap metrics.Snapshot
	b.sp.do("metrics.Snapshot", 0, func(int) { snap = c.Snapshot() })
	var prom bytes.Buffer
	var err error
	b.sp.do("metrics.WritePrometheus", 0, func(int) { err = snap.WritePrometheus(&prom, "vibe") })
	if err != nil {
		return err
	}
	m := snap.Map()
	var retx float64
	for k, v := range m {
		if strings.HasPrefix(k, "nic") && strings.HasSuffix(k, ".window.retransmits") {
			retx += v
		}
	}
	l := b.rep.layer
	l["sim.events"] = m["sim.events_dispatched"]
	l["sim.heap_high_water"] = m["sim.heap_high_water"]
	l["fabric.packets"] = m["fabric.sent"]
	l["fabric.credit_stalls"] = m["fabric.credit_stalls"]
	if sent := m["fabric.sent"]; sent > 0 {
		l["nicsim.retransmit_ratio"] = retx / sent
	}
	l["metrics.snapshot_s"] = sum(b.sp.durations("metrics.Snapshot"))
	l["metrics.prometheus_s"] = sum(b.sp.durations("metrics.WritePrometheus"))
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
