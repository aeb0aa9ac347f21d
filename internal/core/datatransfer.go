package core

import (
	"fmt"

	"vibe/internal/bench"
)

// LatencySweep runs the ping-pong latency test over the size ladder and
// returns the latency curve (us) and the client CPU-utilization curve
// (percent), the paper's LAT*/CPU* pairs.
func LatencySweep(cfg Config, sizes []int, o XferOpts) (lat, cpuU *bench.Series, err error) {
	name := seriesName(cfg, o)
	lat = bench.NewSeries(name, "message size (bytes)", "latency (us)")
	cpuU = bench.NewSeries(name, "message size (bytes)", "CPU utilization (%)")
	for _, size := range sizes {
		r, err := roundTrip(cfg, size, size, false, o)
		if err != nil {
			return lat, cpuU, fmt.Errorf("latency %s size %d: %w", name, size, err)
		}
		lat.Add(float64(size), r.LatencyUs)
		cpuU.Add(float64(size), r.CPUUtil*100)
	}
	return lat, cpuU, nil
}

// BandwidthSweep runs the streaming test over the size ladder and returns
// the bandwidth curve (MB/s) and sender CPU utilization (percent), the
// paper's BW* family.
func BandwidthSweep(cfg Config, sizes []int, o XferOpts) (bw, cpuU *bench.Series, err error) {
	name := seriesName(cfg, o)
	bw = bench.NewSeries(name, "message size (bytes)", "bandwidth (MB/s)")
	cpuU = bench.NewSeries(name, "message size (bytes)", "CPU utilization (%)")
	for _, size := range sizes {
		r, err := bandwidth(cfg, size, o)
		if err != nil {
			return bw, cpuU, fmt.Errorf("bandwidth %s size %d: %w", name, size, err)
		}
		bw.Add(float64(size), r.MBps)
		cpuU.Add(float64(size), r.CPUUtil*100)
	}
	return bw, cpuU, nil
}

// Latency measures a single latency point.
func Latency(cfg Config, size int, o XferOpts) (XferResult, error) {
	return roundTrip(cfg, size, size, false, o)
}

// Bandwidth measures a single bandwidth point.
func Bandwidth(cfg Config, size int, o XferOpts) (XferResult, error) {
	return bandwidth(cfg, size, o)
}

// ReuseSweep is the §3.2.2 address-translation benchmark (Figure 5): one
// latency (or bandwidth) curve per buffer-reuse percentage. 100% is
// LATbase; 0% is LATxlat.
func ReuseSweep(cfg Config, sizes []int, reusePcts []int, bandwidthMode bool) (*bench.Group, error) {
	var curves []curve
	for _, pct := range reusePcts {
		curves = append(curves, curve{fmt.Sprintf("%d%% reuse", pct), XferOpts{VaryBuffers: true, ReusePct: pct}})
	}
	return curveGroup(cfg, sizes, "buffer reuse", bandwidthMode, curves)
}

// MultiViSweep is the §3.2.4 benchmark (Figure 6): one curve per number
// of open VIs.
func MultiViSweep(cfg Config, sizes []int, viCounts []int, bandwidthMode bool) (*bench.Group, error) {
	var curves []curve
	for _, n := range viCounts {
		curves = append(curves, curve{fmt.Sprintf("%d VIs", n), XferOpts{ActiveVIs: n}})
	}
	return curveGroup(cfg, sizes, "multiple VIs", bandwidthMode, curves)
}

// curve names one sweep of a curveGroup and the options it runs with.
type curve struct {
	name string
	o    XferOpts
}

// curveGroup runs a latency (or bandwidth) sweep per curve and returns
// them as the group "<model> <what>: latency" (or ": bandwidth").
func curveGroup(cfg Config, sizes []int, what string, bandwidthMode bool, curves []curve) (*bench.Group, error) {
	sweep, metric := LatencySweep, "latency"
	if bandwidthMode {
		sweep, metric = BandwidthSweep, "bandwidth"
	}
	g := bench.NewGroup(fmt.Sprintf("%s %s: %s", cfg.Model.Name, what, metric))
	for _, c := range curves {
		s, _, err := sweep(cfg, sizes, c.o)
		if err != nil {
			return g, err
		}
		s.Name = c.name
		g.Add(s)
	}
	return g, nil
}

// CQOverhead is the §3.2.3 benchmark: latency with receive completions
// checked through a completion queue, minus base latency, per message
// size. The paper reports this as negligible for M-VIA and cLAN and
// 2-5 us for BVIA.
func CQOverhead(cfg Config, sizes []int) (base, withCQ, delta *bench.Series, err error) {
	base, _, err = LatencySweep(cfg, sizes, XferOpts{})
	if err != nil {
		return
	}
	withCQ, _, err = LatencySweep(cfg, sizes, XferOpts{RecvViaCQ: true})
	if err != nil {
		return
	}
	delta = bench.NewSeries(cfg.Model.Name+" CQ overhead", "message size (bytes)", "overhead (us)")
	for i, x := range base.X {
		delta.Add(x, withCQ.Y[i]-base.Y[i])
	}
	return
}

// PipelineSweep is the sender-pipeline-length benchmark of §3.2.5
// (BWpipe): bandwidth at a fixed message size as a function of the number
// of outstanding sends the sender allows.
func PipelineSweep(cfg Config, size int, windows []int) (*bench.Series, error) {
	s := bench.NewSeries(cfg.Model.Name, "pipeline length (outstanding sends)", "bandwidth (MB/s)")
	for _, w := range windows {
		r, err := bandwidth(cfg, size, XferOpts{Window: w})
		if err != nil {
			return s, err
		}
		s.Add(float64(w), r.MBps)
	}
	return s, nil
}

// MTULadder returns sizes straddling the provider's wire MTU and its
// multiples, for the maximum-transfer-size benchmark of §3.2.5 (LATmtu).
func MTULadder(mtu int) []int {
	return []int{
		mtu / 2, mtu - 4, mtu, mtu + 4,
		2*mtu - 4, 2 * mtu, 2*mtu + 4,
		4 * mtu,
	}
}

// ReliabilitySweep is the §3.2.5 reliability benchmark (LATrel/BWrel):
// one curve per reliability level the provider supports.
func ReliabilitySweep(cfg Config, sizes []int, bandwidthMode bool) (*bench.Group, error) {
	var curves []curve
	for lv := uint8(0); lv < 3; lv++ {
		if cfg.Model.Supports(lv) {
			r := reliabilityLevel(lv)
			curves = append(curves, curve{r.String(), XferOpts{Reliability: r}})
		}
	}
	return curveGroup(cfg, sizes, "reliability levels", bandwidthMode, curves)
}

func seriesName(cfg Config, o XferOpts) string {
	name := cfg.Model.Name
	if o.Mode == Blocking {
		name += " blocking"
	}
	return name
}
