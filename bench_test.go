// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (plus the §3.2.5 extensions and the DESIGN.md
// ablations). Each benchmark regenerates its artifact from the simulated
// providers and reports the headline values as custom metrics, so
// `go test -bench=. -benchmem` prints the same rows/series the paper
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The ns/op column measures how fast the *simulator* reproduces the
// artifact; the custom metrics (suffixed _us, _MBps, _tps, _pct) are the
// simulated results themselves.
package vibe_test

import (
	"testing"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/logp"
	"vibe/internal/mp"
	"vibe/internal/provider"
	"vibe/internal/stream"
)

func quickCfg(m *provider.Model) core.Config {
	cfg := core.DefaultConfig(m)
	cfg.Iters = 30
	cfg.Warmup = 8
	cfg.BWMessages = 60
	cfg.NonDataReps = 4
	return cfg
}

// BenchmarkTable1NonData regenerates Table 1.
func BenchmarkTable1NonData(b *testing.B) {
	var last map[string]core.NonDataCosts
	for i := 0; i < b.N; i++ {
		last = map[string]core.NonDataCosts{}
		for _, m := range provider.All() {
			c, err := core.NonData(quickCfg(m))
			if err != nil {
				b.Fatal(err)
			}
			last[m.Name] = c
		}
	}
	for name, c := range last {
		b.ReportMetric(c.EstablishConn, name+"_conn_us")
		b.ReportMetric(c.CreateVi, name+"_createvi_us")
		b.ReportMetric(c.CreateCq, name+"_createcq_us")
	}
}

// BenchmarkFig1MemRegister regenerates Figure 1.
func BenchmarkFig1MemRegister(b *testing.B) {
	var at28k = map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			s, err := core.MemRegister(quickCfg(m), core.RegLadder())
			if err != nil {
				b.Fatal(err)
			}
			at28k[m.Name] = s.MustAt(28672)
		}
	}
	for name, v := range at28k {
		b.ReportMetric(v, name+"_reg28k_us")
	}
}

// BenchmarkFig2MemDeregister regenerates Figure 2.
func BenchmarkFig2MemDeregister(b *testing.B) {
	var at32m = map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			s, err := core.MemDeregister(quickCfg(m), []int{1024, 32 << 20})
			if err != nil {
				b.Fatal(err)
			}
			at32m[m.Name] = s.MustAt(float64(32 << 20))
		}
	}
	for name, v := range at32m {
		b.ReportMetric(v, name+"_dereg32M_us")
	}
}

// BenchmarkFig3BaseLatencyPolling regenerates the latency half of Fig 3.
func BenchmarkFig3BaseLatencyPolling(b *testing.B) {
	small, large := map[string]float64{}, map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			lat, _, err := core.LatencySweep(quickCfg(m), []int{4, 28672}, core.XferOpts{})
			if err != nil {
				b.Fatal(err)
			}
			small[m.Name], large[m.Name] = lat.MustAt(4), lat.MustAt(28672)
		}
	}
	for name := range small {
		b.ReportMetric(small[name], name+"_4B_us")
		b.ReportMetric(large[name], name+"_28K_us")
	}
}

// BenchmarkFig3BaseBandwidthPolling regenerates the bandwidth half of Fig 3.
func BenchmarkFig3BaseBandwidthPolling(b *testing.B) {
	plateau := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			bw, _, err := core.BandwidthSweep(quickCfg(m), []int{28672}, core.XferOpts{})
			if err != nil {
				b.Fatal(err)
			}
			plateau[m.Name] = bw.MustAt(28672)
		}
	}
	for name, v := range plateau {
		b.ReportMetric(v, name+"_28K_MBps")
	}
}

// BenchmarkFig4BaseLatencyBlocking regenerates Figure 4.
func BenchmarkFig4BaseLatencyBlocking(b *testing.B) {
	lat4, cpu4 := map[string]float64{}, map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			lat, cpuU, err := core.LatencySweep(quickCfg(m), []int{4}, core.XferOpts{Mode: core.Blocking})
			if err != nil {
				b.Fatal(err)
			}
			lat4[m.Name], cpu4[m.Name] = lat.MustAt(4), cpuU.MustAt(4)
		}
	}
	for name := range lat4 {
		b.ReportMetric(lat4[name], name+"_4B_us")
		b.ReportMetric(cpu4[name], name+"_cpu_pct")
	}
}

// BenchmarkFig5BufferReuse regenerates Figure 5 (BVIA only, as plotted).
func BenchmarkFig5BufferReuse(b *testing.B) {
	var base, noReuse float64
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(provider.BVIA())
		r0, err := core.Latency(cfg, 28672, core.XferOpts{VaryBuffers: true, ReusePct: 0})
		if err != nil {
			b.Fatal(err)
		}
		r100, err := core.Latency(cfg, 28672, core.XferOpts{})
		if err != nil {
			b.Fatal(err)
		}
		base, noReuse = r100.LatencyUs, r0.LatencyUs
	}
	b.ReportMetric(base, "bvia_100pct_28K_us")
	b.ReportMetric(noReuse, "bvia_0pct_28K_us")
	b.ReportMetric(noReuse-base, "xlat_penalty_us")
}

// BenchmarkFig6MultiVI regenerates Figure 6 (BVIA only, as plotted).
func BenchmarkFig6MultiVI(b *testing.B) {
	lat := map[int]float64{}
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(provider.BVIA())
		for _, n := range []int{1, 16} {
			r, err := core.Latency(cfg, 4, core.XferOpts{ActiveVIs: n})
			if err != nil {
				b.Fatal(err)
			}
			lat[n] = r.LatencyUs
		}
	}
	b.ReportMetric(lat[1], "bvia_1vi_us")
	b.ReportMetric(lat[16], "bvia_16vi_us")
}

// BenchmarkFig7ClientServer regenerates Figure 7.
func BenchmarkFig7ClientServer(b *testing.B) {
	peak := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			r, err := core.Transaction(quickCfg(m), 16, 16)
			if err != nil {
				b.Fatal(err)
			}
			peak[m.Name] = r.TPS
		}
	}
	for name, v := range peak {
		b.ReportMetric(v, name+"_16B_tps")
	}
}

// BenchmarkCQOverhead regenerates the §4.3.3 observation.
func BenchmarkCQOverhead(b *testing.B) {
	delta := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			_, _, d, err := core.CQOverhead(quickCfg(m), []int{4})
			if err != nil {
				b.Fatal(err)
			}
			delta[m.Name] = d.MustAt(4)
		}
	}
	for name, v := range delta {
		b.ReportMetric(v, name+"_cq_overhead_us")
	}
}

// --- §3.2.5 extension benchmarks ---

func BenchmarkSegments(b *testing.B) {
	var one, four float64
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(provider.CLAN())
		r1, err := core.Latency(cfg, 4096, core.XferOpts{Segments: 1})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := core.Latency(cfg, 4096, core.XferOpts{Segments: 4})
		if err != nil {
			b.Fatal(err)
		}
		one, four = r1.LatencyUs, r4.LatencyUs
	}
	b.ReportMetric(one, "clan_1seg_us")
	b.ReportMetric(four, "clan_4seg_us")
}

func BenchmarkAsyncNotify(b *testing.B) {
	var sync, asy float64
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(provider.CLAN())
		rs, err := core.Latency(cfg, 64, core.XferOpts{})
		if err != nil {
			b.Fatal(err)
		}
		ra, err := core.Latency(cfg, 64, core.XferOpts{Notify: true})
		if err != nil {
			b.Fatal(err)
		}
		sync, asy = rs.LatencyUs, ra.LatencyUs
	}
	b.ReportMetric(sync, "clan_sync_us")
	b.ReportMetric(asy, "clan_notify_us")
}

func BenchmarkRDMA(b *testing.B) {
	lat := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			r, err := core.Latency(quickCfg(m), 4096, core.XferOpts{RDMA: true})
			if err != nil {
				b.Fatal(err)
			}
			lat[m.Name] = r.LatencyUs
		}
	}
	for name, v := range lat {
		b.ReportMetric(v, name+"_rdmaw_4K_us")
	}
}

func BenchmarkPipeline(b *testing.B) {
	var w1, w16 float64
	for i := 0; i < b.N; i++ {
		s, err := core.PipelineSweep(quickCfg(provider.CLAN()), 4096, []int{1, 16})
		if err != nil {
			b.Fatal(err)
		}
		w1, w16 = s.MustAt(1), s.MustAt(16)
	}
	b.ReportMetric(w1, "clan_window1_MBps")
	b.ReportMetric(w16, "clan_window16_MBps")
}

func BenchmarkMTU(b *testing.B) {
	var at, over float64
	for i := 0; i < b.N; i++ {
		m := provider.BVIA()
		lat, _, err := core.LatencySweep(quickCfg(m), []int{m.WireMTU, m.WireMTU + 4}, core.XferOpts{})
		if err != nil {
			b.Fatal(err)
		}
		at, over = lat.MustAt(float64(m.WireMTU)), lat.MustAt(float64(m.WireMTU+4))
	}
	b.ReportMetric(at, "bvia_atMTU_us")
	b.ReportMetric(over, "bvia_overMTU_us")
}

func BenchmarkReliability(b *testing.B) {
	lat := map[string]float64{}
	for i := 0; i < b.N; i++ {
		g, err := core.ReliabilitySweep(quickCfg(provider.CLAN()), []int{1024}, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range g.Series {
			lat[s.Name] = s.MustAt(1024)
		}
	}
	for name, v := range lat {
		b.ReportMetric(v, "clan_"+name+"_us")
	}
}

// --- ablations and baseline comparator ---

func BenchmarkAblationTLBCapacity(b *testing.B) {
	lat := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, capacity := range []int{32, 1024} {
			m := provider.BVIA()
			m.TLBCapacity = capacity
			cfg := quickCfg(m)
			cfg.Warmup = 20
			r, err := core.Latency(cfg, 28672, core.XferOpts{VaryBuffers: true, ReusePct: 0, PoolBuffers: 16})
			if err != nil {
				b.Fatal(err)
			}
			lat[capacity] = r.LatencyUs
		}
	}
	b.ReportMetric(lat[32], "tlb32_us")
	b.ReportMetric(lat[1024], "tlb1024_us")
}

// BenchmarkLogPBaseline extracts the LogP comparator the paper argues is
// insufficient.
func BenchmarkLogPBaseline(b *testing.B) {
	params := map[string]logp.Params{}
	for i := 0; i < b.N; i++ {
		for _, m := range provider.All() {
			p, err := logp.Extract(core.DefaultConfig(m))
			if err != nil {
				b.Fatal(err)
			}
			params[m.Name] = p
		}
	}
	for name, p := range params {
		b.ReportMetric(p.L, name+"_L_us")
		b.ReportMetric(p.Os, name+"_os_us")
		b.ReportMetric(p.G, name+"_g_us")
	}
}

// --- programming-model layer benchmarks (paper §5 future work) ---

// BenchmarkMPLayer measures the message-passing layer against raw VIA at
// an eager and a rendezvous size.
func BenchmarkMPLayer(b *testing.B) {
	var eager, rdv float64
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(provider.CLAN())
		s, err := core.MPLatency(cfg, []int{1024, 28672}, mp.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		eager, rdv = s.MustAt(1024), s.MustAt(28672)
	}
	b.ReportMetric(eager, "clan_mp_1K_us")
	b.ReportMetric(rdv, "clan_mp_28K_us")
}

// BenchmarkGetPutLayer measures one-sided puts and gets, including the
// daemon-serviced fallback on Berkeley VIA.
func BenchmarkGetPutLayer(b *testing.B) {
	type pg struct{ put, get float64 }
	res := map[string]pg{}
	for i := 0; i < b.N; i++ {
		for _, m := range []*provider.Model{provider.CLAN(), provider.BVIA()} {
			put, get, err := core.GPLatency(quickCfg(m), 4096)
			if err != nil {
				b.Fatal(err)
			}
			res[m.Name] = pg{put, get}
		}
	}
	for name, v := range res {
		b.ReportMetric(v.put, name+"_put4K_us")
		b.ReportMetric(v.get, name+"_get4K_us")
	}
}

// BenchmarkStreamLayer measures the sockets-like layer's throughput and
// 1KB round-trip latency.
func BenchmarkStreamLayer(b *testing.B) {
	var tput, lat float64
	for i := 0; i < b.N; i++ {
		cfg := quickCfg(provider.CLAN())
		var err error
		tput, err = core.StreamThroughput(cfg, 512<<10, stream.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		lat, err = core.StreamPingPong(cfg, 1024, stream.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tput, "clan_stream_MBps")
	b.ReportMetric(lat, "clan_stream_1K_us")
}

// BenchmarkDSMLayer measures the distributed-shared-memory layer's
// lock-protected counter increment.
func BenchmarkDSMLayer(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		var err error
		us, _, err = core.DSMLockContention(quickCfg(provider.CLAN()), 3, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(us, "clan_dsm_incr_us")
}

// BenchmarkSimulatorThroughput measures the raw discrete-event engine:
// simulated ping-pongs per wall-clock second (a sanity metric for the
// substrate itself, not a paper artifact).
func BenchmarkSimulatorThroughput(b *testing.B) {
	sizes := bench.SmallLadder()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.LatencySweep(quickCfg(provider.CLAN()), sizes, core.XferOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
