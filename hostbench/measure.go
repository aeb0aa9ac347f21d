package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// pass is the host cost of one timed pass of a workload.
type pass struct {
	wall       float64 // seconds
	cpu        float64 // process user+sys seconds
	allocBytes float64 // Go heap bytes allocated
	allocs     float64 // Go heap objects allocated
	steal      float64 // share of the machine's CPU time the hypervisor stole meanwhile
}

// measure runs fn as one timed pass. A collection first gives every pass
// the same starting heap.
func measure(fn func() error) (pass, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	s0 := readSteal()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	steal := readSteal().since(s0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return pass{
		wall:       wall.Seconds(),
		cpu:        c1 - c0,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		allocs:     float64(m1.Mallocs - m0.Mallocs),
		steal:      steal,
	}, err
}

// On a shared virtual machine the hypervisor can take the CPUs away for
// tens of seconds at a time; a pass timed meanwhile measures the host's
// neighbours, not the program. Such a pass is disturbed: its samples are
// left out of the medians while enough undisturbed ones remain, and the
// next pass waits for the machine to calm down first.

// stealMax is the share of the machine's CPU time the hypervisor may steal
// during an interval before it counts as disturbed. Undisturbed intervals
// on the 2-vCPU VM the bounds were set on stay below 2%; disturbed ones
// run from 5% to 40%.
const stealMax = 0.05

// stealReading is a reading of the machine-wide CPU tick counters: ticks
// the hypervisor stole and ticks in total.
type stealReading struct{ steal, total uint64 }

// readSteal reads the counters from the first line of /proc/stat. Where
// they are unavailable it reads zero, and no interval counts as disturbed.
func readSteal() stealReading {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealReading{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealReading{}
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	var r stealReading
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		r.total += v
		if i == 7 {
			r.steal = v
		}
	}
	return r
}

// since returns the share of CPU time stolen between r0 and r.
func (r stealReading) since(r0 stealReading) float64 {
	if r.total <= r0.total {
		return 0
	}
	return float64(r.steal-r0.steal) / float64(r.total-r0.total)
}

// maxCalmWait bounds how long one run waits, in total, for the machine to
// calm down, so a run still ends in bounded time on a machine that never
// does.
const maxCalmWait = 5 * time.Second

// waitCalm waits, a quarter second at a time, while the hypervisor steals
// more than stealMax of the machine's CPU time, until the run's allowance
// is spent. It returns the time waited.
func (b *bench) waitCalm() time.Duration {
	start := time.Now()
	for b.waited < maxCalmWait {
		r0 := readSteal()
		time.Sleep(250 * time.Millisecond)
		b.waited += 250 * time.Millisecond
		if readSteal().since(r0) <= stealMax {
			break
		}
	}
	return time.Since(start)
}

// sample is one measured value and the steal share of the interval it
// was measured in.
type sample struct{ v, steal float64 }

type samples []sample

// calm returns the values of the undisturbed samples. When fewer than half
// are undisturbed it returns the least disturbed half instead, so a run
// spent wholly under a busy hypervisor still reports its best estimate.
func (ss samples) calm() []float64 {
	var out []float64
	for _, s := range ss {
		if s.steal <= stealMax {
			out = append(out, s.v)
		}
	}
	if 2*len(out) >= len(ss) {
		return out
	}
	least := append(samples(nil), ss...)
	sort.SliceStable(least, func(i, j int) bool { return least[i].steal < least[j].steal })
	out = out[:0]
	for _, s := range least[:(len(least)+1)/2] {
		out = append(out, s.v)
	}
	return out
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSS is the process's peak resident set size in bytes (Linux reports
// ru_maxrss in KiB).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// goStats are Go runtime figures over an interval of the traced run.
type goStats struct {
	gcCount  float64 // completed GC cycles
	gcPause  float64 // stop-the-world pause seconds
	gcCPU    float64 // CPU seconds the collector used, assists included
	heapPeak float64 // highest live-plus-unswept heap object bytes seen
}

var goMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readGoMetrics() (cycles, gcCPU, heap float64, pause time.Duration) {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return num(s[0].Value), num(s[1].Value), num(s[2].Value), time.Duration(ms.PauseTotalNs)
}

// watchGo samples the Go runtime until the returned stop function is
// called; stop waits for the sampler to exit and returns the interval's
// figures. The heap is sampled every 5ms for its peak.
func watchGo() (stop func() goStats) {
	c0, cpu0, heap, p0 := readGoMetrics()
	peak := heap
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				metrics.Read(s)
				if v := float64(s[0].Value.Uint64()); v > peak {
					peak = v
				}
			}
		}
	}()
	return func() goStats {
		close(done)
		wg.Wait()
		c1, cpu1, heap, p1 := readGoMetrics()
		if heap > peak {
			peak = heap
		}
		return goStats{gcCount: c1 - c0, gcPause: (p1 - p0).Seconds(), gcCPU: cpu1 - cpu0, heapPeak: peak}
	}
}
