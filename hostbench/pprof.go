package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuSample is one profile sample: its call stack, leaf first, as
// function names, and the CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes into its samples. Only the fields a CPU rollup needs are read:
// sample types, samples, locations with their (inlined) lines, functions
// and the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		types   []uint64 // string index of each sample type
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return pbInts(&s.locs, v, b)
				case 2:
					return pbInts(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("pprof: profile has no sample types")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				stack = append(stack, str(funcs[f]))
			}
		}
		out = append(out, cpuSample{stack: stack, ns: int64(s.values[cpu])})
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; groups are not used by profile.proto.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: truncated bytes field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field, which arrives either packed
// (length-delimited varints) or as one varint per occurrence.
func pbInts(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// pkgOf returns the import path of a Go function symbol such as
// "vibe/internal/sim.(*Engine).Run" or
// "vibe/internal/sim.(*Queue[go.shape.*uint8]).Pop": everything before the
// first dot after the last slash, ignoring type-parameter brackets. A
// symbol with no package qualifier (an assembly routine such as
// "gcWriteBarrier") belongs to the runtime.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	if slash < 0 {
		return "runtime"
	}
	return fn
}

// layerOf names the layer a package belongs to: the last element of a
// vibe/internal/* path ("sim", "vmem", ...), or the import path itself for
// the runtime, the standard library and the benchmark.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "vibe/internal/"); ok {
		return rest
	}
	return pkg
}

// Runtime buckets reported beside the packages.
const (
	bucketGC       = "runtime.gc"       // the collector's own work: background marking, assists, sweeping
	bucketMemclr   = "runtime.memclr"   // self time zeroing fresh memory
	bucketMallocgc = "runtime.mallocgc" // cumulative time under the allocator
	bucketViaSpan  = "via.span"         // cumulative time under the via message-span tracker
)

// rollup is a CPU profile folded per layer: self time (the layer's
// functions at the leaf) and cumulative time (the layer anywhere on the
// stack, counted once per sample), in seconds.
type rollup struct {
	Total   float64            `json:"total_s"`
	Self    map[string]float64 `json:"self_s"`
	Cum     map[string]float64 `json:"cum_s"`
	Buckets map[string]float64 `json:"buckets_s"`
}

// rollupProfile folds samples by layer and fills the runtime buckets.
func rollupProfile(samples []cpuSample) rollup {
	r := rollup{Self: map[string]float64{}, Cum: map[string]float64{}, Buckets: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.ns) / 1e9
		r.Total += sec
		if len(s.stack) == 0 {
			continue
		}
		r.Self[layerOf(pkgOf(s.stack[0]))] += sec
		if s.stack[0] == "runtime.memclrNoHeapPointers" {
			r.Buckets[bucketMemclr] += sec
		}
		seen := map[string]bool{}
		for _, fn := range s.stack {
			l := layerOf(pkgOf(fn))
			if !seen[l] {
				seen[l] = true
				r.Cum[l] += sec
			}
			for _, b := range bucketsOf(fn, l) {
				if !seen[b] {
					seen[b] = true
					r.Buckets[b] += sec
				}
			}
		}
	}
	return r
}

// bucketsOf lists the cumulative runtime buckets one frame belongs to.
func bucketsOf(fn, layer string) []string {
	switch {
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.markroot"):
		return []string{bucketGC}
	case fn == "runtime.mallocgc":
		return []string{bucketMallocgc}
	case layer == "via" && strings.Contains(strings.ToLower(fn), "span"):
		return []string{bucketViaSpan}
	}
	return nil
}

// writeText renders the rollup as a table, layers by cumulative time.
func (r rollup) writeText(w io.Writer) error {
	layers := make([]string, 0, len(r.Cum))
	for l := range r.Cum {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if r.Cum[layers[i]] != r.Cum[layers[j]] {
			return r.Cum[layers[i]] > r.Cum[layers[j]]
		}
		return layers[i] < layers[j]
	})
	share := func(v float64) float64 {
		if r.Total == 0 {
			return 0
		}
		return 100 * v / r.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "total sampled CPU %.3fs\n%-28s %9s %6s %9s %6s\n", r.Total, "layer", "self_s", "self%", "cum_s", "cum%")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-28s %9.3f %5.1f%% %9.3f %5.1f%%\n", l, r.Self[l], share(r.Self[l]), r.Cum[l], share(r.Cum[l]))
	}
	for _, k := range []string{bucketGC, bucketMemclr, bucketMallocgc, bucketViaSpan} {
		fmt.Fprintf(&b, "bucket %-21s %9s %6s %9.3f %5.1f%%\n", k, "", "", r.Buckets[k], share(r.Buckets[k]))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
