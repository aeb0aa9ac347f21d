// DSM grid: a bulk-synchronous Jacobi-style relaxation on a shared array,
// the classic workload of software distributed shared memory (the
// paper's reference [7], TreadMarks over VIA). Each node owns a band of a
// shared vector, repeatedly averages each cell with its neighbours, and
// synchronizes with barriers; boundary cells flow between nodes through
// the DSM's release-consistency protocol — no explicit messages anywhere
// in the application code.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"vibe"
)

const (
	nodes  = 3
	cells  = 384 // shared vector of float-ish fixed-point values
	iters  = 8
	region = "grid"
)

func get(d *vibe.DSMNode, ctx *vibe.Ctx, idx int) uint32 {
	var b [4]byte
	if err := d.Read(ctx, region, idx*4, b[:]); err != nil {
		log.Fatal(err)
	}
	return binary.LittleEndian.Uint32(b[:])
}

func put(d *vibe.DSMNode, ctx *vibe.Ctx, idx int, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if err := d.Write(ctx, region, idx*4, b[:]); err != nil {
		log.Fatal(err)
	}
}

func main() {
	sys, err := vibe.NewCluster("clan", nodes, 17)
	if err != nil {
		log.Fatal(err)
	}
	world := vibe.NewDSMWorld(sys, vibe.DSMDefaultConfig())

	world.Run(func(err error) { log.Fatal(err) }, func(ctx *vibe.Ctx, d *vibe.DSMNode) {
		pages := (cells*4 + vibe.DSMPageSize - 1) / vibe.DSMPageSize
		if err := d.Alloc(ctx, region, pages); err != nil {
			log.Fatal(err)
		}
		if err := d.Barrier(ctx); err != nil {
			log.Fatal(err)
		}

		// Node 0 sets the boundary conditions: 1000 at both ends.
		if d.Me() == 0 {
			put(d, ctx, 0, 1000)
			put(d, ctx, cells-1, 1000)
		}
		if err := d.Barrier(ctx); err != nil {
			log.Fatal(err)
		}

		// Each node relaxes its band (excluding the global boundaries).
		per := cells / nodes
		lo := d.Me() * per
		hi := lo + per
		if d.Me() == nodes-1 {
			hi = cells
		}
		if lo == 0 {
			lo = 1
		}
		if hi == cells {
			hi = cells - 1
		}

		start := ctx.Now()
		for it := 0; it < iters; it++ {
			// Read the previous values (including neighbours' boundary
			// cells, fetched transparently), compute, write back.
			next := make([]uint32, hi-lo)
			for i := lo; i < hi; i++ {
				next[i-lo] = (get(d, ctx, i-1) + get(d, ctx, i) + get(d, ctx, i+1)) / 3
			}
			for i := lo; i < hi; i++ {
				put(d, ctx, i, next[i-lo])
			}
			// The barrier flushes dirty pages and invalidates caches:
			// everyone sees iteration it's results in iteration it+1.
			if err := d.Barrier(ctx); err != nil {
				log.Fatal(err)
			}
		}

		if d.Me() == 0 {
			fmt.Printf("dsmgrid: %d cells, %d nodes, %d iterations in %v\n",
				cells, nodes, iters, ctx.Now().Sub(start))
			// Heat diffuses one cell per iteration inward from each
			// boundary, so after 8 iterations the first few cells are warm.
			fmt.Printf("dsmgrid: heat near the boundary: cell[1]=%d cell[3]=%d cell[6]=%d\n",
				get(d, ctx, 1), get(d, ctx, 3), get(d, ctx, 6))
			fmt.Printf("dsmgrid: node 0 protocol work: %d page fetches, %d flushes\n",
				d.PageFetches, d.PageFlushes)
		}
	})

	sys.MustRun()
}
