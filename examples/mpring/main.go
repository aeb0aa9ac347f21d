// MP ring: a classic message-passing workload (a token circulating a ring
// plus a neighbour halo exchange) running on the MPI-like layer the paper
// targets in §3.3/§5 — demonstrating tagged Send/Recv with automatic
// eager/rendezvous protocol selection, collectives, and the registration
// cache, on two different simulated VIA providers.
package main

import (
	"fmt"
	"log"

	"vibe"
)

const (
	ranks     = 4
	laps      = 3
	haloBytes = 24 * 1024 // rendezvous-size (above the 8KB eager limit)
	tagToken  = 1
	tagHaloR  = 2
	tagHaloL  = 3
)

func main() {
	for _, prov := range []string{"clan", "bvia"} {
		runRing(prov)
	}
}

func runRing(prov string) {
	sys, err := vibe.NewCluster(prov, ranks, 11)
	if err != nil {
		log.Fatal(err)
	}
	world := vibe.NewMPWorld(sys, vibe.MPDefaultConfig())

	world.Run(func(err error) { log.Fatal(err) }, func(ctx *vibe.Ctx, ep *vibe.MPEndpoint) {
		me := ep.Rank()
		right := (me + 1) % ranks
		left := (me + ranks - 1) % ranks

		// Phase 1: circulate a token, each rank incrementing it (eager
		// path: 8 bytes).
		token := ctx.Malloc(8)
		start := ctx.Now()
		if me == 0 {
			token.Bytes()[0] = 1
			if err := ep.Send(ctx, right, tagToken, token, 8); err != nil {
				log.Fatal(err)
			}
		}
		for lap := 0; lap < laps; lap++ {
			got, _, err := ep.Recv(ctx, left, tagToken)
			if err != nil {
				log.Fatal(err)
			}
			v := got.Bytes()[0] + 1
			if me == 0 && lap == laps-1 {
				fmt.Printf("mpring[%s]: token value %d after %d laps (%v)\n",
					prov, v, laps, ctx.Now().Sub(start))
				break
			}
			token.Bytes()[0] = v
			if err := ep.Send(ctx, right, tagToken, token, 8); err != nil {
				log.Fatal(err)
			}
		}
		if err := ep.Barrier(ctx); err != nil {
			log.Fatal(err)
		}

		// Phase 2: halo exchange with both neighbours (rendezvous path:
		// 24KB moves zero-copy over RDMA after an RTS/CTS handshake).
		halo := ctx.Malloc(haloBytes)
		halo.FillPattern(byte(me))
		t0 := ctx.Now()
		// Even ranks send first to avoid head-of-line blocking on the
		// synchronous rendezvous.
		if me%2 == 0 {
			if err := ep.Send(ctx, right, tagHaloR, halo, haloBytes); err != nil {
				log.Fatal(err)
			}
			fromLeft, _, err := ep.Recv(ctx, left, tagHaloR)
			if err != nil {
				log.Fatal(err)
			}
			if err := fromLeft.CheckPattern(byte(left), haloBytes); err != nil {
				log.Fatalf("rank %d halo corrupted: %v", me, err)
			}
		} else {
			fromLeft, _, err := ep.Recv(ctx, left, tagHaloR)
			if err != nil {
				log.Fatal(err)
			}
			if err := fromLeft.CheckPattern(byte(left), haloBytes); err != nil {
				log.Fatalf("rank %d halo corrupted: %v", me, err)
			}
			if err := ep.Send(ctx, right, tagHaloR, halo, haloBytes); err != nil {
				log.Fatal(err)
			}
		}
		if err := ep.Barrier(ctx); err != nil {
			log.Fatal(err)
		}
		if me == 0 {
			fmt.Printf("mpring[%s]: %dB halo exchange on %d ranks in %v "+
				"(eager sends %d, rendezvous sends %d)\n",
				prov, haloBytes, ranks, ctx.Now().Sub(t0),
				ep.EagerSends, ep.RendezvousSends)
		}
	})

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
}
