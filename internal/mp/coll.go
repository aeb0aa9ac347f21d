package mp

import (
	"fmt"

	"vibe/internal/via"
)

// Collectives run over the point-to-point layer using reserved negative
// tags, so they compose with any application tag usage.
const (
	tagBarrierGather  int32 = -1
	tagBarrierRelease int32 = -2
)

// Barrier blocks until every rank has entered it: a gather to rank 0
// followed by a release fan-out.
func (ep *Endpoint) Barrier(ctx *via.Ctx) error {
	token := ctx.Malloc(4)
	if ep.rank == 0 {
		for r := 1; r < ep.world.n; r++ {
			if _, _, err := ep.recv(ctx, r, tagBarrierGather); err != nil {
				return fmt.Errorf("mp barrier gather from %d: %w", r, err)
			}
		}
		for r := 1; r < ep.world.n; r++ {
			if err := ep.send(ctx, r, tagBarrierRelease, token, 4); err != nil {
				return fmt.Errorf("mp barrier release to %d: %w", r, err)
			}
		}
		return nil
	}
	if err := ep.send(ctx, 0, tagBarrierGather, token, 4); err != nil {
		return err
	}
	_, _, err := ep.recv(ctx, 0, tagBarrierRelease)
	return err
}
