package via

import (
	"fmt"

	"vibe/internal/fabric"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// Session setup: the steps every program above VIA pays before it moves
// data — register memory, pre-post a receive ring (Vi.PostRing, in
// channel.go), connect a VI pair — as helpers over the VIPL-style calls.
// Each helper makes the same calls, in the same order, as the code it
// replaces.

// Reg is a buffer together with its memory handle.
type Reg struct {
	Buf *vmem.Buffer
	H   MemHandle
}

// AllocReg allocates a size-byte buffer in the NIC host's memory and
// registers it. On a registration error it returns the zero Reg.
func (n *Nic) AllocReg(ctx *Ctx, size int) (Reg, error) {
	buf := n.host.AS.Alloc(size)
	h, err := n.RegisterMem(ctx, buf)
	if err != nil {
		return Reg{}, err
	}
	return Reg{Buf: buf, H: h}, nil
}

// Pair connects vi to its counterpart under discriminator disc: when dial
// is set it requests the connection from peer, otherwise it waits for
// the request on vi's NIC and accepts it on vi (peer is then unused).
// Errors name the step and the discriminator.
func Pair(ctx *Ctx, vi *Vi, peer fabric.NodeID, disc string, dial bool, timeout sim.Duration) error {
	if dial {
		if err := vi.ConnectRequest(ctx, peer, disc, timeout); err != nil {
			return fmt.Errorf("connect %s: %w", disc, err)
		}
		return nil
	}
	req, err := vi.nic.ConnectWait(ctx, disc, timeout)
	if err != nil {
		return fmt.Errorf("wait %s: %w", disc, err)
	}
	if err := req.Accept(ctx, vi); err != nil {
		return fmt.Errorf("accept %s: %w", disc, err)
	}
	return nil
}
