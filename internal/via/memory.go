package via

import (
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// MemHandle identifies a registered memory region, as returned by
// RegisterMem (VipRegisterMem).
type MemHandle uint64

// region is one registered memory range.
type region struct {
	handle MemHandle
	addr   vmem.Addr
	length int
}

func (r *region) contains(addr vmem.Addr, n int) bool {
	return addr >= r.addr && uint64(addr)+uint64(n) <= uint64(r.addr)+uint64(r.length)
}

func (r *region) pages() int { return vmem.NumPages(r.addr, r.length) }

// RegisterMem registers buf's full range for VIA use and returns its
// memory handle, mirroring VipRegisterMem. Registration pins the pages and
// installs translations; its cost scales with the page count.
func (n *Nic) RegisterMem(ctx *Ctx, buf *vmem.Buffer) (MemHandle, error) {
	return n.RegisterRange(ctx, buf.Addr(), buf.Len())
}

// RegisterRange registers [addr, addr+length).
func (n *Nic) RegisterRange(ctx *Ctx, addr vmem.Addr, length int) (MemHandle, error) {
	if length <= 0 {
		return 0, fmt.Errorf("%w: register %d bytes", ErrLength, length)
	}
	if err := ctx.Host.AS.Check(addr, length); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrProtection, err)
	}
	pages := vmem.NumPages(addr, length)
	ctx.use(n.model.MemRegBase + sim.Duration(pages)*n.model.MemRegPerPage)

	n.nextHandle++
	h := n.nextHandle
	n.regions[h] = &region{handle: h, addr: addr, length: length}
	return h, nil
}

// DeregisterMem releases a registration, mirroring VipDeregisterMem. Any
// NIC-cached translations for the region are shot down.
func (n *Nic) DeregisterMem(ctx *Ctx, h MemHandle) error {
	r, ok := n.regions[h]
	if !ok {
		return ErrInvalidHandle
	}
	pages := r.pages()
	ctx.use(n.model.MemDeregBase + sim.Duration(pages)*n.model.MemDeregPerPage)
	if n.tlb != nil {
		n.tlb.InvalidateRange(r.addr.Page(), r.addr.Advance(r.length-1).Page())
	}
	delete(n.regions, h)
	return nil
}

// checkSeg validates that a data segment lies entirely inside the region
// its handle names — the protection check VIA performs when a descriptor
// is posted.
func (n *Nic) checkSeg(s DataSegment) error {
	if s.Length < 0 {
		return fmt.Errorf("%w: negative segment length", ErrLength)
	}
	r, ok := n.regions[s.Handle]
	if !ok {
		return ErrInvalidHandle
	}
	if !r.contains(s.Addr, s.Length) {
		return fmt.Errorf("%w: segment [%v,+%d) outside region [%v,+%d)",
			ErrProtection, s.Addr, s.Length, r.addr, r.length)
	}
	return nil
}

// checkRemote validates an inbound RDMA target range against the local
// registration table, as the target NIC does.
func (n *Nic) checkRemote(addr vmem.Addr, length int, h MemHandle) bool {
	r, ok := n.regions[h]
	return ok && r.contains(addr, length)
}
