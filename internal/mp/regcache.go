package mp

import (
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// regCache memoizes memory registrations by buffer, evicting LRU. VIBe's
// Figure 1 shows registration costs tens of microseconds and scales with
// page count, so re-registering the same application buffer on every
// rendezvous would dominate mid-size message cost; the cache reduces it to
// a map lookup after first touch. Figure 2 shows deregistration is cheap,
// so eviction is inexpensive.
type regCache struct {
	nic *via.Nic
	cap int

	entries map[vmem.Addr]via.MemHandle
	lru     []vmem.Addr // front = next victim

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

func newRegCache(nic *via.Nic, capacity int) *regCache {
	return &regCache{
		nic:     nic,
		cap:     capacity,
		entries: make(map[vmem.Addr]via.MemHandle),
	}
}

// handle returns a registration covering buf, registering (and possibly
// evicting) as needed. With capacity 0 every call registers afresh and the
// caller's handle is never cached (the "no cache" ablation).
func (c *regCache) handle(ctx *via.Ctx, buf *vmem.Buffer) (via.MemHandle, error) {
	if c.cap <= 0 {
		c.Misses++
		return c.nic.RegisterMem(ctx, buf)
	}
	if h, ok := c.entries[buf.Addr()]; ok {
		c.Hits++
		c.touch(buf.Addr())
		return h, nil
	}
	c.Misses++
	if len(c.lru) >= c.cap {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		if h, ok := c.entries[victim]; ok {
			if err := c.nic.DeregisterMem(ctx, h); err != nil {
				return 0, err
			}
			delete(c.entries, victim)
			c.Evictions++
		}
	}
	h, err := c.nic.RegisterMem(ctx, buf)
	if err != nil {
		return 0, err
	}
	c.entries[buf.Addr()] = h
	c.lru = append(c.lru, buf.Addr())
	return h, nil
}

func (c *regCache) touch(a vmem.Addr) {
	for i, x := range c.lru {
		if x == a {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			c.lru = append(c.lru, a)
			return
		}
	}
}
