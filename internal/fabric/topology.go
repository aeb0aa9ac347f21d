package fabric

import "fmt"

// SwitchID identifies one switch in the fabric's topology.
type SwitchID int

// Topology describes the switch graph of the interconnect: how many
// switches exist, which switch each host hangs off, and the
// deterministic switch paths between any two hosts. Implementations must
// be pure functions of their construction parameters — routing decisions
// consume no randomness and depend on no traffic state — so simulations
// stay byte-reproducible across runs and process models.
type Topology interface {
	Name() string

	// Switches reports the number of switches in the graph.
	Switches() int

	// HostSwitch returns the switch host h attaches to.
	HostSwitch(h NodeID) SwitchID

	// AltRoutes reports how many candidate paths the topology enumerates
	// from src to dst (always >= 1). Candidate 0 is the primary path;
	// higher candidates are deterministic alternates routing can fail
	// over to (other fat-tree spines, the other torus ring direction,
	// dragonfly detours through a third router or group).
	AltRoutes(src, dst NodeID) int

	// AltRoute appends candidate k (0 <= k < AltRoutes(src, dst)) of the
	// src->dst switch paths to buf and returns the extended slice. Every
	// candidate starts at HostSwitch(src), ends at HostSwitch(dst), and
	// every consecutive pair is a physical switch-to-switch link;
	// alternates need not be minimal. It is never empty and never called
	// with src == dst (loopback is NIC-local and skips the fabric).
	AltRoute(buf []SwitchID, src, dst NodeID, k int) []SwitchID
}

// BuildTopology constructs the topology p selects for a fabric of the
// given host count. An empty Params.Topology means the classic single
// crossbar. A zero Params.TopologyDegree picks each topology's default
// arity. Unknown names panic: topology selection is validated when
// scenarios compile, so reaching here with a bad name is a programming
// error.
func BuildTopology(p Params, hosts int) Topology {
	deg := p.TopologyDegree
	switch p.Topology {
	case "", TopoCrossbar:
		return Crossbar{}
	case TopoFatTree:
		if deg <= 0 {
			deg = 4
		}
		return NewFatTree(hosts, deg)
	case TopoDragonfly:
		if deg <= 0 {
			deg = 2
		}
		return NewDragonfly(hosts, deg)
	case TopoTorus3D:
		if deg <= 0 {
			deg = 1
		}
		return NewTorus3D(hosts, deg)
	default:
		panic(fmt.Sprintf("fabric: unknown topology %q", p.Topology))
	}
}

// Topology names accepted by Params.Topology.
const (
	TopoCrossbar  = "crossbar"
	TopoFatTree   = "fattree"
	TopoDragonfly = "dragonfly"
	TopoTorus3D   = "torus3d"
)

// TopologyNames lists the accepted Params.Topology values.
func TopologyNames() []string {
	return []string{TopoCrossbar, TopoFatTree, TopoDragonfly, TopoTorus3D}
}

// Crossbar is the default topology: every host attaches to one central
// switch and every route is a single hop. It is what the original
// star-fabric model was, expressed as a Topology.
type Crossbar struct{}

// Name implements Topology.
func (Crossbar) Name() string { return TopoCrossbar }

// Switches implements Topology.
func (Crossbar) Switches() int { return 1 }

// HostSwitch implements Topology.
func (Crossbar) HostSwitch(NodeID) SwitchID { return 0 }

// AltRoutes implements Topology: a single switch has a single path.
func (Crossbar) AltRoutes(_, _ NodeID) int { return 1 }

// AltRoute implements Topology.
func (Crossbar) AltRoute(buf []SwitchID, _, _ NodeID, _ int) []SwitchID {
	return append(buf, 0)
}

// FatTree is a two-level folded Clos: leaves attach hosts, spines
// connect leaves. The arity sets both the hosts per leaf and the spine
// count (each leaf has one uplink per spine), so the tree has full
// bisection bandwidth when traffic spreads across spines — and a single
// hot spine when it does not, which incast routing deliberately creates.
type FatTree struct {
	arity  int // hosts per leaf, and the spine count
	leaves int
}

// NewFatTree builds a fat-tree for the given host count with the given
// hosts-per-leaf arity.
func NewFatTree(hosts, arity int) *FatTree {
	if hosts < 1 || arity < 1 {
		panic(fmt.Sprintf("fabric: bad fat-tree shape (hosts %d, arity %d)", hosts, arity))
	}
	return &FatTree{arity: arity, leaves: (hosts + arity - 1) / arity}
}

// Name implements Topology.
func (t *FatTree) Name() string { return TopoFatTree }

// Switches reports leaves then spines: leaf i is switch i, spine j is
// switch leaves+j.
func (t *FatTree) Switches() int { return t.leaves + t.arity }

// HostSwitch implements Topology: hosts fill leaves in order.
func (t *FatTree) HostSwitch(h NodeID) SwitchID { return SwitchID(int(h) / t.arity) }

// AltRoutes implements Topology: cross-leaf pairs have one candidate per
// spine (every leaf uplinks to every spine), same-leaf pairs just one.
func (t *FatTree) AltRoutes(src, dst NodeID) int {
	if t.HostSwitch(src) == t.HostSwitch(dst) {
		return 1
	}
	return t.arity
}

// AltRoute implements Topology with deterministic up/down routing: same
// leaf is one hop; otherwise up to a spine, then down. Candidate k
// selects spine (dst+k) mod arity, so candidate 0 is the destination-
// selected (D-mod-k) primary and the remaining k-1 spines are the
// failover alternates that put the otherwise-idle spines to work.
// Destination-based spine selection concentrates all traffic toward one
// host on one spine — the worst case for incast, which is exactly the
// congestion the routed fabric exists to surface.
func (t *FatTree) AltRoute(buf []SwitchID, src, dst NodeID, k int) []SwitchID {
	ls, ld := t.HostSwitch(src), t.HostSwitch(dst)
	if ls == ld {
		return append(buf, ls)
	}
	spine := SwitchID(t.leaves + (int(dst)+k)%t.arity)
	return append(buf, ls, spine, ld)
}

// Dragonfly is a two-tier hierarchical topology: routers within a group
// are fully connected, and each router owns exactly one global link to
// another group (h=1), so there are a+1 groups of a routers. Minimal
// routing takes at most a local hop, a global hop, and a local hop.
type Dragonfly struct {
	p      int // hosts per router
	a      int // routers per group
	groups int // a+1: one global link per router saturates the graph
}

// NewDragonfly builds the smallest balanced h=1 dragonfly — a routers
// per group, a+1 groups — whose p*a*(a+1) host slots cover hosts.
func NewDragonfly(hosts, hostsPerRouter int) *Dragonfly {
	if hosts < 1 || hostsPerRouter < 1 {
		panic(fmt.Sprintf("fabric: bad dragonfly shape (hosts %d, hosts/router %d)", hosts, hostsPerRouter))
	}
	a := 1
	for hostsPerRouter*a*(a+1) < hosts {
		a++
	}
	return &Dragonfly{p: hostsPerRouter, a: a, groups: a + 1}
}

// Name implements Topology.
func (t *Dragonfly) Name() string { return TopoDragonfly }

// Switches implements Topology: router r of group g is switch g*a+r.
func (t *Dragonfly) Switches() int { return t.groups * t.a }

// HostSwitch implements Topology: hosts fill routers in order.
func (t *Dragonfly) HostSwitch(h NodeID) SwitchID { return SwitchID(int(h) / t.p) }

// gateway returns the router in group g owning the single global link to
// group j: router r links to the r-th other group in index order, the
// canonical h=1 assignment (consistent from both ends of each link).
func (t *Dragonfly) gateway(g, j int) SwitchID {
	r := j
	if j > g {
		r = j - 1
	}
	return SwitchID(g*t.a + r)
}

// AltRoutes implements Topology. Same-router pairs have one path.
// Intra-group pairs can detour through any third router of the group
// (full local connectivity). Inter-group pairs can take a Valiant-style
// detour through any intermediate group, riding its two global links.
func (t *Dragonfly) AltRoutes(src, dst NodeID) int {
	rs, rd := t.HostSwitch(src), t.HostSwitch(dst)
	if rs == rd {
		return 1
	}
	if int(rs)/t.a == int(rd)/t.a {
		return 1 + t.a - 2 // the direct link plus one detour per third router
	}
	return 1 + t.groups - 2 // minimal plus one detour per intermediate group
}

// AltRoute implements Topology: candidate 0 is the minimal route —
// intra-group pairs use the direct local link; inter-group pairs hop to
// the source group's gateway, cross the global link, and hop to the
// destination router. Candidate k > 0 is the k-th detour in ascending router/group index
// order (skipping the endpoints), deduplicating consecutive repeats when
// a gateway coincides with an endpoint router.
func (t *Dragonfly) AltRoute(buf []SwitchID, src, dst NodeID, k int) []SwitchID {
	rs, rd := t.HostSwitch(src), t.HostSwitch(dst)
	gs, gd := int(rs)/t.a, int(rd)/t.a
	if rs == rd {
		return append(buf, rs)
	}
	if gs == gd {
		if k == 0 {
			return append(buf, rs, rd)
		}
		// k-th router of the group that is neither endpoint.
		rt := SwitchID(gs * t.a)
		for n := k; ; rt++ {
			if rt == rs || rt == rd {
				continue
			}
			if n--; n == 0 {
				break
			}
		}
		return append(buf, rs, rt, rd)
	}
	gm := gd // candidate 0: straight to the destination group
	if k > 0 {
		// k-th group that is neither source nor destination.
		gm = 0
		for n := k; ; gm++ {
			if gm == gs || gm == gd {
				continue
			}
			if n--; n == 0 {
				break
			}
		}
	}
	return t.appendVia(buf, rs, rd, gs, gd, gm)
}

// appendVia builds rs -> (group gm) -> rd, collapsing consecutive
// duplicates: local hop to the gm gateway, global link into gm, local
// hop across gm to its gd gateway (skipped when gm == gd), global link
// onward, local hop to rd.
func (t *Dragonfly) appendVia(buf []SwitchID, rs, rd SwitchID, gs, gd, gm int) []SwitchID {
	buf = append(buf, rs)
	add := func(s SwitchID) {
		if buf[len(buf)-1] != s {
			buf = append(buf, s)
		}
	}
	add(t.gateway(gs, gm))
	add(t.gateway(gm, gs))
	if gm != gd {
		add(t.gateway(gm, gd))
		add(t.gateway(gd, gm))
	}
	add(rd)
	return buf
}

// Torus3D is an APENet-style 3D torus: a side^3 cube of switches with
// wraparound links in every dimension, each attaching a fixed number of
// hosts. Routing is dimension-order (X, then Y, then Z), taking the
// shorter way around each ring.
type Torus3D struct {
	side     int
	hostsPer int
}

// NewTorus3D builds the smallest cubic torus whose side^3 switches, at
// hostsPerSwitch hosts each, cover the given host count.
func NewTorus3D(hosts, hostsPerSwitch int) *Torus3D {
	if hosts < 1 || hostsPerSwitch < 1 {
		panic(fmt.Sprintf("fabric: bad torus shape (hosts %d, hosts/switch %d)", hosts, hostsPerSwitch))
	}
	side := 1
	for side*side*side*hostsPerSwitch < hosts {
		side++
	}
	return &Torus3D{side: side, hostsPer: hostsPerSwitch}
}

// Name implements Topology.
func (t *Torus3D) Name() string { return TopoTorus3D }

// Switches implements Topology: switch (x,y,z) is (z*side+y)*side+x.
func (t *Torus3D) Switches() int { return t.side * t.side * t.side }

// HostSwitch implements Topology: hosts fill switches in id order.
func (t *Torus3D) HostSwitch(h NodeID) SwitchID { return SwitchID(int(h) / t.hostsPer) }

func (t *Torus3D) coords(s SwitchID) (x, y, z int) {
	x = int(s) % t.side
	y = (int(s) / t.side) % t.side
	z = int(s) / (t.side * t.side)
	return
}

func (t *Torus3D) id(x, y, z int) SwitchID {
	return SwitchID((z*t.side+y)*t.side + x)
}

// AltRoutes implements Topology: one candidate per combination of ring
// directions over the dimensions the route moves in. On a side-2 ring
// both directions are the same single hop, so only sides > 2 contribute
// alternates (the long way around is a different physical path there).
func (t *Torus3D) AltRoutes(src, dst NodeID) int {
	if t.side <= 2 {
		return 1
	}
	x, y, z := t.coords(t.HostSwitch(src))
	gx, gy, gz := t.coords(t.HostSwitch(dst))
	n := 1
	if x != gx {
		n *= 2
	}
	if y != gy {
		n *= 2
	}
	if z != gz {
		n *= 2
	}
	return n
}

// AltRoute implements Topology with dimension-order routing, appending
// every intermediate switch on the walk. k is a bitmask over the moving
// dimensions in X, Y, Z order; a set bit walks that ring the other way
// around (the non-minimal direction, a disjoint set of links). Candidate
// 0 takes every ring the shorter way, ties breaking toward +1 so routes
// are deterministic.
func (t *Torus3D) AltRoute(buf []SwitchID, src, dst NodeID, k int) []SwitchID {
	cur, goal := t.HostSwitch(src), t.HostSwitch(dst)
	buf = append(buf, cur)
	x, y, z := t.coords(cur)
	gx, gy, gz := t.coords(goal)
	dir := func(v, g int) int {
		if v == g {
			return 0
		}
		d := 1
		if fwd := ((g - v) + t.side) % t.side; fwd > t.side-fwd {
			d = -1
		}
		if t.side > 2 {
			if k&1 == 1 {
				d = -d
			}
			k >>= 1
		}
		return d
	}
	dx, dy, dz := dir(x, gx), dir(y, gy), dir(z, gz)
	for x != gx {
		x = (x + dx + t.side) % t.side
		buf = append(buf, t.id(x, y, z))
	}
	for y != gy {
		y = (y + dy + t.side) % t.side
		buf = append(buf, t.id(x, y, z))
	}
	for z != gz {
		z = (z + dz + t.side) % t.side
		buf = append(buf, t.id(x, y, z))
	}
	return buf
}
