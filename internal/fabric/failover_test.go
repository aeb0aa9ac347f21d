package fabric

import (
	"reflect"
	"testing"

	"vibe/internal/sim"
)

// fakeOracle adapts functions to the ElementOracle interface.
type fakeOracle struct {
	swDown   func(s int, now sim.Time) bool
	linkDown func(a, b int, now sim.Time) bool
}

func (o fakeOracle) SwitchDown(s int, now sim.Time) bool {
	return o.swDown != nil && o.swDown(s, now)
}

func (o fakeOracle) SwitchLinkDown(a, b int, now sim.Time) bool {
	return o.linkDown != nil && o.linkDown(a, b, now)
}

// TestAltRouteContracts sweeps every topology over every host pair and
// every candidate index, checking the AltRoute contract: every candidate
// spans the endpoint host switches and none contains a self-loop hop.
func TestAltRouteContracts(t *testing.T) {
	for _, tc := range []struct {
		topo  Topology
		hosts int
	}{
		{Crossbar{}, 4},
		{NewFatTree(8, 2), 8},
		{NewFatTree(9, 3), 9},
		{NewDragonfly(6, 1), 6},
		{NewDragonfly(12, 2), 12},
		{NewTorus3D(27, 1), 27},
		{NewTorus3D(8, 1), 8},
	} {
		for src := NodeID(0); int(src) < tc.hosts; src++ {
			for dst := NodeID(0); int(dst) < tc.hosts; dst++ {
				if src == dst {
					continue
				}
				n := tc.topo.AltRoutes(src, dst)
				if n < 1 {
					t.Fatalf("%s: AltRoutes(%d,%d) = %d", tc.topo.Name(), src, dst, n)
				}
				for k := 0; k < n; k++ {
					r := tc.topo.AltRoute(nil, src, dst, k)
					if len(r) == 0 || r[0] != tc.topo.HostSwitch(src) || r[len(r)-1] != tc.topo.HostSwitch(dst) {
						t.Fatalf("%s: candidate %d of %d->%d = %v does not span host switches",
							tc.topo.Name(), k, src, dst, r)
					}
					for i := 1; i < len(r); i++ {
						if r[i] == r[i-1] {
							t.Fatalf("%s: candidate %d of %d->%d = %v has a self-loop hop",
								tc.topo.Name(), k, src, dst, r)
						}
					}
				}
			}
		}
	}
}

func TestFatTreeAltRoutes(t *testing.T) {
	// 8 hosts, 2 per leaf: leaves 0..3, spines 4..5.
	ft := NewFatTree(8, 2)
	if got := ft.AltRoutes(0, 1); got != 1 {
		t.Fatalf("same-leaf AltRoutes = %d, want 1", got)
	}
	if got := ft.AltRoutes(0, 5); got != 2 {
		t.Fatalf("cross-leaf AltRoutes = %d, want 2 (one per spine)", got)
	}
	// Candidate 0 rides the D-mod-k spine 5; candidate 1 the other spine.
	if got, want := ft.AltRoute(nil, 0, 5, 0), []SwitchID{0, 5, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("candidate 0 = %v, want %v", got, want)
	}
	if got, want := ft.AltRoute(nil, 0, 5, 1), []SwitchID{0, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("candidate 1 = %v, want %v", got, want)
	}
}

func TestTorusAltRoutes(t *testing.T) {
	// 3x3x3: one moving dimension doubles the candidates (the other ring
	// direction), three moving dimensions give 2^3.
	ts := NewTorus3D(27, 1)
	if got := ts.AltRoutes(0, 1); got != 2 {
		t.Fatalf("one-dim AltRoutes = %d, want 2", got)
	}
	if got := ts.AltRoutes(0, 13); got != 8 {
		t.Fatalf("three-dim AltRoutes = %d, want 8", got)
	}
	// Candidate 1 of 0->1 takes the x ring the long way around.
	if got, want := ts.AltRoute(nil, 0, 1, 1), []SwitchID{0, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("long-way candidate = %v, want %v", got, want)
	}
	// Side-2 rings have no distinct second direction: no alternates.
	if got := NewTorus3D(8, 1).AltRoutes(0, 7); got != 1 {
		t.Fatalf("side-2 AltRoutes = %d, want 1", got)
	}
}

func TestDragonflyAltRoutes(t *testing.T) {
	// a=2 routers per group, 3 groups: intra-group pairs have no third
	// router to detour through, inter-group pairs have one intermediate
	// group.
	df := NewDragonfly(6, 1)
	if got := df.AltRoutes(0, 1); got != 1 {
		t.Fatalf("intra-group AltRoutes = %d, want 1", got)
	}
	if got := df.AltRoutes(0, 5); got != 2 {
		t.Fatalf("inter-group AltRoutes = %d, want 2", got)
	}
	// The Valiant detour for 0->5 rides group 1's two global links.
	if got, want := df.AltRoute(nil, 0, 5, 1), []SwitchID{0, 2, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("detour candidate = %v, want %v", got, want)
	}
	// A bigger dragonfly has third routers for intra-group detours.
	big := NewDragonfly(12, 1) // a=3, 4 groups
	if got := big.AltRoutes(0, 1); got != 2 {
		t.Fatalf("a=3 intra-group AltRoutes = %d, want 2", got)
	}
	if got, want := big.AltRoute(nil, 0, 1, 1), []SwitchID{0, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("intra-group detour = %v, want %v", got, want)
	}
}

// failoverParams: a 4-host fat-tree with two spines (leaves 0,1; spines
// 2,3), the smallest fabric with a genuine alternate path.
func failoverParams() Params {
	p := testParams()
	p.Topology = TopoFatTree
	p.TopologyDegree = 2
	p.SwitchBufPkts = 4
	return p
}

// runFailover drives n sends 0->2 at the given instants and returns the
// network after the run. Every packet crosses leaf 0 -> spine -> leaf 1.
func runFailover(t *testing.T, p Params, o ElementOracle, at []sim.Time) *Network {
	t.Helper()
	e := sim.NewEngine(1)
	nw := New(e, 4, p)
	if o != nil {
		nw.SetElementOracle(o)
	}
	for _, ti := range at {
		e.At(ti, func() { nw.Send(0, 2, 1000, "fo") })
	}
	e.Spawn("rx", func(pr *sim.Proc) {
		for i := uint64(0); i < nw.Sent-nw.Dropped; i++ {
			nw.Inbox(2).Pop(pr)
		}
	})
	e.MustRun()
	checkConservation(t, nw)
	if leaked := nw.LeakedCredits(); leaked != 0 {
		t.Fatalf("%d switch buffer slots leaked", leaked)
	}
	return nw
}

func TestFailoverReroutesAroundDeadSwitch(t *testing.T) {
	// Host 0 -> host 2 primary spine is 2 (D-mod-k). Kill it: the packet
	// must divert to spine 3 and still arrive.
	o := fakeOracle{swDown: func(s int, _ sim.Time) bool { return s == 2 }}
	nw := runFailover(t, failoverParams(), o, []sim.Time{0})
	if nw.Delivered != 1 || nw.Dropped != 0 {
		t.Fatalf("delivered=%d dropped=%d", nw.Delivered, nw.Dropped)
	}
	if nw.Rerouted != 1 || nw.Unroutable != 0 {
		t.Fatalf("rerouted=%d unroutable=%d", nw.Rerouted, nw.Unroutable)
	}
	if at, ok := nw.FirstRerouteAt(); !ok || at != 0 {
		t.Fatalf("first reroute = %v,%v, want 0,true", at, ok)
	}
	if s := nw.SwitchStats(2); s.TxPackets != 0 {
		t.Fatalf("dead spine forwarded %d packets", s.TxPackets)
	}
	if s := nw.SwitchStats(3); s.TxPackets != 1 {
		t.Fatalf("alternate spine forwarded %d packets, want 1", s.TxPackets)
	}
}

func TestFailoverReroutesAroundDeadLink(t *testing.T) {
	// Only the leaf0->spine2 uplink dies. Candidate [0,2,1] crosses it,
	// candidate [0,3,1] does not.
	o := fakeOracle{linkDown: func(a, b int, _ sim.Time) bool {
		return (a == 0 && b == 2) || (a == 2 && b == 0)
	}}
	nw := runFailover(t, failoverParams(), o, []sim.Time{0})
	if nw.Delivered != 1 || nw.Rerouted != 1 || nw.Unroutable != 0 {
		t.Fatalf("delivered=%d rerouted=%d unroutable=%d", nw.Delivered, nw.Rerouted, nw.Unroutable)
	}
	if s := nw.SwitchStats(3); s.TxPackets != 1 {
		t.Fatalf("alternate spine forwarded %d packets, want 1", s.TxPackets)
	}
}

func TestFailoverWindowedOutage(t *testing.T) {
	// The spine is down only during [10us, 20us): sends before, during and
	// after the window. Only the middle one diverts, and the reroute
	// timestamp pins the pick instant.
	w0, w1 := sim.Time(0).Add(10*sim.Microsecond), sim.Time(0).Add(20*sim.Microsecond)
	down := func(s int, now sim.Time) bool {
		return s == 2 && now >= w0 && now < w1
	}
	nw := runFailover(t, failoverParams(), fakeOracle{swDown: down},
		[]sim.Time{0, sim.Time(0).Add(15 * sim.Microsecond), sim.Time(0).Add(30 * sim.Microsecond)})
	if nw.Delivered != 3 || nw.Rerouted != 1 {
		t.Fatalf("delivered=%d rerouted=%d", nw.Delivered, nw.Rerouted)
	}
	if at, ok := nw.FirstRerouteAt(); !ok || at != sim.Time(0).Add(15*sim.Microsecond) {
		t.Fatalf("first reroute = %v,%v, want 15us,true", at, ok)
	}
	if s := nw.SwitchStats(2); s.TxPackets != 2 {
		t.Fatalf("primary spine forwarded %d packets, want 2", s.TxPackets)
	}
}

func TestUnroutableDropAccounted(t *testing.T) {
	// Both spines dead: every cross-leaf candidate is down, the packet is
	// dropped as a fault on the sender's link, and no buffer slot is held.
	o := fakeOracle{swDown: func(s int, _ sim.Time) bool { return s == 2 || s == 3 }}
	nw := runFailover(t, failoverParams(), o, []sim.Time{0})
	if nw.Delivered != 0 || nw.Dropped != 1 || nw.Unroutable != 1 {
		t.Fatalf("delivered=%d dropped=%d unroutable=%d", nw.Delivered, nw.Dropped, nw.Unroutable)
	}
	if got := nw.DroppedBy(DropCauseFault); got != 1 {
		t.Fatalf("fault drops = %d, want 1", got)
	}
	if ls := nw.LinkStats(0); ls.DroppedFault != 1 {
		t.Fatalf("drop not charged to sender link: %+v", ls)
	}
	if _, ok := nw.FirstRerouteAt(); ok {
		t.Fatal("unroutable drop counted as a reroute")
	}
}

func TestFailoverSameFabricTimingAsPrimary(t *testing.T) {
	// The alternate spine is the same distance as the primary, so a
	// diverted packet arrives at exactly the primary-path instant: failover
	// costs nothing but the shared-path congestion.
	arrival := func(o ElementOracle) sim.Time {
		e := sim.NewEngine(1)
		nw := New(e, 4, failoverParams())
		if o != nil {
			nw.SetElementOracle(o)
		}
		var at sim.Time
		e.At(0, func() { nw.Send(0, 2, 1000, nil) })
		e.Spawn("rx", func(pr *sim.Proc) {
			nw.Inbox(2).Pop(pr)
			at = pr.Now()
		})
		e.MustRun()
		return at
	}
	clean := arrival(nil)
	diverted := arrival(fakeOracle{swDown: func(s int, _ sim.Time) bool { return s == 2 }})
	if clean != diverted {
		t.Fatalf("diverted arrival %v != clean arrival %v", diverted, clean)
	}
}
