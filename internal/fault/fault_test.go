package fault

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vibe/internal/fabric"
	"vibe/internal/sim"
)

func u64(v uint64) *uint64 { return &v }
func pint(v int) *int      { return &v }

func mustInjector(t *testing.T, p *Plan) *Injector {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p.NewInjector()
}

func TestPlanValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown kind", Spec{Kind: "melt"}, "unknown kind"},
		{"bad prob", Spec{Kind: KindDrop, Prob: 1.5}, "outside [0, 1]"},
		{"NaN prob", Spec{Kind: KindDrop, Prob: math.NaN()}, "outside [0, 1]"},
		{"negative port", Spec{Kind: KindDrop, Port: pint(-1)}, "negative port"},
		{"nth on wrong kind", Spec{Kind: KindDrop, Nth: u64(3)}, "nth applies only"},
		{"nth missing", Spec{Kind: KindDropNth}, "nth is required"},
		{"from without to", Spec{Kind: KindDropRange, From: u64(1)}, "set together"},
		{"range on wrong kind", Spec{Kind: KindDrop, From: u64(1), To: u64(2)}, "apply only"},
		{"inverted range", Spec{Kind: KindDropRange, From: u64(5), To: u64(2)}, "from 5 > to 2"},
		{"range missing", Spec{Kind: KindDropRange}, "from/to are required"},
		{"delay on drop", Spec{Kind: KindDrop, Delay: "10us"}, "delay does not apply"},
		{"delay missing", Spec{Kind: KindDelay}, "delay is required"},
		{"delay unparseable", Spec{Kind: KindDelay, Delay: "fast"}, "delay"},
		{"delay negative", Spec{Kind: KindDelay, Delay: "-3us"}, "must be positive"},
		{"delay zero", Spec{Kind: KindDelay, Delay: "0us"}, "must be positive"},
		{"delay not a time", Spec{Kind: KindDelay, Delay: "soon"}, "delay: bad duration"},
		{"bad start", Spec{Kind: KindDrop, Start: "soon"}, "start"},
		{"end before start", Spec{Kind: KindLinkDown, Start: "5ms", End: "2ms"}, "not after start"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Faults: []Spec{tc.spec}}
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if !nilPlan.Empty() {
		t.Fatal("nil plan not Empty")
	}
	if (&Plan{Seed: 3}).Empty() == false {
		t.Fatal("spec-less plan not Empty")
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	for name, plan := range map[string]string{
		"unknown kind":        `{"faults": [{"kind": "nope"}]}`,
		"misspelled faults":   `{"fualts": [{"kind": "drop-nth", "nth": 40}]}`,
		"misspelled selector": `{"faults": [{"kind": "drop", "probb": 0.5}]}`,
		"trailing data":       `{"seed": 7} {"seed": 8}`,
	} {
		if _, err := Parse([]byte(plan)); err == nil {
			t.Errorf("Parse accepted %s: %s", name, plan)
		}
	}
	p, err := Parse([]byte(`{"seed": 7, "faults": [{"kind": "drop-nth", "nth": 40}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Faults) != 1 {
		t.Fatalf("parsed %+v", p)
	}
}

func delivery(src, dst fabric.NodeID) *fabric.Delivery {
	return &fabric.Delivery{Src: src, Dst: dst}
}

func TestDropNthAndRange(t *testing.T) {
	inj := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindDropNth, Nth: u64(3)},
		{Kind: KindDropRange, From: u64(10), To: u64(12)},
	}})
	var dropped []uint64
	for i := uint64(0); i < 20; i++ {
		if inj.InjectPacket(i, 0, delivery(0, 1)).Drop {
			dropped = append(dropped, i)
		}
	}
	want := []uint64{3, 10, 11, 12}
	if len(dropped) != len(want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	for i := range want {
		if dropped[i] != want[i] {
			t.Fatalf("dropped %v, want %v", dropped, want)
		}
	}
	if inj.Counts()[KindDropNth] != 1 || inj.Counts()[KindDropRange] != 3 {
		t.Fatalf("counts %v", inj.Counts())
	}
}

func TestPortSelectorAndLinkDownBidirectional(t *testing.T) {
	inj := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindDrop, Port: pint(0)},
	}})
	if !inj.InjectPacket(0, 0, delivery(0, 1)).Drop {
		t.Fatal("drop spec on port 0 ignored a packet sent by node 0")
	}
	if inj.InjectPacket(1, 0, delivery(1, 0)).Drop {
		t.Fatal("drop spec on port 0 hit a packet sent by node 1")
	}

	down := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindLinkDown, Port: pint(0)},
	}})
	if !down.InjectPacket(0, 0, delivery(0, 1)).Drop {
		t.Fatal("link-down missed the outbound direction")
	}
	if !down.InjectPacket(1, 0, delivery(1, 0)).Drop {
		t.Fatal("link-down missed the inbound direction")
	}
	if down.InjectPacket(2, 0, delivery(1, 2)).Drop {
		t.Fatal("link-down hit a packet not touching port 0")
	}
}

func TestTimeWindowAndCountCap(t *testing.T) {
	inj := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindLinkDown, Start: "1ms", End: "2ms"},
	}})
	ms := sim.Time(0).Add(sim.Millisecond)
	if inj.InjectPacket(0, ms-1, delivery(0, 1)).Drop {
		t.Fatal("fired before the window")
	}
	if !inj.InjectPacket(1, ms, delivery(0, 1)).Drop {
		t.Fatal("window start is inclusive")
	}
	if inj.InjectPacket(2, ms.Add(sim.Millisecond), delivery(0, 1)).Drop {
		t.Fatal("window end is exclusive")
	}

	capped := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindDrop, Count: 2},
	}})
	drops := 0
	for i := uint64(0); i < 10; i++ {
		if capped.InjectPacket(i, 0, delivery(0, 1)).Drop {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("count-capped spec fired %d times, want 2", drops)
	}
}

func TestVerdictFolding(t *testing.T) {
	inj := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindCorrupt},
		{Kind: KindDuplicate},
		{Kind: KindDuplicate},
		{Kind: KindDelay, Delay: "10us"},
		{Kind: KindDelay, Delay: "5us"},
	}})
	f := inj.InjectPacket(0, 0, delivery(0, 1))
	if !f.Corrupt || f.Drop {
		t.Fatalf("verdict %+v", f)
	}
	if f.Duplicates != 2 {
		t.Fatalf("duplicates %d, want 2", f.Duplicates)
	}
	if f.Delay != 15*sim.Microsecond {
		t.Fatalf("delay %v, want 15us", f.Delay)
	}
}

func TestStallSitesAndHasStalls(t *testing.T) {
	inj := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindDoorbellStall, Delay: "30us", Port: pint(1)},
		{Kind: KindDMAStall, Delay: "20us"},
	}})
	if d := inj.Stall(SiteDoorbell, 1, 0); d != 30*sim.Microsecond {
		t.Fatalf("doorbell stall on node 1 = %v", d)
	}
	if d := inj.Stall(SiteDoorbell, 0, 0); d != 0 {
		t.Fatalf("doorbell stall leaked to node 0: %v", d)
	}
	if d := inj.Stall(SiteDMA, 0, 0); d != 20*sim.Microsecond {
		t.Fatalf("dma stall = %v", d)
	}

	packetOnly := mustInjector(t, &Plan{Faults: []Spec{{Kind: KindDrop}}})
	for _, site := range []Site{SiteDoorbell, SiteDMA} {
		if d := packetOnly.Stall(site, 1, 0); d != 0 {
			t.Fatalf("packet-only plan stalls site %v for %v", site, d)
		}
	}
}

// Probabilistic specs must replay identically for a given plan seed and
// differ across seeds.
func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		inj := mustInjector(t, &Plan{Seed: seed, Faults: []Spec{
			{Kind: KindDrop, Prob: 0.3},
		}})
		var dropped []uint64
		for i := uint64(0); i < 200; i++ {
			if inj.InjectPacket(i, 0, delivery(0, 1)).Drop {
				dropped = append(dropped, i)
			}
		}
		return dropped
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("degenerate drop pattern: %d of 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestRandomPlanSeededAndValid(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := RandomPlan(seed)
		if p.Empty() {
			t.Fatalf("seed %d: empty plan", seed)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	aj, _ := json.Marshal(RandomPlan(7))
	bj, _ := json.Marshal(RandomPlan(7))
	if string(aj) != string(bj) {
		t.Fatalf("RandomPlan(7) not deterministic:\n%s\n%s", aj, bj)
	}
}

func TestElementSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"switch missing", Spec{Kind: KindSwitchDown}, "switch is required"},
		{"negative switch", Spec{Kind: KindSwitchDown, Switch: pint(-2)}, "negative switch"},
		{"link on switch-down", Spec{Kind: KindSwitchDown, Switch: pint(1), Link: []int{0, 1}}, "link applies only"},
		{"port on element", Spec{Kind: KindSwitchDown, Switch: pint(1), Port: pint(0)}, "port does not apply"},
		{"prob on element", Spec{Kind: KindSwitchDown, Switch: pint(1), Prob: 0.5}, "deterministic"},
		{"count on element", Spec{Kind: KindSwitchDown, Switch: pint(1), Count: 3}, "count does not apply"},
		{"one endpoint", Spec{Kind: KindSwitchLinkDown, Link: []int{4}}, "exactly two"},
		{"equal endpoints", Spec{Kind: KindSwitchLinkDown, Link: []int{4, 4}}, "must differ"},
		{"negative endpoint", Spec{Kind: KindSwitchLinkDown, Link: []int{-1, 4}}, "negative link endpoint"},
		{"switch on link-down", Spec{Kind: KindSwitchLinkDown, Link: []int{0, 1}, Switch: pint(0)}, "switch applies only"},
		{"switch on packet kind", Spec{Kind: KindDrop, Switch: pint(1)}, "switch applies only"},
		{"link on packet kind", Spec{Kind: KindDrop, Link: []int{0, 1}}, "link applies only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Plan{Faults: []Spec{tc.spec}}).Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestElementOracleWindowsAndSelectors(t *testing.T) {
	// The link spec is deliberately given endpoints in descending order:
	// the oracle must answer for both orders anyway.
	inj := mustInjector(t, &Plan{Faults: []Spec{
		{Kind: KindSwitchDown, Switch: pint(2), Start: "1ms", End: "2ms"},
		{Kind: KindSwitchLinkDown, Link: []int{5, 3}, Start: "1ms", End: "2ms"},
	}})
	if !inj.HasElementFaults() {
		t.Fatal("HasElementFaults false with element specs")
	}
	in := sim.Time(0).Add(1500 * sim.Microsecond)
	before := sim.Time(0).Add(500 * sim.Microsecond)
	at := sim.Time(0).Add(sim.Millisecond)
	end := sim.Time(0).Add(2 * sim.Millisecond)
	if !inj.SwitchDown(2, in) || !inj.SwitchDown(2, at) {
		t.Fatal("switch 2 not down inside the window (start inclusive)")
	}
	if inj.SwitchDown(2, before) || inj.SwitchDown(2, end) {
		t.Fatal("switch 2 down outside the window (end must be exclusive)")
	}
	if inj.SwitchDown(3, in) {
		t.Fatal("outage leaked to another switch")
	}
	if !inj.SwitchLinkDown(3, 5, in) || !inj.SwitchLinkDown(5, 3, in) {
		t.Fatal("link {3,5} liveness is order-sensitive")
	}
	if inj.SwitchLinkDown(3, 4, in) {
		t.Fatal("outage leaked to another link")
	}
	// Element outages are routing facts, not packet verdicts: the packet
	// chain must ignore them entirely.
	if f := inj.InjectPacket(0, in, delivery(0, 1)); f != (fabric.PacketFault{}) {
		t.Fatalf("element spec produced a packet verdict: %+v", f)
	}

	packetOnly := mustInjector(t, &Plan{Faults: []Spec{{Kind: KindDrop}}})
	if packetOnly.HasElementFaults() {
		t.Fatal("HasElementFaults true for packet-only plan")
	}
}

func TestRandomTopoPlanSeededAndValid(t *testing.T) {
	sawElement := false
	for seed := int64(0); seed < 100; seed++ {
		p := RandomTopoPlan(seed, 4, 6)
		if p.Empty() {
			t.Fatalf("seed %d: empty plan", seed)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range p.Faults {
			switch s.Kind {
			case KindSwitchDown:
				sawElement = true
				if *s.Switch < 0 || *s.Switch >= 6 {
					t.Fatalf("seed %d: switch %d out of range", seed, *s.Switch)
				}
			case KindSwitchLinkDown:
				sawElement = true
				if s.Link[0] == s.Link[1] || s.Link[0] >= 6 || s.Link[1] >= 6 {
					t.Fatalf("seed %d: bad link %v", seed, s.Link)
				}
			}
		}
	}
	if !sawElement {
		t.Fatal("100 topo plans over 6 switches drew no element outage")
	}
	aj, _ := json.Marshal(RandomTopoPlan(7, 4, 6))
	bj, _ := json.Marshal(RandomTopoPlan(7, 4, 6))
	if string(aj) != string(bj) {
		t.Fatalf("RandomTopoPlan(7) not deterministic:\n%s\n%s", aj, bj)
	}
	// A single-switch fabric has no redundant elements to kill: topo plans
	// degrade to the legacy kind pool.
	for seed := int64(0); seed < 50; seed++ {
		for _, s := range RandomTopoPlan(seed, 2, 1).Faults {
			if elementKinds[s.Kind] {
				t.Fatalf("seed %d: element kind %s on a single-switch fabric", seed, s.Kind)
			}
		}
	}
}

// FuzzFaultParse checks that no input makes Parse, NewInjector or the
// injector's first decisions panic. The corpus starts from the registry's
// XFAULT and XFAILOVER plans and from RandomPlan/RandomTopoPlan output.
func FuzzFaultParse(f *testing.F) {
	spine, alt := 3, 4
	seeds := []*Plan{
		{Faults: []Spec{{Kind: KindDropNth, Nth: u64(25)}}},
		{Faults: []Spec{{Kind: KindDropRange, From: u64(20), To: u64(30)}}},
		{Seed: 11, Faults: []Spec{{Kind: KindDrop, Prob: 0.08}}},
		{Seed: 12, Faults: []Spec{{Kind: KindCorrupt, Prob: 0.08}}},
		{Seed: 13, Faults: []Spec{{Kind: KindDuplicate, Prob: 0.10}}},
		{Seed: 14, Faults: []Spec{{Kind: KindDelay, Prob: 0.25, Delay: "40us"}}},
		{Seed: 15, Faults: []Spec{{Kind: KindJitter, Prob: 0.25, Delay: "80us"}}},
		{Faults: []Spec{{Kind: KindLinkDown, Start: "11ms", End: "12.5ms"}}},
		{Faults: []Spec{{Kind: KindLinkDown, Start: "11ms", End: "400ms"}}},
		{Seed: 16, Faults: []Spec{{Kind: KindDoorbellStall, Prob: 0.10, Delay: "30us"}}},
		{Seed: 17, Faults: []Spec{{Kind: KindDMAStall, Prob: 0.10, Delay: "20us"}}},
		{Faults: []Spec{{Kind: KindSwitchDown, Switch: &spine, Start: "52ms", End: "56ms"}}},
		{Faults: []Spec{
			{Kind: KindSwitchDown, Switch: &spine, Start: "52ms", End: "54ms"},
			{Kind: KindSwitchDown, Switch: &alt, Start: "52ms", End: "54ms"},
		}},
	}
	for seed := int64(1); seed <= 8; seed++ {
		seeds = append(seeds, RandomPlan(seed), RandomTopoPlan(seed, 8, 6))
	}
	for _, p := range seeds {
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		inj := p.NewInjector()
		now := sim.Time(0).Add(53 * sim.Millisecond)
		for i := uint64(0); i < 32; i++ {
			inj.InjectPacket(i, now, &fabric.Delivery{Src: fabric.NodeID(i % 3), Dst: fabric.NodeID(i % 2)})
		}
		inj.Stall(SiteDoorbell, 0, now)
		inj.Stall(SiteDMA, 1, now)
		inj.SwitchDown(spine, now)
		inj.SwitchLinkDown(0, spine, now)
	})
}
