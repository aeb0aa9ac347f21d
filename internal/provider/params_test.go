package provider

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vibe/internal/sim"
)

// mutatedValue returns a valid value for p that differs from cur, so tests
// can flip every parameter and observe the change.
func mutatedValue(t *testing.T, p *Param, cur string) string {
	t.Helper()
	switch p.Kind {
	case KindDuration:
		d, err := ParseDuration(cur)
		if err != nil {
			t.Fatalf("%s: current value %q unparseable: %v", p.Name, cur, err)
		}
		return FormatDuration(d + sim.Duration(1375)) // +1.375us in ns
	case KindInt:
		n, err := strconv.Atoi(cur)
		if err != nil {
			t.Fatalf("%s: current value %q unparseable: %v", p.Name, cur, err)
		}
		if p.Name == "ReliabilityMask" {
			return strconv.Itoa((n + 1) % 8)
		}
		return strconv.Itoa(n + 1)
	case KindBool:
		if cur == "true" {
			return "false"
		}
		return "true"
	case KindFloat:
		f, err := strconv.ParseFloat(cur, 64)
		if err != nil {
			t.Fatalf("%s: current value %q unparseable: %v", p.Name, cur, err)
		}
		return strconv.FormatFloat(f*2+0.125, 'g', -1, 64)
	case KindEnum:
		for _, opt := range strings.Split(p.Unit, "|") {
			if opt != cur {
				return opt
			}
		}
		t.Fatalf("%s: no alternative enum value to %q in %q", p.Name, cur, p.Unit)
	}
	t.Fatalf("%s: unknown kind %v", p.Name, p.Kind)
	return ""
}

// TestParamGetSetRoundTrip sets every parameter to a new value and reads
// it back: the canonical Get form must survive a Set/Get cycle, on every
// built-in model.
func TestParamGetSetRoundTrip(t *testing.T) {
	for _, base := range Extended() {
		m := base.Clone()
		for _, p := range Params() {
			cur := p.Get(m)
			next := mutatedValue(t, p, cur)
			if next == cur {
				t.Fatalf("%s/%s: mutated value %q equals current", base.Name, p.Name, next)
			}
			if err := p.Set(m, next); err != nil {
				t.Fatalf("%s/%s: Set(%q): %v", base.Name, p.Name, next, err)
			}
			got := p.Get(m)
			if err := p.Set(m, got); err != nil {
				t.Fatalf("%s/%s: canonical form %q does not re-parse: %v", base.Name, p.Name, got, err)
			}
			if again := p.Get(m); again != got {
				t.Fatalf("%s/%s: Get/Set unstable: %q -> %q", base.Name, p.Name, got, again)
			}
		}
	}
}

// TestCloneIsDeepCopy is the regression guard for Model.Clone: flipping
// every single overridable parameter on a clone must leave the original
// untouched. If someone adds a reference-typed field (slice, map, pointer)
// to Model and the catalog, this catches the shared state.
func TestCloneIsDeepCopy(t *testing.T) {
	for _, base := range Extended() {
		orig := base.Clone()
		pristine := make(map[string]string, len(Params()))
		for _, p := range Params() {
			pristine[p.Name] = p.Get(orig)
		}
		mutant := orig.Clone()
		for _, p := range Params() {
			next := mutatedValue(t, p, p.Get(mutant))
			if err := p.Set(mutant, next); err != nil {
				t.Fatalf("%s/%s: Set(%q): %v", base.Name, p.Name, next, err)
			}
		}
		for _, p := range Params() {
			if got := p.Get(orig); got != pristine[p.Name] {
				t.Errorf("%s: mutating a clone changed the original's %s: %q -> %q",
					base.Name, p.Name, pristine[p.Name], got)
			}
			if got := p.Get(mutant); got == pristine[p.Name] {
				t.Errorf("%s: clone's %s did not change from %q", base.Name, p.Name, got)
			}
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Duration
	}{
		{"2us", 2 * sim.Microsecond},
		{"2", 2 * sim.Microsecond}, // bare number = microseconds
		{"350ns", 350 * sim.Nanosecond},
		{"1.5ms", 1500 * sim.Microsecond},
		{"0.0005s", 500 * sim.Microsecond},
		{" 2 us ", 2 * sim.Microsecond},
		{"2US", 2 * sim.Microsecond},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "fast", "2kb", "us"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) accepted", bad)
		}
	}
}

// TestParseDurationRounds checks values land on the nearest nanosecond
// rather than truncating, so every canonical form FormatDuration writes
// parses back to the duration it came from.
func TestParseDurationRounds(t *testing.T) {
	for in, want := range map[string]sim.Duration{"1.001us": 1001, "0.0014us": 1, "0.0016us": 2, "12.5ms": 12500000} {
		if got, err := ParseDuration(in); err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for d := sim.Duration(0); d < 20*sim.Millisecond; d += 997 {
		if got, err := ParseDuration(FormatDuration(d)); err != nil || got != d {
			t.Fatalf("ParseDuration(FormatDuration(%d)) = %d, %v", d, got, err)
		}
	}
}

// TestSetRejectsValuesOutsideTheDomain checks -set values the simulation
// cannot run fail at parse time with an error naming the parameter:
// durations must be finite, non-negative and within int64 nanoseconds,
// floats finite and non-negative, ints in [0, MaxInt32], and the link
// bandwidth above zero.
func TestSetRejectsValuesOutsideTheDomain(t *testing.T) {
	cases := []struct{ name, value string }{
		{"LinkLatency", "-5us"},
		{"LinkLatency", "NaN"},
		{"LinkLatency", "Inf"},
		{"LinkLatency", "-Inf"},
		{"LinkLatency", "1e300s"},
		{"ViCreate", "9223372036854775808ns"},
		{"BandwidthBps", "0"},
		{"BandwidthBps", "-1"},
		{"BandwidthBps", "+Inf"},
		{"FrameOverhead", "-100"},
		{"MaxTransferSize", "2147483648"},
		{"DropRate", "NaN"},
		{"DropRate", "-1"},
		{"DropRate", "Inf"},
	}
	set := func(name, value string) error {
		p, err := ParamByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p.Set(CLAN(), value)
	}
	for _, c := range cases {
		err := set(c.name, c.value)
		if err == nil || !strings.Contains(err.Error(), "param "+c.name+":") {
			t.Errorf("%s=%s: err = %v, want a rejection naming %s", c.name, c.value, err, c.name)
		}
	}
	for _, ok := range []struct{ name, value string }{{"LinkLatency", "0"}, {"DropRate", "0"}, {"FrameOverhead", "0"}, {"BandwidthBps", "1e9"}, {"MaxTransferSize", "2147483647"}} {
		if err := set(ok.name, ok.value); err != nil {
			t.Errorf("%s=%s rejected: %v", ok.name, ok.value, err)
		}
	}
}

// FuzzParseDuration checks ParseDuration never panics, accepts only
// non-negative durations, and inverts FormatDuration on [0, 2^50) ns and
// on every duration it accepts.
func FuzzParseDuration(f *testing.F) {
	for _, s := range []string{"12.5ms", "40us", "350ns", "0.0005s", "2", "1.001us", "-5us", "NaN", "Inf", "1e300s", "9.3e18ns", "9010000000000000700ns", " 2 US "} {
		f.Add(s, uint64(len(s))*1_000_003)
	}
	f.Fuzz(func(t *testing.T, s string, n uint64) {
		if d, err := ParseDuration(s); err == nil {
			if d < 0 {
				t.Fatalf("ParseDuration(%q) = %d, negative", s, d)
			}
			if got, err := ParseDuration(FormatDuration(d)); err != nil || got != d {
				t.Fatalf("ParseDuration(%q) = %d, but its canonical form %q parses as %d, %v", s, d, FormatDuration(d), got, err)
			}
		}
		d := sim.Duration(n % (1 << 50))
		if got, err := ParseDuration(FormatDuration(d)); err != nil || got != d {
			t.Fatalf("ParseDuration(FormatDuration(%d)) = %d, %v", d, got, err)
		}
	})
}

func TestParamByNameCaseInsensitive(t *testing.T) {
	for _, name := range []string{"DoorbellCost", "doorbellcost", "DOORBELLCOST"} {
		p, err := ParamByName(name)
		if err != nil {
			t.Fatalf("ParamByName(%q): %v", name, err)
		}
		if p.Name != "DoorbellCost" {
			t.Fatalf("ParamByName(%q) = %s", name, p.Name)
		}
	}
	if _, err := ParamByName("NoSuchKnob"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestCompileOverrides(t *testing.T) {
	ovs, err := CompileOverrides(map[string]string{
		"WireMTU":      "9000",
		"DoorbellCost": "2us",
		"TLBPolicy":    "lru",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sorted name order, independent of map iteration.
	want := []string{"DoorbellCost", "TLBPolicy", "WireMTU"}
	for i, o := range ovs {
		if o.Param.Name != want[i] {
			t.Fatalf("override %d = %s, want %s", i, o.Param.Name, want[i])
		}
	}
	m := CLAN()
	for _, o := range ovs {
		o.Apply(m)
	}
	if m.WireMTU != 9000 {
		t.Fatalf("WireMTU = %d after override", m.WireMTU)
	}
	if m.DoorbellCost != 2*sim.Microsecond {
		t.Fatalf("DoorbellCost = %v after override", m.DoorbellCost)
	}

	if _, err := CompileOverrides(map[string]string{"NoSuchKnob": "1"}); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := CompileOverrides(map[string]string{"WireMTU": "huge"}); err == nil {
		t.Fatal("bad value accepted")
	}
	if _, err := CompileOverrides(map[string]string{"ReliabilityMask": "9"}); err == nil {
		t.Fatal("out-of-range reliability mask accepted")
	}
}

// TestOverrideApplyIsIdempotent: scenario overrides re-apply to models the
// experiments already tweaked, so applying twice must equal applying once.
func TestOverrideApplyIsIdempotent(t *testing.T) {
	ovs, err := CompileOverrides(map[string]string{"DoorbellCost": "2us", "HostCopies": "true"})
	if err != nil {
		t.Fatal(err)
	}
	once, twice := CLAN(), CLAN()
	for _, o := range ovs {
		o.Apply(once)
	}
	for i := 0; i < 2; i++ {
		for _, o := range ovs {
			o.Apply(twice)
		}
	}
	for _, p := range Params() {
		if p.Get(once) != p.Get(twice) {
			t.Fatalf("%s differs after re-application: %q vs %q", p.Name, p.Get(once), p.Get(twice))
		}
	}
}

func TestParseSet(t *testing.T) {
	set, err := ParseSet([]string{"doorbellcost=2us", "WireMTU = 9000"})
	if err != nil {
		t.Fatal(err)
	}
	// Names canonicalize to catalog spelling, values are trimmed.
	if set["DoorbellCost"] != "2us" || set["WireMTU"] != "9000" {
		t.Fatalf("ParseSet = %v", set)
	}
	for _, bad := range [][]string{
		{"DoorbellCost"},          // no '='
		{"=2us"},                  // no name
		{"NoSuchKnob=1"},          // unknown name
		{"DoorbellCost=quickly"},  // bad value
		{"ReliabilityMask=elite"}, // bad value, custom setter
	} {
		if _, err := ParseSet(bad); err == nil {
			t.Errorf("ParseSet(%v) accepted", bad)
		}
	}
	if set, err := ParseSet(nil); err != nil || set != nil {
		t.Fatalf("ParseSet(nil) = %v, %v", set, err)
	}
}

// FuzzParseSet feeds ParseSet newline-separated -set arguments. It must
// never panic, and a set it accepts must apply to every built-in model
// and survive a round trip: rendering each overridden parameter with
// Param.Get and parsing that again yields a deep-equal model.
func FuzzParseSet(f *testing.F) {
	for _, s := range []string{
		"DoorbellCost=2us", "DropRate=0.005", "HostCopies=false",
		"NetSwitchBufPkts=4", "NetTopology=torus3d", "NetTopology=fattree",
		"TLBCapacity=1024", "WireMTU=9000", "TLBPolicy=lru",
		"doorbellcost=2us\nWireMTU = 9000", "TLBCapacity=8\nTLBCapacity=32",
		"DoorbellCost=quickly", "ReliabilityMask=elite", "NoSuchKnob=1", "=2us", "TLBCapacity=",
		"LinkLatency=-5us", "LinkLatency=1e300s", "ViCreate=9223372036854775807ns",
		"BandwidthBps=1e9", "MaxTransferSize=2147483647", "FrameOverhead=-100",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseSet(strings.Split(s, "\n"))
		if err != nil {
			return
		}
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, base := range All() {
			m := base.Clone()
			for _, name := range names {
				p, _ := ParamByName(name)
				if err := p.Set(m, set[name]); err != nil {
					t.Fatalf("%s: accepted set %v does not apply: %v", base.Name, set, err)
				}
			}
			args := make([]string, len(names))
			for i, name := range names {
				p, _ := ParamByName(name)
				args[i] = name + "=" + p.Get(m)
			}
			again, err := ParseSet(args)
			if err != nil {
				t.Fatalf("%s: rendered set %v rejected: %v", base.Name, args, err)
			}
			ovs, err := CompileOverrides(again)
			if err != nil {
				t.Fatalf("%s: rendered set %v does not compile: %v", base.Name, args, err)
			}
			m2 := base.Clone()
			for _, o := range ovs {
				o.Apply(m2)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("%s: set %v rendered as %v gives a different model", base.Name, set, args)
			}
		}
	})
}
