// Package fault implements deterministic, virtual-time fault injection
// for the simulated cluster. A Plan is a typed list of fault specs —
// targeted packet drops, corruption, duplication, reorder delays, jitter,
// time-windowed link/switch/inter-switch-link outages, and NIC
// doorbell/DMA stalls — loaded from scenario JSON and compiled into an
// Injector that hooks the fabric's packet path, its route-liveness
// oracle, and the NIC models' command/DMA paths.
//
// Everything is driven by virtual time and a plan-local seeded RNG, so a
// fault plan replays identically run after run: the same packets drop,
// the same frames corrupt, the same stalls hit. An empty plan injects
// nothing and leaves every simulation byte-identical to an uninstrumented
// run.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"vibe/internal/fabric"
	"vibe/internal/provider"
	"vibe/internal/sim"
)

// Fault kinds. Packet kinds act in the fabric's send path; element kinds
// kill fabric switches or inter-switch links for a virtual-time window
// (the routing layer steers around or drops); stall kinds act in the NIC
// models.
const (
	KindDropNth   = "drop-nth"   // drop the packet with sequence number Nth
	KindDropRange = "drop-range" // drop packets with From <= seq <= To
	KindDrop      = "drop"       // drop each matching packet with probability Prob
	KindCorrupt   = "corrupt"    // mark matching packets corrupt (receiver CRC-drops them)
	KindDuplicate = "duplicate"  // deliver an extra copy of matching packets
	KindDelay     = "delay"      // hold matching packets at the switch for Delay (reorder)
	KindJitter    = "jitter"     // hold matching packets for uniform [0, Delay)
	KindLinkDown  = "link-down"  // drop everything touching Port during [Start, End)

	KindSwitchDown     = "switch-down"      // switch Switch is dead during [Start, End)
	KindSwitchLinkDown = "switch-link-down" // inter-switch link Link is dead during [Start, End)

	KindDoorbellStall = "doorbell-stall" // stall the NIC's doorbell/command engine by Delay
	KindDMAStall      = "dma-stall"      // stall each NIC DMA transfer by Delay
)

// packetKinds, elementKinds and stallKinds partition the kind namespace.
var packetKinds = map[string]bool{
	KindDropNth: true, KindDropRange: true, KindDrop: true,
	KindCorrupt: true, KindDuplicate: true, KindDelay: true,
	KindJitter: true, KindLinkDown: true,
}

var elementKinds = map[string]bool{
	KindSwitchDown: true, KindSwitchLinkDown: true,
}

var stallKinds = map[string]bool{
	KindDoorbellStall: true, KindDMAStall: true,
}

// Spec is one fault in a plan, the JSON schema of a plan file entry.
// Zero-valued selectors leave their dimension unconstrained: a spec with
// no Port matches every node, one with no Start/End is active for the
// whole run, one with Prob 0 on a probabilistic kind fires always.
type Spec struct {
	// Kind selects the fault type (see the Kind constants).
	Kind string `json:"kind"`

	// Port restricts the fault to one node: for packet kinds the
	// transmitting node (link-down also matches the receiving side), for
	// stall kinds the NIC. Nil matches every node.
	Port *int `json:"port,omitempty"`

	// Switch (switch-down) selects the dead switch by topology switch
	// index; Link (switch-link-down) selects the dead inter-switch link
	// as its two switch endpoints, order-insensitive. Element outages are
	// deterministic: no Prob, no Count — the window is the whole story.
	Switch *int  `json:"switch,omitempty"`
	Link   []int `json:"link,omitempty"`

	// Nth (drop-nth) and From/To (drop-range) select packets by the
	// fabric's global sequence number.
	Nth  *uint64 `json:"nth,omitempty"`
	From *uint64 `json:"from,omitempty"`
	To   *uint64 `json:"to,omitempty"`

	// Count caps how many times the fault fires; 0 means unlimited.
	Count uint64 `json:"count,omitempty"`

	// Prob is the per-event firing probability for probabilistic kinds
	// (drop, corrupt, duplicate, delay, jitter, stalls); 0 means 1.0.
	Prob float64 `json:"prob,omitempty"`

	// Delay is the injected latency for delay/jitter/stall kinds
	// (provider duration syntax: "150us", "2ms"; bare numbers are µs).
	Delay string `json:"delay,omitempty"`

	// Start and End bound the virtual-time window the fault is active in
	// ([Start, End), offsets from simulation start). Empty means
	// unbounded on that side.
	Start string `json:"start,omitempty"`
	End   string `json:"end,omitempty"`
}

// Plan is a reproducible fault schedule: a seed for the plan's private
// RNG plus the fault specs. The zero value (and a plan with no specs) is
// inert.
type Plan struct {
	Seed   int64  `json:"seed,omitempty"`
	Faults []Spec `json:"faults,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// Validate checks every spec against the schema: known kind, selectors
// that make sense for it, parseable durations.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		if _, err := compileSpec(&p.Faults[i]); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Load reads and validates a plan file:
//
//	{"seed": 7, "faults": [{"kind": "drop-nth", "nth": 40}, ...]}
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse decodes and validates a JSON plan. The decode is strict: a key the
// schema does not have, such as a misspelled "fualts", is an error rather
// than a silently empty plan, and so is anything after the object.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("fault: plan: trailing data after the plan")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fault: plan: %w", err)
	}
	return &p, nil
}

// cspec is a compiled spec: durations parsed, selectors normalized, plus
// the per-run application counter.
type cspec struct {
	kind     string
	port     int // -1: any node
	hasNth   bool
	nth      uint64
	hasRange bool
	from, to uint64
	count    uint64 // 0: unlimited
	prob     float64
	delay    sim.Duration
	start    sim.Time
	end      sim.Time // 0: unbounded

	// Element selectors: the dead switch (switch-down) or the dead
	// inter-switch link's endpoints, normalized linkA < linkB.
	swid         int
	linkA, linkB int

	applied uint64
}

// compileSpec validates and lowers one spec.
func compileSpec(s *Spec) (*cspec, error) {
	c := &cspec{kind: s.Kind, port: -1, count: s.Count, prob: s.Prob}
	if !packetKinds[s.Kind] && !elementKinds[s.Kind] && !stallKinds[s.Kind] {
		return nil, fmt.Errorf("unknown kind %q", s.Kind)
	}
	if elementKinds[s.Kind] {
		if s.Port != nil {
			return nil, fmt.Errorf("%s: port does not apply (use switch/link selectors)", s.Kind)
		}
		if s.Prob != 0 {
			return nil, fmt.Errorf("%s: element outages are deterministic, prob does not apply", s.Kind)
		}
		if s.Count != 0 {
			return nil, fmt.Errorf("%s: count does not apply, bound the outage with start/end", s.Kind)
		}
		switch s.Kind {
		case KindSwitchDown:
			if s.Link != nil {
				return nil, fmt.Errorf("%s: link applies only to %s", s.Kind, KindSwitchLinkDown)
			}
			if s.Switch == nil {
				return nil, fmt.Errorf("%s: switch is required", s.Kind)
			}
			if *s.Switch < 0 {
				return nil, fmt.Errorf("%s: negative switch %d", s.Kind, *s.Switch)
			}
			c.swid = *s.Switch
		case KindSwitchLinkDown:
			if s.Switch != nil {
				return nil, fmt.Errorf("%s: switch applies only to %s", s.Kind, KindSwitchDown)
			}
			if len(s.Link) != 2 {
				return nil, fmt.Errorf("%s: link needs exactly two switch endpoints, got %d", s.Kind, len(s.Link))
			}
			a, b := s.Link[0], s.Link[1]
			if a < 0 || b < 0 {
				return nil, fmt.Errorf("%s: negative link endpoint in %v", s.Kind, s.Link)
			}
			if a == b {
				return nil, fmt.Errorf("%s: link endpoints must differ, got %v", s.Kind, s.Link)
			}
			if a > b {
				a, b = b, a
			}
			c.linkA, c.linkB = a, b
		}
	} else if s.Switch != nil {
		return nil, fmt.Errorf("%s: switch applies only to %s", s.Kind, KindSwitchDown)
	} else if s.Link != nil {
		return nil, fmt.Errorf("%s: link applies only to %s", s.Kind, KindSwitchLinkDown)
	}
	if s.Port != nil {
		if *s.Port < 0 {
			return nil, fmt.Errorf("%s: negative port %d", s.Kind, *s.Port)
		}
		c.port = *s.Port
	}
	if !(s.Prob >= 0 && s.Prob <= 1) {
		return nil, fmt.Errorf("%s: prob %v outside [0, 1]", s.Kind, s.Prob)
	}
	if s.Nth != nil {
		if s.Kind != KindDropNth {
			return nil, fmt.Errorf("%s: nth applies only to %s", s.Kind, KindDropNth)
		}
		c.hasNth, c.nth = true, *s.Nth
	}
	if (s.From != nil) != (s.To != nil) {
		return nil, fmt.Errorf("%s: from and to must be set together", s.Kind)
	}
	if s.From != nil {
		if s.Kind != KindDropRange {
			return nil, fmt.Errorf("%s: from/to apply only to %s", s.Kind, KindDropRange)
		}
		if *s.From > *s.To {
			return nil, fmt.Errorf("%s: from %d > to %d", s.Kind, *s.From, *s.To)
		}
		c.hasRange, c.from, c.to = true, *s.From, *s.To
	}
	switch s.Kind {
	case KindDropNth:
		if !c.hasNth {
			return nil, fmt.Errorf("%s: nth is required", s.Kind)
		}
	case KindDropRange:
		if !c.hasRange {
			return nil, fmt.Errorf("%s: from/to are required", s.Kind)
		}
	}
	needsDelay := s.Kind == KindDelay || s.Kind == KindJitter || stallKinds[s.Kind]
	if s.Delay != "" {
		if !needsDelay {
			return nil, fmt.Errorf("%s: delay does not apply", s.Kind)
		}
		d, err := provider.ParseDuration(s.Delay)
		if strings.HasPrefix(strings.TrimSpace(s.Delay), "-") || err == nil && d <= 0 {
			return nil, fmt.Errorf("%s: delay must be positive", s.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: delay: %w", s.Kind, err)
		}
		c.delay = d
	} else if needsDelay {
		return nil, fmt.Errorf("%s: delay is required", s.Kind)
	}
	if s.Start != "" {
		d, err := provider.ParseDuration(s.Start)
		if err != nil {
			return nil, fmt.Errorf("%s: start: %w", s.Kind, err)
		}
		c.start = sim.Time(0).Add(d)
	}
	if s.End != "" {
		d, err := provider.ParseDuration(s.End)
		if err != nil {
			return nil, fmt.Errorf("%s: end: %w", s.Kind, err)
		}
		c.end = sim.Time(0).Add(d)
		if c.end <= c.start {
			return nil, fmt.Errorf("%s: end %s not after start %s", s.Kind, s.End, s.Start)
		}
	}
	return c, nil
}

// active reports whether the spec fires at time now, given its window and
// application cap.
func (c *cspec) active(now sim.Time) bool {
	if c.count > 0 && c.applied >= c.count {
		return false
	}
	if now < c.start {
		return false
	}
	if c.end > 0 && now >= c.end {
		return false
	}
	return true
}

// Site identifies a NIC-model fault hook.
type Site int

const (
	// SiteDoorbell: the NIC's command/doorbell processing path.
	SiteDoorbell Site = iota
	// SiteDMA: every NIC-initiated DMA transfer.
	SiteDMA
)

// Injector is one simulation's compiled fault plan. It implements
// fabric.PacketInjector and exposes the NIC stall hook; all state
// (per-spec application counts, the plan RNG) is injector-local, so every
// simulated system compiles its own injector and replays identically.
//
// Injectors are engine-local and not safe for concurrent use — exactly
// like the rest of a simulation's state.
type Injector struct {
	rng     *rand.Rand
	packet  []*cspec
	element []*cspec
	stall   []*cspec
	counts  map[string]uint64
}

// NewInjector compiles the plan into a fresh injector. The plan must have
// been validated (Load, Parse and Validate all do); compiling an invalid
// plan panics.
func (p *Plan) NewInjector() *Injector {
	var seed int64
	if p != nil {
		seed = p.Seed
	}
	inj := &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]uint64),
	}
	if p != nil {
		for i := range p.Faults {
			c, err := compileSpec(&p.Faults[i])
			if err != nil {
				panic(fmt.Sprintf("fault: NewInjector on unvalidated plan: %v", err))
			}
			switch {
			case packetKinds[c.kind]:
				inj.packet = append(inj.packet, c)
			case elementKinds[c.kind]:
				inj.element = append(inj.element, c)
			default:
				inj.stall = append(inj.stall, c)
			}
		}
	}
	return inj
}

// fire decides whether a probabilistic spec triggers and records the
// application. Specs with Prob 0 always fire.
func (inj *Injector) fire(c *cspec) bool {
	if c.prob > 0 && inj.rng.Float64() >= c.prob {
		return false
	}
	c.applied++
	inj.counts[c.kind]++
	return true
}

// InjectPacket implements fabric.PacketInjector: it folds every matching
// packet spec into one verdict.
func (inj *Injector) InjectPacket(index uint64, now sim.Time, d *fabric.Delivery) fabric.PacketFault {
	var f fabric.PacketFault
	for _, c := range inj.packet {
		if !c.active(now) {
			continue
		}
		switch {
		case c.kind == KindLinkDown:
			// Outages sever the link in both directions.
			if c.port >= 0 && c.port != int(d.Src) && c.port != int(d.Dst) {
				continue
			}
		case c.port >= 0 && c.port != int(d.Src):
			continue
		}
		if c.hasNth && index != c.nth {
			continue
		}
		if c.hasRange && (index < c.from || index > c.to) {
			continue
		}
		switch c.kind {
		case KindDropNth, KindDropRange, KindDrop, KindLinkDown:
			if inj.fire(c) {
				f.Drop = true
			}
		case KindCorrupt:
			if inj.fire(c) {
				f.Corrupt = true
			}
		case KindDuplicate:
			if inj.fire(c) {
				f.Duplicates++
			}
		case KindDelay:
			if inj.fire(c) {
				f.Delay += c.delay
			}
		case KindJitter:
			if inj.fire(c) {
				f.Delay += sim.Duration(inj.rng.Int63n(int64(c.delay)))
			}
		}
	}
	return f
}

// Stall reports how long the NIC on node should stall at the given site,
// folding every matching stall spec. Zero means no fault.
func (inj *Injector) Stall(site Site, node int, now sim.Time) sim.Duration {
	var total sim.Duration
	for _, c := range inj.stall {
		if !c.active(now) {
			continue
		}
		if c.port >= 0 && c.port != node {
			continue
		}
		switch {
		case site == SiteDoorbell && c.kind == KindDoorbellStall,
			site == SiteDMA && c.kind == KindDMAStall:
			if inj.fire(c) {
				total += c.delay
			}
		}
	}
	return total
}

// HasElementFaults reports whether the plan declares any switch or
// inter-switch-link outage, so systems only install the routing oracle
// when one exists (an oracle-free fabric routes on the exact
// pre-multipath path).
func (inj *Injector) HasElementFaults() bool { return len(inj.element) > 0 }

// SwitchDown implements fabric.ElementOracle: whether any switch-down
// spec covers switch s at now. Element checks are pure — no RNG draw, no
// counter — so route decisions replay identically across process models
// and repeated runs.
func (inj *Injector) SwitchDown(s int, now sim.Time) bool {
	for _, c := range inj.element {
		if c.kind == KindSwitchDown && c.swid == s && c.active(now) {
			return true
		}
	}
	return false
}

// SwitchLinkDown implements fabric.ElementOracle: whether any
// switch-link-down spec covers the link {a, b} at now, order-insensitive.
func (inj *Injector) SwitchLinkDown(a, b int, now sim.Time) bool {
	if a > b {
		a, b = b, a
	}
	for _, c := range inj.element {
		if c.kind == KindSwitchLinkDown && c.linkA == a && c.linkB == b && c.active(now) {
			return true
		}
	}
	return false
}

// Counts returns how often each fault kind fired, for metrics.
func (inj *Injector) Counts() map[string]uint64 { return inj.counts }
