package fault

import (
	"fmt"
	"math/rand"
)

// legacyKinds is the kind pool RandomPlan has always drawn from. It is a
// fixed list, not every Kind constant, so that adding new fault kinds —
// like the topology-aware element outages — never reshuffles the plans
// existing chaos seeds produce.
var legacyKinds = []string{
	KindDropNth, KindDropRange, KindDrop, KindCorrupt, KindDuplicate,
	KindDelay, KindJitter, KindLinkDown, KindDoorbellStall, KindDMAStall,
}

// RandomPlan generates a reproducible random fault plan for chaos
// testing: the same seed always yields the same plan, and the plan's own
// injector seed is derived from it, so a chaos run is fully replayable
// from one integer. Parameters are bounded so a random plan is hostile
// but survivable — probabilistic faults stay below saturation and delays
// stay within a few retransmission timeouts.
func RandomPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		p.Faults = append(p.Faults, randomSpec(rng, legacyKinds, 2, 0))
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("fault: RandomPlan built an invalid plan: %v", err))
	}
	return p
}

// RandomTopoPlan generates a reproducible random fault plan for routed
// topologies: the legacy packet/stall kinds drawn over hosts ports, plus
// the element kinds (switch-down, switch-link-down) targeting the given
// switch count. Outage windows are bounded (a few milliseconds starting
// within the first 20 ms) so soak workloads ride them out through
// retransmission rather than exhausting the RTO ladder.
func RandomTopoPlan(seed int64, hosts, switches int) *Plan {
	if hosts < 1 || switches < 1 {
		panic(fmt.Sprintf("fault: RandomTopoPlan needs hosts and switches >= 1, got %d/%d", hosts, switches))
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	kinds := legacyKinds
	if switches > 1 {
		kinds = append(append([]string{}, legacyKinds...), KindSwitchDown, KindSwitchLinkDown)
	}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		p.Faults = append(p.Faults, randomSpec(rng, kinds, hosts, switches))
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("fault: RandomTopoPlan built an invalid plan: %v", err))
	}
	return p
}

// randomSpec draws one bounded fault spec. hosts sizes the port
// selector; switches sizes the element selectors (only consulted when an
// element kind is drawn, which requires switches >= 2).
func randomSpec(rng *rand.Rand, kinds []string, hosts, switches int) Spec {
	kind := kinds[rng.Intn(len(kinds))]
	s := Spec{Kind: kind}
	if !elementKinds[kind] && rng.Intn(2) == 0 {
		port := rng.Intn(hosts)
		s.Port = &port
	}
	switch kind {
	case KindDropNth:
		nth := uint64(rng.Intn(400))
		s.Nth = &nth
	case KindDropRange:
		from := uint64(rng.Intn(300))
		to := from + uint64(rng.Intn(20))
		s.From, s.To = &from, &to
	case KindDrop:
		s.Prob = 0.01 + 0.15*rng.Float64()
	case KindCorrupt, KindDuplicate:
		s.Prob = 0.02 + 0.2*rng.Float64()
	case KindDelay, KindJitter:
		s.Prob = 0.05 + 0.25*rng.Float64()
		s.Delay = fmt.Sprintf("%dus", 20+rng.Intn(480))
	case KindLinkDown:
		start := 1 + rng.Intn(20)
		s.Start = fmt.Sprintf("%dms", start)
		s.End = fmt.Sprintf("%dms", start+1+rng.Intn(3))
	case KindSwitchDown:
		sw := rng.Intn(switches)
		s.Switch = &sw
		start := 1 + rng.Intn(20)
		s.Start = fmt.Sprintf("%dms", start)
		s.End = fmt.Sprintf("%dms", start+1+rng.Intn(4))
	case KindSwitchLinkDown:
		a := rng.Intn(switches)
		b := rng.Intn(switches - 1)
		if b >= a {
			b++
		}
		s.Link = []int{a, b}
		start := 1 + rng.Intn(20)
		s.Start = fmt.Sprintf("%dms", start)
		s.End = fmt.Sprintf("%dms", start+1+rng.Intn(4))
	case KindDoorbellStall, KindDMAStall:
		s.Prob = 0.02 + 0.2*rng.Float64()
		s.Delay = fmt.Sprintf("%dus", 5+rng.Intn(195))
	}
	// Cap repeatable faults so a plan cannot starve the run forever.
	if s.Nth == nil && s.From == nil && kind != KindLinkDown && !elementKinds[kind] {
		s.Count = uint64(50 + rng.Intn(450))
	}
	return s
}
