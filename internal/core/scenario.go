package core

import (
	"encoding/json"
	"fmt"
	"os"

	"vibe/internal/fault"
	"vibe/internal/provider"
)

// RunOverrides adjusts the run configuration of a scenario. Zero fields
// keep the (quick- or full-mode) defaults.
type RunOverrides struct {
	Seed        int64 `json:"seed,omitempty"`
	Iters       int   `json:"iters,omitempty"`
	Warmup      int   `json:"warmup,omitempty"`
	BWMessages  int   `json:"bw_messages,omitempty"`
	NonDataReps int   `json:"nondata_reps,omitempty"`
}

// IsZero reports whether every override keeps its default.
func (r RunOverrides) IsZero() bool { return r == RunOverrides{} }

// ScenarioSpec is the serializable scenario description: a provider
// derivation (base model + parameter overrides) plus run-config
// adjustments and an optional fault plan. It is the on-disk
// scenario-file schema:
//
//	{"base": "clan", "set": {"DoorbellCost": "2us"}, "run": {"iters": 100},
//	 "fault": {"seed": 7, "faults": [{"kind": "drop-nth", "nth": 40}]}}
type ScenarioSpec struct {
	provider.Scenario
	Run   RunOverrides `json:"run,omitzero"`
	Fault *fault.Plan  `json:"fault,omitempty"`
}

// Save writes the spec as indented JSON — the file format
// LoadScenarioSpec reads. It shadows the embedded provider.Scenario.Save,
// which would silently drop the run overrides.
func (s ScenarioSpec) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Scenario is a compiled scenario: the spec plus pre-validated overrides
// and the quick/full mode flag. It is the value threaded through the
// experiment registry — every experiment derives its models and run
// configurations from it, so one scenario value redefines the whole
// suite's design point.
type Scenario struct {
	Spec  ScenarioSpec
	Quick bool

	// Instr, when set, is copied into every Config the scenario builds, so
	// all experiments run against it report into the same sinks. It is not
	// part of the serialized spec.
	Instr *Instr

	ovs []provider.Override
}

// NewScenario compiles a spec, validating the base model name (when set)
// and every override against the provider parameter catalog.
func NewScenario(spec ScenarioSpec, quick bool) (*Scenario, error) {
	if spec.Base != "" {
		if _, err := provider.ByNameExtended(spec.Base); err != nil {
			return nil, err
		}
	}
	ovs, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	if err := spec.Fault.Validate(); err != nil {
		return nil, err
	}
	return &Scenario{Spec: spec, Quick: quick, ovs: ovs}, nil
}

// DefaultScenario is the unmodified suite configuration: no base pin, no
// overrides, paper-reproduction run parameters.
func DefaultScenario(quick bool) *Scenario {
	sc, err := NewScenario(ScenarioSpec{}, quick)
	if err != nil {
		panic(err) // empty spec cannot fail to compile
	}
	return sc
}

// LoadScenarioSpec reads and parses a scenario file without compiling it,
// for callers that merge further overrides (e.g. -set flags) on top.
func LoadScenarioSpec(path string) (ScenarioSpec, error) {
	var spec ScenarioSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("core: scenario %s: %w", path, err)
	}
	return spec, nil
}

// LoadScenario reads, parses and compiles a scenario file.
func LoadScenario(path string, quick bool) (*Scenario, error) {
	spec, err := LoadScenarioSpec(path)
	if err != nil {
		return nil, err
	}
	sc, err := NewScenario(spec, quick)
	if err != nil {
		return nil, fmt.Errorf("core: scenario %s: %w", path, err)
	}
	return sc, nil
}

// Label names the scenario for display and provenance.
func (sc *Scenario) Label() string { return sc.Spec.Label() }

// Model returns a copy of m with the scenario's overrides applied.
// Overrides were validated at compile time, so derivation cannot fail.
func (sc *Scenario) Model(m *provider.Model) *provider.Model {
	d := m.Clone()
	for _, o := range sc.ovs {
		o.Apply(d)
	}
	return d
}

// Config builds the run configuration for the scenario-derived variant of
// m: the base-model clone with overrides applied, the quick or full sweep
// sizes, and any run-config adjustments from the spec.
func (sc *Scenario) Config(m *provider.Model) Config {
	cfg := DefaultConfig(sc.Model(m))
	if sc.Quick {
		cfg.Iters = 20
		cfg.Warmup = 5
		cfg.BWMessages = 40
		cfg.NonDataReps = 3
	}
	r := sc.Spec.Run
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}
	if r.Iters > 0 {
		cfg.Iters = r.Iters
	}
	if r.Warmup > 0 {
		cfg.Warmup = r.Warmup
	}
	if r.BWMessages > 0 {
		cfg.BWMessages = r.BWMessages
	}
	if r.NonDataReps > 0 {
		cfg.NonDataReps = r.NonDataReps
	}
	cfg.Instr = sc.Instr
	cfg.Fault = sc.Spec.Fault
	return cfg
}

// BaseConfig resolves the scenario's pinned base model and builds its
// configuration; it errors when the spec names no base.
func (sc *Scenario) BaseConfig() (Config, error) {
	if sc.Spec.Base == "" {
		return Config{}, fmt.Errorf("core: scenario %q pins no base model", sc.Label())
	}
	m, err := provider.ByNameExtended(sc.Spec.Base)
	if err != nil {
		return Config{}, err
	}
	return sc.Config(m), nil
}
