package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"vibe/internal/runner"
)

// goldenJSON holds the correctness goldens, regenerated with
// `go run . -print-goldens > goldens.json` from hostbench/ after a change
// that is meant to alter simulated results.
//
//go:embed goldens.json
var goldenJSON []byte

// goldenFile is the schema of goldens.json.
type goldenFile struct {
	// Registry is the sha256 of the results.Encode'd full registry result
	// set under the default scenario (no label, no metrics).
	Registry string `json:"registry_sha256"`
	// Incast maps a seed to its incast's event count and final virtual time.
	Incast map[string]incastOutcome `json:"incast"`
}

var goldens = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("goldens.json: %v", err))
	}
	return g
}()

// goldenSeeds are the incast seeds goldens.json pins.
const goldenSeeds = 32

// printGoldenFile computes every golden afresh and writes goldens.json.
func printGoldenFile(w io.Writer) error {
	b := &bench{rep: &report{layer: map[string]float64{}}, sp: newSpans(false)}
	in, err := b.setupRegistry()
	if err != nil {
		return err
	}
	res := b.runCells(in.nextOrder(), in.sc)
	if err := runner.FirstError(res); err != nil {
		return err
	}
	g := goldenFile{Incast: map[string]incastOutcome{}}
	if _, g.Registry, err = b.encodeRegistry(in, res); err != nil {
		return err
	}
	for seed := int64(0); seed < goldenSeeds; seed++ {
		out, err := newIncast(incastPlanFor(seed), nil).run()
		if err != nil {
			return fmt.Errorf("incast seed %d: %w", seed, err)
		}
		g.Incast[strconv.FormatInt(seed, 10)] = out
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
