package trace_test

import (
	"bytes"
	"os"
	"testing"

	"vibe/internal/core"
	"vibe/internal/provider"
	"vibe/internal/runner"
)

// TestChromeGolden pins the Chrome export byte for byte. The run is a
// two-size clan latency sweep on a routed fat-tree with every message
// span recorded, so the file holds all six record shapes: link tx/rx
// instants, switch forward spans, NIC doorbell/rx instants and message
// spans, across two systems (one per size, the 8 KB one fragmented).
// The golden file is the CLI's output for the same run; regenerate it
// with
//
//	go run ./cmd/vibe -provider clan -bench latency -sizes 64,8192 -iters 2 \
//	  -topo fattree -trace-out internal/trace/testdata/golden.json
func TestChromeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	clan, err := provider.ByNameExtended("clan")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runner.Compile(runner.Request{
		Set:        []string{"NetTopology=fattree"},
		Trace:      true,
		SpanSample: 1,
		Custom: []*core.Experiment{{
			ID: "latency",
			Run: func(sc *core.Scenario) (*core.Report, error) {
				cfg := sc.Config(clan)
				cfg.Iters = 2
				_, _, err := core.LatencySweep(cfg, []int{64, 8192}, core.XferOpts{ActiveVIs: 1, Segments: 1})
				return &core.Report{}, err
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Artifact(runner.TraceArtifact)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("Chrome export differs from testdata/golden.json at byte %d (got %d bytes, want %d)", i, len(got), len(want))
	}
}
