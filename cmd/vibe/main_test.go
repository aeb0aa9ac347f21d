package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/provider"
	"vibe/internal/runner"
	"vibe/internal/via"
)

func TestXferOpts(t *testing.T) {
	base := xferFlags{mode: "poll", rel: "unreliable", reuse: -1, vis: 1, segs: 1, req: 16}
	cases := []struct {
		name    string
		edit    func(*xferFlags)
		want    core.XferOpts
		wantErr string
	}{
		{"defaults", func(*xferFlags) {}, core.XferOpts{ActiveVIs: 1, Segments: 1}, ""},
		{"block", func(f *xferFlags) { f.mode = "block" },
			core.XferOpts{Mode: core.Blocking, ActiveVIs: 1, Segments: 1}, ""},
		{"bad mode", func(f *xferFlags) { f.mode = "bogus" }, core.XferOpts{}, "completion mode"},
		{"reuse 0", func(f *xferFlags) { f.reuse = 0 },
			core.XferOpts{VaryBuffers: true, ActiveVIs: 1, Segments: 1}, ""},
		{"reuse 100", func(f *xferFlags) { f.reuse = 100 },
			core.XferOpts{VaryBuffers: true, ReusePct: 100, ActiveVIs: 1, Segments: 1}, ""},
		{"reuse 150", func(f *xferFlags) { f.reuse = 150 }, core.XferOpts{}, "-reuse"},
		{"reuse -2", func(f *xferFlags) { f.reuse = -2 }, core.XferOpts{}, "-reuse"},
		{"delivery", func(f *xferFlags) { f.rel = "delivery" },
			core.XferOpts{Reliability: via.ReliableDelivery, ActiveVIs: 1, Segments: 1}, ""},
		{"reception", func(f *xferFlags) { f.rel = "reception" },
			core.XferOpts{Reliability: via.ReliableReception, ActiveVIs: 1, Segments: 1}, ""},
		{"bad reliability", func(f *xferFlags) { f.rel = "bogus" }, core.XferOpts{}, "reliability"},
		{"vis 0", func(f *xferFlags) { f.vis = 0 }, core.XferOpts{}, "-vis 0"},
		{"segments 0", func(f *xferFlags) { f.segs = 0 }, core.XferOpts{}, "-segments 0"},
		{"window -1", func(f *xferFlags) { f.window = -1 }, core.XferOpts{}, "-window -1"},
		{"req -1", func(f *xferFlags) { f.req = -1 }, core.XferOpts{}, "-req -1"},
		{"iters -1", func(f *xferFlags) { f.iters = -1 }, core.XferOpts{}, "-iters -1"},
		{"req 0", func(f *xferFlags) { f.req = 0 },
			core.XferOpts{ActiveVIs: 1, Segments: 1}, ""},
		{"passthrough", func(f *xferFlags) {
			f.cq, f.rdma, f.notify = true, true, true
			f.vis, f.segs, f.window = 16, 3, 8
		}, core.XferOpts{RecvViaCQ: true, RDMA: true, Notify: true, ActiveVIs: 16, Segments: 3, Window: 8}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := base
			c.edit(&f)
			got, err := xferOpts(f)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one mentioning %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("opts = %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestParseSizes(t *testing.T) {
	if got, err := parseSizes(""); err != nil || !slices.Equal(got, bench.SizeLadder()) {
		t.Errorf(`parseSizes("") = %v, %v; want the paper ladder`, got, err)
	}
	if got, err := parseSizes("4, 0,28672"); err != nil || !slices.Equal(got, []int{4, 0, 28672}) {
		t.Errorf("parseSizes = %v, %v; want [4 0 28672]", got, err)
	}
	for arg, want := range map[string]string{"4,-1": "bad size -1", "4,x": `bad size "x"`} {
		if _, err := parseSizes(arg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseSizes(%q) err = %v, want one containing %q", arg, err, want)
		}
	}
}

// paramValues resolves the model the way vibe -params does and returns
// the value column keyed by parameter name.
func paramValues(t *testing.T, req runner.Request, prov string, provSet bool) map[string]string {
	t.Helper()
	plan, err := runner.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	m, err := baseModel(plan.Scenarios[0], prov, provSet)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeParams(&b, plan.Scenarios[0], m)
	vals := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Fatalf("malformed line %q", line)
		}
		vals[f[0]] = f[1]
	}
	if len(vals) != len(provider.Params()) {
		t.Fatalf("listed %d parameters, catalog has %d", len(vals), len(provider.Params()))
	}
	return vals
}

// wantModel checks every listed value against m, except the overridden
// names, which must read as given.
func wantModel(t *testing.T, got map[string]string, m *provider.Model, overridden map[string]string) {
	t.Helper()
	for _, p := range provider.Params() {
		want := p.Get(m)
		if v, ok := overridden[p.Name]; ok {
			want = v
		}
		if got[p.Name] != want {
			t.Errorf("%s = %q, want %q", p.Name, got[p.Name], want)
		}
	}
}

func TestParamsResolveSetOverProvider(t *testing.T) {
	got := paramValues(t, runner.Request{Set: []string{"DoorbellCost=2us"}}, "bvia", true)
	if p, _ := provider.ParamByName("DoorbellCost"); p.Get(provider.BVIA()) == "2us" {
		t.Fatal("bvia's DoorbellCost is already 2us; pick another override")
	}
	wantModel(t, got, provider.BVIA(), map[string]string{"DoorbellCost": "2us"})
}

func TestParamsResolveScenarioBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(`{"base":"mvia","set":{"TLBCapacity":"7"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	req := runner.Request{ScenarioPath: path}
	// Without an explicit -provider, the scenario's base model resolves.
	wantModel(t, paramValues(t, req, "clan", false), provider.MVIA(), map[string]string{"TLBCapacity": "7"})
	// An explicit -provider wins over the base; the overrides still apply.
	wantModel(t, paramValues(t, req, "clan", true), provider.CLAN(), map[string]string{"TLBCapacity": "7"})
}

// TestBadSetExitsBeforeAnyCell runs the command in a child process with
// -set values that used to pass parsing and only fail deep inside the
// simulation. Each must exit 1 naming the parameter, with nothing on
// stdout: no benchmark cell ran.
func TestBadSetExitsBeforeAnyCell(t *testing.T) {
	if set := os.Getenv("VIBE_TEST_SET"); set != "" {
		os.Args = []string{"vibe", "-provider", "clan", "-bench", "latency", "-sizes", "4", "-set", set}
		main()
		return
	}
	for _, set := range []string{
		"LinkLatency=-5us", "LinkLatency=NaN", "LinkLatency=Inf", "LinkLatency=1e300s",
		"BandwidthBps=0", "BandwidthBps=-1", "FrameOverhead=-100", "DropRate=NaN", "DropRate=-1",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadSetExitsBeforeAnyCell$")
		cmd.Env = append(os.Environ(), "VIBE_TEST_SET="+set)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		param := strings.SplitN(set, "=", 2)[0]
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-set %s: err = %v, want exit status 1", set, err)
		}
		if !strings.Contains(stderr.String(), "param "+param+":") {
			t.Errorf("-set %s: stderr %q does not name %s", set, stderr.String(), param)
		}
		if stdout.Len() != 0 {
			t.Errorf("-set %s: a cell ran and printed %q", set, stdout.String())
		}
	}
}

// TestEveryBenchRunsInstrumented runs each single benchmark in a child
// process with -metrics and requires the metrics block to count at least
// one simulated system: a benchmark that builds its systems outside the
// scenario's config would silently drop its instrumentation, fault plan
// and run overrides.
func TestEveryBenchRunsInstrumented(t *testing.T) {
	if name := os.Getenv("VIBE_TEST_BENCH"); name != "" {
		os.Args = []string{"vibe", "-provider", "clan", "-bench", name, "-quick", "-sizes", "4", "-metrics"}
		main()
		return
	}
	systems := regexp.MustCompile(`--- metrics: base \((\d+) simulated systems\) ---`)
	for _, b := range benches() {
		cmd := exec.Command(os.Args[0], "-test.run=^TestEveryBenchRunsInstrumented$")
		cmd.Env = append(os.Environ(), "VIBE_TEST_BENCH="+b.name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("-bench %s: %v\n%s", b.name, err, out)
			continue
		}
		m := systems.FindSubmatch(out)
		if m == nil {
			t.Errorf("-bench %s: no metrics block in\n%s", b.name, out)
			continue
		}
		if n, _ := strconv.Atoi(string(m[1])); n < 1 {
			t.Errorf("-bench %s: metrics counted %d simulated systems, want at least 1", b.name, n)
		}
	}
}
