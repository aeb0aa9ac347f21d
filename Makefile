# VIBe build and verification targets. `make check` is the gate every
# change must pass: it race-checks the parallel runner and the shared
# metrics collector in addition to the regular suite, since bugs there
# would silently corrupt assembled reports rather than fail loudly, and
# it builds and runs the hostbench/ module and the examples/ programs,
# which compile against the exported API but sit outside `go test ./...`.

GO ?= go

.PHONY: all build vet test race chaos failover-smoke vibed-smoke hostbench examples check cover bench-smoke bench-sim fuzz-smoke prodcover quick loc clean

all: check

build:
	$(GO) build ./...

# Vet, then fail if gofmt would change any Go file, or if a non-test file
# of the mp, stream, dsm or getput layer names via.StatusSuccess. Those
# layers check completions only through via.CheckOK (directly, or inside
# Vi.PostSendPoll and the Ring), so the status check keeps one copy and
# every layer's errors carry the status the same way.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	  echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@status=$$(find internal/mp internal/stream internal/dsm internal/getput -name '*.go' ! -name '*_test.go' \
	  | xargs grep -l 'via\.StatusSuccess'); if [ -n "$$status" ]; then \
	  echo "check completions with via.CheckOK, not via.StatusSuccess, in:"; echo "$$status"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/metrics/... ./internal/trace/... ./internal/serve/...

# Seeded chaos soak: run CHAOS_PLANS random fault plans against the VIA
# stack under the race detector — the crossbar soak (TestChaosSoak) plus
# the routed-topology soak (TestChaosSoakRouted: fat-tree/dragonfly/torus
# fabrics under topology-aware plans that also kill switches and
# inter-switch links) — plus the span-accounting integrity sweep (spans
# must never leak or double-close under faults). Each soak case streams
# sends, then does an RDMA write with immediate data and, on reliable
# connections, an RDMA read, so every NIC data path (send, receive,
# RDMA-write landing, read responder, read-response landing) runs under
# the plan; payloads are pattern-checked. Every wait in the soak is
# bounded, so a hang is a simulation deadlock and fails the run; the
# timeout bounds the wall clock regardless.
CHAOS_PLANS ?= 200
chaos:
	VIBE_CHAOS_PLANS=$(CHAOS_PLANS) $(GO) test -race -run 'TestChaosSoak|TestChaosSoakRouted|TestSpanIntegrityUnderFaults' -timeout 10m ./internal/via/

# Failover smoke: rerun the XFAILOVER spine-outage experiment in quick
# mode, compare it against the committed baseline at -tol 0 (numbers,
# text cells such as "Conn broken", notes, row and point counts, and
# tables, groups and series missing from or added to either side), then
# require the saved result set to equal the baseline file byte for byte.
# The trace and virtual-time profile are written alongside for CI artifact
# upload. A diff here means failover routing, the element oracle, or the
# recovery path changed behavior.
failover-smoke: build
	mkdir -p artifacts
	$(GO) run ./cmd/vibe-report -quick -exp XFAILOVER \
	  -label baseline-xfailover-quick -json artifacts/xfailover.json \
	  -trace-out artifacts/xfailover_trace.json \
	  -profile-out artifacts/xfailover_profile.folded \
	  -compare internal/results/testdata/baseline-xfailover-quick.json -tol 0 \
	  > artifacts/xfailover_report.txt
	tail -n 30 artifacts/xfailover_report.txt
	cmp artifacts/xfailover.json internal/results/testdata/baseline-xfailover-quick.json

# Daemon smoke: boot the vibed service on a random port, submit the full
# quick registry over HTTP, follow the SSE stream to completion, scrape
# /metrics (daemon gauges plus the span histogram families), download the
# result set and diff it against the committed quick baseline at -tol 0,
# then resubmit identically and require a byte-identical cache hit. The
# daemon binary is built first so a cmd/vibed compile break fails here
# too; artifacts land in artifacts/ for CI upload.
vibed-smoke: build
	mkdir -p artifacts
	VIBED_SMOKE_ARTIFACTS=$(CURDIR)/artifacts \
	  $(GO) test -run TestVibedSmoke -count=1 -v ./internal/serve/

# Host-cost benchmark module: vet and unit-test hostbench/, a nested
# module (replace vibe => ../) that the root `go test ./...` skips even
# though it calls the runner, core, results and serve APIs directly.
hostbench:
	cd hostbench && $(GO) vet ./... && $(GO) test ./...

# Run each examples/ program. They check their own calls and payloads
# (mpring verifies every halo, rdma and sockets their transferred bytes)
# and exit non-zero on a failure, so a break in the via, mp, getput,
# stream or dsm APIs they drive fails here.
examples:
	for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

check: vet build test race hostbench examples

# Coverage over every package, with the per-package summary printed and
# the profile left in cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# CI bench smoke: run the deterministic host-cost gates, then the engine
# microbenchmarks (yield, ping-pong, actor step, schedule) and the
# simulated-memory ones (Alloc, Resolve, Check) in short mode so their
# ns/op and allocs/op ride along in the uploaded artifact. The gates count
# allocations, which do not depend on the machine: a queue ping-pong
# between two processes, a signalled WaitTimeout, warm queue and actor
# cycles, and trace calls with tracing off must not allocate; with tracing
# on, recording each trace record shape into a full ring must not
# allocate either; nicsim.FragmentAt must not allocate; deregistering the
# Fig 2 sweep must not materialize simulated memory; one cLAN 64 KiB
# bandwidth and latency point must stay under their heap-byte bounds
# (TestXferHeapBytes); recording a finished 2-host system's metrics into
# a collector that holds its keys must stay under 8 KiB
# (TestRecordMetricsHeapBytes); and the NIC must move never-written
# memory as a length, clearing only the landed range of a materialized
# destination (the TestZeroRange tests). Wall times are machine-dependent and are reported,
# not gated; end-to-end host timings come from `bash hostbench/run.sh`.
bench-smoke: build
	$(GO) test -count=1 -run 'ZeroAlloc|TestMemDeregisterDoesNotMaterializeBuffers|TestXferHeapBytes|TestRecordMetricsHeapBytes|TestZeroRange|TestFragmentAt' ./internal/sim/ ./internal/core/ ./internal/trace/ ./internal/via/ ./internal/nicsim/
	$(GO) test -bench . -benchmem -benchtime 1000x -run '^$$' ./internal/sim/ ./internal/vmem/ | tee bench_sim.txt

# Fuzz smoke: run each input-parser fuzzer for 10 s. FuzzParseDuration
# checks -set durations (no panic, nothing negative accepted, and the
# canonical form parses back exactly); FuzzParseSet checks that an
# accepted -set list applies to every built-in model and that rendering
# the overridden parameters and parsing them again gives the same model;
# FuzzFaultParse checks no fault plan
# makes Parse or a fresh injector panic; FuzzScenarioSpec checks that an
# accepted scenario file re-encodes to a fixed point with the same
# provenance and, under a fuzzed -sweep, the same vibed cache key;
# FuzzSubmission posts a raw body to vibed's POST /api/jobs and checks
# that it never panics, answers 202/400/413/503, rejects a body that is
# not exactly one JSON value and a sweep that cannot expand, and bounds
# an accepted job's cells; and
# FuzzResultsRoundTrip checks that a decoded result set re-encodes to a
# fixed point with the same provenance and that Compare finds no
# difference between it and itself (a malformed set must be rejected by
# decoding, not panic in Compare). A failing input is written under
# the package's testdata/fuzz/ and replays in every later `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseDuration$$' -fuzztime 10s ./internal/provider/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSet$$' -fuzztime 10s ./internal/provider/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultParse$$' -fuzztime 10s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioSpec$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzSubmission$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzResultsRoundTrip$$' -fuzztime 10s ./internal/results/

# Microbenchmarks for the simulation engine hot paths.
bench-sim:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/

# Production coverage: build vibe, vibe-report, vibed and the examples/
# programs with coverage, drive them as a user would (every benchmark on
# every provider, the report's sinks, sweeps, scenarios and fault plans,
# the examples, and a vibed job over loopback; scripts/prodcover.sh lists
# the workload), and print the statement coverage and every internal/
# function no shipped program reached. Tests are not run: the list is what
# only tests call, the candidates for deletion. The output is also written
# to artifacts/prodcover.txt.
prodcover:
	mkdir -p artifacts
	GO=$(GO) bash scripts/prodcover.sh >artifacts/prodcover.txt
	cat artifacts/prodcover.txt

# Smoke-run the full registry in quick mode.
quick: build
	$(GO) run ./cmd/vibe -bench suite -quick

# Go line counts under cmd/ and internal/, non-test and test files
# apart: the size a simplification is measured by.
loc:
	@printf 'non-test Go lines: '; find cmd internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'test Go lines:     '; find cmd internal -name '*_test.go' -print0 | xargs -0 cat | wc -l

clean:
	$(GO) clean ./...
	rm -f vibe vibe-report vibed
