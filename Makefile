# VIBe build and verification targets. `make check` is the gate every
# change must pass: it race-checks the parallel runner and the shared
# metrics collector in addition to the regular suite, since bugs there
# would silently corrupt assembled reports rather than fail loudly.

GO ?= go

.PHONY: all build vet test race chaos failover-smoke vibed-smoke hostbench check cover bench-smoke bench-sim quick clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/metrics/... ./internal/trace/... ./internal/serve/...

# Seeded chaos soak: run CHAOS_PLANS random fault plans against the VIA
# stack under the race detector — the crossbar soak (TestChaosSoak) plus
# the routed-topology soak (TestChaosSoakRouted: fat-tree/dragonfly/torus
# fabrics under topology-aware plans that also kill switches and
# inter-switch links) — plus the span-accounting integrity sweep (spans
# must never leak or double-close under faults). Every wait in the soak is
# bounded, so a hang is a simulation deadlock and fails the run; the
# timeout bounds the wall clock regardless.
CHAOS_PLANS ?= 200
chaos:
	VIBE_CHAOS_PLANS=$(CHAOS_PLANS) $(GO) test -race -run 'TestChaosSoak|TestChaosSoakRouted|TestSpanIntegrityUnderFaults' -timeout 10m ./internal/via/

# Failover smoke: rerun the XFAILOVER spine-outage experiment in quick
# mode and require byte-identical results against the committed baseline
# (-tol 0), with the trace and virtual-time profile written alongside for
# CI artifact upload. A diff here means failover routing, the element
# oracle, or the recovery path changed behavior.
failover-smoke: build
	mkdir -p artifacts
	$(GO) run ./cmd/vibe-report -quick -exp XFAILOVER \
	  -trace-out artifacts/xfailover_trace.json \
	  -profile-out artifacts/xfailover_profile.folded \
	  -compare internal/results/testdata/baseline-xfailover-quick.json -tol 0 \
	  > artifacts/xfailover_report.txt
	tail -n 30 artifacts/xfailover_report.txt

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

check: vet build test race

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
# cycles, and guarded tracing must not allocate, and deregistering the
# Fig 2 sweep must not materialize simulated memory. Wall times are
# machine-dependent and are reported, not gated; end-to-end host timings
# come from `bash hostbench/run.sh`.
bench-smoke: build
	$(GO) test -count=1 -run 'ZeroAlloc|TestMemDeregisterDoesNotMaterializeBuffers' ./internal/sim/ ./internal/core/
	$(GO) test -bench . -benchmem -benchtime 1000x -run '^$$' ./internal/sim/ ./internal/vmem/ | tee bench_sim.txt

# Microbenchmarks for the simulation engine hot paths.
bench-sim:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/

# Smoke-run the full registry in quick mode.
quick: build
	$(GO) run ./cmd/vibe -bench suite -quick

clean:
	$(GO) clean ./...
	rm -f vibe vibe-report vibed
