#!/usr/bin/env bash
# Production coverage: which code under internal/ do the shipped programs
# reach? Builds vibe, vibe-report, vibed and every examples/ program with
# `go build -cover -coverpkg=./...`, drives them the way a user does, merges
# the coverage counters with `go tool covdata`, and prints the total
# statement coverage and every internal/ function that never ran (0.0%).
# Tests are not part of the workload: a function that only tests call is
# exactly what this list is for.
#
# The workload:
#   - every `vibe -bench` name on all five providers, plus the completion,
#     reliability, RDMA, segment, VI, reuse, window, topology, sink,
#     -params, -set, -sweep, -scenario and -fault options;
#   - a 50 us outage of switch 0 on each topology, which reaches the
#     topologies' alternate-route search (AltRoutes);
#   - quick and full `vibe-report` with every sink, -compare, -chart,
#     -csv, -sweep, -scenario and -fault, and XFAILOVER with its trace;
#   - a few rejected inputs (unknown experiment, bad mode, out-of-range
#     reuse, negative size, bad fault plan), so their error paths count as
#     reached;
#   - every examples/ program;
#   - a vibed daemon on a loopback port: submit, list, job, SSE, every
#     artifact, a cache hit, a rejected body, /healthz and /metrics,
#     then SIGTERM.
#
# Usage: scripts/prodcover.sh   (run from anywhere; `make prodcover` also writes
# the output to artifacts/prodcover.txt)
set -eEuo pipefail
trap 'echo "prodcover: failed: $BASH_COMMAND" >&2' ERR

cd "$(dirname "$0")/.."
GO=${GO:-go}

work=$(mktemp -d)
vibed_pid=
cleanup() {
	if [ -n "$vibed_pid" ]; then kill "$vibed_pid" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT

bin=$work/bin
export GOCOVERDIR=$work/cov
mkdir -p "$bin" "$GOCOVERDIR" "$work/out"

for d in cmd/* examples/*; do
	$GO build -cover -coverpkg=./... -o "$bin/$(basename "$d")" "./$d"
done

out=$work/out
quiet() { "$@" >/dev/null; }
# fails runs a command that must exit non-zero (a rejected input).
fails() {
	if "$@" >/dev/null 2>&1; then
		echo "prodcover: expected failure: $*" >&2
		exit 1
	fi
}

# --- vibe: every benchmark on every provider, then the options ---
for p in mvia bvia clan firmvia iba; do
	for b in latency bandwidth clientserver nondata memreg memdereg logp mp getput; do
		quiet "$bin/vibe" -bench "$b" -provider "$p"
	done
done
vibe() { quiet "$bin/vibe" -sizes 4,4096,12288 "$@"; }
vibe -bench latency -mode block -cq
vibe -bench latency -notify -reliability delivery
vibe -bench latency -rdma -reliability reception -csv
vibe -bench latency -segments 4 -vis 4 -reuse 50
vibe -bench bandwidth -window 4 -metrics
vibe -bench bandwidth -rdma -reliability delivery -metrics-out "$out/m.json" \
	-profile-out "$out/p.folded" -trace-out "$out/t.json" -span-sample 2
vibe -bench clientserver -req 64 -iters 20
vibe -bench latency -set DoorbellCost=2us -sweep TLBCapacity=8,32 -parallel 2
vibe -bench latency -provider bvia -set TLBPolicy=lru -reuse 100
quiet "$bin/vibe" -bench suite -quick -progress 2>/dev/null
quiet "$bin/vibe" -params -provider bvia -set DoorbellCost=2us

cat >"$out/scenario.json" <<'EOF'
{"name": "prodcover", "base": "bvia", "set": {"DoorbellCost": "2us"},
 "run": {"seed": 3, "iters": 20, "warmup": 4, "bw_messages": 20, "nondata_reps": 20}}
EOF
cat >"$out/drop.json" <<'EOF'
{"seed": 7, "faults": [{"kind": "drop-nth", "nth": 5}, {"kind": "corrupt", "prob": 0.02},
 {"kind": "duplicate", "prob": 0.05}]}
EOF
cat >"$out/slow.json" <<'EOF'
{"seed": 7, "faults": [{"kind": "delay", "prob": 0.1, "delay": "2us"}, {"kind": "jitter", "delay": "1us"},
 {"kind": "doorbell-stall", "delay": "1us"}, {"kind": "dma-stall", "delay": "200ns"}]}
EOF
cat >"$out/switch-down.json" <<'EOF'
{"faults": [{"kind": "switch-down", "switch": 0, "start": "0s", "end": "50us"}]}
EOF
vibe -bench latency -scenario "$out/scenario.json"
vibe -bench bandwidth -reliability reception -fault "$out/drop.json"
for t in crossbar fattree dragonfly torus3d; do
	vibe -bench latency -topo "$t"
	quiet "$bin/vibe" -provider clan -bench bandwidth -reliability delivery \
		-sizes 4096 -topo "$t" -fault "$out/switch-down.json"
done

# --- vibe-report: quick and full registry with every sink ---
report() { quiet "$bin/vibe-report" "$@"; }
report -list
report -quick -metrics -json "$out/quick.json" -metrics-out "$out/qm.json" \
	-trace-out "$out/qt.json" -profile-out "$out/qp.folded" -profile-top 4
report -json "$out/full.json" -label full -parallel 2
report -quick -compare internal/results/testdata/baseline-quick.json -tol 0
report -compare internal/results/testdata/baseline-full.json -tol 0
report -quick -exp F3 -chart
report -quick -exp F5 -chart -csv
report -quick -exp F5 -sweep TLBCapacity=8,32 -json "$out/sweep.json"
report -quick -exp T1 -scenario "$out/scenario.json"
report -quick -exp F3 -fault "$out/slow.json" -set DoorbellCost=2us
report -quick -exp XFAILOVER -json "$out/xf.json" -trace-out "$out/xft.json" \
	-profile-out "$out/xfp.folded" \
	-compare internal/results/testdata/baseline-xfailover-quick.json -tol 0

# --- rejected inputs ---
echo '{"faults": [{"kind": "nope"}]}' >"$out/bad-fault.json"
fails "$bin/vibe-report" -quick -exp BOGUS
fails "$bin/vibe" -mode bogus
fails "$bin/vibe" -reuse 150
fails "$bin/vibe" -sizes 4,-1
fails "$bin/vibe" -bench latency -fault "$out/bad-fault.json"

# --- examples ---
for d in examples/*; do
	quiet "$bin/$(basename "$d")"
done

# --- vibed over loopback ---
port=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])')
base=http://127.0.0.1:$port
"$bin/vibed" -addr "127.0.0.1:$port" -workers 2 2>"$out/vibed.log" &
vibed_pid=$!
for _ in $(seq 100); do
	curl -sf "$base/healthz" >/dev/null 2>&1 && break
	sleep 0.05
done
field() { python3 -c 'import json, sys; v = json.load(sys.stdin).get(sys.argv[1]) or ""; print(" ".join(v) if isinstance(v, list) else v)' "$1"; }
submit() { curl -sf -X POST "$base/api/jobs" -d "$1" | field id; }
follow() { curl -sfN --max-time 60 "$base/api/jobs/$1/events" >/dev/null; }
job='{"quick": true, "experiments": ["F5", "XREL"], "sweeps": ["TLBCapacity=8,32"],
      "set": {"DoorbellCost": "2us"}, "trace": true, "profile": true, "label": "prodcover"}'
id=$(submit "$job")
follow "$id"
curl -sf "$base/api/jobs" >/dev/null
for a in $(curl -sf "$base/api/jobs/$id" | field artifacts); do
	curl -sf "$base/api/jobs/$id/artifacts/$a" >/dev/null
done
follow "$(submit "$job")"
curl -s -o /dev/null -X POST "$base/api/jobs" -d '{"quick": true, "bogus": 1}'
curl -s -o /dev/null "$base/api/jobs/job-999"
curl -sf "$base/metrics" >/dev/null
kill -TERM "$vibed_pid"
wait "$vibed_pid"
vibed_pid=

# --- report ---
$GO tool covdata textfmt -i="$GOCOVERDIR" -o "$work/prod.out"
$GO tool cover -func="$work/prod.out" >"$work/func.txt"
unreached=$(grep '/internal/' "$work/func.txt" | awk '$NF == "0.0%"' | sed 's|^vibe/||')
printf 'production statement coverage: %s\n' "$(tail -1 "$work/func.txt" | awk '{print $NF}')"
printf 'internal/ functions no shipped program reaches: %d\n' "$(printf '%s' "$unreached" | grep -c . || true)"
printf '%s\n' "$unreached"
