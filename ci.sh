#!/bin/sh
# CI gate: lint and static checks, the race-detector run of the short
# test suite, the named subsystem batteries (fault injection, metrics,
# hard-failure recovery, checkpoint/restart, the analytic fast-path
# tier, the allocation bounds, the HTTP serving tier with its
# cache-equivalence and stress batteries), the golden-identity gate
# (every report byte-identical at any -workers setting), the 512-node
# report goldens at -quick and the full-size fastpath goldens in both
# fidelities, and the benchmark gate
# against the committed BENCH_gate.json: the event kernel, the analytic
# fast path and the serving tier's load mix, each field gated by the
# rule written next to it (exact event counts, checksums and cache
# accounting, the >=1000x analytic speedup floor, wall time, allocs/op,
# latency and throughput within a tolerance).
#
# Usage: ./ci.sh
#
# Environment:
#   BENCH_TOLERANCE  relative kernel wall-time regression that fails the
#                    benchmark gate (default 0.15; CI runners with noisy
#                    neighbours set it looser). After a deliberate perf
#                    or model change, re-baseline with:
#                    go run ./cmd/benchgate -update
#   SERVE_TOLERANCE  relative serve latency/throughput regression that
#                    fails the benchmark gate (default 0.50; the
#                    checksum and cache accounting are always exact).
set -eu

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# stage NAME closes the previous stage with its wall time and opens the
# next, so the CI log shows where the minutes go.
ci_start=$(date +%s)
stage_start=$ci_start
stage_name=""
stage() {
	now=$(date +%s)
	if [ -n "$stage_name" ]; then
		echo "-- $stage_name: $((now - stage_start))s"
	fi
	stage_name=$1
	stage_start=$now
	echo "== $1 =="
}

stage "lint"
# gofmt must be clean repo-wide; shellcheck guards this script when the
# host has it (graceful skip otherwise — CI images vary).
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
if command -v shellcheck >/dev/null 2>&1; then
	shellcheck ci.sh
else
	echo "shellcheck not installed; skipping"
fi

stage "go vet"
go vet ./...

stage "go build"
# Compile everything once, and install the CLIs the later stages loop
# over into $tmpdir/bin so each `go run` below becomes a plain binary
# invocation instead of a rebuild.
go build ./...
mkdir -p "$tmpdir/bin"
go build -o "$tmpdir/bin/antonbench" ./cmd/antonbench
go build -o "$tmpdir/bin/mdsim" ./cmd/mdsim
go build -o "$tmpdir/bin/benchgate" ./cmd/benchgate
go build -o "$tmpdir/bin/antonserve" ./cmd/antonserve
go build -o "$tmpdir/bin/loadgen" ./cmd/loadgen

stage "go test -race -short"
go test -race -short ./...

stage "fault suite (-race -short)"
# The fault-injection subsystem and its consumers: the injector unit
# tests, the scenario goldens, the collective losslessness test, and the
# zero-rate golden-identity gate. Redundant with the full sweep above,
# but kept explicit so a fault regression is named in CI output.
go test -race -short ./internal/fault ./internal/collective ./cmd/antonbench

stage "fuzz corpus (FuzzFaultPlanParse seeds)"
# Runs the checked-in seed corpus as regular tests (no fuzzing time).
go test -run FuzzFaultPlanParse ./internal/fault

stage "fuzz corpus (FuzzMachineReplay seeds, -race)"
# The replay determinism fuzzer's seed corpus — random machine workloads
# run twice, whose trajectories must match byte for byte with no event
# left pending — replayed as regular tests under the race detector.
go test -race -run FuzzMachineReplay ./internal/sim

stage "fuzz corpus (FuzzEventQueue seeds, -race)"
# The kernel's radix event queue against the reference binary heap:
# every checked-in push/pop/peek stream — same-instant ties,
# power-of-two boundaries, far-future times, mid-stream drains,
# RunUntil-style peeks — must pop the identical (time, seq) order. Replayed as regular tests under the race detector.
go test -race -run FuzzEventQueue ./internal/sim

stage "analytic suite"
# The closed-form fast-path tier's validation battery: the exact
# differential tests (point-to-point writes, packet trains, collectives,
# the InfiniBand cluster), the property tests (monotonicity in hops and
# payload, src/dst symmetry, serialization additivity, the 11 pinned
# Figure 6 routes, the torus-diameter worst case), the calibrated step
# model's error-bound and refusal tests, the fastpath report goldens in
# both fidelities, and the -fidelity error paths of both CLIs.
go test ./internal/analytic
go test -run 'Fastpath|FidelityGate' ./cmd/antonbench ./cmd/latency

stage "allocation bounds"
# The machine build's object and byte bounds, the packet path's
# per-write allocations and the cluster build's fixed object count.
# These tests skip under the race detector, whose instrumentation
# allocates on its own, so the -race stages above never run them.
go test -run Allocations ./internal/machine ./internal/cluster

stage "fuzz corpus (FuzzAnalyticVsDES seeds, -race)"
# The analytic-vs-DES differential fuzzer's checked-in corpus — random
# topologies, routes, payload trains, collective shapes, and cluster
# transfers, the closed form compared exactly against the event
# simulator — replayed as regular tests under the race detector.
go test -race -run FuzzAnalyticVsDES ./internal/analytic

stage "metrics suite"
# The measured-latency observability layer: unit and property tests
# (histogram merge associativity/commutativity, count conservation),
# the Figure 6 measured-vs-calibrated cross-validation, the golden
# report/JSON/trace artifacts, and — under the race detector — the
# parallel shard-merge test plus the metrics-on golden-identity gate
# (recording must not change a byte of any simulation result).
go test ./internal/metrics
go test -race -run 'ParallelShardMerge|MetricsArtifactsWorkerIndependent|MetricsZeroOverheadIdentity' \
	./internal/metrics ./internal/harness ./cmd/antonbench

stage "metrics worker-independence (BENCH_metrics.json)"
# The machine-readable artifact must be byte-identical at any -workers
# setting; exercised through the real CLI.
for w in 1 4 8; do
	"$tmpdir/bin/antonbench" -quick -workers "$w" \
		-bench-out "$tmpdir/bench-$w.json" -trace-out "$tmpdir/trace-$w.json" metrics >/dev/null
done
cmp "$tmpdir/bench-1.json" "$tmpdir/bench-4.json"
cmp "$tmpdir/bench-1.json" "$tmpdir/bench-8.json"
cmp "$tmpdir/trace-1.json" "$tmpdir/trace-4.json"
cmp "$tmpdir/trace-1.json" "$tmpdir/trace-8.json"

stage "fuzz corpus (FuzzRequestDigest seeds; FuzzHandler seeds, -race)"
# The serving tier's cache-key fuzzer: accepted request bodies must
# digest identically under JSON reorder/whitespace re-encoding and
# workers/metrics mutation, and differently when quick flips. Replays
# the seed corpus as regular tests. Then the handler-level fuzzer under
# the race detector: rejected bodies posted to the run routes and
# arbitrary job ids, digests and artifact kinds must answer a 4xx with
# the JSON error body carrying the request parser's code, never a 5xx
# or a panic.
go test -run FuzzRequestDigest ./internal/serve
go test -race -run FuzzHandler ./internal/serve

stage "serve suite (-race -short)"
# The simulation-as-a-service tier: request normalization and digest
# unit tests, the single-flight cache, the cheap tier of the
# cache-equivalence battery (miss/hit/evict/recompute byte-identity),
# and the golden HTTP API transcript — all under the race detector.
go test -race -short ./internal/serve

stage "serve stress (-race, 120 mixed clients)"
# 120 concurrent clients: sync runs at both fidelities, faulted
# variants, async jobs with mid-run cancellations, malformed requests —
# every interleaving must serve byte-identical bodies per digest.
go test -race -run ServeStressMixedClients ./internal/serve

stage "serve dedup + checkpoint restore"
# Single-flight dedup (N identical concurrent requests, exactly one
# simulation) and the restart path (a restored cache answers
# byte-identically without recomputing, artifacts included).
go test -run 'TestSingleFlightDedup|TestCheckpointRestore|TestLoadChecksumDeterministic' ./internal/serve

stage "chaos suite (drain, kill -9, restart byte-identity)"
# The serving tier's crash battery against a real antonserve process:
# (1) drive retried load at a live server and snapshot every mix
# digest's bytes, (2) SIGTERM must drain gracefully — readiness flips,
# in-flight work finishes or aborts within the budget, the checkpoint
# persists exactly once, exit code 0, (3) a fresh server is kill -9'd
# under load (checkpoint writes included), and (4) the restarted server
# must restore an uncorrupted checkpoint and serve every previously
# fetched digest byte-identically.
chaos_addr="127.0.0.1:18321"
chaos_url="http://$chaos_addr"
"$tmpdir/bin/antonserve" -addr "$chaos_addr" -checkpoint "$tmpdir/chaos.ckpt" \
	-drain 10s >"$tmpdir/chaos-1.log" 2>&1 &
chaos_pid=$!
"$tmpdir/bin/loadgen" -addr "$chaos_url" -wait-ready 15s -n 60 -clients 6 -retries 4 -seed 1
"$tmpdir/bin/loadgen" -addr "$chaos_url" -fetch "$tmpdir/chaos-before"
kill -TERM "$chaos_pid"
wait "$chaos_pid" # set -e: a non-zero drain exit fails the stage
# Crash: restart from the drained checkpoint, put fresh uncached DES
# work in flight (each completion rewrites the checkpoint, so the kill
# can land mid-persist — the atomic write-then-rename must keep the
# file whole), and SIGKILL the process.
"$tmpdir/bin/antonserve" -addr "$chaos_addr" -checkpoint "$tmpdir/chaos.ckpt" \
	-drain 10s >"$tmpdir/chaos-2.log" 2>&1 &
chaos_pid=$!
"$tmpdir/bin/loadgen" -addr "$chaos_url" -wait-ready 15s -n 20 -clients 4 -retries 4 -seed 2
"$tmpdir/bin/loadgen" -addr "$chaos_url" -n 2000 -clients 16 -extra-faults 64 \
	-retries 0 -seed 3 >/dev/null 2>&1 &
chaos_load=$!
sleep 1
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true
wait "$chaos_load" 2>/dev/null || true
# Restart: the checkpoint must restore (a corrupt one exits 1 and
# -wait-ready fails the stage) and serve the pre-crash bytes.
"$tmpdir/bin/antonserve" -addr "$chaos_addr" -checkpoint "$tmpdir/chaos.ckpt" \
	-drain 10s >"$tmpdir/chaos-3.log" 2>&1 &
chaos_pid=$!
"$tmpdir/bin/loadgen" -addr "$chaos_url" -wait-ready 15s -fetch "$tmpdir/chaos-after"
for f in "$tmpdir/chaos-before"/*.json; do
	cmp "$f" "$tmpdir/chaos-after/$(basename "$f")"
done
kill -TERM "$chaos_pid"
wait "$chaos_pid"

stage "recovery suite"
# Hard-failure survival: the machine and cluster recovery batteries
# (fault-aware rerouting, watchdog reissue/degraded waits, uplink
# failover), the detour-route property tests, the killed-link and
# dead-node scenario goldens, the recovery-event observability tests,
# the checkpoint format validation tests, and the killsweep golden.
go test -race -run 'KilledLink|DeadNode|Watchdog|Reissue|InOrderTickets|RecoveryDeterministic|KillFree|ClusterUplink|ClusterAllReduceDead|ClusterDesmondDead|ClusterRecovery|ClusterKillFree|RouteTable|Detour|Scenario|Recovery' \
	./internal/machine ./internal/cluster ./internal/topo ./internal/fault ./internal/metrics
go test ./internal/checkpoint
go test -run Killsweep ./cmd/antonbench

stage "checkpoint/restart bit-identity"
# Kill a faulted mdsim run at step N/2, restore, and continue: the
# restored output must be byte-identical to a run that was never killed,
# at any -workers setting and across worker counts.
mdflags="-faults seed=9,killlink=0:X+@2us,wdog=15us -engine-molecules 16 -atoms 4000 -torus 2x2x2"
# shellcheck disable=SC2086  # mdflags is a deliberately word-split flag list
"$tmpdir/bin/mdsim" $mdflags -steps 12 -workers 1 >"$tmpdir/md-full.out"
for w in 1 4 8; do
	# shellcheck disable=SC2086
	"$tmpdir/bin/mdsim" $mdflags -steps 6 -workers "$w" -checkpoint-out "$tmpdir/md-$w.ckpt" >/dev/null
	"$tmpdir/bin/mdsim" -restore "$tmpdir/md-$w.ckpt" -steps 12 -workers "$w" >"$tmpdir/md-$w.out"
	cmp "$tmpdir/md-full.out" "$tmpdir/md-$w.out"
done
# Cross-worker: a snapshot taken at one worker count restores bit-
# identically at another.
"$tmpdir/bin/mdsim" -restore "$tmpdir/md-4.ckpt" -steps 12 -workers 8 >"$tmpdir/md-cross.out"
cmp "$tmpdir/md-full.out" "$tmpdir/md-cross.out"

stage "golden identity (workers 1 vs 8)"
# The -workers goroutine budget must not change a byte of any experiment
# report or trace. Run the headline latency experiment, the metrics
# observability experiment (capturing its chrome-trace export), both
# fault sweeps, the analytic fast-path differential report, the global
# all-reduce (table2) and the in-order multicast migration step
# (migsync) through the real CLI sequentially and fully parallel, strip
# the wall-clock footers ("[id completed in N.Ns]") and the trace-path
# status line ("wrote ...") — the only lines that differ by
# construction — and require identical bytes.
for w in 1 8; do
	"$tmpdir/bin/antonbench" -quick -workers "$w" \
		-trace-out "$tmpdir/golden-trace-$w.json" fig6 metrics faultsweep killsweep fastpath table2 migsync |
		sed -e '/^\[.* completed in /d' -e '/^wrote /d' >"$tmpdir/golden-$w.out"
done
cmp "$tmpdir/golden-1.out" "$tmpdir/golden-8.out"
cmp "$tmpdir/golden-trace-1.json" "$tmpdir/golden-trace-8.json"

stage "512-node goldens (-quick) and full fastpath"
# The expensive 512-node reports (table3, scaling, and figures 11-13),
# pinned byte for byte at -quick: each runs once through the real CLI,
# its wall-clock footer stripped as above, and must match
# cmd/antonbench/testdata/<id>-quick.golden. The full-size fastpath
# report in both fidelities (the 4x4x4 step-model calibration at 2,500
# and 6,000 atoms, which go test pins only at -quick) must match
# fastpath-full.golden and fastpath-analytic-full.golden the same way.
# After an intentional model change, regenerate a golden with the same
# pipeline redirected into it.
for id in table3 scaling fig13 fig11 fig12; do
	"$tmpdir/bin/antonbench" -quick -workers 1 "$id" |
		sed -e '/^\[.* completed in /d' >"$tmpdir/$id-quick.out"
	cmp "$tmpdir/$id-quick.out" "cmd/antonbench/testdata/$id-quick.golden"
done
for fidelity in des analytic; do
	golden=fastpath-full
	if [ "$fidelity" = analytic ]; then
		golden=fastpath-analytic-full
	fi
	"$tmpdir/bin/antonbench" -workers 1 -fidelity "$fidelity" fastpath |
		sed -e '/^\[.* completed in /d' >"$tmpdir/$golden.out"
	cmp "$tmpdir/$golden.out" "cmd/antonbench/testdata/$golden.golden"
done

stage "benchmark gate (BENCH_gate.json)"
# Measure every gate workload — the event kernel, the analytic fast
# path, and the default load mix against an in-process antonserve — and
# compare each field against the committed baseline by the rule written
# next to it: event counts, answer checksums and the load mix's response
# checksum and cache accounting exactly, the analytic per-query speedup
# against its 1000x floor, and wall time, allocs/op, latency and
# throughput within their tolerances (BENCH_TOLERANCE and
# SERVE_TOLERANCE override theirs). Writes the fresh rows, with the host
# that measured them, into $tmpdir for inspection.
"$tmpdir/bin/benchgate" -baseline BENCH_gate.json -out "$tmpdir/BENCH_gate.json"

stage "done"
echo "CI checks passed in $((stage_start - ci_start))s."
