#!/usr/bin/env bash
# bench_check.sh — guard against simulator-throughput regressions and
# sharding-bias drift.
#
# Throughput gates are *relative*: the benchmark binary is built twice in
# the same run — once from the working tree and once from the baseline
# commit (the commit that recorded the newest committed BENCH_<n>.json,
# resolved from the file's git history) in a temporary git worktree — and
# the two binaries run interleaved on the same machine:
#
#   - BenchmarkCoreThroughput        insts/s           (warm profile)
#   - BenchmarkMemBoundThroughput    membound-insts/s  (memory-bound profile)
#
# Same-run interleaving removes the cross-day machine-load skew that
# absolute comparisons against recorded numbers suffered from (BENCH_3
# recorded 4.90M insts/s; same-day HEAD rebuilds measured 3.5-4.4M on a
# loaded machine, a phantom 10-30% "regression"). When the baseline build
# is unavailable (no git history, shallow clone, the baseline fails to
# build), the gate falls back to the recorded absolute numbers with the
# same tolerance and says so.
#
# The sharding-bias gate is absolute: BenchmarkShardedLongTrace's
# shard-bias-% is deterministic simulation output (no wall-clock in it),
# so HEAD's value is compared against a fixed ceiling. Since the warm-state
# checkpoint store made full-history warm the sharded default the ceiling
# is 1% (the measured bias is ~0.003%; the old two-window default recorded
# -2.45%).
#
# Fails when a measured rate drops more than the allowed fraction below
# the baseline (default 20%, override with BENCH_TOLERANCE, e.g.
# BENCH_TOLERANCE=0.3), or when shard-bias-% exceeds BENCH_BIAS_MAX
# (default 1).
#
#   scripts/bench_check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

tolerance="${BENCH_TOLERANCE:-0.20}"
bias_max="${BENCH_BIAS_MAX:-1}"

# Environments that cannot run the gate at all degrade to a clearly-labeled
# skip (exit 0) rather than a cryptic failure: the gate's job is catching
# engine regressions on machines that can measure them, not blocking
# checkouts that cannot.
if ! command -v go >/dev/null 2>&1; then
    echo "bench_check: SKIP — no go toolchain on PATH; install Go to run the perf gate"
    exit 0
fi
if ! command -v git >/dev/null 2>&1 || ! git rev-parse --git-dir >/dev/null 2>&1; then
    echo "bench_check: note — not a git checkout; relative (rebuilt-baseline) comparison unavailable"
fi

ref_file="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)"
if [[ -z "$ref_file" ]]; then
    echo "bench_check: SKIP — no BENCH_*.json recorded yet; run scripts/bench.sh to create the first baseline"
    exit 0
fi

# Resolve the baseline commit: the last commit that touched the newest
# *committed* BENCH file (that commit carries both the recorded numbers
# and the engine they measured; the file's meta entry records the parent
# the tree was based on when recording, for provenance). Walk backwards so
# an uncommitted BENCH_<n+1>.json in the working tree still gates against
# the previous recorded baseline.
base_commit=""
for f in $(ls BENCH_*.json | sort -t_ -k2 -rn); do
    base_commit="$(git log -n1 --format=%H -- "$f" 2>/dev/null || true)"
    if [[ -n "$base_commit" ]]; then
        ref_file="$f"
        break
    fi
done

workdir=""
cleanup() {
    [[ -n "$workdir" ]] || return 0
    git worktree remove --force "$workdir/base" >/dev/null 2>&1 || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# Build the two benchmark binaries. A baseline build failure downgrades to
# the absolute fallback rather than failing the check.
head_bin=""
base_bin=""
workdir="$(mktemp -d)"
if go test -c -o "$workdir/head.test" . >/dev/null; then
    head_bin="$workdir/head.test"
else
    echo "bench_check: working tree does not build" >&2
    exit 1
fi
if [[ -n "$base_commit" ]] &&
    git worktree add --detach "$workdir/base" "$base_commit" >/dev/null 2>&1 &&
    (cd "$workdir/base" && go test -c -o "$workdir/base.test" . >/dev/null 2>&1); then
    base_bin="$workdir/base.test"
    echo "bench_check: baseline $ref_file @ ${base_commit:0:12} rebuilt for same-machine comparison"
else
    echo "bench_check: baseline rebuild unavailable — falling back to recorded absolute numbers"
fi

# run_metric <binary> <bench> <metric> <benchtime>: one run, print the
# metric value (empty when the benchmark or metric does not exist).
run_metric() {
    local bin="$1" bench="$2" metric="$3" benchtime="$4"
    "$bin" -test.run '^$' -test.bench "^${bench}\$" -test.benchtime "$benchtime" 2>/dev/null |
        awk -v m="$metric" '/^Benchmark/ { for (i = 1; i < NF; i++) if ($(i+1) == m) print $i }'
}

# check <benchmark> <metric> <benchtime> <required>: best-of-three
# (single-iteration benchmark runs are noisy and this guard must only fire
# on real regressions), interleaved head/baseline when the baseline binary
# exists, else against the recorded reference number. A missing reference
# metric fails when required (the gate must never silently turn itself
# off) and skips otherwise (baselines may predate the metric).
check() {
    local bench="$1" metric="$2" benchtime="$3" required="$4"
    local ref="" best=0 base_best=0 cur base_cur what=""
    if [[ -n "$base_bin" ]]; then
        # The existence probe doubles as the baseline's first sample, so
        # both sides end up best-of-three.
        base_cur="$(run_metric "$base_bin" "$bench" "$metric" "$benchtime")"
        if [[ -z "$base_cur" ]]; then
            if [[ "$required" == required ]]; then
                echo "bench_check: baseline build has no $bench $metric" >&2
                exit 1
            fi
            echo "bench_check: baseline build has no $bench $metric — skipping that gate"
            return 0
        fi
        base_best="$base_cur"
    else
        ref="$(sed -n 's/.*"'"$bench"'".*"'"${metric//\//\\/}"'": \([0-9.e+]*\).*/\1/p' "$ref_file")"
        if [[ -z "$ref" ]]; then
            if [[ "$required" == required ]]; then
                echo "bench_check: $ref_file has no $bench $metric" >&2
                exit 1
            fi
            echo "bench_check: $ref_file has no $bench $metric — skipping that gate"
            return 0
        fi
    fi
    for round in 1 2 3; do
        cur="$(run_metric "$head_bin" "$bench" "$metric" "$benchtime")"
        if [[ -z "$cur" ]]; then
            echo "bench_check: $bench produced no $metric metric" >&2
            exit 1
        fi
        best="$(awk -v a="$best" -v b="$cur" 'BEGIN { print (b > a) ? b : a }')"
        if [[ -n "$base_bin" && "$round" -lt 3 ]]; then
            # Interleave so load spikes hit both binaries alike; the probe
            # above was the baseline's third sample.
            base_cur="$(run_metric "$base_bin" "$bench" "$metric" "$benchtime")"
            base_best="$(awk -v a="$base_best" -v b="$base_cur" 'BEGIN { print (b > a) ? b : a }')"
        fi
    done
    if [[ -n "$base_bin" ]]; then
        ref="$base_best"
        what="$bench vs same-run baseline"
    else
        what="$bench vs recorded $ref_file"
    fi
    echo "bench_check: $bench $metric: baseline $ref, measured $best (best of 3)"
    awk -v ref="$ref" -v cur="$best" -v tol="$tolerance" -v what="$what" 'BEGIN {
        floor = ref * (1 - tol)
        if (cur < floor) {
            printf "bench_check: FAIL — %s: %.0f is below the %.0f floor (ref %.0f, tolerance %.0f%%)\n",
                what, cur, floor, ref, tol * 100
            exit 1
        }
        printf "bench_check: OK — %s within %.0f%% of baseline\n", what, tol * 100
    }'
}

# check_bias: the sharding-bias metric is deterministic, so one run and a
# fixed ceiling suffice — windowed sweeps must stay a faithful sample of
# the unsharded pass.
check_bias() {
    local bias
    bias="$(run_metric "$head_bin" BenchmarkShardedLongTrace "shard-bias-%" 1x)"
    if [[ -z "$bias" ]]; then
        echo "bench_check: BenchmarkShardedLongTrace produced no shard-bias-% metric" >&2
        exit 1
    fi
    awk -v bias="$bias" -v max="$bias_max" 'BEGIN {
        if (bias > max) {
            printf "bench_check: FAIL — functional-warm sharding bias %.2f%% exceeds the %.1f%% ceiling\n", bias, max
            exit 1
        }
        printf "bench_check: OK — functional-warm sharding bias %.2f%% (ceiling %.1f%%)\n", bias, max
    }'
}

# report_journal_overhead: informational, not a gate — journal-overhead-%
# compares two wall-clock arms of one iteration, so it is too noisy to fail
# a build on; it is recorded in BENCH_6.json (target: low single digits)
# and surfaced here so a runaway cost is visible in every check run.
report_journal_overhead() {
    local ovh
    ovh="$(run_metric "$head_bin" BenchmarkShardedLongTrace "journal-overhead-%" 1x)"
    if [[ -z "$ovh" ]]; then
        echo "bench_check: note — BenchmarkShardedLongTrace reports no journal-overhead-% (skipping the report)"
        return 0
    fi
    awk -v ovh="$ovh" 'BEGIN {
        printf "bench_check: journal overhead %.2f%% of sharded wall-clock (informational; expect low single digits)\n", ovh
    }'
}

# report_ckpt: informational — checkpoint-restore speedup over the live
# full-history replay reference and the store's hit rate across the timed
# loop (recorded in BENCH_8.json). Wall-clock-ratio noise makes these
# reports, not gates; the correctness side (bit-identity against the
# reference path) is asserted inside the benchmark itself and in
# internal/ckpt's tests.
report_ckpt() {
    local line speed rate
    line="$("$head_bin" -test.run '^$' -test.bench '^BenchmarkShardedLongTrace$' -test.benchtime 1x 2>/dev/null |
        awk '/^Benchmark/ { print }')"
    speed="$(awk '{ for (i = 1; i < NF; i++) if ($(i+1) == "ckpt-restore-speedup") print $i }' <<<"$line")"
    rate="$(awk '{ for (i = 1; i < NF; i++) if ($(i+1) == "ckpt-hit-rate-%") print $i }' <<<"$line")"
    if [[ -z "$speed" ]]; then
        echo "bench_check: note — BenchmarkShardedLongTrace reports no ckpt-restore-speedup (skipping the report)"
        return 0
    fi
    awk -v s="$speed" -v r="${rate:-0}" 'BEGIN {
        printf "bench_check: checkpoint restore %.2fx faster than live full-history replay, hit rate %.0f%% (informational)\n", s, r
    }'
}

# report_pushdown: informational — the extra wall-clock of the daemon's
# result push-down path (private worker journals + sealed-byte uploads
# over loopback HTTP) versus the shared-filesystem layout, recorded in
# BENCH_9.json. The benchmark's tiny cells make this a worst case (the
# per-cell wire cost is fixed; real sweeps amortize it), and wall-clock
# ratios of sub-second sweeps are too noisy to gate on.
report_pushdown() {
    local ovh
    ovh="$(run_metric "$head_bin" BenchmarkSweepDaemon "pushdown-overhead-%" 1x)"
    if [[ -z "$ovh" ]]; then
        echo "bench_check: note — BenchmarkSweepDaemon reports no pushdown-overhead-% (skipping the report)"
        return 0
    fi
    awk -v ovh="$ovh" 'BEGIN {
        printf "bench_check: result push-down overhead %.2f%% of shared-FS sweep wall-clock (informational; worst case at benchmark cell size)\n", ovh
    }'
}

# report_widecore: informational — simulator speed and simulated IPC at
# width 4, the widest point of the fetch/issue axis (recorded in
# BENCH_10.json). Width 2 is the modelled default and is what the required
# insts/s gate above measures; the width-4 rate is not gated because a
# wider core does more architectural work per simulated instruction, so a
# drop there may be a model change rather than an engine regression. The
# IPC is deterministic and printed alongside so a wide core that stops
# issuing wide is visible in every check run.
report_widecore() {
    local line rate ipc
    line="$("$head_bin" -test.run '^$' -test.bench '^BenchmarkWideCore$' -test.benchtime 1x 2>/dev/null |
        awk '/^Benchmark/ { print }')"
    rate="$(awk '{ for (i = 1; i < NF; i++) if ($(i+1) == "width4-insts/s") print $i }' <<<"$line")"
    ipc="$(awk '{ for (i = 1; i < NF; i++) if ($(i+1) == "width4-ipc") print $i }' <<<"$line")"
    if [[ -z "$rate" ]]; then
        echo "bench_check: note — BenchmarkWideCore reports no width4-insts/s (skipping the report)"
        return 0
    fi
    awk -v r="$rate" -v p="${ipc:-0}" 'BEGIN {
        printf "bench_check: width-4 core simulates %.0f insts/s at IPC %.3f (informational; width-2 default is the gated rate)\n", r, p
    }'
}

check BenchmarkCoreThroughput "insts/s" 5x required
check BenchmarkMemBoundThroughput "membound-insts/s" 2x optional
check BenchmarkShardedLongTrace "sharded-insts/s" 1x optional
check_bias
report_journal_overhead
report_ckpt
report_pushdown
report_widecore
