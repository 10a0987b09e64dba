#!/usr/bin/env sh
# Performance-bench trajectory recorder.
#
#   ./scripts/bench_perf.sh [--quick]
#
# Runs the six perf benches — perf_netsim, perf_stream, perf_classify,
# perf_wire, perf_telemetry, perf_sweep — and appends every machine-readable
# {"type":"throughput",...}, {"type":"overhead",...} and
# {"type":"speedup",...} JSON line they emit to BENCH_perf.json (one JSON
# object per line, append-only), so the repo carries its own performance
# trajectory across commits — including the telemetry layer's
# enabled-vs-disabled overhead claim and Table 2's serial and parallel
# stage times. The
# per-benchmark {"type":"bench",...} medians are printed but not recorded:
# the trajectory tracks end-to-end rates, not harness samples.
#
# Every appended line says where it came from: the benches add the host's
# "cores", and this script adds "commit" (short SHA, with a "-dirty" suffix
# when the working tree had uncommitted changes at the start of the run)
# and "mode" ("quick" or "full").
#
# Pass --quick to forward the benches' quick mode (smaller workloads, fewer
# reps) — used by scripts/verify.sh as a smoke test.
set -eu

cd "$(dirname "$0")/.."

out="BENCH_perf.json"
quick="${1:-}"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
if [ "$quick" = "--quick" ]; then mode=quick; else mode=full; fi
stamp=",\"commit\":\"$commit\",\"mode\":\"$mode\"}"

run_bench() {
    name="$1"
    echo "==> cargo bench -p iotlan-bench --bench $name --offline -- $quick"
    # shellcheck disable=SC2086  # $quick is intentionally word-split ('' or --quick)
    bench_out=$(cargo bench -p iotlan-bench --bench "$name" --offline -- $quick)
    printf '%s\n' "$bench_out"
    printf '%s\n' "$bench_out" | grep -E '^\{"type":"(throughput|overhead|speedup)"' |
        sed "s/}\$/$stamp/" >>"$out" || true
}

run_bench perf_netsim
run_bench perf_stream
run_bench perf_classify
run_bench perf_wire
run_bench perf_telemetry
run_bench perf_sweep

lines=$(grep -cE '^\{"type":"(throughput|speedup|overhead)"' "$out")
echo "bench_perf: $out now holds $lines trajectory lines"
