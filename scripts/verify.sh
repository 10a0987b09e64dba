#!/usr/bin/env sh
# Tier-1 verification gate. Must pass from a clean checkout with no network:
# the workspace is hermetic (zero crates.io dependencies), so everything runs
# with --offline.
#
#   ./scripts/verify.sh
#
# 0. formatting: `cargo fmt --all --check` must report no rustfmt drift
#    (ttpbench is a workspace of its own and is not checked)
# 1. release build of every workspace target (libraries, binaries, tests,
#    examples and benches); any `warning` line in its output fails the gate
# 2. full test suite (unit + property + integration), serial
#    (IOTLAN_THREADS=1) and parallel (IOTLAN_THREADS=4) — the pool promises
#    bit-identical artifacts at any worker count, so both must pass
# 3. paper-scale integration tests: the suites marked #[ignore] (too slow
#    for the default tier-1 wall clock) run here explicitly
# 4. streaming equivalence: tests/stream_equivalence.rs pinned to 1 and 4
#    worker threads — the stream engine must match batch at both
# 5. bench build: every iotlan-bench target compiles (the paper target,
#    the ablations and every perf_* bench), and the paper target in
#    --quick mode must emit one {"type":"bench","id":...} line for each of
#    its fourteen artifact ids; perf_wire in --quick mode must emit
#    machine-readable {"type":"bench",...} JSON lines via the in-tree
#    harness, and its mdns_parse and tplink_decrypt_parse throughput
#    lines, each with its reps and min/max spread
# 6. sweep smoke: perf_sweep in --quick mode must emit one
#    {"type":"speedup",...} serial-vs-parallel comparison line for each of
#    Table 2's stages, dataset_generate and entropy_analyze, and for the
#    one-pass table2_entropy that the paper runs, each with its reps and
#    min/max spread
# 7. stream smoke: perf_stream in --quick mode must emit its
#    {"type":"throughput",...} packet-rate / peak-state lines and its
#    appd1_periodicity line with its reps and min/max spread; perf_netsim
#    in --quick mode must emit its testbed_idle_frames and app_phase
#    throughput lines, each with its reps and min/max spread; perf_classify
#    in --quick mode must emit its flow_assembly throughput line with its
#    reps and min/max spread
# 8. telemetry smoke: perf_telemetry in --quick mode must emit its
#    {"type":"overhead",...} enabled-vs-disabled comparison lines
# 9. observability: the observability example must write run manifests
#    under target/manifests/, and scripts/trace_report.sh must render the
#    per-phase timing summary from them
# 10. mojibake guard: no U+FFFD replacement characters anywhere in the
#     tracked tree (a mangled-encoding canary)
# 11. golden artifacts: one ttpbench regeneration per workload (fast,
#     perf_stream) must report "correct":true on its last line — every
#     artifact digest matches ttpbench/ledger.txt and the streaming report
#     matches the batch analyses
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
if ! cargo fmt --all --check; then
    echo "verify: FAIL — rustfmt drift; run cargo fmt --all" >&2
    exit 1
fi

echo "==> cargo build --release --offline --workspace --all-targets (no warnings)"
if ! build_out=$(cargo build --release --offline --workspace --all-targets 2>&1); then
    printf '%s\n' "$build_out"
    echo "verify: FAIL — the release build failed" >&2
    exit 1
fi
printf '%s\n' "$build_out"
if printf '%s\n' "$build_out" | grep -q '^warning'; then
    echo "verify: FAIL — the release build emitted warnings" >&2
    exit 1
fi

echo "==> cargo test -q --offline (IOTLAN_THREADS=1)"
IOTLAN_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline --workspace (IOTLAN_THREADS=4)"
IOTLAN_THREADS=4 cargo test -q --offline --workspace

echo "==> paper-scale suites (cargo test -- --ignored)"
IOTLAN_THREADS=4 cargo test -q --offline -- --ignored

echo "==> streaming equivalence (IOTLAN_THREADS=1)"
IOTLAN_THREADS=1 cargo test -q --offline --test stream_equivalence

echo "==> streaming equivalence (IOTLAN_THREADS=4)"
IOTLAN_THREADS=4 cargo test -q --offline --test stream_equivalence

echo "==> bench build: cargo bench -p iotlan-bench --no-run"
cargo bench -p iotlan-bench --offline --no-run

echo "==> paper smoke: paper --quick"
paper_out=$(cargo bench -p iotlan-bench --bench paper --offline -- --quick)
printf '%s\n' "$paper_out"
for id in fig1/build_graph fig2/passive_prevalence fig3/cross_validate \
    fig4/vendor_cluster_extraction table1/exposure_matrix \
    table2/entropy_analysis table3/build_testbed table4/discovery_responses \
    table5/payload_extraction sec42/full_catalog_scan sec51/discovery_stats \
    sec52/vuln_scan sec6/report_aggregation_2335_apps \
    appd1/periodicity_analysis; do
    if ! printf '%s\n' "$paper_out" | grep -qF "{\"type\":\"bench\",\"id\":\"$id\""; then
        echo "verify: FAIL — paper emitted no bench JSON line for $id" >&2
        exit 1
    fi
done

echo "==> bench smoke: perf_wire --quick"
bench_out=$(cargo bench -p iotlan-bench --bench perf_wire --offline -- --quick)
printf '%s\n' "$bench_out"
if ! printf '%s\n' "$bench_out" | grep -q '^{"type":"bench"'; then
    echo "verify: FAIL — perf_wire emitted no bench JSON lines" >&2
    exit 1
fi
for id in mdns_parse tplink_decrypt_parse; do
    wire_line=$(printf '%s\n' "$bench_out" |
        grep -F "{\"type\":\"throughput\",\"id\":\"$id\"" || true)
    for key in reps min max; do
        if ! printf '%s\n' "$wire_line" | grep -qF "\"$key\":"; then
            echo "verify: FAIL — perf_wire emitted no $id line with \"$key\"" >&2
            exit 1
        fi
    done
done

echo "==> sweep smoke: perf_sweep --quick"
sweep_out=$(cargo bench -p iotlan-bench --bench perf_sweep --offline -- --quick)
printf '%s\n' "$sweep_out"
for id in dataset_generate entropy_analyze table2_entropy; do
    sweep_line=$(printf '%s\n' "$sweep_out" |
        grep -F "{\"type\":\"speedup\",\"id\":\"$id\"" || true)
    if [ -z "$sweep_line" ]; then
        echo "verify: FAIL — perf_sweep emitted no $id speedup line" >&2
        exit 1
    fi
    for key in reps min max; do
        if ! printf '%s\n' "$sweep_line" | grep -qF "\"$key\":"; then
            echo "verify: FAIL — perf_sweep emitted no $id speedup line with \"$key\"" >&2
            exit 1
        fi
    done
done

echo "==> stream smoke: perf_stream --quick"
stream_out=$(cargo bench -p iotlan-bench --bench perf_stream --offline -- --quick)
printf '%s\n' "$stream_out"
if ! printf '%s\n' "$stream_out" | grep -q '^{"type":"throughput"'; then
    echo "verify: FAIL — perf_stream emitted no throughput JSON lines" >&2
    exit 1
fi
appd1_line=$(printf '%s\n' "$stream_out" |
    grep -F '{"type":"throughput","id":"appd1_periodicity"' || true)
for key in reps min max; do
    if ! printf '%s\n' "$appd1_line" | grep -qF "\"$key\":"; then
        echo "verify: FAIL — perf_stream emitted no appd1_periodicity line with \"$key\"" >&2
        exit 1
    fi
done

echo "==> simulator smoke: perf_netsim --quick"
netsim_out=$(cargo bench -p iotlan-bench --bench perf_netsim --offline -- --quick)
printf '%s\n' "$netsim_out"
for id in testbed_idle_frames app_phase; do
    netsim_line=$(printf '%s\n' "$netsim_out" |
        grep -F "{\"type\":\"throughput\",\"id\":\"$id\"" || true)
    for key in reps min max; do
        if ! printf '%s\n' "$netsim_line" | grep -qF "\"$key\":"; then
            echo "verify: FAIL — perf_netsim emitted no $id line with \"$key\"" >&2
            exit 1
        fi
    done
done

echo "==> flow assembly smoke: perf_classify --quick"
classify_out=$(cargo bench -p iotlan-bench --bench perf_classify --offline -- --quick)
printf '%s\n' "$classify_out"
classify_line=$(printf '%s\n' "$classify_out" |
    grep -F '{"type":"throughput","id":"flow_assembly"' || true)
for key in reps min max; do
    if ! printf '%s\n' "$classify_line" | grep -qF "\"$key\":"; then
        echo "verify: FAIL — perf_classify emitted no flow_assembly line with \"$key\"" >&2
        exit 1
    fi
done

echo "==> telemetry smoke: perf_telemetry --quick"
telemetry_out=$(cargo bench -p iotlan-bench --bench perf_telemetry --offline -- --quick)
printf '%s\n' "$telemetry_out"
if ! printf '%s\n' "$telemetry_out" | grep -q '^{"type":"overhead"'; then
    echo "verify: FAIL — perf_telemetry emitted no overhead JSON lines" >&2
    exit 1
fi

echo "==> observability manifests + per-phase timing summary"
cargo run -q --release --offline --example observability
if [ ! -f target/manifests/lab.json ]; then
    echo "verify: FAIL — observability example wrote no lab manifest" >&2
    exit 1
fi
./scripts/trace_report.sh

echo "==> mojibake guard (U+FFFD)"
if grep -rIl "$(printf '\357\277\275')" --exclude-dir=target --exclude-dir=.git . ; then
    echo "verify: FAIL — U+FFFD replacement characters found in the tree" >&2
    exit 1
fi

for workload in fast perf_stream; do
    echo "==> golden artifacts: ttpbench --workload $workload"
    ttp_out=$(cargo run -q --release --offline --manifest-path ttpbench/Cargo.toml -- \
        --workload "$workload" --seconds 0)
    printf '%s\n' "$ttp_out"
    if ! printf '%s\n' "$ttp_out" | tail -n 1 | grep -q '"correct":true'; then
        echo "verify: FAIL — ttpbench $workload artifacts differ from ttpbench/ledger.txt or batch" >&2
        exit 1
    fi
done

echo "verify: OK"
