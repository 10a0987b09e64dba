//! Serial-vs-parallel performance of the crowd-scale pipeline: dataset
//! generation over households and the multi-seed lab sweep.
//!
//! Besides the usual per-benchmark `{"type":"bench",…}` lines, this target
//! emits one `{"type":"speedup",…}` JSON line per workload comparing
//! `IOTLAN_THREADS=1` against `IOTLAN_THREADS=4` on identical inputs — the
//! CI hook for the ≥2× scaling target. Determinism makes the comparison
//! honest: both sides produce byte-identical artifacts, so the speedup is
//! pure scheduling.

use iotlan_bench::emit_line;
use iotlan_core::inspector::dataset;
use iotlan_core::netsim::SimDuration;
use iotlan_core::{Lab, LabConfig};
use iotlan_util::bench::Criterion;
use iotlan_util::{json, pool};

fn sweep_config() -> LabConfig {
    LabConfig {
        seed: 0,
        idle_duration: SimDuration::from_mins(2),
        interactions: 0,
        with_honeypot: false,
    }
}

fn dataset_config(quick: bool) -> dataset::GeneratorConfig {
    dataset::GeneratorConfig {
        seed: 42,
        households: if quick { 800 } else { 3893 },
    }
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");

    // Harness-timed medians at 1 and 4 worker threads.
    let mut group = criterion.benchmark_group("perf_sweep");
    let generator = dataset_config(quick);
    let dataset_serial = group.bench_function("dataset_generate/threads1", |b| {
        b.iter(|| pool::with_threads(1, || dataset::generate(&generator)))
    });
    let dataset_parallel = group.bench_function("dataset_generate/threads4", |b| {
        b.iter(|| pool::with_threads(4, || dataset::generate(&generator)))
    });
    let base = sweep_config();
    let seeds: Vec<u64> = (0..if quick { 4 } else { 8 }).collect();
    let sweep_serial = group.bench_function("lab_sweep/threads1", |b| {
        b.iter(|| pool::with_threads(1, || Lab::run_sweep(&base, &seeds)))
    });
    let sweep_parallel = group.bench_function("lab_sweep/threads4", |b| {
        b.iter(|| pool::with_threads(4, || Lab::run_sweep(&base, &seeds)))
    });
    group.finish();

    // Serial-vs-4-thread comparison lines from those medians. Wall-clock
    // speedup is bounded by the physical core count, which every line
    // records, so a ~1x result on a single-core host reads as expected.
    for (id, serial, parallel) in [
        ("dataset_generate", dataset_serial, dataset_parallel),
        ("lab_sweep", sweep_serial, sweep_parallel),
    ] {
        if let (Some(serial_ns), Some(parallel_ns)) = (serial, parallel) {
            emit_line(
                "speedup",
                id,
                [
                    ("serial_ns", json::Value::from(serial_ns)),
                    ("parallel_ns", json::Value::from(parallel_ns)),
                    ("threads", json::Value::from(4u64)),
                    (
                        "speedup",
                        json::Value::from(serial_ns / parallel_ns.max(1.0)),
                    ),
                ],
            );
        }
    }
}

iotlan_util::bench_main!(bench);
