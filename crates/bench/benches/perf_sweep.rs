//! Serial-vs-parallel performance of the crowd-scale pipeline (Table 2):
//! dataset generation over households, the entropy analysis of that
//! dataset, and the one pass per household that Table 2 runs
//! (`table2_entropy`: `entropy::analyze_generated`, which generates and
//! analyses each household on the worker that draws it and never builds
//! the dataset).
//!
//! Besides the usual per-benchmark `{"type":"bench",…}` lines, this target
//! emits one `{"type":"speedup",…}` JSON line per stage comparing
//! `IOTLAN_THREADS=1` against `IOTLAN_THREADS=4` on identical inputs: does
//! the pool pay for this stage on this host? Determinism makes the
//! comparison honest: both sides produce byte-identical artifacts, so the
//! speedup is pure scheduling. Each line comes from `reps` back-to-back
//! serial/parallel pairs: `serial_ns` and `parallel_ns` are the medians of
//! each side, `speedup` is the median of the per-pair ratios, and
//! `min`/`max` bound those ratios.

use iotlan_bench::emit_line;
use iotlan_core::inspector::{dataset, entropy};
use iotlan_util::bench::Criterion;
use iotlan_util::{json, pool};
use std::hint::black_box;
use std::time::Instant;

/// The parallel side's worker count.
const THREADS: usize = 4;

fn dataset_config(quick: bool) -> dataset::GeneratorConfig {
    dataset::GeneratorConfig {
        seed: 42,
        households: if quick { 800 } else { 3893 },
    }
}

/// Time `reps` pairs of `stage` at 1 and at [`THREADS`] pool threads and
/// emit the stage's speedup line.
fn speedup_line<R>(id: &str, reps: usize, stage: impl Fn() -> R) {
    let time = |threads: usize| {
        let start = Instant::now();
        black_box(pool::with_threads(threads, &stage));
        start.elapsed().as_nanos() as f64
    };
    let (mut serial, mut parallel, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let serial_ns = time(1);
        let parallel_ns = time(THREADS);
        serial.push(serial_ns);
        parallel.push(parallel_ns);
        speedups.push(serial_ns / parallel_ns.max(1.0));
    }
    for samples in [&mut serial, &mut parallel, &mut speedups] {
        samples.sort_by(f64::total_cmp);
    }
    emit_line(
        "speedup",
        id,
        [
            ("serial_ns", json::Value::from(serial[reps / 2])),
            ("parallel_ns", json::Value::from(parallel[reps / 2])),
            ("threads", json::Value::from(THREADS)),
            ("speedup", json::Value::from(speedups[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", json::Value::from(speedups[0])),
            ("max", json::Value::from(speedups[reps - 1])),
        ],
    );
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");

    // Harness-timed medians at 1 and 4 worker threads.
    let mut group = criterion.benchmark_group("perf_sweep");
    let generator = dataset_config(quick);
    group.bench_function("dataset_generate/threads1", |b| {
        b.iter(|| pool::with_threads(1, || dataset::generate(&generator)))
    });
    group.bench_function("dataset_generate/threads4", |b| {
        b.iter(|| pool::with_threads(THREADS, || dataset::generate(&generator)))
    });
    let data = dataset::generate(&generator);
    group.bench_function("entropy_analyze/threads1", |b| {
        b.iter(|| pool::with_threads(1, || entropy::analyze(&data)))
    });
    group.bench_function("entropy_analyze/threads4", |b| {
        b.iter(|| pool::with_threads(THREADS, || entropy::analyze(&data)))
    });
    group.finish();

    // Serial-vs-parallel comparison lines. Wall-clock speedup is bounded
    // by the physical core count, which every line records, so a ~1x
    // result on a single-core host reads as expected.
    let reps = if quick { 3 } else { 9 };
    speedup_line("dataset_generate", reps, || dataset::generate(&generator));
    speedup_line("entropy_analyze", reps, || entropy::analyze(&data));
    speedup_line("table2_entropy", reps, || {
        entropy::analyze_generated(&generator)
    });
}

iotlan_util::bench_main!(bench);
