//! The observability layer's overhead.
//!
//! Runs the same fully-instrumented workload — a `Lab::fast()` idle
//! capture, whose inner loop crosses the netsim counters, capture gauges,
//! device counters and lab spans on every frame — with telemetry enabled
//! (the default) and runtime-disabled via `telemetry::set_enabled(false)`,
//! which leaves only the per-call-site `enabled()` load in place. The
//! emitted `{"type":"overhead",…}` line prices instrumentation against
//! end-to-end wall clock. The two sides alternate within each of `reps`
//! pairs, the side that goes first swapping every pair, so a host phase
//! lands on both: `enabled_ns` and `disabled_ns` are the medians of each
//! side, `overhead_pct` is the median of the per-pair overheads, and
//! `min`/`max` bound those. On a shared 2-core Xeon VM two full-mode runs
//! read 6.1% and 6.2%, with single pairs from −14% to 49%; timed one side
//! after the other, three runs of the older code read 8.6%, −1.2% and
//! 52.4%. What the median keeps is the fixed cost of the per-frame counters
//! and histograms (5–7 ns per enabled increment, the second line below),
//! whose share grows as the event loop gets faster. No gate checks the
//! figure.
//! Compiling the `telemetry` feature out removes even the flag check.
//!
//! A second line prices the raw counter hot path (harness medians of
//! increments, enabled vs disabled) so a regression in the metric
//! primitives themselves is visible before it is diluted by a full lab run.

use iotlan_bench::emit_line;
use iotlan_core::{telemetry, Lab, LabConfig};
use iotlan_util::bench::Criterion;
use iotlan_util::json;
use std::time::Instant;

fn lab_idle_run() {
    // reset_all keeps the trace buffer bounded across reps (and costs the
    // same on both sides of the comparison).
    telemetry::reset_all();
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    std::hint::black_box(lab.network.capture.len());
}

fn counter_run(increments: u64) {
    for i in 0..increments {
        telemetry::counter!("bench.telemetry_hot").add(i & 1);
    }
}

/// `(enabled - disabled) / disabled`, in percent.
fn overhead_pct(enabled_ns: f64, disabled_ns: f64) -> f64 {
    (enabled_ns - disabled_ns) / disabled_ns.max(1.0) * 100.0
}

/// Time `reps` pairs of [`lab_idle_run`], one run with telemetry enabled
/// and one with it disabled per pair, alternating which goes first, and
/// emit the `lab_idle` overhead line.
fn lab_idle_line(reps: usize) {
    let time = |enabled: bool| {
        telemetry::set_enabled(enabled);
        let start = Instant::now();
        lab_idle_run();
        start.elapsed().as_nanos() as f64
    };
    let (mut enabled, mut disabled, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (on, off) = if rep % 2 == 0 {
            let on = time(true);
            (on, time(false))
        } else {
            let off = time(false);
            (time(true), off)
        };
        enabled.push(on);
        disabled.push(off);
        overheads.push(overhead_pct(on, off));
    }
    telemetry::set_enabled(true);
    for samples in [&mut enabled, &mut disabled, &mut overheads] {
        samples.sort_by(f64::total_cmp);
    }
    emit_line(
        "overhead",
        "lab_idle",
        [
            ("enabled_ns", json::Value::from(enabled[reps / 2])),
            ("disabled_ns", json::Value::from(disabled[reps / 2])),
            ("overhead_pct", json::Value::from(overheads[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", json::Value::from(overheads[0])),
            ("max", json::Value::from(overheads[reps - 1])),
        ],
    );
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let increments: u64 = if quick { 200_000 } else { 2_000_000 };

    // The end-to-end lab run, telemetry on and off in alternating pairs…
    lab_idle_line(if quick { 4 } else { 16 });
    telemetry::reset_all();

    // …and harness-timed medians of the raw counter primitive.
    let mut group = criterion.benchmark_group("perf_telemetry");
    let counter_on = group.bench_function("counter_increment_telemetry_on", |b| {
        b.iter(|| counter_run(increments))
    });
    telemetry::set_enabled(false);
    let counter_off = group.bench_function("counter_increment_telemetry_off", |b| {
        b.iter(|| counter_run(increments))
    });
    telemetry::set_enabled(true);
    group.finish();
    telemetry::reset_all();

    if let (Some(enabled_ns), Some(disabled_ns)) = (counter_on, counter_off) {
        emit_line(
            "overhead",
            "counter_increment",
            [
                ("enabled_ns", json::Value::from(enabled_ns)),
                ("disabled_ns", json::Value::from(disabled_ns)),
                (
                    "overhead_pct",
                    json::Value::from(overhead_pct(enabled_ns, disabled_ns)),
                ),
            ],
        );
    }
}

iotlan_util::bench_main!(bench);
