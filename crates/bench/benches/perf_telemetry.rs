//! The observability layer's overhead.
//!
//! Runs the same fully-instrumented workload — a `Lab::fast()` idle
//! capture, whose inner loop crosses the netsim counters, capture gauges,
//! device counters and lab spans on every frame — twice: once with
//! telemetry enabled (the default) and once runtime-disabled via
//! `telemetry::set_enabled(false)`, which leaves only the per-call-site
//! `enabled()` load in place. The emitted `{"type":"overhead",…}` line
//! prices instrumentation against end-to-end wall clock. On a 2-core Xeon
//! VM, three full-mode runs read 2.5%, 8.8% and 0.4% (the same runs of the
//! code before the reply memos and the subscriber index read 12.0%, 10.2%
//! and -0.3%). The two medians are taken one after the other on labs of
//! 11–32 ms, so host phases move the figure by several points either way;
//! the rest is the fixed cost of the per-frame counters and histograms
//! (5–7 ns per enabled increment, the second line below), whose share grows
//! as the event loop gets faster. No gate checks the figure. Compiling the
//! `telemetry` feature out removes even the flag check.
//!
//! A second line prices the raw counter hot path (increments/sec, enabled
//! vs disabled) so a regression in the metric primitives themselves is
//! visible before it is diluted by a full lab run.

use iotlan_bench::emit_line;
use iotlan_core::{telemetry, Lab, LabConfig};
use iotlan_util::bench::Criterion;
use iotlan_util::json;

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

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let increments: u64 = if quick { 200_000 } else { 2_000_000 };

    // Harness-timed medians of each workload with telemetry on and off:
    // the end-to-end lab run…
    let mut group = criterion.benchmark_group("perf_telemetry");
    let lab_on = group.bench_function("lab_idle_telemetry_on", |b| b.iter(lab_idle_run));
    telemetry::set_enabled(false);
    let lab_off = group.bench_function("lab_idle_telemetry_off", |b| b.iter(lab_idle_run));
    telemetry::set_enabled(true);
    // …and the raw counter primitive.
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

    // Machine-readable overhead lines from those medians.
    for (id, on, off) in [
        ("lab_idle", lab_on, lab_off),
        ("counter_increment", counter_on, counter_off),
    ] {
        if let (Some(enabled_ns), Some(disabled_ns)) = (on, off) {
            emit_line(
                "overhead",
                id,
                [
                    ("enabled_ns", json::Value::from(enabled_ns)),
                    ("disabled_ns", json::Value::from(disabled_ns)),
                    (
                        "overhead_pct",
                        json::Value::from(
                            (enabled_ns - disabled_ns) / disabled_ns.max(1.0) * 100.0,
                        ),
                    ),
                ],
            );
        }
    }
}

iotlan_util::bench_main!(bench);
