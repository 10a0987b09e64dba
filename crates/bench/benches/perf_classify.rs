//! Performance: flow assembly and classification throughput.
//!
//! Besides the `{"type":"bench",…}` medians, emits two throughput JSON
//! lines for the trajectory recorded by `scripts/bench_perf.sh`, each
//! timed `reps` times over the `fast` idle capture, with the median rate
//! and `min`/`max` bounding it:
//! * `flow_assembly`: one `FlowTable::from_capture`, in `frames_per_sec`;
//! * `flow_labels`: one cold `FlowTable::labels` pass over a freshly
//!   assembled table (so no rep reads the memo), in `flows_per_sec`. The
//!   pass computes all four labels of each flow: the ground truth, nDPI's,
//!   tshark's and the paper pipeline's.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::classify::FlowTable;
use iotlan_core::{Lab, LabConfig};
use iotlan_util::bench::{Criterion, Throughput};
use iotlan_util::json;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    let capture = &lab.network.capture;
    let mut group = c.benchmark_group("perf_classify");
    group.throughput(Throughput::Elements(capture.len() as u64));
    group.bench_function("flow_assembly", |b| {
        b.iter(|| FlowTable::from_capture(capture))
    });
    group.finish();
    let flows = FlowTable::from_capture(capture).len();

    // Machine-readable throughput lines, one sample per rep: capture
    // frames assembled into flows per wall second, then flows labelled per
    // wall second, each rep labelling a fresh table whose assembly is not
    // timed.
    let reps = if quick { 3 } else { 9 };
    let assembly: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(FlowTable::from_capture(capture));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    emit_rate("flow_assembly", "frames", capture.len(), assembly);
    let labelling: Vec<f64> = (0..reps)
        .map(|_| {
            let fresh = FlowTable::from_capture(capture);
            let start = Instant::now();
            std::hint::black_box(fresh.labels());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    emit_rate("flow_labels", "flows", flows, labelling);
}

/// Emit a `throughput` line for `count` items (`"<unit>"`) handled once in
/// each rep timed in `elapsed` (ns): the median rate (`"<unit>_per_sec"`),
/// `reps`, and the slowest and fastest reps' rates as `min`/`max`.
fn emit_rate(id: &str, unit: &str, count: usize, mut elapsed: Vec<f64>) {
    elapsed.sort_by(f64::total_cmp);
    let reps = elapsed.len();
    let rate = |elapsed: f64| json::Value::from(per_sec(count as f64, elapsed));
    let rate_key = format!("{unit}_per_sec");
    emit_line(
        "throughput",
        id,
        [
            (unit, json::Value::from(count)),
            (rate_key.as_str(), rate(elapsed[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", rate(elapsed[reps - 1])),
            ("max", rate(elapsed[0])),
        ],
    );
}

iotlan_util::bench_main!(bench);
