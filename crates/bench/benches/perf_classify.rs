//! Performance: flow assembly and classification throughput.
//!
//! Besides the `{"type":"bench",…}` medians, emits a
//! `{"type":"throughput","id":"flow_assembly",…}` JSON line for the
//! trajectory recorded by `scripts/bench_perf.sh`: one
//! `FlowTable::from_capture` over the `fast` idle capture, timed `reps`
//! times. `frames_per_sec` is the median rate and `min`/`max` bound it.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::classify::rules::{classify_with_rules, paper_rules};
use iotlan_core::classify::{truth, FlowTable};
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
    let table = FlowTable::from_capture(capture);
    let rules = paper_rules();
    group.throughput(Throughput::Elements(table.len() as u64));
    group.bench_function("ndpi_with_rules", |b| {
        b.iter(|| {
            table
                .flows
                .iter()
                .map(|f| classify_with_rules(f, &rules))
                .count()
        })
    });
    group.bench_function("ground_truth", |b| {
        b.iter(|| table.flows.iter().map(truth::label_flow).count())
    });
    group.finish();

    // Machine-readable throughput line: capture frames assembled into
    // flows per wall second, once per rep.
    let reps = if quick { 3 } else { 9 };
    let frames = capture.len();
    let mut elapsed: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(FlowTable::from_capture(capture));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    elapsed.sort_by(f64::total_cmp);
    let frame_rate = |elapsed: f64| json::Value::from(per_sec(frames as f64, elapsed));
    emit_line(
        "throughput",
        "flow_assembly",
        [
            ("frames", json::Value::from(frames)),
            ("frames_per_sec", frame_rate(elapsed[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", frame_rate(elapsed[reps - 1])),
            ("max", frame_rate(elapsed[0])),
        ],
    );
}

iotlan_util::bench_main!(bench);
