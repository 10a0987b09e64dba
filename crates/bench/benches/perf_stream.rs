//! Throughput and memory bounds of the single-pass streaming engine.
//!
//! Besides the usual per-benchmark `{"type":"bench",…}` lines, this target
//! emits `{"type":"throughput",…}` JSON lines reporting the engine's
//! packet rate and its peak resident state against `streamed_bytes` — the
//! size an in-memory `Capture` of the same packets would occupy. The
//! `state_ratio` field is the bounded-memory claim made measurable: it
//! grows with capture length while `peak_state_bytes` stays put (the
//! paper-scale demonstration lives in `examples/paper_scale.rs`).
//!
//! An `appd1_periodicity` line times App. D.1's `analyze_periodicity` on
//! the same capture's flow table `reps` times: `groups_per_sec` is the
//! median rate and `min`/`max` bound it (3 reps with `--quick`, 9 in full
//! mode).
//!
//! A `stream_vs_assembly` line compares the stream pass with batch flow
//! assembly (`FlowTable::from_capture`) on the same capture, timing both
//! once per rep: `per_packet_ratio` is the median ratio of the per-packet
//! pass (every frame fed, before `finish`) to assembly, with its `min` and
//! `max` over the reps, and `whole_ratio` (with `whole_min`/`whole_max`)
//! the same for the whole `stream_capture`, `finish` included.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::analysis::periodicity::analyze_periodicity;
use iotlan_core::classify::FlowTable;
use iotlan_core::devices::Catalog;
use iotlan_core::netsim::SimDuration;
use iotlan_core::stream::engine::stream_capture;
use iotlan_core::stream::{StreamEngine, StreamReport};
use iotlan_core::{Lab, LabConfig};
use iotlan_util::bench::Criterion;
use iotlan_util::json;
use std::time::Instant;

fn capture_config(quick: bool) -> LabConfig {
    LabConfig {
        seed: 42,
        idle_duration: SimDuration::from_mins(if quick { 4 } else { 20 }),
        interactions: if quick { 20 } else { 200 },
        with_honeypot: true,
    }
}

/// The fields of a `{"type":"throughput",…}` line for a pass that took
/// `elapsed_ns`.
fn throughput(report: &StreamReport, elapsed_ns: f64) -> [(&'static str, json::Value); 5] {
    [
        ("packets", json::Value::from(report.packets)),
        (
            "packets_per_sec",
            json::Value::from(per_sec(report.packets as f64, elapsed_ns)),
        ),
        (
            "peak_state_bytes",
            json::Value::from(report.peak_state_bytes),
        ),
        ("streamed_bytes", json::Value::from(report.streamed_bytes)),
        (
            "state_ratio",
            json::Value::from(
                report.streamed_bytes as f64 / (report.peak_state_bytes as f64).max(1.0),
            ),
        ),
    ]
}

/// One engine fed `image` in 4 KiB chunks.
fn stream_pcap(image: &[u8], catalog: &Catalog) -> StreamReport {
    let mut engine = StreamEngine::new(catalog);
    for chunk in image.chunks(4096) {
        engine.push_pcap_chunk(chunk).unwrap();
    }
    engine.finish().unwrap()
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let config = capture_config(quick);

    let mut lab = Lab::new(config.clone());
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));
    let capture = lab.network.capture.clone();
    let catalog = &lab.catalog;
    let image = capture.to_pcap();

    // Harness-timed medians, one pass per iteration.
    let mut group = criterion.benchmark_group("perf_stream");
    let frames_ns = group.bench_function("engine_frames", |b| {
        b.iter(|| stream_capture(&capture, catalog))
    });
    let pcap_ns = group.bench_function("engine_pcap_4k_chunks", |b| {
        b.iter(|| stream_pcap(&image, catalog))
    });
    group.finish();

    // Machine-readable throughput lines from those medians.
    if let Some(ns) = frames_ns {
        let report = stream_capture(&capture, catalog);
        emit_line("throughput", "engine_frames", throughput(&report, ns));
    }
    if let Some(ns) = pcap_ns {
        let report = stream_pcap(&image, catalog);
        emit_line(
            "throughput",
            "engine_pcap_4k_chunks",
            throughput(&report, ns),
        );
    }

    // App. D.1 over the same capture, once per rep on one flow table.
    let table = lab.flow_table();
    let reps = if quick { 3 } else { 9 };
    let mut groups = 0;
    let mut elapsed: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let report = analyze_periodicity(&table);
            let elapsed = start.elapsed().as_nanos() as f64;
            groups = report.groups.len();
            elapsed
        })
        .collect();
    elapsed.sort_by(f64::total_cmp);
    let group_rate = |elapsed: f64| json::Value::from(per_sec(groups as f64, elapsed));
    emit_line(
        "throughput",
        "appd1_periodicity",
        [
            ("groups", json::Value::from(groups)),
            ("groups_per_sec", group_rate(elapsed[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", group_rate(elapsed[reps - 1])),
            ("max", group_rate(elapsed[0])),
        ],
    );

    // Stream pass against batch assembly, both timed in every rep so that
    // a slow host phase lands on both sides of each ratio.
    let mut per_packet = Vec::with_capacity(reps);
    let mut whole = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(FlowTable::from_capture(&capture));
        let assembly = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        let mut engine = StreamEngine::new(catalog);
        capture.stream_into(&mut engine);
        let fed = start.elapsed().as_nanos() as f64;
        std::hint::black_box(engine.finish().unwrap());
        let pass = start.elapsed().as_nanos() as f64;
        per_packet.push(fed / assembly);
        whole.push(pass / assembly);
    }
    per_packet.sort_by(f64::total_cmp);
    whole.sort_by(f64::total_cmp);
    emit_line(
        "throughput",
        "stream_vs_assembly",
        [
            ("packets", json::Value::from(capture.len())),
            ("per_packet_ratio", json::Value::from(per_packet[reps / 2])),
            ("whole_ratio", json::Value::from(whole[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", json::Value::from(per_packet[0])),
            ("max", json::Value::from(per_packet[reps - 1])),
            ("whole_min", json::Value::from(whole[0])),
            ("whole_max", json::Value::from(whole[reps - 1])),
        ],
    );

    // End-to-end bounded-memory run: windowed simulation draining into the
    // engine, never materializing the capture.
    let start = Instant::now();
    let mut streaming_lab = Lab::new(config);
    let streaming_report =
        streaming_lab.run_streaming_report(SimDuration::from_mins(1), SimDuration::from_secs(30));
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    emit_line(
        "throughput",
        "lab_run_streaming",
        throughput(&streaming_report, elapsed_ns),
    );
}

iotlan_util::bench_main!(bench);
