//! Throughput and memory bounds of the single-pass streaming engine.
//!
//! Besides the usual per-benchmark `{"type":"bench",…}` lines, this target
//! emits `{"type":"throughput",…}` JSON lines reporting the engine's
//! packet rate and its peak resident state against `streamed_bytes` — the
//! size an in-memory `Capture` of the same packets would occupy. The
//! `state_ratio` field is the bounded-memory claim made measurable: it
//! grows with capture length while `peak_state_bytes` stays put (the
//! paper-scale demonstration lives in `examples/paper_scale.rs`).

use iotlan_bench::{emit_line, per_sec};
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
