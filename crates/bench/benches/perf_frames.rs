//! Throughput of the zero-copy frame pipeline: single-allocation compose
//! builders plus the arena-backed capture, against the pre-rework baseline
//! (per-layer nested builders plus an owned-`Vec`-per-frame capture).
//!
//! Besides the usual `{"type":"bench",…}` lines, this target emits a
//! `{"type":"speedup",…}` line comparing the two build+capture paths and
//! `{"type":"throughput",…}` lines with the absolute frame rates. The
//! acceptance bar for the rework is a ≥2× frames/sec speedup on the
//! build+capture hot path; the byte-identity of the two builders is pinned
//! by `iotlan-wire`'s compose tests, and the allocation budget (one per
//! frame) by `iotlan-netsim`'s alloc_regression test.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::netsim::stack::{self, Endpoint};
use iotlan_core::netsim::{Capture, SimTime};
use iotlan_core::wire::ethernet::{self, EthernetAddress};
use iotlan_core::wire::{compose, ipv4, udp};
use iotlan_util::bench::Criterion;
use iotlan_util::json;
use std::net::Ipv4Addr;

fn endpoint(last: u8) -> Endpoint {
    Endpoint {
        mac: EthernetAddress([2, 0, 0, 0, 0, last]),
        ip: Ipv4Addr::new(192, 168, 10, last),
    }
}

/// The pre-rework capture: one owned `Vec<u8>` per frame, copied on record.
#[derive(Default)]
struct LegacyCapture {
    frames: Vec<(SimTime, Vec<u8>)>,
}

impl LegacyCapture {
    fn record(&mut self, time: SimTime, data: &[u8]) {
        self.frames.push((time, data.to_vec()));
    }
}

/// The pre-rework builder: each layer allocates and re-copies the payload.
fn legacy_udp_unicast(src: Endpoint, dst: Endpoint, payload: &[u8]) -> Vec<u8> {
    compose::nested_eth_ipv4_udp(
        &ethernet::Repr {
            src_addr: src.mac,
            dst_addr: dst.mac,
            ethertype: ethernet::EtherType::Ipv4,
        },
        &ipv4::Repr {
            src_addr: src.ip,
            dst_addr: dst.ip,
            protocol: ipv4::Protocol::Udp,
            ttl: 64,
            payload_len: udp::HEADER_LEN + payload.len(),
        },
        &udp::Repr {
            src_port: 5000,
            dst_port: 9999,
            payload_len: payload.len(),
        },
        payload,
    )
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let frames = if quick { 2_000 } else { 20_000 };
    let src = endpoint(1);
    let dst = endpoint(2);
    // An mDNS-sized payload: the multicast chatter of Fig. 1/2 dominates
    // the testbed's frame mix.
    let payload = [0x5au8; 120];
    let frame_len = stack::udp_unicast(src, dst, 5000, 9999, &payload).len();

    // Both paths get their frame index pre-sized, as in a warmed-up
    // windowed run (drain_into keeps capacity, so steady state records
    // into retained storage); the legacy path still pays its per-frame
    // buffer allocations and copies — that is exactly what the rework
    // removed.
    let legacy_run = || {
        let mut capture = LegacyCapture::default();
        capture.frames.reserve(frames);
        for i in 0..frames {
            let frame = legacy_udp_unicast(src, dst, &payload);
            capture.record(SimTime::from_secs(i as u64), &frame);
        }
        std::hint::black_box(capture.frames.len())
    };
    let zero_copy_run = || {
        let mut capture = Capture::new();
        capture.reserve(frames, frames * frame_len);
        for i in 0..frames {
            let frame = stack::udp_unicast(src, dst, 5000, 9999, &payload);
            capture.record(SimTime::from_secs(i as u64), &frame);
        }
        std::hint::black_box(capture.len())
    };

    // Harness-timed medians, one run per iteration.
    let mut group = criterion.benchmark_group("perf_frames");
    let legacy_ns = group.bench_function("legacy_build_capture", |b| b.iter(legacy_run));
    let zero_copy_ns = group.bench_function("zero_copy_build_capture", |b| b.iter(zero_copy_run));
    group.bench_function("pcap_export", |b| {
        b.iter_with_setup(
            || {
                let mut capture = Capture::new();
                for i in 0..frames {
                    let frame = stack::udp_unicast(src, dst, 5000, 9999, &payload);
                    capture.record(SimTime::from_secs(i as u64), &frame);
                }
                capture
            },
            |capture| std::hint::black_box(capture.to_pcap()),
        )
    });
    group.finish();

    // Machine-readable speedup/throughput lines from those medians.
    if let (Some(legacy_ns), Some(zero_copy_ns)) = (legacy_ns, zero_copy_ns) {
        emit_line(
            "speedup",
            "frames_build_capture",
            [
                ("baseline_ns", json::Value::from(legacy_ns)),
                ("optimized_ns", json::Value::from(zero_copy_ns)),
                (
                    "speedup",
                    json::Value::from(legacy_ns / zero_copy_ns.max(1.0)),
                ),
            ],
        );
    }
    for (id, ns) in [
        ("legacy_build_capture", legacy_ns),
        ("zero_copy_build_capture", zero_copy_ns),
    ] {
        if let Some(ns) = ns {
            emit_line(
                "throughput",
                id,
                [
                    ("frames", json::Value::from(frames)),
                    (
                        "frames_per_sec",
                        json::Value::from(per_sec(frames as f64, ns)),
                    ),
                ],
            );
        }
    }
}

iotlan_util::bench_main!(bench);
