//! Performance: wire-format parse/emit throughput.
//!
//! Besides the `{"type":"bench",…}` medians, emits `{"type":"throughput",…}`
//! JSON lines with absolute parse rates (messages and bytes per second) for
//! the trajectory recorded by `scripts/bench_perf.sh`: `reps` timed batches
//! of `messages` parses each (3 × 2,000 with `--quick`, 9 × 20,000 in full
//! mode). `messages_per_sec` and `bytes_per_sec` are the median batch's
//! rates and `min`/`max` bound `messages_per_sec`.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::wire::{dns, ssdp, tplink};
use iotlan_util::bench::{Criterion, Throughput};
use iotlan_util::json;
use std::hint::black_box;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let mdns_response = dns::Message::mdns_response(vec![
        dns::Record {
            name: "_hue._tcp.local".into(),
            cache_flush: false,
            ttl: 4500,
            rdata: dns::RData::Ptr("Philips Hue - 685F61._hue._tcp.local".into()),
        },
        dns::Record {
            name: "Philips Hue - 685F61._hue._tcp.local".into(),
            cache_flush: true,
            ttl: 4500,
            rdata: dns::RData::Txt(vec!["bridgeid=001788FFFE685F61".into()]),
        },
    ]);
    let mdns_bytes = mdns_response.to_bytes();
    let mut group = c.benchmark_group("perf_wire");
    group.throughput(Throughput::Bytes(mdns_bytes.len() as u64));
    let mdns_ns = group.bench_function("mdns_parse", |b| {
        b.iter(|| dns::Message::parse(&mdns_bytes).unwrap())
    });
    group.bench_function("mdns_emit", |b| b.iter(|| mdns_response.to_bytes()));

    let msearch = ssdp::Message::msearch("ssdp:all", 3);
    let ssdp_bytes = msearch.to_bytes();
    group.throughput(Throughput::Bytes(ssdp_bytes.len() as u64));
    group.bench_function("ssdp_parse", |b| {
        b.iter(|| ssdp::Message::parse(&ssdp_bytes).unwrap())
    });

    let sysinfo = tplink::Message::sysinfo_response(
        "TP-Link Plug",
        "Smart Plug",
        "DEV",
        "HW",
        "OEM",
        42.3,
        -71.1,
        1,
    );
    let shp_bytes = sysinfo.to_udp_bytes();
    group.throughput(Throughput::Bytes(shp_bytes.len() as u64));
    let shp_ns = group.bench_function("tplink_decrypt_parse", |b| {
        b.iter(|| tplink::Message::from_udp_bytes(&shp_bytes).unwrap())
    });
    group.finish();

    // Machine-readable throughput lines for the parsers the filter kept.
    if mdns_ns.is_some() {
        emit_parse_rate("mdns_parse", &mdns_bytes, quick, |bytes| {
            black_box(dns::Message::parse(bytes).unwrap());
        });
    }
    if shp_ns.is_some() {
        emit_parse_rate("tplink_decrypt_parse", &shp_bytes, quick, |bytes| {
            black_box(tplink::Message::from_udp_bytes(bytes).unwrap());
        });
    }
}

/// Print `id`'s throughput line from `reps` timed batches of `messages`
/// parses of `bytes`.
fn emit_parse_rate(id: &str, bytes: &[u8], quick: bool, parse: impl Fn(&[u8])) {
    let (reps, messages) = if quick { (3, 2_000) } else { (9, 20_000) };
    let mut elapsed: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..messages {
                parse(black_box(bytes));
            }
            start.elapsed().as_nanos() as f64
        })
        .collect();
    elapsed.sort_by(f64::total_cmp);
    let rate = |elapsed: f64| per_sec(messages as f64, elapsed);
    let median = rate(elapsed[reps / 2]);
    emit_line(
        "throughput",
        id,
        [
            ("messages", json::Value::from(messages)),
            ("messages_per_sec", json::Value::from(median)),
            (
                "bytes_per_sec",
                json::Value::from(median * bytes.len() as f64),
            ),
            ("reps", json::Value::from(reps)),
            ("min", json::Value::from(rate(elapsed[reps - 1]))),
            ("max", json::Value::from(rate(elapsed[0]))),
        ],
    );
}

iotlan_util::bench_main!(bench);
