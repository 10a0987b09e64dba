//! Performance: wire-format parse/emit throughput.
//!
//! Besides the `{"type":"bench",…}` medians, emits `{"type":"throughput",…}`
//! JSON lines with absolute parse rates (messages and bytes per second) for
//! the trajectory recorded by `scripts/bench_perf.sh`. The rates come from
//! the harness's per-message medians, so each line's `messages` is 1.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::wire::{dns, ssdp, tplink};
use iotlan_util::bench::{Criterion, Throughput};
use iotlan_util::json;

fn bench(c: &mut Criterion) {
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
        "TP-Link Plug", "Smart Plug", "DEV", "HW", "OEM", 42.3, -71.1, 1,
    );
    let shp_bytes = sysinfo.to_udp_bytes();
    group.throughput(Throughput::Bytes(shp_bytes.len() as u64));
    let shp_ns = group.bench_function("tplink_decrypt_parse", |b| {
        b.iter(|| tplink::Message::from_udp_bytes(&shp_bytes).unwrap())
    });
    group.finish();

    // Machine-readable throughput lines from the per-message medians.
    for (id, bytes, ns) in [
        ("mdns_parse", mdns_bytes.len(), mdns_ns),
        ("tplink_decrypt_parse", shp_bytes.len(), shp_ns),
    ] {
        if let Some(ns) = ns {
            emit_line(
                "throughput",
                id,
                [
                    ("messages", json::Value::from(1u64)),
                    ("messages_per_sec", json::Value::from(per_sec(1.0, ns))),
                    (
                        "bytes_per_sec",
                        json::Value::from(per_sec(bytes as f64, ns)),
                    ),
                ],
            );
        }
    }
}

iotlan_util::bench_main!(bench);
