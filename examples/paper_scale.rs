//! The long run: §3.1 at paper scale — the five-day idle capture plus
//! 7,191 scripted interactions — streamed through the single-pass engine
//! so the capture is never materialized. The once-daily behaviours (the
//! Amazon Echo broadcast ARP sweep and its unicast follow-ups) appear in
//! the stream, and the §4/§5/App. D statistics come straight from the
//! engine's report.
//!
//! Five simulated days (13.5 M frames) take 33–43 s of wall time in
//! release mode on a 2-core Xeon VM, single-threaded; pass `--quick` for a
//! one-hour smoke run (daily-event assertions are skipped, since a day
//! never elapses).
//!
//! ```sh
//! cargo run --release --example paper_scale
//! cargo run --release --example paper_scale -- --quick
//! ```

use iotlan::netsim::stack::{self, Content};
use iotlan::netsim::{FrameSink, SimDuration, SimTime};
use iotlan::stream::StreamEngine;
use iotlan::wire::arp;
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::{Lab, LabConfig};

/// The streaming tap: forwards every frame to the analysis engine and, on
/// the side, counts the Echo's ARP sweep probes — the one statistic that
/// needs per-frame (not per-flow) evidence.
struct PaperScaleSink {
    engine: StreamEngine,
    echo_mac: EthernetAddress,
    broadcast_requests: u64,
    unicast_requests: u64,
}

impl FrameSink for PaperScaleSink {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        self.engine.on_frame(time, data);
        if let Some(dissected) = stack::dissect(data) {
            if dissected.eth.src_addr == self.echo_mac {
                if let Content::Arp(repr) = dissected.content {
                    if repr.operation == arp::Operation::Request {
                        if dissected.eth.dst_addr.is_broadcast() {
                            self.broadcast_requests += 1;
                        } else {
                            self.unicast_requests += 1;
                        }
                    }
                }
            }
        }
    }
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let started = std::time::Instant::now();
    let config = if quick {
        LabConfig {
            idle_duration: SimDuration::from_hours(1),
            interactions: 100,
            ..LabConfig::paper_scale()
        }
    } else {
        LabConfig::paper_scale()
    };
    let mut lab = Lab::new(config);
    let echo_mac = lab.catalog.find("Amazon Echo Spot").unwrap().mac;
    let mut sink = PaperScaleSink {
        engine: StreamEngine::new(&lab.catalog),
        echo_mac,
        broadcast_requests: 0,
        unicast_requests: 0,
    };
    println!(
        "streaming {} idle capture + {} interactions…",
        if quick { "1 h (--quick)" } else { "5 d" },
        lab.config.interactions
    );
    lab.run_streaming(
        SimDuration::from_hours(2),
        SimDuration::from_mins(10),
        &mut sink,
    );
    let report = sink.engine.finish().expect("frame-fed engine cannot fail");
    println!(
        "streamed {} frames ({} sim time) in {:.1} s wall",
        report.packets,
        lab.network.now(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "peak streaming state: {:.2} MiB vs {:.2} MiB in-memory capture ({:.0}x smaller)",
        report.peak_state_bytes as f64 / (1024.0 * 1024.0),
        report.streamed_bytes as f64 / (1024.0 * 1024.0),
        report.streamed_bytes as f64 / (report.peak_state_bytes as f64).max(1.0),
    );

    // The daily Echo ARP sweep (§5.1): broadcast requests across the /24
    // plus targeted unicast probes, counted by the tap as they streamed by.
    println!(
        "\nEcho Spot ARP activity: {} broadcast sweep probes, \
         {} targeted unicast probes",
        sink.broadcast_requests, sink.unicast_requests
    );
    if !quick {
        assert!(
            sink.broadcast_requests >= 253,
            "the daily /24 sweep must appear"
        );
        assert!(sink.unicast_requests > 0, "unicast follow-ups must appear");
        assert!(
            report.streamed_bytes >= 10 * report.peak_state_bytes as u64,
            "paper-scale streaming must run in at least 10x less state \
             than the in-memory capture"
        );
    }

    // Figure 1 at full scale, from the engine's flow table.
    let graph = report.graph(&lab.catalog);
    let mut connected: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (src, dst) in graph.edges.keys() {
        connected.insert(src);
        connected.insert(dst);
    }
    println!(
        "\ndevices with a local unicast peer: {}/{} (paper: 43/93)",
        connected.len(),
        graph.nodes.len()
    );

    // Figure 2 key rates at full scale.
    let prevalence = report.prevalence(&lab.catalog);
    for protocol in ["mDNS", "SSDP", "TPLINK_SHP", "TuyaLP", "RTP", "LIFX"] {
        println!(
            "{protocol:<12} observed on {:.1}% of devices",
            prevalence.passive_rate(protocol) * 100.0
        );
    }

    // Periodicity at full scale. Long runs overflow the per-key event cap,
    // so the report may be a prefix sample rather than exact — say which.
    let periodicity = report.periodicity();
    println!(
        "\nperiodicity ({}): {:.1}% of decidable discovery groups periodic, \
         {} periodic groups, {:.1} per device (paper: 88% / 580 / 6.2)",
        if report.periodicity_exact {
            "exact"
        } else {
            "prefix-sampled"
        },
        periodicity.discovery_periodic_fraction() * 100.0,
        periodicity.periodic_group_count(),
        periodicity.periodic_groups_per_device()
    );

    // TP-Link control interactions, counted exactly from the report's flow
    // table.
    let table = &report.table;
    let tplink_packets: u64 = table
        .flows
        .iter()
        .zip(table.labels())
        .filter(|(_, labels)| labels.paper == "TPLINK_SHP")
        .map(|(flow, _)| flow.packets)
        .sum();
    println!("TPLINK-SHP packets: {tplink_packets}");
}
