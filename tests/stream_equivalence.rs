//! Streaming/batch equivalence: the single-pass `iotlan-stream` engine
//! must reproduce the batch pipeline's figure and table outputs exactly —
//! on a real `Lab` capture, at any pcap chunk size (down to one byte), and
//! at any `IOTLAN_THREADS` setting for the sharded paths — plus property
//! suites for the KMV sketch's documented guarantees. Table 4's two feeds
//! (batch in time order, stream in record order) are also checked against
//! a per-pair cross-join reference, including records that run behind
//! their stamps.

use iotlan::analysis::responses::{
    discovery_responses, rows_from_records, DeviceRecord, EXCLUDED_PROTOCOLS, HORIZON_SECS,
    RESPONSE_WINDOW_SECS,
};
use iotlan::classify::rules::{classify_with_rules, paper_rules};
use iotlan::classify::{Flow, FlowTable, Transport};
use iotlan::devices::Catalog;
use iotlan::netsim::stack::{self, Endpoint};
use iotlan::netsim::{Capture, SimDuration, SimTime};
use iotlan::stream::engine::{stream_capture, stream_captures_sharded, stream_pcaps_sharded};
use iotlan::stream::sketch::Distinct;
use iotlan::stream::{StreamEngine, StreamReport};
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::{Lab, LabConfig};
use iotlan_util::pool;
use std::collections::BTreeMap;

/// A small but real lab run: 93 devices idling plus scripted interactions.
/// Built once and shared — the capture is read-only reference data.
fn lab_capture() -> &'static (Capture, Catalog) {
    static LAB: std::sync::OnceLock<(Capture, Catalog)> = std::sync::OnceLock::new();
    LAB.get_or_init(|| {
        let mut lab = Lab::new(LabConfig {
            seed: 21,
            idle_duration: SimDuration::from_mins(2),
            interactions: 10,
            with_honeypot: true,
        });
        lab.run_idle();
        lab.run_interactions(SimDuration::from_secs(30));
        (lab.network.capture.clone(), lab.catalog)
    })
}

/// `capture` cut into three contiguous slices of its record stream.
fn contiguous_shards(capture: &Capture) -> Vec<Capture> {
    let third = capture.len() / 3;
    let ranges = [(0, third), (third, 2 * third), (2 * third, capture.len())];
    ranges
        .iter()
        .map(|&(start, end)| {
            Capture::from_frames(
                capture
                    .frames_from(start)
                    .take(end - start)
                    .map(|f| (f.time, f.data().to_vec()))
                    .collect(),
            )
        })
        .collect()
}

/// The batch pipeline's rendered artifacts for `capture`.
fn batch_renders(capture: &Capture, catalog: &Catalog) -> (String, String, String) {
    let table = FlowTable::from_capture(capture);
    (
        iotlan::analysis::graph::build_graph(&table, catalog).render(),
        iotlan::analysis::prevalence::passive_prevalence(&table, catalog).render(),
        iotlan::analysis::responses::render(&iotlan::analysis::responses::discovery_responses(
            &table, catalog,
        )),
    )
}

/// The streaming report's rendered artifacts, through the same batch
/// analysis code paths.
fn report_renders(report: &StreamReport, catalog: &Catalog) -> (String, String, String) {
    (
        report.graph(catalog).render(),
        report.prevalence(catalog).render(),
        iotlan::analysis::responses::render(&report.discovery_response_rows(catalog)),
    )
}

/// The Table 4 reference: a per-pair cross-join of every discovery
/// timestamp with every timestamp of the unicast UDP flows addressed to
/// the discovering device's same port, O(responses × discoveries). The
/// one production matcher (`analysis::responses::ResponseMatcher`) must
/// find exactly these records from either feed.
fn cross_join_records(
    table: &FlowTable,
    catalog: &Catalog,
) -> BTreeMap<EthernetAddress, DeviceRecord> {
    let rules = paper_rules();
    let udp = |flow: &Flow| matches!(flow.key.transport, Transport::Udp | Transport::UdpV6);
    let discoveries: Vec<(&Flow, &str)> = table
        .flows
        .iter()
        .filter(|flow| {
            udp(flow)
                && flow.is_multicast_or_broadcast()
                && catalog.devices.iter().any(|d| d.mac == flow.key.src_mac)
        })
        .map(|flow| (flow, classify_with_rules(flow, &rules)))
        .filter(|(_, protocol)| !EXCLUDED_PROTOCOLS.contains(protocol))
        .collect();

    let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
    for (flow, protocol) in &discoveries {
        records
            .entry(flow.key.src_mac)
            .or_default()
            .discovery_protocols
            .insert(protocol.to_string());
    }
    for response in &table.flows {
        if !udp(response) || response.is_multicast_or_broadcast() {
            continue;
        }
        let Some(device) = catalog
            .devices
            .iter()
            .find(|d| Some(d.ip) == response.key.dst_ip)
        else {
            continue;
        };
        for (discovery, protocol) in &discoveries {
            if discovery.key.src_mac != device.mac
                || discovery.key.src_port != response.key.dst_port
            {
                continue;
            }
            let in_window = response.timestamps.iter().any(|rt| {
                discovery.timestamps.iter().any(|dt| {
                    let delta = rt.as_secs_f64() - dt.as_secs_f64();
                    (0.0..=RESPONSE_WINDOW_SECS).contains(&delta)
                })
            });
            if in_window {
                let record = records.entry(device.mac).or_default();
                record.protocols_with_response.insert(protocol.to_string());
                record.responders.insert(response.key.src_mac);
            }
        }
    }
    records
}

/// Both Table 4 feeds of `capture` against the cross-join reference;
/// returns the reference records.
fn assert_table4_matches_cross_join(
    capture: &Capture,
    catalog: &Catalog,
) -> BTreeMap<EthernetAddress, DeviceRecord> {
    let table = FlowTable::from_capture(capture);
    let reference = cross_join_records(&table, catalog);
    let rows = rows_from_records(&reference, catalog);
    assert_eq!(discovery_responses(&table, catalog), rows, "batch feed");
    let report = stream_capture(capture, catalog);
    assert_eq!(report.records, reference, "stream feed");
    assert_eq!(
        report.discovery_response_rows(catalog),
        rows,
        "stream feed rows"
    );
    reference
}

#[test]
fn table4_feeds_equal_the_cross_join_on_a_lab_capture() {
    let (capture, catalog) = lab_capture();
    let reference = assert_table4_matches_cross_join(capture, catalog);
    assert!(
        reference.values().any(|r| !r.responders.is_empty()),
        "the lab capture must contain discovery/response pairs"
    );
}

#[test]
fn table4_feeds_match_records_that_run_behind_their_stamps() {
    let catalog = iotlan::devices::build_testbed();
    let endpoint = |name: &str| {
        let device = catalog.find(name).unwrap();
        Endpoint {
            mac: device.mac,
            ip: device.ip,
        }
    };
    let echo = endpoint("Amazon Echo Spot");
    let hue = endpoint("Philips Hue Bridge");
    let nest = endpoint("Google Nest Hub");
    let reply =
        iotlan::wire::ssdp::Message::response("upnp:rootdevice", "uuid-x", None, None).to_bytes();
    let msearch = iotlan::wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
    // Record order: both replies first, then the M-SEARCH they answer.
    let capture = Capture::from_frames(vec![
        // Stamped 1 s after the discovery: inside the window.
        (
            SimTime::from_secs(11),
            stack::udp_unicast(hue, echo, 1900, 51234, &reply),
        ),
        // Stamped 10 s after: outside it.
        (
            SimTime::from_secs(20),
            stack::udp_unicast(nest, echo, 1900, 51234, &reply),
        ),
        (
            SimTime::from_secs(10),
            stack::udp_multicast(
                echo,
                std::net::Ipv4Addr::new(239, 255, 255, 250),
                51234,
                1900,
                &msearch,
            ),
        ),
    ]);
    let reference = assert_table4_matches_cross_join(&capture, &catalog);
    let record = &reference[&echo.mac];
    assert!(record.protocols_with_response.contains("SSDP"));
    assert_eq!(record.responders.iter().collect::<Vec<_>>(), [&hue.mac]);
}

#[test]
fn lab_capture_skew_stays_inside_the_table4_horizon() {
    // The online matcher drops a packet once the running maximum stamp is
    // HORIZON_SECS past it. That loses no pair as long as no record's
    // stamp trails the running maximum by more than the horizon minus the
    // window.
    let (capture, _) = lab_capture();
    let mut max_stamp = 0.0f64;
    let mut max_skew = 0.0f64;
    for frame in capture.frames() {
        let secs = frame.time.as_secs_f64();
        max_stamp = max_stamp.max(secs);
        max_skew = max_skew.max(max_stamp - secs);
    }
    assert!(
        max_skew > 0.0,
        "the capture's records must run behind their stamps"
    );
    assert!(
        max_skew <= HORIZON_SECS - RESPONSE_WINDOW_SECS,
        "record-order skew {max_skew} s exceeds the Table 4 horizon's {} s budget",
        HORIZON_SECS - RESPONSE_WINDOW_SECS
    );
}

#[test]
fn lab_capture_streams_identically_at_every_chunk_size() {
    let (capture, catalog) = lab_capture();
    let batch = batch_renders(&capture, &catalog);
    let batch_table = FlowTable::from_capture(&capture);
    let batch_periodicity = iotlan::analysis::periodicity::analyze_periodicity(&batch_table);

    // Direct frame-fed path first.
    let report = stream_capture(&capture, &catalog);
    assert_eq!(report.packets, capture.len() as u64);
    assert_eq!(report_renders(&report, &catalog), batch);
    assert!(report.periodicity_exact, "lab-scale keys must stay under EVENT_CAP");
    let streamed_periodicity = report.periodicity();
    assert_eq!(
        streamed_periodicity.groups.len(),
        batch_periodicity.groups.len()
    );
    for (s, b) in streamed_periodicity
        .groups
        .iter()
        .zip(&batch_periodicity.groups)
    {
        assert_eq!(s.key, b.key);
        assert_eq!(s.events, b.events);
        assert_eq!(s.periodic, b.periodic);
        assert_eq!(s.period_secs, b.period_secs);
    }

    // Then the incremental pcap path at 1 B, 4 KiB and whole-file chunks.
    let image = capture.to_pcap();
    for chunk_size in [1usize, 4096, image.len()] {
        let mut engine = StreamEngine::new(&catalog);
        for chunk in image.chunks(chunk_size) {
            engine.push_pcap_chunk(chunk).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.packets, capture.len() as u64, "chunk {chunk_size}");
        assert_eq!(report_renders(&report, &catalog), batch, "chunk {chunk_size}");
    }
}

#[test]
fn sharded_streaming_is_thread_count_invariant() {
    let (capture, catalog) = lab_capture();
    let batch = batch_renders(&capture, &catalog);

    // A single shard is the whole capture: the pooled path must reproduce
    // the batch artifacts exactly at every worker count.
    let whole = vec![capture.clone()];
    for threads in [1usize, 4] {
        let report = pool::with_threads(threads, || stream_captures_sharded(&whole, &catalog));
        assert_eq!(
            report_renders(&report, &catalog),
            batch,
            "IOTLAN_THREADS={threads}"
        );
    }

    // Multi-shard merges (three contiguous slices of the record stream)
    // must be a pure function of the shard list, never the worker count.
    let shards = contiguous_shards(capture);
    let images: Vec<Vec<u8>> = shards.iter().map(|s| s.to_pcap()).collect();
    let summarize = |report: &StreamReport| {
        (
            report.packets,
            report.flow_keys,
            report_renders(report, &catalog),
        )
    };
    let reference = summarize(&pool::with_threads(1, || {
        stream_captures_sharded(&shards, &catalog)
    }));
    for threads in [1usize, 4] {
        let frame_fed =
            pool::with_threads(threads, || stream_captures_sharded(&shards, &catalog));
        assert_eq!(summarize(&frame_fed), reference, "IOTLAN_THREADS={threads}");
        let pcap_fed = pool::with_threads(threads, || {
            stream_pcaps_sharded(&images, 4096, &catalog).unwrap()
        });
        assert_eq!(summarize(&pcap_fed), reference, "pcap IOTLAN_THREADS={threads}");
    }
}

#[test]
fn merged_contiguous_shards_equal_one_pass() {
    // Merging flow tables in input order is one pass over the concatenated
    // frames, so every flow-table artifact survives the split exactly —
    // including flows whose packets straddle a shard boundary.
    let (capture, catalog) = lab_capture();
    let whole = stream_capture(capture, catalog);
    let merged = stream_captures_sharded(&contiguous_shards(capture), catalog);
    assert_eq!(merged.packets, whole.packets);
    assert_eq!(merged.flow_keys, whole.flow_keys);
    assert_eq!(
        merged.graph(catalog).render(),
        whole.graph(catalog).render(),
        "Fig. 1 graph"
    );
    assert_eq!(
        merged.prevalence(catalog).render(),
        whole.prevalence(catalog).render(),
        "Fig. 2 prevalence"
    );
    assert!(merged.periodicity_exact && whole.periodicity_exact);
    assert_eq!(
        merged.periodicity_groups, whole.periodicity_groups,
        "App. D.1 event series"
    );
}

iotlan_util::props! {
    /// KMV is exact below k distinct keys and within its documented
    /// relative standard error (1/sqrt(k-2)) above it.
    fn distinct_counter_within_documented_error(g) {
        let k = 256usize;
        let mut sketch = Distinct::new(k, g.u64());
        let base = g.u64();
        let n = g.int_in(1u64..=20_000);
        for i in 0..n {
            let key = (base.wrapping_add(i)).to_le_bytes();
            sketch.insert(&key);
            sketch.insert(&key); // duplicates never count
        }
        let estimate = sketch.estimate();
        if (n as usize) < k {
            assert_eq!(estimate, n as f64, "must be exact below k");
        } else {
            let rse = 1.0 / ((k as f64) - 2.0).sqrt();
            let relative = (estimate - n as f64).abs() / n as f64;
            assert!(
                relative < 6.0 * rse,
                "relative error {relative} exceeds 6x documented RSE {rse}"
            );
        }
    }

    /// KMV merges are associative and commutative: shard grouping can
    /// never change a merged estimate.
    fn sketch_merges_are_associative(g) {
        let seed = g.u64();
        let mut kmvs: Vec<Distinct> = (0..3).map(|_| Distinct::new(8, seed)).collect();
        for kmv in &mut kmvs {
            let items = g.vec_of(0, 60, |g| g.int_in(0u64..=40));
            for item in items {
                kmv.insert(&item.to_le_bytes());
            }
        }
        // ((a + b) + c) == (a + (b + c)), as full-state equality.
        let mut kmv_left = kmvs[0].clone();
        kmv_left.merge(&kmvs[1]);
        kmv_left.merge(&kmvs[2]);
        let mut kmv_bc = kmvs[1].clone();
        kmv_bc.merge(&kmvs[2]);
        let mut kmv_right = kmvs[0].clone();
        kmv_right.merge(&kmv_bc);
        assert_eq!(kmv_left, kmv_right);
        let mut kmv_swapped = kmvs[1].clone();
        kmv_swapped.merge(&kmvs[0]);
        let mut kmv_ordered = kmvs[0].clone();
        kmv_ordered.merge(&kmvs[1]);
        assert_eq!(kmv_ordered, kmv_swapped, "KMV union must commute");
    }
}
