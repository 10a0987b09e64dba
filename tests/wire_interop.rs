//! Cross-crate wire interop tests: payloads built by the device models are
//! parseable by every consumer (classifier, honeypot, phone, analysis) and
//! survive the pcap round trip — the "would Wireshark agree?" suite.

use iotlan::classify::{ndpi, rules, truth, tshark, FlowLabels, FlowTable};
use iotlan::netsim::SimDuration;
use iotlan::wire::{dns, pcap, ssdp};
use iotlan::{Lab, LabConfig};
use std::collections::BTreeSet;

fn lab_capture() -> Lab {
    let mut lab = Lab::new(LabConfig {
        seed: 2024,
        idle_duration: SimDuration::from_mins(5),
        interactions: 10,
        with_honeypot: true,
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_secs(20));
    lab
}

/// Every frame in a capture must be structurally parseable down to the
/// transport layer (or be a known L2 form) — no device model emits bytes
/// our own stack cannot dissect.
#[test]
fn all_emitted_frames_dissect() {
    let lab = lab_capture();
    let mut undissected = 0usize;
    for frame in lab.network.capture.frames() {
        if iotlan::netsim::stack::dissect(frame.data()).is_none() {
            // 802.3/LLC frames have no IP layer and dissect to OtherEther…
            // dissect() returns Some(OtherEther) for them, so None means a
            // genuinely broken frame.
            undissected += 1;
        }
    }
    assert_eq!(undissected, 0, "{undissected} frames failed to dissect");
}

/// Every mDNS datagram in the capture parses as a DNS message; every SSDP
/// datagram parses as an SSDP message. (The strict-parser pass the paper's
/// manual validation performed.)
#[test]
fn discovery_payloads_strictly_valid() {
    let lab = lab_capture();
    let table = FlowTable::from_capture(&lab.network.capture);
    let mut mdns = 0;
    let mut ssdp_count = 0;
    for flow in &table.flows {
        if flow.key.dst_port == 5353 || flow.key.src_port == 5353 {
            for payload in &flow.payload_samples {
                dns::Message::parse(payload).expect("mDNS payload must parse");
                mdns += 1;
            }
        }
        if flow.key.dst_port == 1900 || flow.key.src_port == 1900 {
            for payload in &flow.payload_samples {
                ssdp::Message::parse(payload).expect("SSDP payload must parse");
                ssdp_count += 1;
            }
        }
    }
    assert!(mdns > 20, "mdns payloads {mdns}");
    assert!(ssdp_count > 10, "ssdp payloads {ssdp_count}");
}

/// The protocol diversity the paper reports: ≥15 distinct ground-truth
/// labels in a single idle capture (§4.1 found 21 over five days).
#[test]
fn protocol_diversity() {
    let lab = lab_capture();
    let table = FlowTable::from_capture(&lab.network.capture);
    let labels: BTreeSet<&str> = table.labels().iter().map(|l| l.truth).collect();
    assert!(
        labels.len() >= 15,
        "only {} labels: {labels:?}",
        labels.len()
    );
    for expected in [
        "ARP",
        "DHCP",
        "DHCPv6",
        "EAPOL",
        "ICMP",
        "ICMPv6",
        "IGMP",
        "mDNS",
        "SSDP",
        "TLS",
        "TPLINK_SHP",
        "TuyaLP",
        "LIFX",
        "UNKNOWN-L3",
    ] {
        assert!(labels.contains(expected), "missing {expected}: {labels:?}");
    }
}

/// Each label of the `fast` idle capture's flows is its classifier core
/// applied to a fresh ground-truth parse of the flow: the table's one label
/// pass feeds every consumer what the classifiers would say.
#[test]
fn fast_idle_labels_are_their_classifier_cores() {
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    let table = FlowTable::from_capture(&lab.network.capture);
    assert_eq!(table.labels().len(), table.len());
    for (flow, labels) in table.flows.iter().zip(table.labels()) {
        let truth = truth::label_flow(flow);
        let ndpi = ndpi::classify_with_truth(flow, truth);
        let expected = FlowLabels {
            truth,
            ndpi,
            tshark: tshark::classify_with_truth(flow, truth),
            paper: rules::correct(flow, ndpi),
        };
        assert_eq!(*labels, expected, "{:?}", flow.key);
    }
}

/// pcap export is byte-faithful and per-MAC splits partition correctly.
#[test]
fn per_mac_pcap_partition() {
    let lab = lab_capture();
    let whole = pcap::read_pcap(&lab.network.capture.to_pcap()).unwrap();
    // Sum of per-MAC unicast frames + shared multicast must cover the
    // whole capture; test a sample device's file is a strict subset.
    let echo = lab.catalog.find("Amazon Echo Spot").unwrap();
    let per_mac = pcap::read_pcap(&lab.network.capture.to_pcap_for_mac(echo.mac)).unwrap();
    assert!(!per_mac.is_empty());
    assert!(per_mac.len() < whole.len());
    let whole_set: BTreeSet<&[u8]> = whole.iter().map(|p| p.data.as_slice()).collect();
    for packet in &per_mac {
        assert!(whole_set.contains(packet.data.as_slice()));
    }
}

/// The XID/LLC association probes appear as non-IP broadcast traffic —
/// the Figure 2 "XID/LLC" bar — and classify as UNKNOWN-L3.
#[test]
fn xid_llc_probes_present() {
    let lab = lab_capture();
    let table = FlowTable::from_capture(&lab.network.capture);
    let xid_flows = table
        .flows
        .iter()
        .filter(|f| {
            matches!(f.key.transport, iotlan::classify::flow::Transport::L2(len) if len < 0x600)
        })
        .count();
    // 84% of 93 devices emit one at association.
    assert!(xid_flows >= 70, "xid flows {xid_flows}");
}

/// The Appendix C.1 filter keeps the entire testbed capture: everything in
/// the lab is local, and the three keep-reasons all occur.
#[test]
fn local_filter_covers_capture() {
    use iotlan::classify::localfilter::{filter_capture, KeepReason, LocalSubnet};
    let lab = lab_capture();
    let kept = filter_capture(&lab.network.capture, LocalSubnet::lab_default());
    assert_eq!(
        kept.len(),
        lab.network.capture.len(),
        "all lab traffic is local"
    );
    let mut reasons = std::collections::BTreeMap::new();
    for (_, reason) in &kept {
        *reasons
            .entry(match reason {
                KeepReason::LocalIpUnicast => "unicast-ip",
                KeepReason::MulticastOrBroadcast => "mcast",
                KeepReason::NonIpUnicast => "non-ip",
            })
            .or_insert(0usize) += 1;
    }
    assert!(reasons["unicast-ip"] > 0);
    assert!(reasons["mcast"] > 0);
    assert!(reasons["non-ip"] > 0, "{reasons:?}");

    // And it rejects a synthetic Internet-bound frame.
    use iotlan::classify::localfilter::classify_frame;
    use iotlan::netsim::stack::{self, Endpoint};
    let device = lab.catalog.find("Google Nest Hub").unwrap();
    let cloud = Endpoint {
        mac: iotlan::netsim::router::GATEWAY_MAC,
        ip: std::net::Ipv4Addr::new(8, 8, 8, 8),
    };
    let frame = stack::udp_unicast(
        Endpoint {
            mac: device.mac,
            ip: device.ip,
        },
        cloud,
        40000,
        443,
        b"cloud checkin",
    );
    assert_eq!(classify_frame(&frame, LocalSubnet::lab_default()), None);
}
