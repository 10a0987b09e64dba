//! Property tests for the classification stack: no classifier may panic on
//! arbitrary traffic, the manual rules never *introduce* errors on clean
//! protocols, and flow assembly is insensitive to frame order for
//! order-free aggregates.

use iotlan_classify::crossval;
use iotlan_classify::flow::FlowTable;
use iotlan_netsim::stack::{self, Endpoint};
use iotlan_netsim::SimTime;
use iotlan_util::props;
use iotlan_wire::ethernet::EthernetAddress;
use std::net::Ipv4Addr;

fn ep(last: u8) -> Endpoint {
    Endpoint {
        mac: EthernetAddress([2, 0, 0, 0, 0, last.max(1)]),
        ip: Ipv4Addr::new(192, 168, 10, last.max(1)),
    }
}

props! {
    /// Arbitrary UDP payloads to arbitrary ports: every classifier returns
    /// a label, none panics, and they never disagree about the L2/L3 class.
    fn classifiers_total_on_random_udp(g) {
        let src = g.int_in(1u8..250);
        let dst = g.int_in(1u8..250);
        let sport = g.int_in(1u16..65535);
        let dport = g.int_in(1u16..65535);
        let payload = g.bytes(255);
        let mut table = FlowTable::default();
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_unicast(ep(src), ep(dst), sport, dport, &payload),
        );
        for labels in table.labels() {
            for label in [labels.truth, labels.ndpi, labels.tshark, labels.paper] {
                assert!(!label.is_empty());
            }
        }
    }

    /// Random TCP payloads: same totality property.
    fn classifiers_total_on_random_tcp(g) {
        let sport = g.int_in(1u16..65535);
        let dport = g.int_in(1u16..65535);
        let payload = g.bytes(127);
        let mut table = FlowTable::default();
        table.add_frame(
            SimTime::ZERO,
            &stack::tcp_segment(
                ep(1),
                ep(2),
                &iotlan_wire::tcp::Repr::data(sport, dport, 1, 1, payload.len()),
                &payload,
            ),
        );
        for labels in table.labels() {
            for label in [labels.truth, labels.ndpi, labels.tshark, labels.paper] {
                assert!(!label.is_empty());
            }
        }
    }

    /// On well-formed mDNS traffic, the manual rules never change a correct
    /// nDPI answer (the overlay only corrects documented errors).
    fn rules_preserve_correct_mdns(g) {
        let names = g.vec_of(1, 2, |g| g.label(1, 10));
        let questions: Vec<(&str, iotlan_wire::dns::RecordType)> = names
            .iter()
            .map(|n| (n.as_str(), iotlan_wire::dns::RecordType::Ptr))
            .collect();
        let query = iotlan_wire::dns::Message::mdns_query(&questions);
        let mut table = FlowTable::default();
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_multicast(
                ep(1),
                Ipv4Addr::new(224, 0, 0, 251),
                5353,
                5353,
                &query.to_bytes(),
            ),
        );
        let labels = table.labels()[0];
        assert_eq!(labels.ndpi, "mDNS");
        assert_eq!(labels.paper, "mDNS");
    }

    /// Flow aggregates (count, total packets) are invariant under frame
    /// reordering.
    fn flow_aggregates_order_invariant(g) {
        let seed = g.int_in(0u64..1000);
        let mut frames = Vec::new();
        for i in 0..20u8 {
            frames.push(stack::udp_unicast(
                ep(1 + i % 3),
                ep(10 + i % 2),
                1000 + u16::from(i % 4),
                53,
                &[i; 8],
            ));
        }
        let mut forward = FlowTable::default();
        for (i, frame) in frames.iter().enumerate() {
            forward.add_frame(SimTime::from_secs(i as u64), frame);
        }
        // Deterministic shuffle from the seed.
        let mut shuffled = frames.clone();
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut backward = FlowTable::default();
        for (i, frame) in shuffled.iter().enumerate() {
            backward.add_frame(SimTime::from_secs(i as u64), frame);
        }
        assert_eq!(forward.len(), backward.len());
        assert_eq!(forward.total_packets(), backward.total_packets());
    }

    /// Cross-validation statistics are well-formed for any traffic mix:
    /// fractions in [0,1] and labeled+unlabeled consistent.
    fn crossval_fractions_well_formed(g) {
        let frames = g.vec_of(1, 29, |g| {
            (
                g.int_in(1u8..250),
                g.int_in(1u8..250),
                g.int_in(1u16..65535),
                g.int_in(1u16..65535),
                g.bytes(63),
            )
        });
        let mut table = FlowTable::default();
        for (i, (src, dst, sport, dport, payload)) in frames.iter().enumerate() {
            table.add_frame(
                SimTime::from_secs(i as u64),
                &stack::udp_unicast(ep(*src), ep(*dst), *sport, *dport, payload),
            );
        }
        let cv = crossval::cross_validate(&table);
        let a = cv.agreement;
        for fraction in [a.tshark_labeled, a.ndpi_labeled, a.disagree, a.neither] {
            assert!((0.0..=1.0).contains(&fraction), "{fraction}");
        }
        assert_eq!(a.total_flows as usize, table.len());
        assert_eq!(cv.matrix.total as usize, table.len());
    }
}
