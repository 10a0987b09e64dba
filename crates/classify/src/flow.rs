//! RFC 6146 flow assembly: "a chronologically ordered set of TCP segments /
//! UDP datagrams with the same 5-tuple combination (source IP, source port,
//! destination IP, destination port, transport protocol)" (Appendix C.2).
//!
//! Non-IP traffic (ARP, EAPOL, vendor L2) and non-transport IP traffic
//! (ICMP, IGMP) become pseudo-flows so the classifier comparison covers
//! every captured frame, as the paper's 366K-packet corpus did.

use iotlan_netsim::stack::{self, Content};
use iotlan_netsim::{Capture, SimTime};
use iotlan_wire::ethernet::{EthernetAddress, Frame};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Transport discriminator for flow keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    Udp,
    Tcp,
    Icmp,
    Igmp,
    IcmpV6,
    UdpV6,
    OtherIp(u8),
    /// Non-IP Ethernet traffic keyed by EtherType.
    L2(u16),
}

/// A flow key. For L2 and non-port traffic the port fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    pub transport: Transport,
    pub src_ip: Option<Ipv4Addr>,
    pub dst_ip: Option<Ipv4Addr>,
    pub src_port: u16,
    pub dst_port: u16,
    /// Source MAC (used for L2 flows and device attribution).
    pub src_mac: EthernetAddress,
}

/// An assembled flow with the evidence classifiers need.
#[derive(Debug, Clone)]
pub struct Flow {
    pub key: FlowKey,
    pub packets: u64,
    pub bytes: u64,
    pub first_seen: SimTime,
    pub last_seen: SimTime,
    /// Destination MAC of the first frame (multicast/broadcast detection).
    pub dst_mac: EthernetAddress,
    /// Up to [`MAX_SAMPLES`] initial payloads, for signature matching.
    pub payload_samples: Vec<Vec<u8>>,
    /// Per-packet arrival times (for the periodicity analysis).
    pub timestamps: Vec<SimTime>,
}

/// How many initial payloads each flow retains.
pub const MAX_SAMPLES: usize = 3;

impl Flow {
    /// True when the flow is multicast or broadcast at the Ethernet layer —
    /// the `eth.dst.ig == 1` clause of the paper's local-traffic filter.
    pub fn is_multicast_or_broadcast(&self) -> bool {
        self.dst_mac.is_multicast()
    }

    /// The first non-empty payload sample.
    pub fn first_payload(&self) -> Option<&[u8]> {
        self.payload_samples
            .iter()
            .find(|p| !p.is_empty())
            .map(|p| p.as_slice())
    }
}

/// One dissected frame: the flow key it belongs to plus the per-frame
/// evidence flow assembly records. The streaming engine dissects each
/// frame once, reads this, and hands it to [`FlowTable::add_evidence`].
#[derive(Debug, Clone, Copy)]
pub struct FrameEvidence<'a> {
    pub key: FlowKey,
    /// Destination MAC of this frame.
    pub dst_mac: EthernetAddress,
    /// Transport payload, when the frame carries one.
    pub payload: Option<&'a [u8]>,
}

/// Dissect a raw Ethernet frame into its flow key and evidence. Returns
/// `None` only when the frame is too short to carry an Ethernet header —
/// every longer frame maps to some (possibly L2 pseudo-) flow.
pub fn dissect_frame(data: &[u8]) -> Option<FrameEvidence<'_>> {
    let eth = Frame::new_checked(data).ok()?;
    let src_mac = eth.src_addr();
    let dst_mac = eth.dst_addr();
    let ethertype = eth.ethertype();

    let l2_key = FlowKey {
        transport: Transport::L2(u16::from(ethertype)),
        src_ip: None,
        dst_ip: None,
        src_port: 0,
        dst_port: 0,
        src_mac,
    };
    let (key, payload): (FlowKey, Option<&[u8]>) = match stack::dissect(data) {
        Some(d) => match d.content {
            Content::UdpV4 {
                src,
                dst,
                sport,
                dport,
                payload,
            } => (
                FlowKey {
                    transport: Transport::Udp,
                    src_ip: Some(src),
                    dst_ip: Some(dst),
                    src_port: sport,
                    dst_port: dport,
                    src_mac,
                },
                Some(payload),
            ),
            Content::TcpV4 {
                src,
                dst,
                ref repr,
                payload,
            } => (
                FlowKey {
                    transport: Transport::Tcp,
                    src_ip: Some(src),
                    dst_ip: Some(dst),
                    src_port: repr.src_port,
                    dst_port: repr.dst_port,
                    src_mac,
                },
                Some(payload),
            ),
            Content::IcmpV4 { src, dst, .. } => (
                FlowKey {
                    transport: Transport::Icmp,
                    src_ip: Some(src),
                    dst_ip: Some(dst),
                    src_port: 0,
                    dst_port: 0,
                    src_mac,
                },
                None,
            ),
            Content::Igmp { src, dst, .. } => (
                FlowKey {
                    transport: Transport::Igmp,
                    src_ip: Some(src),
                    dst_ip: Some(dst),
                    src_port: 0,
                    dst_port: 0,
                    src_mac,
                },
                None,
            ),
            Content::IcmpV6 { .. } => (
                FlowKey {
                    transport: Transport::IcmpV6,
                    src_ip: None,
                    dst_ip: None,
                    src_port: 0,
                    dst_port: 0,
                    src_mac,
                },
                None,
            ),
            Content::UdpV6 {
                sport,
                dport,
                payload,
                ..
            } => (
                FlowKey {
                    transport: Transport::UdpV6,
                    src_ip: None,
                    dst_ip: None,
                    src_port: sport,
                    dst_port: dport,
                    src_mac,
                },
                Some(payload),
            ),
            Content::OtherIpv4 { src, dst, protocol } => (
                FlowKey {
                    transport: Transport::OtherIp(u8::from(protocol)),
                    src_ip: Some(src),
                    dst_ip: Some(dst),
                    src_port: 0,
                    dst_port: 0,
                    src_mac,
                },
                None,
            ),
            Content::Arp(_) | Content::OtherEther => (l2_key, None),
        },
        // Undissectable (corrupt/unknown): L2 pseudo-flow.
        None => (l2_key, None),
    };
    Some(FrameEvidence {
        key,
        dst_mac,
        payload,
    })
}

/// The assembled flow table for one capture.
#[derive(Debug, Clone)]
pub struct FlowTable {
    pub flows: Vec<Flow>,
    index: HashMap<FlowKey, usize>,
    /// Arrival times kept per flow; later packets are still counted.
    timestamp_cap: usize,
}

impl Default for FlowTable {
    /// An empty table that keeps every timestamp.
    fn default() -> FlowTable {
        FlowTable::with_timestamp_cap(usize::MAX)
    }
}

impl FlowTable {
    /// An empty table that keeps at most `cap` arrival times per flow, so
    /// its size follows the flow count rather than the packet count.
    pub fn with_timestamp_cap(cap: usize) -> FlowTable {
        FlowTable {
            flows: Vec::new(),
            index: HashMap::new(),
            timestamp_cap: cap,
        }
    }

    /// Assemble flows from a capture, respecting the paper's local-traffic
    /// filter (Appendix C.1): keep local↔local IP traffic, all Ethernet
    /// multicast/broadcast, and non-IP unicast.
    pub fn from_capture(capture: &Capture) -> FlowTable {
        let mut table = FlowTable::default();
        for frame in capture.frames() {
            table.add_frame(frame.time, frame.data());
        }
        table
    }

    /// Add one raw frame.
    pub fn add_frame(&mut self, time: SimTime, data: &[u8]) {
        if let Some(evidence) = dissect_frame(data) {
            self.add_evidence(time, data.len(), evidence);
        }
    }

    /// Add one frame already dissected by [`dissect_frame`]; `frame_len` is
    /// its length on the wire. Returns the index of its flow in `flows`.
    pub fn add_evidence(
        &mut self,
        time: SimTime,
        frame_len: usize,
        evidence: FrameEvidence<'_>,
    ) -> usize {
        let FrameEvidence {
            key,
            dst_mac,
            payload,
        } = evidence;
        let payload = payload.filter(|p| !p.is_empty());
        let index = *self.index.entry(key).or_insert_with(|| {
            self.flows.push(Flow {
                key,
                packets: 0,
                bytes: 0,
                first_seen: time,
                last_seen: time,
                dst_mac,
                payload_samples: Vec::new(),
                timestamps: Vec::new(),
            });
            self.flows.len() - 1
        });
        let flow = &mut self.flows[index];
        flow.packets += 1;
        flow.bytes += frame_len as u64;
        flow.last_seen = time;
        if flow.timestamps.len() < self.timestamp_cap {
            flow.timestamps.push(time);
        }
        if let Some(p) = payload {
            if flow.payload_samples.len() < MAX_SAMPLES {
                flow.payload_samples.push(p.to_vec());
            }
        }
        index
    }

    /// True when every flow kept all of its arrival times.
    pub fn timestamps_complete(&self) -> bool {
        self.flows
            .iter()
            .all(|flow| flow.timestamps.len() as u64 == flow.packets)
    }

    pub fn len(&self) -> usize {
        self.flows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total packets across all flows.
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.packets).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_netsim::stack::Endpoint;

    fn ep(last: u8) -> Endpoint {
        Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: Ipv4Addr::new(192, 168, 10, last),
        }
    }

    #[test]
    fn five_tuple_grouping() {
        let mut table = FlowTable::default();
        let t = SimTime::from_secs(1);
        // Two datagrams of one flow + one of another.
        table.add_frame(t, &stack::udp_unicast(ep(1), ep(2), 1000, 53, b"q1"));
        table.add_frame(
            SimTime::from_secs(2),
            &stack::udp_unicast(ep(1), ep(2), 1000, 53, b"q2"),
        );
        table.add_frame(t, &stack::udp_unicast(ep(1), ep(2), 1001, 53, b"q3"));
        assert_eq!(table.len(), 2);
        assert_eq!(table.total_packets(), 3);
        let big = table.flows.iter().find(|f| f.packets == 2).unwrap();
        assert_eq!(big.payload_samples.len(), 2);
        assert_eq!(big.first_seen, SimTime::from_secs(1));
        assert_eq!(big.last_seen, SimTime::from_secs(2));
    }

    #[test]
    fn l2_and_icmp_pseudo_flows() {
        let mut table = FlowTable::default();
        let request = iotlan_wire::arp::Repr::request(ep(1).mac, ep(1).ip, ep(2).ip);
        table.add_frame(SimTime::ZERO, &stack::arp_frame(&request));
        let ping = iotlan_wire::icmpv4::Repr {
            message: iotlan_wire::icmpv4::Message::EchoRequest { ident: 1, seq: 1 },
            payload_len: 0,
        };
        table.add_frame(
            SimTime::ZERO,
            &stack::icmpv4_frame(ep(1), ep(2), &ping, &[]),
        );
        assert_eq!(table.len(), 2);
        assert!(table
            .flows
            .iter()
            .any(|f| matches!(f.key.transport, Transport::L2(0x0806))));
        assert!(table
            .flows
            .iter()
            .any(|f| f.key.transport == Transport::Icmp));
    }

    #[test]
    fn multicast_detection() {
        let mut table = FlowTable::default();
        let frame = stack::udp_multicast(ep(1), Ipv4Addr::new(224, 0, 0, 251), 5353, 5353, b"x");
        table.add_frame(SimTime::ZERO, &frame);
        assert!(table.flows[0].is_multicast_or_broadcast());
    }

    #[test]
    fn sample_cap() {
        let mut table = FlowTable::default();
        for i in 0..10u8 {
            table.add_frame(
                SimTime::from_secs(u64::from(i)),
                &stack::udp_unicast(ep(1), ep(2), 7, 8, &[i; 4]),
            );
        }
        assert_eq!(table.flows[0].payload_samples.len(), MAX_SAMPLES);
        assert_eq!(table.flows[0].timestamps.len(), 10);
    }

    /// Frames from three flows, with payloads, interleaved over time.
    fn mixed_frames() -> Vec<(SimTime, Vec<u8>)> {
        (0..24u8)
            .map(|i| {
                let frame = match i % 3 {
                    0 => stack::udp_unicast(ep(1), ep(2), 7, 8, &[i; 4]),
                    1 => {
                        stack::udp_multicast(ep(2), Ipv4Addr::new(224, 0, 0, 251), 5353, 5353, &[i])
                    }
                    _ => stack::udp_unicast(ep(3), ep(1), 9, 10, &[]),
                };
                (SimTime::from_secs(u64::from(i)), frame)
            })
            .collect()
    }

    fn table_of(frames: &[(SimTime, Vec<u8>)], cap: usize) -> FlowTable {
        let mut table = FlowTable::with_timestamp_cap(cap);
        for (time, data) in frames {
            table.add_frame(*time, data);
        }
        table
    }

    #[test]
    fn timestamp_cap_keeps_counts() {
        let table = table_of(&mixed_frames(), 5);
        assert_eq!(table.total_packets(), 24);
        assert!(table.flows.iter().all(|f| f.timestamps.len() == 5));
        assert!(!table.timestamps_complete());
        assert!(table_of(&mixed_frames(), 8).timestamps_complete());
    }

    #[test]
    fn add_evidence_returns_the_flow_index() {
        let mut table = FlowTable::default();
        for (time, data) in mixed_frames() {
            let evidence = dissect_frame(&data).unwrap();
            let key = evidence.key;
            let index = table.add_evidence(time, data.len(), evidence);
            assert_eq!(table.flows[index].key, key);
        }
        assert_eq!(table.len(), 3);
    }
}
