//! RFC 6146 flow assembly: "a chronologically ordered set of TCP segments /
//! UDP datagrams with the same 5-tuple combination (source IP, source port,
//! destination IP, destination port, transport protocol)" (Appendix C.2).
//!
//! Non-IP traffic (ARP, EAPOL, vendor L2) and non-transport IP traffic
//! (ICMP, IGMP) become pseudo-flows so the classifier comparison covers
//! every captured frame, as the paper's 366K-packet corpus did.

use crate::{ndpi, rules, truth, tshark, Label};
use iotlan_netsim::stack::{self, Content};
use iotlan_netsim::{Capture, SimTime};
use iotlan_util::pool;
use iotlan_wire::ethernet::{EthernetAddress, Frame};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    pub transport: Transport,
    pub src_ip: Option<Ipv4Addr>,
    pub dst_ip: Option<Ipv4Addr>,
    pub src_port: u16,
    pub dst_port: u16,
    /// Source MAC (used for L2 flows and device attribution).
    pub src_mac: EthernetAddress,
}

impl FlowKey {
    /// Every field packed into three words, one-to-one: equal keys give
    /// equal words and distinct keys distinct ones.
    fn words(&self) -> [u64; 3] {
        let (tag, arg) = match self.transport {
            Transport::Udp => (0, 0),
            Transport::Tcp => (1, 0),
            Transport::Icmp => (2, 0),
            Transport::Igmp => (3, 0),
            Transport::IcmpV6 => (4, 0),
            Transport::UdpV6 => (5, 0),
            Transport::OtherIp(protocol) => (6, u64::from(protocol)),
            Transport::L2(ethertype) => (7, u64::from(ethertype)),
        };
        let ip = |ip: Option<Ipv4Addr>| ip.map_or(0, |ip| u64::from(u32::from(ip)));
        let mut mac = [0u8; 8];
        mac[..6].copy_from_slice(&self.src_mac.0);
        [
            ip(self.src_ip) | ip(self.dst_ip) << 32,
            u64::from_le_bytes(mac) | u64::from(self.src_port) << 48,
            u64::from(self.dst_port)
                | tag << 16
                | arg << 24
                | u64::from(self.src_ip.is_some()) << 40
                | u64::from(self.dst_ip.is_some()) << 41,
        ]
    }
}

/// Three word writes in place of the derived field-by-field hash, whose
/// many small writes (enum tags, `Option` tags, length-prefixed address
/// octets) cost more than the table lookup they feed. Consistent with
/// `Eq` because [`FlowKey::words`] is a function of the fields.
impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.words() {
            state.write_u64(word);
        }
    }
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

/// Every label an artifact reads for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowLabels {
    /// The strict-parse ground truth (`truth::label_flow`).
    pub truth: Label,
    /// The nDPI model's label: Fig. 3's rows.
    pub ndpi: Label,
    /// The tshark model's label: Fig. 3's columns.
    pub tshark: Label,
    /// nDPI's label after the paper's corrections (§3.5): what Fig. 2,
    /// Tables 1/4/5, §5.1 and App. D.1 read.
    pub paper: Label,
}

impl FlowLabels {
    /// Label one flow: parse its payload once for the truth, derive both
    /// tools' labels from it, then correct nDPI's.
    fn of(flow: &Flow) -> FlowLabels {
        let truth = truth::label_flow(flow);
        let ndpi = ndpi::classify_with_truth(flow, truth);
        FlowLabels {
            truth,
            ndpi,
            tshark: tshark::classify_with_truth(flow, truth),
            paper: rules::correct(flow, ndpi),
        }
    }
}

/// The assembled flow table for one capture.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// The flows in first-seen order. Read it freely, but mutate it only
    /// through [`FlowTable::add_evidence`] (or the `add_frame` and
    /// `from_capture` built on it): that is what clears the label memo, so
    /// any other writer would leave [`FlowTable::labels`] stale.
    pub flows: Vec<Flow>,
    index: HashMap<FlowKey, usize>,
    /// Arrival times kept per flow; later packets are still counted.
    timestamp_cap: usize,
    /// Bytes of the arrival times and payload samples the flows keep.
    evidence_bytes: usize,
    /// The labels of each flow, in `flows` order, filled on the first
    /// [`FlowTable::labels`] call.
    labels: OnceLock<Vec<FlowLabels>>,
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
            evidence_bytes: 0,
            labels: OnceLock::new(),
        }
    }

    /// Assemble flows from every frame of a capture. No filter is applied:
    /// the lab captures only local traffic, and
    /// `tests/wire_interop.rs::local_filter_covers_capture` shows that the
    /// Appendix C.1 filter keeps every frame.
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
        self.labels.take();
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
            self.evidence_bytes += std::mem::size_of::<SimTime>();
        }
        if let Some(p) = payload {
            if flow.payload_samples.len() < MAX_SAMPLES {
                flow.payload_samples.push(p.to_vec());
                self.evidence_bytes += p.len();
            }
        }
        index
    }

    /// Bytes of the arrival times and payload samples the flows keep, kept
    /// up to date as frames are added: `size_of::<SimTime>()` per kept
    /// time plus each kept sample's length.
    pub fn evidence_bytes(&self) -> usize {
        self.evidence_bytes
    }

    /// The labels of every flow, in `flows` order, computed once across
    /// the pool and kept until the next frame is added. Labels are a pure
    /// function of the flow's key and first payload, so the vector is the
    /// same at any thread count. Call it before entering a pool region,
    /// never inside one.
    pub fn labels(&self) -> &[FlowLabels] {
        self.labels.get_or_init(|| {
            iotlan_telemetry::counter!("classify.flows_labelled").add(self.flows.len() as u64);
            pool::par_map(&self.flows, |_, flow| FlowLabels::of(flow))
        })
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
    use iotlan_util::check::Gen;
    use iotlan_wire::{dhcpv4, dns, http, rtp, ssdp, stun, tls, tplink, tuya};

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

    /// Truncate a payload, flip one of its bits or empty it, each
    /// sometimes, as a lossy medium or a handshake-only flow would.
    fn mangle(g: &mut Gen, mut payload: Vec<u8>) -> Vec<u8> {
        match g.int_in(0u8..6) {
            0 if !payload.is_empty() => {
                let len = g.int_in(0..payload.len());
                payload.truncate(len);
            }
            1 if !payload.is_empty() => {
                let at = g.int_in(0..payload.len());
                payload[at] ^= 1 << g.int_in(0u8..8);
            }
            2 => payload.clear(),
            _ => {}
        }
        payload
    }

    /// One frame of a protocol the classifiers tell apart, from a few
    /// hosts and ports so that flows repeat, its payload sometimes mangled.
    fn protocol_frame(g: &mut Gen) -> Vec<u8> {
        let src = ep(g.int_in(1u8..5));
        let dst = ep(g.int_in(5u8..8));
        let sport = [1900, 5353, 40000, 40003, 50004][g.int_in(0usize..5)];
        let kind = g.int_in(0u8..12);
        if kind == 10 {
            let request = iotlan_wire::arp::Repr::request(src.mac, src.ip, dst.ip);
            return stack::arp_frame(&request);
        }
        if kind == 11 {
            // EAPOL-Start to the PAE group, sometimes from a Nintendo OUI.
            let mut frame = vec![0x01, 0x80, 0xc2, 0x00, 0x00, 0x03];
            let mut mac = src.mac.0;
            if g.bool() {
                mac[..3].copy_from_slice(&[0x98, 0xb6, 0xe9]);
            }
            frame.extend_from_slice(&mac);
            frame.extend_from_slice(&[0x88, 0x8e, 0x02, 0x01, 0x00, 0x00]);
            return frame;
        }
        let payload = match kind {
            0 => dns::Message::mdns_query(&[("_hue._tcp.local", dns::RecordType::Ptr)]).to_bytes(),
            1 => ssdp::Message::msearch("ssdp:all", 3).to_bytes(),
            2 => ssdp::Message::response("upnp:rootdevice", "u", None, None).to_bytes(),
            3 => {
                dhcpv4::Repr::discover(7, src.mac, Some("plug".into()), None, vec![1, 3]).to_bytes()
            }
            4 => tplink::Message::get_sysinfo().to_udp_bytes(),
            5 => tuya::Frame::discovery("gw", "pk", "192.168.10.5", "3.3").to_bytes(),
            6 => {
                let mut rtp = rtp::Header {
                    payload_type: 97,
                    sequence: 1,
                    timestamp: 0,
                    ssrc: 7,
                    marker: false,
                    csrc_count: 0,
                }
                .to_bytes();
                rtp.extend_from_slice(&[0xAD; 32]);
                rtp
            }
            7 => stun::Header {
                kind: stun::MessageKind::BindingRequest,
                length: 0,
                transaction_id: [1; 12],
            }
            .to_bytes(),
            8 => http::Request::get("/", http::Headers::new()).to_bytes(),
            _ => tls::Handshake::ClientHello {
                version: tls::Version::Tls12,
                supported_versions: vec![],
                server_name: None,
                cipher_suites: vec![0xc02f],
            }
            .into_record(tls::Version::Tls12)
            .to_bytes(),
        };
        let payload = mangle(g, payload);
        let tcp = |dport: u16| {
            let repr = iotlan_wire::tcp::Repr::data(sport, dport, 1, 1, payload.len());
            stack::tcp_segment(src, dst, &repr, &payload)
        };
        match kind {
            0 => stack::udp_multicast(src, Ipv4Addr::new(224, 0, 0, 251), 5353, 5353, &payload),
            1 => stack::udp_multicast(
                src,
                Ipv4Addr::new(239, 255, 255, 250),
                sport,
                1900,
                &payload,
            ),
            2 => stack::udp_unicast(src, dst, 1900, sport, &payload),
            3 => stack::udp_broadcast(src, 68, 67, &payload),
            4 => stack::udp_broadcast(src, sport, 9999, &payload),
            5 => stack::udp_broadcast(src, sport, 6666, &payload),
            6 | 7 => {
                let dport = [10005, 55444, 30000][g.int_in(0usize..3)];
                stack::udp_unicast(src, dst, sport, dport, &payload)
            }
            8 => tcp([80, 8080][g.int_in(0usize..2)]),
            _ => tcp([8009, 40001][g.int_in(0usize..2)]),
        }
    }

    /// Every memo entry against its classifier core applied to a fresh
    /// ground-truth labelling of its flow.
    fn assert_labels_are_their_classifier_cores(table: &FlowTable) {
        let memo = table.labels();
        assert_eq!(memo.len(), table.len());
        for (flow, labels) in table.flows.iter().zip(memo) {
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

    iotlan_util::props! {
        /// Each field of the label memo equals its classifier core applied
        /// to `truth::label_flow` of its flow, and frames added after
        /// labelling (a first payload for a flow that had none, a new flow)
        /// leave the memo equal to a fresh table's.
        fn flow_labels_are_their_classifier_cores(g) {
            // An SSDP flow whose first frame is empty: UNKNOWN until its
            // M-SEARCH arrives.
            let silent = |payload: &[u8]| {
                stack::udp_multicast(ep(9), Ipv4Addr::new(239, 255, 255, 250), 40009, 1900, payload)
            };
            let mut frames = vec![silent(&[])];
            frames.extend(g.vec_of(1, 60, protocol_frame));
            let mut table = FlowTable::default();
            for (i, frame) in frames.iter().enumerate() {
                table.add_frame(SimTime::from_secs(i as u64), frame);
            }
            assert_labels_are_their_classifier_cores(&table);
            assert_eq!(table.labels()[0].truth, crate::labels::UNKNOWN);

            let query = dns::Message::mdns_query(&[("_ipp._tcp.local", dns::RecordType::Ptr)]);
            frames.push(silent(&ssdp::Message::msearch("ssdp:all", 3).to_bytes()));
            frames.push(stack::udp_multicast(
                ep(10),
                Ipv4Addr::new(224, 0, 0, 251),
                5353,
                5353,
                &query.to_bytes(),
            ));
            let old = table.len();
            for (i, frame) in frames.iter().enumerate().skip(frames.len() - 2) {
                table.add_frame(SimTime::from_secs(i as u64), frame);
            }
            assert_eq!(table.len(), old + 1);
            let mut fresh = FlowTable::default();
            for (i, frame) in frames.iter().enumerate() {
                fresh.add_frame(SimTime::from_secs(i as u64), frame);
            }
            assert_eq!(table.labels(), fresh.labels());
            assert_eq!(table.labels()[0].truth, crate::labels::SSDP);
            assert_labels_are_their_classifier_cores(&table);
        }
    }

    /// A key from small domains, so that equal keys and keys that differ
    /// in one field both come up often.
    fn small_key(g: &mut Gen) -> FlowKey {
        let transport = match g.int_in(0u8..8) {
            0 => Transport::Udp,
            1 => Transport::Tcp,
            2 => Transport::Icmp,
            3 => Transport::Igmp,
            4 => Transport::IcmpV6,
            5 => Transport::UdpV6,
            6 => Transport::OtherIp([0, 17, 255][g.int_in(0usize..3)]),
            _ => Transport::L2([0, 0x0806, 0xffff][g.int_in(0usize..3)]),
        };
        let ip = |g: &mut Gen| {
            g.option(|g| [Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST][g.int_in(0usize..2)])
        };
        let port = |g: &mut Gen| [0, 1, u16::MAX][g.int_in(0usize..3)];
        FlowKey {
            transport,
            src_ip: ip(g),
            dst_ip: ip(g),
            src_port: port(g),
            dst_port: port(g),
            src_mac: [EthernetAddress([0; 6]), EthernetAddress([0xff; 6])][g.int_in(0usize..2)],
        }
    }

    iotlan_util::props! {
        /// The packed words tell keys apart exactly as `Eq` does, and equal
        /// keys hash equal.
        fn packed_key_words_are_one_to_one(g) {
            // `b` is `a` with at most one field taken from a fresh key.
            let (a, other) = (small_key(g), small_key(g));
            let mut b = a;
            match g.int_in(0u8..7) {
                0 => b.transport = other.transport,
                1 => b.src_ip = other.src_ip,
                2 => b.dst_ip = other.dst_ip,
                3 => b.src_port = other.src_port,
                4 => b.dst_port = other.dst_port,
                5 => b.src_mac = other.src_mac,
                _ => {}
            }
            assert_eq!(a == b, a.words() == b.words(), "{a:?} {b:?}");
            let hash = |key: &FlowKey| {
                let mut state = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut state);
                state.finish()
            };
            if a == b {
                assert_eq!(hash(&a), hash(&b));
            }
        }
    }

    #[test]
    fn evidence_bytes_count_the_kept_times_and_samples() {
        for cap in [0, 5, usize::MAX] {
            let table = table_of(&mixed_frames(), cap);
            let swept: usize = table
                .flows
                .iter()
                .map(|flow| {
                    flow.timestamps.len() * std::mem::size_of::<SimTime>()
                        + flow.payload_samples.iter().map(Vec::len).sum::<usize>()
                })
                .sum();
            assert_eq!(table.evidence_bytes(), swept, "cap {cap}");
        }
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
