//! Discovery→response correlation (Table 4, Appendix D.2): "We correlate
//! multicast and broadcast discoveries with their responses by inspecting
//! unicast inbound traffic to the devices that initiate the discoveries …
//! employing the same transport layer protocol and port number within a
//! short time period (empirically set as 3 seconds)".
//!
//! Output, grouped by device category: the mean number of discovery
//! protocols used (excluding ARP/DHCP/ICMP, which almost everything uses),
//! the mean number of those protocols that drew at least one response, and
//! the mean number of distinct devices that responded.
//!
//! ## One matcher, two feeds
//!
//! [`ResponseMatcher`] is the only correlation. It sees one packet at a
//! time and keeps the discovery and response stamps of the last
//! [`HORIZON_SECS`] in buffers keyed by (discovering device, port), so its
//! state is bounded by traffic structure, not capture length:
//!
//! * [`discovery_responses`] feeds it a flow table's UDP discovery and
//!   response packets sorted by time;
//! * the stream engine feeds it every frame in capture record order. Record
//!   order can run behind the stamps (delayed sends are stamped ahead, at
//!   most ~30 s in the simulator), and the horizon covers that skew plus
//!   the window, so both feeds find the same pairs.
//!
//! Matches are kept as (discovery flow, responder). Labels, and with them
//! the excluded-protocol filter, are applied by
//! [`ResponseMatcher::records`] once each flow's evidence is complete.

use iotlan_classify::flow::{Flow, FlowTable, Transport};
use iotlan_devices::{Catalog, Category};
use iotlan_netsim::SimTime;
use iotlan_wire::ethernet::EthernetAddress;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

/// The correlation window (seconds).
pub const RESPONSE_WINDOW_SECS: f64 = 3.0;

/// How long a packet stays buffered behind the highest stamp seen. Must
/// cover [`RESPONSE_WINDOW_SECS`] plus the largest amount by which a
/// feed's stamps run behind their running maximum (~30 s for the
/// simulator's delayed sends); 64 s leaves a 2× margin.
pub const HORIZON_SECS: f64 = 64.0;

/// Protocols excluded from Table 4 (used by nearly all devices).
pub const EXCLUDED_PROTOCOLS: &[&str] = &["ARP", "DHCP", "ICMP", "ICMPv6", "IPv4"];

/// Batch pruning cadence, in fed packets.
const PRUNE_EVERY: usize = 1024;

/// One Table 4 row.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryResponseRow {
    pub category: String,
    pub devices: usize,
    pub mean_discovery_protocols: f64,
    pub mean_protocols_with_response: f64,
    pub mean_devices_responded: f64,
}

/// Per-device intermediate record, as [`ResponseMatcher::records`] builds
/// it and [`rows_from_records`] averages it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceRecord {
    pub discovery_protocols: BTreeSet<String>,
    pub protocols_with_response: BTreeSet<String>,
    pub responders: BTreeSet<EthernetAddress>,
}

/// Build the Table 4 rows from per-device records: group Echo / Google&Nest
/// / Apple / Tuya by vendor and the rest by category, then average per
/// group. Devices with no discovery activity contribute no row.
pub fn rows_from_records(
    records: &BTreeMap<EthernetAddress, DeviceRecord>,
    catalog: &Catalog,
) -> Vec<CategoryResponseRow> {
    let group_of = |device: &iotlan_devices::DeviceConfig| -> String {
        match device.vendor.as_str() {
            "Amazon" if device.category == Category::VoiceAssistant => "Amazon Echo".into(),
            "Google" => "Google&Nest".into(),
            "Apple" => "Apple".into(),
            "Tuya" => "Tuya".into(),
            _ => match device.category {
                Category::MediaTv => "TVs".into(),
                Category::Surveillance => "Cameras".into(),
                Category::HomeAutomation => "Home Auto".into(),
                Category::HomeAppliance => "Appliances".into(),
                _ => "Other".into(),
            },
        }
    };

    let mut groups: BTreeMap<String, Vec<&DeviceRecord>> = BTreeMap::new();
    let empty = DeviceRecord::default();
    for device in &catalog.devices {
        let record = records.get(&device.mac).unwrap_or(&empty);
        if record.discovery_protocols.is_empty() {
            continue; // devices with no discovery activity don't enter rows
        }
        groups.entry(group_of(device)).or_default().push(record);
    }

    groups
        .into_iter()
        .map(|(category, recs)| {
            let n = recs.len() as f64;
            CategoryResponseRow {
                category,
                devices: recs.len(),
                mean_discovery_protocols: recs
                    .iter()
                    .map(|r| r.discovery_protocols.len() as f64)
                    .sum::<f64>()
                    / n,
                mean_protocols_with_response: recs
                    .iter()
                    .map(|r| r.protocols_with_response.len() as f64)
                    .sum::<f64>()
                    / n,
                mean_devices_responded: recs.iter().map(|r| r.responders.len() as f64).sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// A flow's part in the correlation, fixed by its key and first frame.
enum Role {
    /// Multicast/broadcast UDP from a catalog device.
    Discovery,
    /// Unicast UDP towards a catalog device's IP (the device's MAC).
    Response(EthernetAddress),
}

/// What the matcher resolved for one flow index on the flow's first
/// observed packet: its role and the buffer slot of its (device, port).
#[derive(Debug, Clone, Copy)]
enum Part {
    Unresolved,
    Neither,
    Discovery {
        slot: usize,
    },
    Response {
        slot: usize,
        responder: EthernetAddress,
    },
}

/// The buffered packets of one (device, port) pair.
#[derive(Debug, Default)]
struct Slot {
    /// Discovery stamps from the device's port: (seconds, flow index).
    discoveries: Vec<(f64, usize)>,
    /// Response stamps to the device's port: (seconds, responder MAC).
    responses: Vec<(f64, EthernetAddress)>,
}

/// The online discovery→response matcher (see the module docs). Feed it
/// packets with [`observe`](ResponseMatcher::observe), bound it with
/// [`prune`](ResponseMatcher::prune), and read the per-device records off
/// the same flow table with [`records`](ResponseMatcher::records).
///
/// A flow's role and (device, port) slot are resolved once, on the first
/// packet observed for its index, so later packets cost one index into
/// `parts` and one into `slots`. Flows may be first fed in any index
/// order.
pub struct ResponseMatcher {
    device_macs: HashSet<EthernetAddress>,
    ip_to_mac: HashMap<Ipv4Addr, EthernetAddress>,
    /// By flow index.
    parts: Vec<Part>,
    /// The distinct responders matched to each discovery flow, by flow
    /// index, label-independent.
    responders: Vec<Vec<EthernetAddress>>,
    /// Distinct (discovery flow, responder) pairs in `responders`.
    matches: usize,
    /// The slot index of each (device, port) pair seen.
    slot_of: HashMap<(EthernetAddress, u16), usize>,
    slots: Vec<Slot>,
    max_stamp_secs: f64,
    /// Slots with a non-empty discovery buffer plus slots with a non-empty
    /// response buffer.
    occupied_buffers: usize,
    buffered_discoveries: usize,
    buffered_responses: usize,
}

impl ResponseMatcher {
    pub fn new(catalog: &Catalog) -> ResponseMatcher {
        let mut ip_to_mac = HashMap::new();
        for device in &catalog.devices {
            // First device wins on (hypothetical) duplicate IPs.
            ip_to_mac.entry(device.ip).or_insert(device.mac);
        }
        ResponseMatcher {
            device_macs: catalog.devices.iter().map(|d| d.mac).collect(),
            ip_to_mac,
            parts: Vec::new(),
            responders: Vec::new(),
            matches: 0,
            slot_of: HashMap::new(),
            slots: Vec::new(),
            max_stamp_secs: 0.0,
            occupied_buffers: 0,
            buffered_discoveries: 0,
            buffered_responses: 0,
        }
    }

    fn role(&self, flow: &Flow) -> Option<Role> {
        if !matches!(flow.key.transport, Transport::Udp | Transport::UdpV6) {
            None
        } else if flow.is_multicast_or_broadcast() {
            self.device_macs
                .contains(&flow.key.src_mac)
                .then_some(Role::Discovery)
        } else {
            let ip = flow.key.dst_ip?;
            self.ip_to_mac.get(&ip).map(|&mac| Role::Response(mac))
        }
    }

    fn slot(&mut self, device: EthernetAddress, port: u16) -> usize {
        let next = self.slots.len();
        let slot = *self.slot_of.entry((device, port)).or_insert(next);
        if slot == next {
            self.slots.push(Slot::default());
        }
        slot
    }

    /// The part of `flow`, resolved on its index's first packet.
    fn part(&mut self, flow_index: usize, flow: &Flow) -> Part {
        if flow_index >= self.parts.len() {
            self.parts.resize(flow_index + 1, Part::Unresolved);
            self.responders.resize_with(flow_index + 1, Vec::new);
        }
        if let Part::Unresolved = self.parts[flow_index] {
            let key = &flow.key;
            self.parts[flow_index] = match self.role(flow) {
                Some(Role::Discovery) => Part::Discovery {
                    slot: self.slot(key.src_mac, key.src_port),
                },
                Some(Role::Response(device)) => Part::Response {
                    slot: self.slot(device, key.dst_port),
                    responder: key.src_mac,
                },
                None => Part::Neither,
            };
        }
        self.parts[flow_index]
    }

    /// Record that `responder` answered discovery flow `index`.
    fn matched(
        responders: &mut [Vec<EthernetAddress>],
        matches: &mut usize,
        index: usize,
        responder: EthernetAddress,
    ) {
        let known = &mut responders[index];
        if !known.contains(&responder) {
            known.push(responder);
            *matches += 1;
        }
    }

    /// Observe one packet of `flow` (index `flow_index` in its table)
    /// stamped `time`, matching it against the buffered packets of the
    /// opposite role. A response matches a discovery when
    /// `response − discovery ∈ [0, RESPONSE_WINDOW_SECS]`.
    pub fn observe(&mut self, flow_index: usize, flow: &Flow, time: SimTime) {
        let secs = time.as_secs_f64();
        self.max_stamp_secs = self.max_stamp_secs.max(secs);
        let in_window = |delta: f64| (0.0..=RESPONSE_WINDOW_SECS).contains(&delta);
        let part = self.part(flow_index, flow);
        let (responders, matches) = (&mut self.responders, &mut self.matches);
        match part {
            Part::Discovery { slot } => {
                let slot = &mut self.slots[slot];
                for &(response, responder) in &slot.responses {
                    if in_window(response - secs) {
                        Self::matched(responders, matches, flow_index, responder);
                    }
                }
                if slot.discoveries.is_empty() {
                    self.occupied_buffers += 1;
                }
                slot.discoveries.push((secs, flow_index));
                self.buffered_discoveries += 1;
            }
            Part::Response { slot, responder } => {
                let slot = &mut self.slots[slot];
                for &(discovery, index) in &slot.discoveries {
                    if in_window(secs - discovery) {
                        Self::matched(responders, matches, index, responder);
                    }
                }
                if slot.responses.is_empty() {
                    self.occupied_buffers += 1;
                }
                slot.responses.push((secs, responder));
                self.buffered_responses += 1;
            }
            Part::Neither | Part::Unresolved => {}
        }
    }

    /// Drop buffered packets more than [`HORIZON_SECS`] behind the highest
    /// stamp seen.
    pub fn prune(&mut self) {
        let horizon = self.max_stamp_secs - HORIZON_SECS;
        let (mut occupied, mut discoveries, mut responses) = (0, 0, 0);
        for slot in &mut self.slots {
            slot.discoveries.retain(|&(secs, _)| secs >= horizon);
            slot.responses.retain(|&(secs, _)| secs >= horizon);
            occupied +=
                usize::from(!slot.discoveries.is_empty()) + usize::from(!slot.responses.is_empty());
            discoveries += slot.discoveries.len();
            responses += slot.responses.len();
        }
        self.occupied_buffers = occupied;
        self.buffered_discoveries = discoveries;
        self.buffered_responses = responses;
    }

    /// Resident state estimate in bytes: occupied buffers, buffered packets
    /// and the match set. Each occupied buffer is charged as one entry of a
    /// map from (device, port) to a packet list.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let buffer = size_of::<(EthernetAddress, u16)>() + size_of::<Vec<(f64, usize)>>();
        self.occupied_buffers * buffer
            + self.buffered_discoveries * size_of::<(f64, usize)>()
            + self.buffered_responses * size_of::<(f64, EthernetAddress)>()
            + self.matches * 32
    }

    /// Per-device records: each discovery flow of `table` (the table the
    /// observed flow indices refer to) takes its paper-pipeline label from
    /// the table, excluded protocols are dropped, and the matches are attributed to
    /// the labels that remain.
    pub fn records(&self, table: &FlowTable) -> BTreeMap<EthernetAddress, DeviceRecord> {
        let labels = table.labels();
        let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
        for (index, flow) in table.flows.iter().enumerate() {
            if !matches!(self.role(flow), Some(Role::Discovery)) {
                continue;
            }
            let label = labels[index].paper;
            if EXCLUDED_PROTOCOLS.contains(&label) {
                continue;
            }
            let record = records.entry(flow.key.src_mac).or_default();
            record.discovery_protocols.insert(label.to_string());
            let responders = self.responders.get(index).map_or(&[][..], Vec::as_slice);
            if !responders.is_empty() {
                record.protocols_with_response.insert(label.to_string());
                record.responders.extend(responders);
            }
        }
        records
    }
}

/// Table 4 over a flow table: feed the matcher the table's UDP discovery
/// and response packets in time order, then build the rows (grouped as in
/// [`rows_from_records`]).
pub fn discovery_responses(table: &FlowTable, catalog: &Catalog) -> Vec<CategoryResponseRow> {
    let mut matcher = ResponseMatcher::new(catalog);
    let mut packets: Vec<(SimTime, usize)> = Vec::new();
    for (index, flow) in table.flows.iter().enumerate() {
        if matcher.role(flow).is_some() {
            packets.extend(flow.timestamps.iter().map(|&time| (time, index)));
        }
    }
    packets.sort_unstable();
    for (n, &(time, index)) in packets.iter().enumerate() {
        matcher.observe(index, &table.flows[index], time);
        if (n + 1) % PRUNE_EVERY == 0 {
            matcher.prune();
        }
    }
    rows_from_records(&matcher.records(table), catalog)
}

/// Render Table 4.
pub fn render(rows: &[CategoryResponseRow]) -> String {
    let mut out =
        String::from("Device Group     #Disc.Protocols  #Proto w/Response  #Devices Responded\n");
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>15.2}  {:>17.2}  {:>18.2}\n",
            row.category,
            row.mean_discovery_protocols,
            row.mean_protocols_with_response,
            row.mean_devices_responded
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_classify::flow::FlowTable;
    use iotlan_devices::build_testbed;
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_util::check::Gen;

    #[test]
    fn msearch_with_reply_counts() {
        let catalog = build_testbed();
        let echo = catalog.find("Amazon Echo Spot").unwrap();
        let hue = catalog.find("Philips Hue Bridge").unwrap();
        let echo_ep = Endpoint {
            mac: echo.mac,
            ip: echo.ip,
        };
        let hue_ep = Endpoint {
            mac: hue.mac,
            ip: hue.ip,
        };
        let mut table = FlowTable::default();
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
        table.add_frame(
            SimTime::from_secs(10),
            &stack::udp_multicast(
                echo_ep,
                std::net::Ipv4Addr::new(239, 255, 255, 250),
                51234,
                1900,
                &msearch,
            ),
        );
        // Hue responds unicast within 3 s to the same source port.
        let response =
            iotlan_wire::ssdp::Message::response("upnp:rootdevice", "uuid-x", None, None)
                .to_bytes();
        table.add_frame(
            SimTime::from_secs(11),
            &stack::udp_unicast(hue_ep, echo_ep, 1900, 51234, &response),
        );
        let rows = discovery_responses(&table, &catalog);
        let echo_row = rows.iter().find(|r| r.category == "Amazon Echo").unwrap();
        assert_eq!(echo_row.devices, 1);
        assert!(echo_row.mean_discovery_protocols >= 1.0);
        assert!(echo_row.mean_protocols_with_response >= 1.0);
        assert!(echo_row.mean_devices_responded >= 1.0);
    }

    #[test]
    fn late_reply_not_counted() {
        let catalog = build_testbed();
        let echo = catalog.find("Amazon Echo Spot").unwrap();
        let hue = catalog.find("Philips Hue Bridge").unwrap();
        let echo_ep = Endpoint {
            mac: echo.mac,
            ip: echo.ip,
        };
        let hue_ep = Endpoint {
            mac: hue.mac,
            ip: hue.ip,
        };
        let mut table = FlowTable::default();
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
        table.add_frame(
            SimTime::from_secs(10),
            &stack::udp_multicast(
                echo_ep,
                std::net::Ipv4Addr::new(239, 255, 255, 250),
                51234,
                1900,
                &msearch,
            ),
        );
        let response =
            iotlan_wire::ssdp::Message::response("upnp:rootdevice", "uuid-x", None, None)
                .to_bytes();
        // 10 seconds later: outside the window.
        table.add_frame(
            SimTime::from_secs(20),
            &stack::udp_unicast(hue_ep, echo_ep, 1900, 51234, &response),
        );
        let rows = discovery_responses(&table, &catalog);
        let echo_row = rows.iter().find(|r| r.category == "Amazon Echo").unwrap();
        assert_eq!(echo_row.mean_protocols_with_response, 0.0);
    }

    #[test]
    fn excluded_protocols_dont_create_rows() {
        let catalog = build_testbed();
        let echo = catalog.find("Amazon Echo Spot").unwrap();
        let echo_ep = Endpoint {
            mac: echo.mac,
            ip: echo.ip,
        };
        let mut table = FlowTable::default();
        // Broadcast DHCP only: excluded protocol, so no Table 4 row.
        let discover = iotlan_wire::dhcpv4::Repr::discover(
            1,
            echo.mac,
            Some("amazon-xxxx".into()),
            None,
            vec![1, 3],
        );
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_broadcast(echo_ep, 68, 67, &discover.to_bytes()),
        );
        let rows = discovery_responses(&table, &catalog);
        assert!(rows.iter().all(|r| r.category != "Amazon Echo"));
    }

    /// A random feed in record order: three catalog devices discover from
    /// two shared ports, catalog devices and a stranger answer them
    /// unicast, and TCP and stranger-bound UDP add flows of neither role.
    /// Frames are dense enough (half a second apart on average) that most
    /// discoveries draw answers, many more than once. Each record's stamp
    /// may run up to 30 s behind the feed's clock, and the clock can span
    /// two horizons.
    fn random_feed(g: &mut Gen, catalog: &Catalog) -> Vec<(SimTime, Vec<u8>)> {
        let endpoint = |device: &iotlan_devices::DeviceConfig| Endpoint {
            mac: device.mac,
            ip: device.ip,
        };
        let devices: Vec<Endpoint> = catalog.devices.iter().take(3).map(endpoint).collect();
        let stranger = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 0xee]),
            ip: Ipv4Addr::new(192, 168, 10, 250),
        };
        let ports = [5353u16, 50000];
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
        let query = iotlan_wire::dns::Message::mdns_query(&[(
            "_hue._tcp.local",
            iotlan_wire::dns::RecordType::Ptr,
        )])
        .to_bytes();
        let mut clock = 0u64;
        g.vec_of(0, 300, |g| {
            clock += g.int_in(0..1_000_000u64);
            let behind = if g.int_in(0u8..4) == 0 {
                g.int_in(0..=30_000_000u64)
            } else {
                0
            };
            let device = devices[g.int_in(0..devices.len())];
            let port = ports[g.int_in(0..ports.len())];
            let frame = match g.int_in(0u8..6) {
                0 => stack::udp_multicast(
                    device,
                    Ipv4Addr::new(239, 255, 255, 250),
                    port,
                    1900,
                    &msearch,
                ),
                1 => {
                    stack::udp_multicast(device, Ipv4Addr::new(224, 0, 0, 251), port, 5353, &query)
                }
                2 => stack::udp_broadcast(device, port, 9999, b"{}"),
                3 => {
                    let responder = if g.bool() {
                        devices[g.int_in(0..devices.len())]
                    } else {
                        stranger
                    };
                    stack::udp_unicast(responder, device, 1900, port, b"reply")
                }
                4 => stack::udp_unicast(device, stranger, port, port, b"x"),
                _ => stack::tcp_segment(
                    device,
                    stranger,
                    &iotlan_wire::tcp::Repr::syn(port, 80, 1),
                    &[],
                ),
            };
            (SimTime(clock.saturating_sub(behind)), frame)
        })
    }

    fn testbed() -> &'static Catalog {
        static CATALOG: std::sync::OnceLock<Catalog> = std::sync::OnceLock::new();
        CATALOG.get_or_init(build_testbed)
    }

    /// Feed both matchers `packets` of `table`, pruning both every
    /// `prune_every` packets, and check that their state estimates agree
    /// at every step and their records at the end.
    fn assert_feed_agrees(table: &FlowTable, packets: &[(SimTime, usize)], prune_every: usize) {
        let catalog = testbed();
        let mut matcher = ResponseMatcher::new(catalog);
        let mut expected = oracle::HashedMatcher::new(catalog);
        for (n, &(time, index)) in packets.iter().enumerate() {
            matcher.observe(index, &table.flows[index], time);
            expected.observe(index, &table.flows[index], time);
            if (n + 1) % prune_every == 0 {
                matcher.prune();
                expected.prune();
            }
            assert_eq!(matcher.state_bytes(), expected.state_bytes(), "packet {n}");
        }
        assert_eq!(matcher.records(table), expected.records(table));
    }

    iotlan_util::props! {
        /// The per-flow-slot matcher finds the records the hashed matcher it
        /// replaced finds, with the same state estimate after every packet:
        /// fed in record order with stamps behind the clock (the stream
        /// engine's feed, flows first seen in index order), in time order
        /// (the batch feed) and in a random interleaving, the last two
        /// first seeing flows out of index order.
        fn slot_matcher_equals_the_hashed_oracle(g) {
            let catalog = testbed();
            let frames = random_feed(g, catalog);
            let prune_every = g.int_in(1..=64usize);

            let mut table = FlowTable::default();
            let mut matcher = ResponseMatcher::new(catalog);
            let mut expected = oracle::HashedMatcher::new(catalog);
            for (n, (time, frame)) in frames.iter().enumerate() {
                let evidence = iotlan_classify::flow::dissect_frame(frame).unwrap();
                let index = table.add_evidence(*time, frame.len(), evidence);
                matcher.observe(index, &table.flows[index], *time);
                expected.observe(index, &table.flows[index], *time);
                if (n + 1) % prune_every == 0 {
                    matcher.prune();
                    expected.prune();
                }
                assert_eq!(matcher.state_bytes(), expected.state_bytes(), "frame {n}");
            }
            assert_eq!(matcher.records(&table), expected.records(&table));

            let mut packets: Vec<(SimTime, usize)> = table
                .flows
                .iter()
                .enumerate()
                .flat_map(|(index, flow)| flow.timestamps.iter().map(move |&time| (time, index)))
                .collect();
            packets.sort_unstable();
            assert_feed_agrees(&table, &packets, prune_every);
            g.rng().shuffle(&mut packets);
            assert_feed_agrees(&table, &packets, prune_every);
        }
    }

    #[test]
    fn render_shape() {
        let rows = vec![CategoryResponseRow {
            category: "Amazon Echo".into(),
            devices: 18,
            mean_discovery_protocols: 3.65,
            mean_protocols_with_response: 1.82,
            mean_devices_responded: 9.47,
        }];
        let rendered = render(&rows);
        assert!(rendered.contains("Amazon Echo"));
        assert!(rendered.contains("3.65"));
    }
}

/// The matcher as it was before flows were resolved once per index: every
/// packet recomputed its flow's role and looked its (device, port) buffer
/// up in a map. Kept as the reference the slot matcher is checked against.
#[cfg(test)]
mod oracle {
    use super::*;

    pub struct HashedMatcher {
        device_macs: HashSet<EthernetAddress>,
        ip_to_mac: HashMap<Ipv4Addr, EthernetAddress>,
        discoveries: HashMap<(EthernetAddress, u16), Vec<(f64, usize)>>,
        responses: HashMap<(EthernetAddress, u16), Vec<(f64, EthernetAddress)>>,
        matches: BTreeSet<(usize, EthernetAddress)>,
        max_stamp_secs: f64,
    }

    impl HashedMatcher {
        pub fn new(catalog: &Catalog) -> HashedMatcher {
            let mut ip_to_mac = HashMap::new();
            for device in &catalog.devices {
                ip_to_mac.entry(device.ip).or_insert(device.mac);
            }
            HashedMatcher {
                device_macs: catalog.devices.iter().map(|d| d.mac).collect(),
                ip_to_mac,
                discoveries: HashMap::new(),
                responses: HashMap::new(),
                matches: BTreeSet::new(),
                max_stamp_secs: 0.0,
            }
        }

        fn role(&self, flow: &Flow) -> Option<Role> {
            if !matches!(flow.key.transport, Transport::Udp | Transport::UdpV6) {
                None
            } else if flow.is_multicast_or_broadcast() {
                self.device_macs
                    .contains(&flow.key.src_mac)
                    .then_some(Role::Discovery)
            } else {
                let ip = flow.key.dst_ip?;
                self.ip_to_mac.get(&ip).map(|&mac| Role::Response(mac))
            }
        }

        pub fn observe(&mut self, flow_index: usize, flow: &Flow, time: SimTime) {
            let secs = time.as_secs_f64();
            self.max_stamp_secs = self.max_stamp_secs.max(secs);
            let in_window = |delta: f64| (0.0..=RESPONSE_WINDOW_SECS).contains(&delta);
            let key = &flow.key;
            match self.role(flow) {
                Some(Role::Discovery) => {
                    let slot = (key.src_mac, key.src_port);
                    for &(response, responder) in self.responses.get(&slot).into_iter().flatten() {
                        if in_window(response - secs) {
                            self.matches.insert((flow_index, responder));
                        }
                    }
                    self.discoveries
                        .entry(slot)
                        .or_default()
                        .push((secs, flow_index));
                }
                Some(Role::Response(device)) => {
                    let slot = (device, key.dst_port);
                    for &(discovery, index) in self.discoveries.get(&slot).into_iter().flatten() {
                        if in_window(secs - discovery) {
                            self.matches.insert((index, key.src_mac));
                        }
                    }
                    self.responses
                        .entry(slot)
                        .or_default()
                        .push((secs, key.src_mac));
                }
                None => {}
            }
        }

        pub fn prune(&mut self) {
            let horizon = self.max_stamp_secs - HORIZON_SECS;
            self.discoveries.retain(|_, events| {
                events.retain(|&(secs, _)| secs >= horizon);
                !events.is_empty()
            });
            self.responses.retain(|_, events| {
                events.retain(|&(secs, _)| secs >= horizon);
                !events.is_empty()
            });
        }

        pub fn state_bytes(&self) -> usize {
            use std::mem::size_of;
            let slot = size_of::<(EthernetAddress, u16)>() + size_of::<Vec<(f64, usize)>>();
            let discoveries: usize = self.discoveries.values().map(Vec::len).sum();
            let responses: usize = self.responses.values().map(Vec::len).sum();
            (self.discoveries.len() + self.responses.len()) * slot
                + discoveries * size_of::<(f64, usize)>()
                + responses * size_of::<(f64, EthernetAddress)>()
                + self.matches.len() * 32
        }

        pub fn records(&self, table: &FlowTable) -> BTreeMap<EthernetAddress, DeviceRecord> {
            let flow_labels = table.labels();
            let mut labels: HashMap<usize, &'static str> = HashMap::new();
            let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
            for (index, flow) in table.flows.iter().enumerate() {
                if !matches!(self.role(flow), Some(Role::Discovery)) {
                    continue;
                }
                let label = flow_labels[index].paper;
                if EXCLUDED_PROTOCOLS.contains(&label) {
                    continue;
                }
                labels.insert(index, label);
                records
                    .entry(flow.key.src_mac)
                    .or_default()
                    .discovery_protocols
                    .insert(label.to_string());
            }
            for &(index, responder) in &self.matches {
                let Some(label) = labels.get(&index) else {
                    continue;
                };
                let record = records.entry(table.flows[index].key.src_mac).or_default();
                record.protocols_with_response.insert(label.to_string());
                record.responders.insert(responder);
            }
            records
        }
    }
}
