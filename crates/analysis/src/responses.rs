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
use iotlan_classify::rules::{classify_with_truth, paper_rules};
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

/// The online discovery→response matcher (see the module docs). Feed it
/// packets with [`observe`](ResponseMatcher::observe), bound it with
/// [`prune`](ResponseMatcher::prune), and read the per-device records off
/// the same flow table with [`records`](ResponseMatcher::records).
pub struct ResponseMatcher {
    device_macs: HashSet<EthernetAddress>,
    ip_to_mac: HashMap<Ipv4Addr, EthernetAddress>,
    /// Discovery stamps by (device, source port): (seconds, flow index).
    discoveries: HashMap<(EthernetAddress, u16), Vec<(f64, usize)>>,
    /// Response stamps by (addressed device, destination port):
    /// (seconds, responder MAC).
    responses: HashMap<(EthernetAddress, u16), Vec<(f64, EthernetAddress)>>,
    /// (discovery flow index, responder MAC), label-independent.
    matches: BTreeSet<(usize, EthernetAddress)>,
    max_stamp_secs: f64,
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

    /// Observe one packet of `flow` (index `flow_index` in its table)
    /// stamped `time`, matching it against the buffered packets of the
    /// opposite role. A response matches a discovery when
    /// `response − discovery ∈ [0, RESPONSE_WINDOW_SECS]`.
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

    /// Drop buffered packets more than [`HORIZON_SECS`] behind the highest
    /// stamp seen.
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

    /// Resident state estimate in bytes: buffer slots, buffered packets
    /// and the match set.
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

    /// Per-device records: each discovery flow of `table` (the table the
    /// observed flow indices refer to) is labelled with the paper's rules,
    /// excluded protocols are dropped, and the matches are attributed to
    /// the labels that remain.
    pub fn records(&self, table: &FlowTable) -> BTreeMap<EthernetAddress, DeviceRecord> {
        let rules = paper_rules();
        let truth = table.truth_labels();
        let mut labels: HashMap<usize, &'static str> = HashMap::new();
        let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
        for (index, flow) in table.flows.iter().enumerate() {
            if !matches!(self.role(flow), Some(Role::Discovery)) {
                continue;
            }
            let label = classify_with_truth(flow, truth[index], &rules);
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
