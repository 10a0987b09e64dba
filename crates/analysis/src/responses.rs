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

use iotlan_classify::flow::{FlowTable, Transport};
use iotlan_classify::rules::{classify_with_rules, paper_rules};
use iotlan_devices::{Catalog, Category};
use iotlan_netsim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// The correlation window (seconds).
pub const RESPONSE_WINDOW_SECS: f64 = 3.0;

/// Protocols excluded from Table 4 (used by nearly all devices). Public so
/// the streaming accumulator applies the identical exclusion list.
pub const EXCLUDED_PROTOCOLS: &[&str] = &["ARP", "DHCP", "ICMP", "ICMPv6", "IPv4"];

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct CategoryResponseRow {
    pub category: String,
    pub devices: usize,
    pub mean_discovery_protocols: f64,
    pub mean_protocols_with_response: f64,
    pub mean_devices_responded: f64,
}

/// Per-device intermediate record. Public (with [`rows_from_records`]) so
/// the batch pass and the streaming accumulator share one row-building
/// path and cannot diverge on grouping or means.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceRecord {
    pub discovery_protocols: BTreeSet<String>,
    pub protocols_with_response: BTreeSet<String>,
    pub responders: BTreeSet<iotlan_wire::ethernet::EthernetAddress>,
}

impl DeviceRecord {
    /// Set-union merge; idempotent, so re-observing the same evidence
    /// (e.g. a flow split across stream windows) cannot change a record.
    pub fn merge(&mut self, other: &DeviceRecord) {
        self.discovery_protocols
            .extend(other.discovery_protocols.iter().cloned());
        self.protocols_with_response
            .extend(other.protocols_with_response.iter().cloned());
        self.responders.extend(other.responders.iter().copied());
    }
}

/// Build the Table 4 rows from per-device records: group Echo / Google&Nest
/// / Apple / Tuya by vendor and the rest by category, then average per
/// group. Devices with no discovery activity contribute no row.
pub fn rows_from_records(
    records: &BTreeMap<iotlan_wire::ethernet::EthernetAddress, DeviceRecord>,
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
                mean_devices_responded: recs
                    .iter()
                    .map(|r| r.responders.len() as f64)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// Run the correlation over a flow table and build the Table 4 rows
/// (grouped as in [`rows_from_records`]).
pub fn discovery_responses(table: &FlowTable, catalog: &Catalog) -> Vec<CategoryResponseRow> {
    let rules = paper_rules();
    let device_macs: BTreeSet<_> = catalog.devices.iter().map(|d| d.mac).collect();

    // Pass 1: collect discovery events (multicast/broadcast, non-excluded
    // protocols) per device: (time, protocol, src_port).
    struct DiscoveryEvent {
        src_mac: iotlan_wire::ethernet::EthernetAddress,
        protocol: String,
        src_port: u16,
        times: Vec<SimTime>,
    }
    let mut discoveries: Vec<DiscoveryEvent> = Vec::new();
    for flow in &table.flows {
        if !flow.is_multicast_or_broadcast() {
            continue;
        }
        if !matches!(flow.key.transport, Transport::Udp | Transport::UdpV6) {
            continue;
        }
        if !device_macs.contains(&flow.key.src_mac) {
            continue;
        }
        let protocol = classify_with_rules(flow, &rules);
        if EXCLUDED_PROTOCOLS.contains(&protocol) {
            continue;
        }
        discoveries.push(DiscoveryEvent {
            src_mac: flow.key.src_mac,
            protocol: protocol.to_string(),
            src_port: flow.key.src_port,
            times: flow.timestamps.clone(),
        });
    }

    // Pass 2: for each discovery, find unicast inbound flows to the
    // discoverer on the same transport/port within the window.
    let mut records: BTreeMap<iotlan_wire::ethernet::EthernetAddress, DeviceRecord> =
        BTreeMap::new();
    for event in &discoveries {
        let record = records.entry(event.src_mac).or_default();
        record.discovery_protocols.insert(event.protocol.clone());
    }
    for flow in &table.flows {
        // Candidate response: unicast UDP to a device that discovered.
        if flow.is_multicast_or_broadcast() {
            continue;
        }
        if !matches!(flow.key.transport, Transport::Udp | Transport::UdpV6) {
            continue;
        }
        let Some(dst_device) = catalog.devices.iter().find(|d| Some(d.ip) == flow.key.dst_ip)
        else {
            continue;
        };
        for event in &discoveries {
            if event.src_mac != dst_device.mac {
                continue;
            }
            // Same port pairing: the response's dst port equals the
            // discovery's source port.
            if flow.key.dst_port != event.src_port {
                continue;
            }
            let in_window = flow.timestamps.iter().any(|rt| {
                event.times.iter().any(|dt| {
                    let delta = rt.as_secs_f64() - dt.as_secs_f64();
                    (0.0..=RESPONSE_WINDOW_SECS).contains(&delta)
                })
            });
            if in_window {
                let record = records.entry(event.src_mac).or_default();
                record.protocols_with_response.insert(event.protocol.clone());
                record.responders.insert(flow.key.src_mac);
            }
        }
    }

    rows_from_records(&records, catalog)
}

/// Render Table 4.
pub fn render(rows: &[CategoryResponseRow]) -> String {
    let mut out = String::from(
        "Device Group     #Disc.Protocols  #Proto w/Response  #Devices Responded\n",
    );
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
