//! The Table 1 information-exposure matrix: which sensitive data each
//! discovery protocol disseminates on the LAN, derived by scanning actual
//! captured payloads (not configuration) for each exposure type.

use iotlan_classify::flow::FlowTable;
use iotlan_inspector::ident;
use std::collections::{BTreeMap, BTreeSet};

/// The exposure columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExposureType {
    Mac,
    DeviceModel,
    OsVersion,
    DisplayName,
    Uuid,
    GwId,
    ProductKey,
    OemId,
    Geolocation,
    OutdatedSoftware,
}

impl ExposureType {
    pub const ALL: [ExposureType; 10] = [
        ExposureType::Mac,
        ExposureType::DeviceModel,
        ExposureType::OsVersion,
        ExposureType::DisplayName,
        ExposureType::Uuid,
        ExposureType::GwId,
        ExposureType::ProductKey,
        ExposureType::OemId,
        ExposureType::Geolocation,
        ExposureType::OutdatedSoftware,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ExposureType::Mac => "MAC",
            ExposureType::DeviceModel => "Device/Model",
            ExposureType::OsVersion => "OS Version",
            ExposureType::DisplayName => "Display name",
            ExposureType::Uuid => "UUIDs",
            ExposureType::GwId => "GWid",
            ExposureType::ProductKey => "Prod.Key",
            ExposureType::OemId => "OEMid",
            ExposureType::Geolocation => "Geolocation",
            ExposureType::OutdatedSoftware => "Outdated OS/SW",
        }
    }
}

/// The matrix: protocol → set of exposure types observed on the wire.
#[derive(Debug, Clone, Default)]
pub struct ExposureMatrix {
    pub cells: BTreeMap<String, BTreeSet<ExposureType>>,
}

impl ExposureMatrix {
    pub fn exposes(&self, protocol: &str, exposure: ExposureType) -> bool {
        self.cells
            .get(protocol)
            .map(|set| set.contains(&exposure))
            .unwrap_or(false)
    }

    /// Render Table 1 as a text matrix.
    pub fn render(&self) -> String {
        let mut out = String::from(format!("{:<12}", "protocol"));
        for exposure in ExposureType::ALL {
            out.push_str(&format!("{:>15}", exposure.label()));
        }
        out.push('\n');
        for (protocol, set) in &self.cells {
            out.push_str(&format!("{protocol:<12}"));
            for exposure in ExposureType::ALL {
                out.push_str(&format!(
                    "{:>15}",
                    if set.contains(&exposure) { "x" } else { "" }
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// The discovery protocols of Table 1's rows.
const TABLE1_PROTOCOLS: &[&str] = &["ARP", "DHCP", "mDNS", "SSDP", "TuyaLP", "TPLINK_SHP"];

/// Scan a flow table's payload samples and build the matrix.
pub fn exposure_matrix(table: &FlowTable) -> ExposureMatrix {
    let mut matrix = ExposureMatrix::default();
    for (flow, labels) in table.flows.iter().zip(table.labels()) {
        let protocol = labels.paper;
        if !TABLE1_PROTOCOLS.contains(&protocol) {
            continue;
        }
        let set = matrix.cells.entry(protocol.to_string()).or_default();
        // ARP: the reply itself reveals sender MACs (structurally).
        if protocol == "ARP" {
            set.insert(ExposureType::Mac);
            continue;
        }
        for payload in &flow.payload_samples {
            scan_payload(protocol, payload, set);
        }
    }
    matrix
}

fn scan_payload(protocol: &str, payload: &[u8], set: &mut BTreeSet<ExposureType>) {
    let text = String::from_utf8_lossy(payload);
    match protocol {
        "DHCP" => {
            if let Ok(packet) = iotlan_wire::dhcpv4::Packet::new_checked(payload) {
                if let Ok(repr) = iotlan_wire::dhcpv4::Repr::parse(&packet) {
                    set.insert(ExposureType::Mac); // chaddr is always present
                    if let Some(hostname) = &repr.hostname {
                        set.insert(ExposureType::DeviceModel);
                        if !ident::extract_names(hostname).is_empty() || hostname.contains('\'') {
                            set.insert(ExposureType::DisplayName);
                        }
                    }
                    if let Some(vendor_class) = &repr.vendor_class {
                        set.insert(ExposureType::OsVersion);
                        if looks_outdated(vendor_class) {
                            set.insert(ExposureType::OutdatedSoftware);
                        }
                    }
                }
            }
        }
        "mDNS" => {
            if let Ok(message) = iotlan_wire::dns::Message::parse(payload) {
                let content = message.text_content().join(" ");
                if !ident::extract_mac_candidates(&content).is_empty() {
                    set.insert(ExposureType::Mac);
                }
                if !ident::extract_uuids(&content).is_empty() {
                    set.insert(ExposureType::Uuid);
                }
                if !ident::extract_names(&content).is_empty() {
                    set.insert(ExposureType::DisplayName);
                }
                if content.contains("md=") || content.contains("model") {
                    set.insert(ExposureType::DeviceModel);
                }
            }
        }
        "SSDP" => {
            if !ident::extract_uuids(&text).is_empty() {
                set.insert(ExposureType::Uuid);
            }
            if !ident::extract_mac_candidates(&text).is_empty() {
                set.insert(ExposureType::Mac);
            }
            if !ident::extract_names(&text).is_empty() {
                set.insert(ExposureType::DisplayName);
            }
            if text.contains("SERVER:") || text.contains("Server:") {
                set.insert(ExposureType::OsVersion);
                if text.contains("UPnP/1.0") {
                    set.insert(ExposureType::OutdatedSoftware);
                }
            }
        }
        "TuyaLP" => {
            if let Ok(frame) = iotlan_wire::tuya::Frame::parse(payload) {
                if frame.gw_id().is_some() {
                    set.insert(ExposureType::GwId);
                }
                if frame.product_key().is_some() {
                    set.insert(ExposureType::ProductKey);
                }
            }
        }
        "TPLINK_SHP" => {
            if let Ok(message) = iotlan_wire::tplink::Message::from_udp_bytes(payload) {
                if let Some(info) = message.sysinfo() {
                    if info.contains_key("deviceId") {
                        set.insert(ExposureType::Uuid);
                    }
                    if info.contains_key("oemId") {
                        set.insert(ExposureType::OemId);
                    }
                    if info.contains_key("model") || info.contains_key("dev_name") {
                        set.insert(ExposureType::DeviceModel);
                    }
                    if info.contains_key("sw_ver") {
                        set.insert(ExposureType::OsVersion);
                    }
                    if message.geolocation().is_some() {
                        set.insert(ExposureType::Geolocation);
                    }
                }
            }
        }
        _ => {}
    }
}

fn looks_outdated(vendor_class: &str) -> bool {
    // Old busybox udhcp and early dhcpcd versions, per §5.1's "37 devices
    // use old or custom DHCP client versions".
    vendor_class.contains("udhcp 1.1")
        || vendor_class.contains("udhcp 1.2")
        || vendor_class.contains("dhcpcd-5")
        || vendor_class.contains("udhcp 1.15")
        || vendor_class.contains("udhcp 1.19")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_classify::flow::FlowTable;
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_netsim::SimTime;

    fn ep(last: u8) -> Endpoint {
        Endpoint {
            mac: iotlan_wire::ethernet::EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: std::net::Ipv4Addr::new(192, 168, 10, last),
        }
    }

    fn table_with(frames: Vec<Vec<u8>>) -> FlowTable {
        let mut table = FlowTable::default();
        for frame in frames {
            table.add_frame(SimTime::ZERO, &frame);
        }
        table
    }

    #[test]
    fn tplink_row_matches_table1() {
        let sysinfo = iotlan_wire::tplink::Message::sysinfo_response(
            "TP-Link Plug",
            "Wi-Fi Smart Plug",
            "DEVID",
            "HWID",
            "OEMID",
            42.337681,
            -71.087036,
            1,
        );
        let table = table_with(vec![stack::udp_unicast(
            ep(1),
            ep(2),
            9999,
            43210,
            &sysinfo.to_udp_bytes(),
        )]);
        let matrix = exposure_matrix(&table);
        assert!(matrix.exposes("TPLINK_SHP", ExposureType::Geolocation));
        assert!(matrix.exposes("TPLINK_SHP", ExposureType::OemId));
        assert!(matrix.exposes("TPLINK_SHP", ExposureType::DeviceModel));
        assert!(!matrix.exposes("TPLINK_SHP", ExposureType::GwId));
    }

    #[test]
    fn tuya_row() {
        let frame = iotlan_wire::tuya::Frame::discovery("gw123", "prodkey", "192.168.10.5", "3.3");
        let table = table_with(vec![stack::udp_broadcast(
            ep(1),
            40000,
            6666,
            &frame.to_bytes(),
        )]);
        let matrix = exposure_matrix(&table);
        assert!(matrix.exposes("TuyaLP", ExposureType::GwId));
        assert!(matrix.exposes("TuyaLP", ExposureType::ProductKey));
        assert!(!matrix.exposes("TuyaLP", ExposureType::Geolocation));
    }

    #[test]
    fn mdns_and_ssdp_rows() {
        let response = iotlan_wire::dns::Message::mdns_response(vec![iotlan_wire::dns::Record {
            name: "Philips Hue - 685F61._hue._tcp.local".into(),
            cache_flush: true,
            ttl: 120,
            rdata: iotlan_wire::dns::RData::Txt(vec![
                "bridgeid=001788685f61".into(),
                "md=BSB002".into(),
            ]),
        }]);
        let ssdp_response = iotlan_wire::ssdp::Message::response(
            "upnp:rootdevice",
            "2f402f80-da50-11e1-9b23-001788685f61",
            Some("http://192.168.10.12:80/description.xml"),
            Some("Linux/3.14.0 UPnP/1.0 IpBridge/1.56.0"),
        );
        let table = table_with(vec![
            stack::udp_multicast(
                ep(1),
                std::net::Ipv4Addr::new(224, 0, 0, 251),
                5353,
                5353,
                &response.to_bytes(),
            ),
            stack::udp_unicast(ep(1), ep(2), 1900, 50000, &ssdp_response.to_bytes()),
        ]);
        let matrix = exposure_matrix(&table);
        assert!(matrix.exposes("mDNS", ExposureType::Mac));
        assert!(matrix.exposes("mDNS", ExposureType::DeviceModel));
        assert!(matrix.exposes("SSDP", ExposureType::Uuid));
        assert!(matrix.exposes("SSDP", ExposureType::OsVersion));
        assert!(matrix.exposes("SSDP", ExposureType::OutdatedSoftware));
    }

    #[test]
    fn dhcp_row() {
        let discover = iotlan_wire::dhcpv4::Repr::discover(
            7,
            iotlan_wire::ethernet::EthernetAddress([2, 0, 0, 0, 0, 9]),
            Some("Jane-Doe's Kitchen".into()),
            Some("udhcp 1.19.4".into()),
            vec![1, 3, 6],
        );
        let table = table_with(vec![stack::udp_broadcast(
            Endpoint {
                mac: iotlan_wire::ethernet::EthernetAddress([2, 0, 0, 0, 0, 9]),
                ip: std::net::Ipv4Addr::UNSPECIFIED,
            },
            68,
            67,
            &discover.to_bytes(),
        )]);
        let matrix = exposure_matrix(&table);
        assert!(matrix.exposes("DHCP", ExposureType::Mac));
        assert!(matrix.exposes("DHCP", ExposureType::DeviceModel));
        assert!(matrix.exposes("DHCP", ExposureType::OsVersion));
        assert!(matrix.exposes("DHCP", ExposureType::OutdatedSoftware));
    }

    #[test]
    fn render_matrix() {
        let frame = iotlan_wire::tuya::Frame::discovery("gw", "pk", "192.168.10.5", "3.3");
        let table = table_with(vec![stack::udp_broadcast(
            ep(1),
            40000,
            6666,
            &frame.to_bytes(),
        )]);
        let matrix = exposure_matrix(&table);
        let rendered = matrix.render();
        assert!(rendered.contains("TuyaLP"));
        assert!(rendered.contains("GWid"));
    }
}
