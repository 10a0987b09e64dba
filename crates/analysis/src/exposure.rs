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
    let flows = table.flows.iter().zip(table.labels());
    matrix(flows.map(|(flow, labels)| (labels.paper, &flow.payload_samples[..])))
}

/// The matrix of `flows`, each given as its paper-pipeline protocol label
/// and its payload samples.
fn matrix<'a>(flows: impl IntoIterator<Item = (&'a str, &'a [Vec<u8>])>) -> ExposureMatrix {
    let mut matrix = ExposureMatrix::default();
    for (protocol, payloads) in flows {
        if !TABLE1_PROTOCOLS.contains(&protocol) {
            continue;
        }
        let set = matrix.cells.entry(protocol.to_string()).or_default();
        // ARP: the reply itself reveals sender MACs (structurally).
        if protocol == "ARP" {
            set.insert(ExposureType::Mac);
            continue;
        }
        for payload in payloads {
            scan_payload(protocol, payload, set);
        }
    }
    matrix
}

/// Add to `set` what one payload of `protocol` exposes. The set only
/// grows, so the payload is parsed, and the identifier scan run, only while
/// the set lacks a type they could add.
fn scan_payload(protocol: &str, payload: &[u8], set: &mut BTreeSet<ExposureType>) {
    use ExposureType::*;
    let lacks = |set: &BTreeSet<_>, could_add: &[_]| could_add.iter().any(|t| !set.contains(t));
    let could_add: &[ExposureType] = match protocol {
        "DHCP" => &[Mac, DeviceModel, DisplayName, OsVersion, OutdatedSoftware],
        "mDNS" => &[Mac, Uuid, DisplayName, DeviceModel],
        "SSDP" => &[Mac, Uuid, DisplayName, OsVersion, OutdatedSoftware],
        "TuyaLP" => &[GwId, ProductKey],
        "TPLINK_SHP" => &[Uuid, OemId, DeviceModel, OsVersion, Geolocation],
        _ => &[],
    };
    if !lacks(set, could_add) {
        return;
    }
    match protocol {
        "DHCP" => {
            if let Ok(packet) = iotlan_wire::dhcpv4::Packet::new_checked(payload) {
                if let Ok(repr) = iotlan_wire::dhcpv4::Repr::parse(&packet) {
                    set.insert(ExposureType::Mac); // chaddr is always present
                    if let Some(hostname) = &repr.hostname {
                        set.insert(ExposureType::DeviceModel);
                        // Every possessive name holds an apostrophe.
                        if hostname.contains('\'') {
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
                if lacks(set, &[Mac, Uuid, DisplayName]) {
                    set.extend(identifier_types(&content));
                }
                if content.contains("md=") || content.contains("model") {
                    set.insert(ExposureType::DeviceModel);
                }
            }
        }
        "SSDP" => {
            let text = String::from_utf8_lossy(payload);
            if lacks(set, &[Mac, Uuid, DisplayName]) {
                set.extend(identifier_types(&text));
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

/// The identifier types (MAC, UUID, display name) `text` holds, from one
/// allocation-free `ident` pass.
fn identifier_types(text: &str) -> impl Iterator<Item = ExposureType> {
    let kinds = ident::kinds(text);
    let found = [
        (kinds.mac, ExposureType::Mac),
        (kinds.uuid, ExposureType::Uuid),
        (kinds.name, ExposureType::DisplayName),
    ];
    found
        .into_iter()
        .filter_map(|(held, exposure)| held.then_some(exposure))
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
    use iotlan_classify::flow::{FlowTable, MAX_SAMPLES};
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_netsim::SimTime;
    use iotlan_util::check::Gen;
    use iotlan_util::json;

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

    /// A TXT string, SSDP header or DHCP hostname: a possessive name, a
    /// UUID, a MAC in any syntax, a model key, a server line or noise.
    fn snippet(g: &mut Gen) -> String {
        let hex = |g: &mut Gen, len| g.string_of("0123456789abcdefABCDEF", len, len);
        match g.int_in(0..8u8) {
            0 => format!("{}'s {}", g.label(1, 6), g.label(1, 6)),
            1 => [8, 4, 4, 4, 12].map(|len| hex(g, len)).join("-"),
            2 => {
                let sep = [":", "-", ""][g.int_in(0..3usize)];
                (0..6).map(|_| hex(g, 2)).collect::<Vec<_>>().join(sep)
            }
            3 => format!("md={}", g.label(1, 8)),
            4 => format!("model={}", g.label(1, 8)),
            5 => {
                let header = ["SERVER:", "Server:", "server:"][g.int_in(0..3usize)];
                let version = ["UPnP/1.0", "UPnP/1.1", ""][g.int_in(0..3usize)];
                format!("{header} Linux/3.14 {version}")
            }
            _ => g.string_of("abcdef0123456789xyz '=:-", 0, 16),
        }
    }

    /// A payload for `protocol` (often a valid one), or one for another
    /// protocol; sometimes truncated or made invalid UTF-8.
    fn payload(g: &mut Gen, protocol: &str) -> Vec<u8> {
        let kind = match g.int_in(0..4u8) {
            0 => ["DHCP", "mDNS", "SSDP", "TuyaLP", "TPLINK_SHP"][g.int_in(0..5usize)],
            _ => protocol,
        };
        let mut bytes = match kind {
            "DHCP" => {
                let hostname = g.option(snippet);
                let vendor = ["udhcp 1.19.4", "dhcpcd-6.8.2", "MSFT 5.0"][g.int_in(0..3usize)];
                let vendor_class = g.option(|_| vendor.to_string());
                let mac = iotlan_wire::ethernet::EthernetAddress(g.array());
                iotlan_wire::dhcpv4::Repr::discover(g.u32(), mac, hostname, vendor_class, vec![1])
                    .to_bytes()
            }
            "mDNS" if g.bool() => {
                let record = iotlan_wire::dns::Record {
                    name: format!("{}._hap._tcp.local", g.label(1, 8)),
                    cache_flush: true,
                    ttl: 120,
                    rdata: iotlan_wire::dns::RData::Txt(g.vec_of(0, 4, snippet)),
                };
                iotlan_wire::dns::Message::mdns_response(vec![record]).to_bytes()
            }
            "mDNS" => {
                let name = format!("{}._googlecast._tcp.local", snippet(g));
                let question = [(name.as_str(), iotlan_wire::dns::RecordType::Ptr)];
                iotlan_wire::dns::Message::mdns_query(&question).to_bytes()
            }
            "SSDP" if g.bool() => {
                let uuid = [8, 4, 4, 4, 12].map(|len| g.string_of("0123456789abcdef", len, len));
                let servers = [
                    "Linux/3.14 UPnP/1.0 IpBridge/1.56",
                    "Linux/4.9 UPnP/1.1 Hub/2",
                ];
                let server = g.option(|g| servers[g.int_in(0..2usize)]);
                iotlan_wire::ssdp::Message::response(
                    "upnp:rootdevice",
                    &uuid.join("-"),
                    None,
                    server,
                )
                .to_bytes()
            }
            "SSDP" => g.vec_of(0, 5, snippet).join("\r\n").into_bytes(),
            "TuyaLP" => {
                let fields = [
                    ("gwId", g.label(1, 8)),
                    ("productKey", g.label(1, 8)),
                    ("ip", g.label(1, 4)),
                ];
                let kept: Vec<String> = fields
                    .iter()
                    .filter(|_| g.bool())
                    .map(|(key, value)| format!("\"{key}\":\"{value}\""))
                    .collect();
                let body = json::from_slice(format!("{{{}}}", kept.join(",")).as_bytes());
                let payload = body.expect("a JSON object");
                iotlan_wire::tuya::Frame {
                    sequence: 0,
                    command: 19,
                    payload,
                }
                .to_bytes()
            }
            _ => {
                let keys = [
                    "deviceId",
                    "oemId",
                    "model",
                    "dev_name",
                    "sw_ver",
                    "latitude",
                    "longitude",
                ];
                let kept: Vec<String> = keys
                    .iter()
                    .filter(|_| g.bool())
                    .map(|key| format!("\"{key}\":1.5"))
                    .collect();
                let body = format!("{{\"system\":{{\"get_sysinfo\":{{{}}}}}}}", kept.join(","));
                iotlan_wire::tplink::encrypt(body.as_bytes())
            }
        };
        match g.int_in(0..4u8) {
            0 => bytes.truncate(g.int_in(0..=bytes.len())),
            1 if !bytes.is_empty() => {
                let at = g.int_in(0..bytes.len());
                bytes[at] = [0xff, 0xc3, 0x80][g.int_in(0..3usize)];
            }
            _ => {}
        }
        bytes
    }

    iotlan_util::props! {
        /// The matrix equals the oracle's, which runs every check on every
        /// payload, over random flows: Table 1's protocols and others,
        /// each with up to three payloads (mDNS responses and queries,
        /// SSDP, DHCP, Tuya and TP-Link, valid, truncated, invalid UTF-8
        /// or another protocol's), in several random orders. Each case
        /// draws its flows from two labels, so rows fill up and later
        /// payloads meet rows that already hold some of what they expose.
        fn matrix_equals_the_oracle(g) {
            const LABELS: [&str; 7] = ["ARP", "DHCP", "mDNS", "SSDP", "TuyaLP", "TPLINK_SHP", "HTTP"];
            let labels = [(); 2].map(|_| LABELS[g.int_in(0..LABELS.len())]);
            let flows: Vec<(&str, Vec<Vec<u8>>)> = g.vec_of(1, 40, |g| {
                let protocol = labels[g.int_in(0..2usize)];
                (protocol, g.vec_of(1, MAX_SAMPLES, |g| payload(g, protocol)))
            });
            // The same flows in several orders: the order decides which
            // checks the row lets the scan skip.
            let mut flows = flows;
            for _ in 0..8 {
                g.rng().shuffle(&mut flows);
                for (_, payloads) in &mut flows {
                    g.rng().shuffle(payloads);
                }
                let rows = || flows.iter().map(|(protocol, payloads)| (*protocol, &payloads[..]));
                assert_eq!(matrix(rows()).cells, oracle::exposure_matrix(rows()).cells, "{flows:?}");
            }
        }
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

/// The matrix as first written, kept as a test oracle: every check on every
/// payload, through `ident`'s `String`-collecting extractors.
#[cfg(test)]
mod oracle {
    use super::{looks_outdated, ExposureMatrix, ExposureType, TABLE1_PROTOCOLS};
    use iotlan_inspector::ident;
    use std::collections::BTreeSet;

    /// The original matrix, over flows given as (label, payload samples).
    pub fn exposure_matrix<'a>(
        flows: impl IntoIterator<Item = (&'a str, &'a [Vec<u8>])>,
    ) -> ExposureMatrix {
        let mut matrix = ExposureMatrix::default();
        for (protocol, payload_samples) in flows {
            if !TABLE1_PROTOCOLS.contains(&protocol) {
                continue;
            }
            let set = matrix.cells.entry(protocol.to_string()).or_default();
            // ARP: the reply itself reveals sender MACs (structurally).
            if protocol == "ARP" {
                set.insert(ExposureType::Mac);
                continue;
            }
            for payload in payload_samples {
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
                            if !ident::extract_names(hostname).is_empty() || hostname.contains('\'')
                            {
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
}
