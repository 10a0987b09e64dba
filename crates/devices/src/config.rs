//! Declarative device configuration: identity, protocol stack, cadences,
//! open services and exposure knobs. One `DeviceConfig` per physical device
//! in Table 3; the [`crate::device::Device`] node executes it.

use crate::services::ServicePort;
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::tls::{CertificateInfo, Version as TlsVersion};
use std::net::Ipv4Addr;

/// Table 3's device categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    GameConsole,
    GenericIot,
    HomeAppliance,
    HomeAutomation,
    MediaTv,
    Surveillance,
    VoiceAssistant,
}

impl Category {
    pub const ALL: [Category; 7] = [
        Category::GameConsole,
        Category::GenericIot,
        Category::HomeAppliance,
        Category::HomeAutomation,
        Category::MediaTv,
        Category::Surveillance,
        Category::VoiceAssistant,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Category::GameConsole => "Game Console",
            Category::GenericIot => "Generic IoT",
            Category::HomeAppliance => "Home Appliance",
            Category::HomeAutomation => "Home Automation",
            Category::MediaTv => "Media/TV",
            Category::Surveillance => "Surveillance",
            Category::VoiceAssistant => "Voice Assistant",
        }
    }
}

/// How the device constructs its DHCP hostname — the §5.1 taxonomy of
/// hostname naming methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostnameScheme {
    /// Fixed model-name hostname (e.g. Ring cameras).
    Model(String),
    /// Device name plus a MAC fragment (e.g. Ring Chime).
    NamePlusMac(String),
    /// A user-defined display name leaks into the hostname (Google/Apple
    /// speakers: "Jane Doe's Kitchen Homepod").
    DisplayName,
    /// Randomized bytes per request (GE Microwave, TiVo Stream) — the
    /// privacy-preserving outlier.
    Randomized(String),
    /// No hostname sent at all.
    None,
}

/// mDNS behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdnsConfig {
    /// Service types advertised (e.g. `_googlecast._tcp.local`).
    pub advertise: Vec<MdnsService>,
    /// Service types periodically queried.
    pub query: Vec<String>,
    /// Query cadence in seconds (20–100 s for the big platforms, §5.1).
    pub query_interval_secs: u64,
    /// Whether responses are also sent unicast to QU queries (~20% of
    /// devices).
    pub unicast_response: bool,
}

/// One advertised mDNS service instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdnsService {
    /// Service type, e.g. `_hue._tcp.local`.
    pub service_type: String,
    /// Instance name, e.g. `Philips Hue - 685F61` — identifier leaks live
    /// here.
    pub instance: String,
    /// Advertised port.
    pub port: u16,
    /// TXT records (`key=value`).
    pub txt: Vec<String>,
}

/// SSDP behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsdpConfig {
    /// M-SEARCH targets actively queried (empty = passive only).
    pub search_targets: Vec<String>,
    /// Active search cadence in seconds (Google: 20 s; Echo: 2–3 h).
    pub search_interval_secs: u64,
    /// NOTIFY announcements sent periodically.
    pub notify: bool,
    /// Whether the device answers M-SEARCH queries (only 9 devices do).
    pub responds: bool,
    /// Device UUID placed in USN — often embeds serial numbers or MACs.
    pub uuid: String,
    /// SERVER banner, e.g. `Linux, UPnP/1.0, Private UPnP SDK`.
    pub server_banner: String,
    /// LOCATION URL. The Fire TV misconfiguration announces a /16 address
    /// unreachable on the LAN.
    pub location: Option<String>,
    /// UPnP version advertised; 1.0 is the known-exploitable legacy (§5.1).
    pub upnp_version_10: bool,
}

/// ARP scanning behaviour (the Amazon Echo pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpScanConfig {
    /// Broadcast-sweep the whole /24 at this interval (Echo: daily).
    pub sweep_interval_secs: u64,
    /// Also send targeted unicast ARP requests to known hosts.
    pub unicast_probes: bool,
}

/// TP-Link Smart Home protocol role.
#[derive(Debug, Clone, PartialEq)]
pub enum TplinkRole {
    /// A TP-Link device: answers SHP discovery with full sysinfo including
    /// plaintext geolocation.
    Server {
        alias: String,
        dev_name: String,
        device_id: String,
        hw_id: String,
        oem_id: String,
        latitude: f64,
        longitude: f64,
    },
    /// A platform device (Echo/Google) broadcasting SHP discovery queries.
    Client { poll_interval_secs: u64 },
}

/// TuyaLP broadcast behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuyaConfig {
    pub gw_id: String,
    pub product_key: String,
    /// Broadcast cadence in seconds.
    pub interval_secs: u64,
    /// Port: 6666 (plain) or 6667 ("encrypted").
    pub port: u16,
}

/// A periodic local TLS session to a sibling device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsPeerConfig {
    /// Peer device IP (must be a catalog sibling).
    pub peer_ip: Ipv4Addr,
    pub peer_port: u16,
    pub version: TlsVersion,
    pub interval_secs: u64,
}

/// Periodic plaintext HTTP polling of a sibling device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpPollConfig {
    pub peer_ip: Ipv4Addr,
    pub peer_port: u16,
    pub path: String,
    /// User-Agent, if the device sends one (only Google and LG do, §5.2).
    pub user_agent: Option<String>,
    pub interval_secs: u64,
}

/// Periodic RTP streaming to a sibling (Echo multi-room audio).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpConfig {
    pub peer_ip: Ipv4Addr,
    pub port: u16,
    pub interval_secs: u64,
}

/// CoAP client behaviour (Samsung fridge → IoTivity; HomePod opaque).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapConfig {
    pub uri_path: String,
    pub interval_secs: u64,
    pub multicast: bool,
}

/// How the device reacts to active scans — the §4.2 observation that only
/// 54/93 answered TCP SYN scans, 20 answered UDP and 58 answered IP-proto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanProfile {
    /// Closed TCP ports answer RST (true) vs drop silently (false).
    pub responds_tcp: bool,
    /// Closed UDP ports answer ICMP port-unreachable.
    pub responds_udp: bool,
    /// Unsupported IP protocols answer ICMP protocol-unreachable.
    pub responds_ip_proto: bool,
}

/// Identity material beyond addressing — the raw inputs of the household
/// fingerprinting analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    /// A persistent device UUID (exposed via SSDP USN / mDNS TXT).
    pub uuid: Option<String>,
    /// A user-chosen display name (e.g. "Danny's Room") — the `name`
    /// identifier class of Table 2.
    pub display_name: Option<String>,
    /// Installed geolocation, when the device knows it (TP-Link).
    pub geolocation: Option<(f64, f64)>,
    /// Serial number, when advertised.
    pub serial: Option<String>,
}

impl Identity {
    pub fn anonymous() -> Identity {
        Identity {
            uuid: None,
            display_name: None,
            geolocation: None,
            serial: None,
        }
    }
}

/// The complete declarative model of one testbed device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Unique human-readable name, e.g. "Amazon Echo Spot".
    pub name: String,
    pub vendor: String,
    pub model: String,
    pub category: Category,
    pub mac: EthernetAddress,
    pub ip: Ipv4Addr,
    /// IPv6/SLAAC support (59% of devices, §4.1).
    pub ipv6: bool,
    /// NDP multicast discovery (55% of devices).
    pub ndp_discovery: bool,
    /// NDP probe fan-out per round (the Nest Hub probed 2,597 addresses).
    pub ndp_probe_count: u32,
    /// Emits EAPOL at association (84% of devices).
    pub eapol: bool,
    /// Joins IGMP groups (56% of devices).
    pub igmp: bool,
    pub hostname: HostnameScheme,
    /// DHCP option 60 — client name/version.
    pub dhcp_vendor_class: Option<String>,
    /// DHCP option 55 — parameter request list.
    pub dhcp_param_list: Vec<u8>,
    pub mdns: Option<MdnsConfig>,
    pub ssdp: Option<SsdpConfig>,
    pub arp_scan: Option<ArpScanConfig>,
    /// Whether the device answers *broadcast* ARP requests (58% do; all
    /// answer unicast ARP, §5.1).
    pub responds_broadcast_arp: bool,
    pub tplink: Option<TplinkRole>,
    pub tuya: Option<TuyaConfig>,
    pub coap: Option<CoapConfig>,
    pub tls_peers: Vec<TlsPeerConfig>,
    pub http_polls: Vec<HttpPollConfig>,
    pub rtp: Option<RtpConfig>,
    /// Probe UDP 56700 (LIFX) at this interval — Echo's every-2-hours
    /// unidentified broadcast (§5.1).
    pub lifx_probe_interval_secs: Option<u64>,
    /// Periodic ICMP connectivity check to the gateway (the background
    /// ICMP that makes the protocol show on ~78% of devices in Fig. 2).
    pub pings_gateway: bool,
    /// Open TCP services (port scanner + Nessus attack surface).
    pub open_tcp: Vec<ServicePort>,
    /// Open UDP services.
    pub open_udp: Vec<ServicePort>,
    pub scan_profile: ScanProfile,
    pub identity: Identity,
    /// TLS certificate presented by any TLS service this device runs.
    pub tls_certificate: Option<CertificateInfo>,
}

impl DeviceConfig {
    /// A quiet baseline device: IPv4 only, DHCP + ARP + ICMP, no discovery
    /// protocols, nothing open. Vendor constructors start from this.
    pub fn base(
        name: &str,
        vendor: &str,
        model: &str,
        category: Category,
        mac: EthernetAddress,
        ip: Ipv4Addr,
    ) -> DeviceConfig {
        DeviceConfig {
            name: name.to_string(),
            vendor: vendor.to_string(),
            model: model.to_string(),
            category,
            mac,
            ip,
            ipv6: false,
            ndp_discovery: false,
            ndp_probe_count: 4,
            eapol: true,
            igmp: false,
            hostname: HostnameScheme::Model(model.to_string()),
            dhcp_vendor_class: None,
            dhcp_param_list: vec![1, 3, 6, 15, 28],
            mdns: None,
            ssdp: None,
            arp_scan: None,
            responds_broadcast_arp: true,
            tplink: None,
            tuya: None,
            coap: None,
            tls_peers: Vec::new(),
            http_polls: Vec::new(),
            rtp: None,
            lifx_probe_interval_secs: None,
            pings_gateway: true,
            open_tcp: Vec::new(),
            open_udp: Vec::new(),
            scan_profile: ScanProfile {
                responds_tcp: false,
                responds_udp: false,
                responds_ip_proto: true,
            },
            identity: Identity::anonymous(),
            tls_certificate: None,
        }
    }

    /// The hostname this device would place in a DHCP request right now.
    /// `nonce` feeds the randomized schemes.
    pub fn hostname_string(&self, nonce: u64) -> Option<String> {
        match &self.hostname {
            HostnameScheme::Model(m) => Some(m.clone()),
            HostnameScheme::NamePlusMac(name) => {
                let m = self.mac.0;
                Some(format!("{name}-{:02x}{:02x}{:02x}", m[3], m[4], m[5]))
            }
            HostnameScheme::DisplayName => self
                .identity
                .display_name
                .clone()
                .map(|d| d.replace(' ', "-")),
            HostnameScheme::Randomized(prefix) => Some(format!("{prefix}-{:016x}", nonce)),
            HostnameScheme::None => None,
        }
    }

    /// Every local-protocol label this device's configuration implies —
    /// used as ground truth for the Figure 2 "supported protocols" bars.
    pub fn supported_protocols(&self) -> Vec<&'static str> {
        let mut protocols = vec!["ARP", "DHCP", "ICMP", "IPv4"];
        if self.eapol {
            protocols.push("EAPOL");
        }
        if self.igmp {
            protocols.push("IGMP");
        }
        if self.ipv6 {
            protocols.push("IPv6");
            protocols.push("ICMPv6");
        }
        if self.mdns.is_some() {
            protocols.push("mDNS");
        }
        if self.ssdp.is_some() {
            protocols.push("SSDP");
        }
        if self.tplink.is_some() {
            protocols.push("TPLINK_SHP");
        }
        if self.tuya.is_some() {
            protocols.push("TuyaLP");
        }
        if self.coap.is_some() {
            protocols.push("COAP");
        }
        if !self.tls_peers.is_empty() || self.open_tcp.iter().any(|s| s.service.is_tls()) {
            protocols.push("TLS");
        }
        if !self.http_polls.is_empty() || self.open_tcp.iter().any(|s| s.service.is_http()) {
            protocols.push("HTTP");
        }
        if self.rtp.is_some() {
            protocols.push("RTP");
        }
        if self.lifx_probe_interval_secs.is_some() {
            protocols.push("UNKNOWN");
        }
        protocols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DeviceConfig {
        DeviceConfig::base(
            "Test Device",
            "Acme",
            "Widget 2",
            Category::GenericIot,
            EthernetAddress([2, 0, 0, 0xaa, 0xbb, 0xcc]),
            Ipv4Addr::new(192, 168, 10, 50),
        )
    }

    #[test]
    fn hostname_schemes() {
        let mut config = base();
        assert_eq!(config.hostname_string(0).as_deref(), Some("Widget 2"));

        config.hostname = HostnameScheme::NamePlusMac("RingChime".into());
        assert_eq!(
            config.hostname_string(0).as_deref(),
            Some("RingChime-aabbcc")
        );

        config.hostname = HostnameScheme::DisplayName;
        config.identity.display_name = Some("Jane Doe's Kitchen Homepod".into());
        assert_eq!(
            config.hostname_string(0).as_deref(),
            Some("Jane-Doe's-Kitchen-Homepod")
        );

        config.hostname = HostnameScheme::Randomized("ge".into());
        let h1 = config.hostname_string(1).unwrap();
        let h2 = config.hostname_string(2).unwrap();
        assert_ne!(h1, h2);
        assert!(h1.starts_with("ge-"));

        config.hostname = HostnameScheme::None;
        assert_eq!(config.hostname_string(0), None);
    }

    #[test]
    fn base_protocol_floor() {
        let protocols = base().supported_protocols();
        for p in ["ARP", "DHCP", "ICMP", "EAPOL"] {
            assert!(protocols.contains(&p), "missing {p}");
        }
        assert!(!protocols.contains(&"mDNS"));
    }

    #[test]
    fn protocol_list_tracks_config() {
        let mut config = base();
        config.ipv6 = true;
        config.mdns = Some(MdnsConfig {
            advertise: vec![],
            query: vec!["_services._dns-sd._udp.local".into()],
            query_interval_secs: 60,
            unicast_response: false,
        });
        config.tuya = Some(TuyaConfig {
            gw_id: "gw".into(),
            product_key: "pk".into(),
            interval_secs: 10,
            port: 6666,
        });
        let protocols = config.supported_protocols();
        for p in ["IPv6", "ICMPv6", "mDNS", "TuyaLP"] {
            assert!(protocols.contains(&p), "missing {p}");
        }
    }

    #[test]
    fn category_names() {
        assert_eq!(Category::ALL.len(), 7);
        assert_eq!(Category::VoiceAssistant.name(), "Voice Assistant");
    }
}
