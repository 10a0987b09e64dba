//! The MonIoTr Lab device inventory (Table 3 of the paper): 93 IP-based
//! devices, 78 unique device models, 7 categories.
//!
//! Table 3 as printed sums to 92 devices against the "93 devices"
//! headline; we follow the headline by modelling 18 Amazon voice
//! assistants (the Echo family), and note the discrepancy here.
//!
//! Every behavioural parameter is sourced from the paper:
//! * Echo: daily broadcast ARP sweep + unicast probes (§5.1), SSDP every
//!   2–3 h for `ssdp:all`/`upnp:rootdevice`, mDNS every 20–100 s, open
//!   TCP 55442/55443/4070 (§4.2), RTP:55444 multi-room audio, LIFX UDP
//!   56700 probe every 2 h, self-signed 3-month TLS certs with RFC 1918
//!   CNs, TPLINK-SHP client polling.
//! * Google/Nest: SSDP every 20 s for specific targets, mDNS googlecast,
//!   TLSv1.2 on 8009 with 64–122-bit keys and 20-year internal-PKI leafs,
//!   UDP 10000–10010 RTP that tools mislabel STUN, Nest Hub's 16-protocol
//!   stack and wide ICMPv6 fan-out, Chromecast OS User-Agents.
//! * Apple: TLSv1.3 with encrypted certificates, Bonjour sleep proxy,
//!   HomePod CoAP and SheerDNS 1.0.0 with cache snooping.
//! * TP-Link: SHP sysinfo with plaintext latitude/longitude, deviceId,
//!   hwId, oemId; unauthenticated TCP 9999 control.
//! * Tuya: TuyaLP broadcasts with gwId/productKey on 6666/6667.
//! * Hue: MAC-embedded mDNS instance names, UPnP/1.0 IpBridge banner,
//!   20+-year self-signed certificates.
//! * TVs: Roku possessive SSDP names + IGD searches, Fire TV /16 NOTIFY
//!   misconfiguration, LG's three WebOS firmware banners.
//! * Cameras: Lefun backup-file HTTP server, Microseven jQuery 1.2 +
//!   unauthenticated ONVIF snapshot + account listing.
//! * Hostname schemes: Ring Chime name+MAC, Ring cameras model names,
//!   Tuya vendor+MAC-fragment, Google/Apple display names, GE Microwave
//!   and TiVo randomized bytes (§5.1).

use crate::config::{
    ArpScanConfig, Category, CoapConfig, DeviceConfig, HostnameScheme, HttpPollConfig, MdnsConfig,
    MdnsService, RtpConfig, ScanProfile, SsdpConfig, TlsPeerConfig, TplinkRole, TuyaConfig,
};
use crate::services::{ServiceKind, ServicePort};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::tls::{CertificateInfo, Version as TlsVersion, TLS_RSA_WITH_3DES_EDE_CBC_SHA};
use std::net::Ipv4Addr;

/// Vendor OUI registry (first three MAC octets). The same table feeds the
/// inspector crate's vendor inference.
pub mod oui {
    pub const AMAZON: [u8; 3] = [0x74, 0xc2, 0x46];
    pub const GOOGLE: [u8; 3] = [0x54, 0x60, 0x09];
    pub const APPLE: [u8; 3] = [0x28, 0xcf, 0xe9];
    pub const META: [u8; 3] = [0xb8, 0x3a, 0x5a];
    pub const PHILIPS: [u8; 3] = [0x00, 0x17, 0x88];
    pub const TPLINK: [u8; 3] = [0x50, 0xc7, 0xbf];
    pub const TUYA: [u8; 3] = [0xd8, 0x1f, 0x12];
    pub const RING: [u8; 3] = [0x54, 0xe0, 0x19];
    pub const SAMSUNG: [u8; 3] = [0x8c, 0x79, 0x67];
    pub const SMARTTHINGS: [u8; 3] = [0x24, 0xfd, 0x5b];
    pub const BELKIN_WEMO: [u8; 3] = [0x94, 0x10, 0x3e];
    pub const LG: [u8; 3] = [0xac, 0xf1, 0x08];
    pub const ROKU: [u8; 3] = [0xb0, 0xa7, 0x37];
    pub const NINTENDO: [u8; 3] = [0x98, 0xb6, 0xe9];
    pub const AMCREST: [u8; 3] = [0x9c, 0x8e, 0xcd];
    pub const DLINK: [u8; 3] = [0xb0, 0xc5, 0x54];
    pub const ARLO: [u8; 3] = [0x3c, 0x37, 0x86];
    pub const WYZE: [u8; 3] = [0x2c, 0xaa, 0x8e];
    pub const WITHINGS: [u8; 3] = [0x00, 0x24, 0xe4];
    pub const XIAOMI: [u8; 3] = [0x78, 0x11, 0xdc];
    pub const IKEA: [u8; 3] = [0x44, 0x91, 0x60];
    pub const MEROSS: [u8; 3] = [0x48, 0xe1, 0xe9];
    pub const TIVO: [u8; 3] = [0x88, 0x0f, 0x10];
    pub const GE: [u8; 3] = [0xc8, 0xdf, 0x84];
    pub const BLINK: [u8; 3] = [0xf4, 0x03, 0x2a];
    pub const YI: [u8; 3] = [0x0c, 0x8c, 0x24];
    pub const WANSVIEW: [u8; 3] = [0x78, 0xa5, 0xdd];
    pub const LEFUN: [u8; 3] = [0x38, 0x01, 0x46];
    pub const MICROSEVEN: [u8; 3] = [0x00, 0x62, 0x6e];
    pub const UBELL: [u8; 3] = [0xbc, 0xdd, 0xc2];
    pub const ICSEE: [u8; 3] = [0x9c, 0xa3, 0xa9];
    pub const AQARA: [u8; 3] = [0x04, 0xcf, 0x8c];
    pub const SENGLED: [u8; 3] = [0xb0, 0xce, 0x18];
    pub const SWITCHBOT: [u8; 3] = [0x60, 0x55, 0xf9];
    pub const WIZ: [u8; 3] = [0xa8, 0xbb, 0x50];
    pub const YEELIGHT: [u8; 3] = [0x04, 0xcf, 0x9a];
    pub const MAGICHOME: [u8; 3] = [0x60, 0x01, 0x94];
    pub const ANOVA: [u8; 3] = [0x30, 0xae, 0xa4];
    pub const BEHMOR: [u8; 3] = [0x2c, 0x3a, 0xe8];
    pub const BLUEAIR: [u8; 3] = [0xf0, 0x08, 0xd1];
    pub const SMARTER: [u8; 3] = [0x5c, 0xcf, 0x7f];
    pub const KEYCO: [u8; 3] = [0xa0, 0x20, 0xa6];
    pub const OXYLINK: [u8; 3] = [0xbc, 0xff, 0x4d];
    pub const RENPHO: [u8; 3] = [0xc4, 0x4f, 0x33];

    /// (OUI, vendor-name) pairs for inference.
    pub const REGISTRY: &[([u8; 3], &str)] = &[
        (AMAZON, "Amazon"),
        (GOOGLE, "Google"),
        (APPLE, "Apple"),
        (META, "Meta"),
        (PHILIPS, "Philips"),
        (TPLINK, "TP-Link"),
        (TUYA, "Tuya"),
        (RING, "Ring"),
        (SAMSUNG, "Samsung"),
        (SMARTTHINGS, "SmartThings"),
        (BELKIN_WEMO, "Belkin"),
        (LG, "LG"),
        (ROKU, "Roku"),
        (NINTENDO, "Nintendo"),
        (AMCREST, "Amcrest"),
        (DLINK, "D-Link"),
        (ARLO, "Arlo"),
        (WYZE, "Wyze"),
        (WITHINGS, "Withings"),
        (XIAOMI, "Xiaomi"),
        (IKEA, "IKEA"),
        (MEROSS, "Meross"),
        (TIVO, "TiVo"),
        (GE, "GE"),
        (BLINK, "Blink"),
        (YI, "Yi"),
        (WANSVIEW, "Wansview"),
        (LEFUN, "Lefun"),
        (MICROSEVEN, "Microseven"),
        (UBELL, "Ubell"),
        (ICSEE, "ICSee"),
        (AQARA, "Aqara"),
        (SENGLED, "Sengled"),
        (SWITCHBOT, "SwitchBot"),
        (WIZ, "Wiz"),
        (YEELIGHT, "Yeelight"),
        (MAGICHOME, "MagicHome"),
        (ANOVA, "Anova"),
        (BEHMOR, "Behmor"),
        (BLUEAIR, "Blueair"),
        (SMARTER, "Smarter"),
        (KEYCO, "Keyco"),
        (OXYLINK, "Oxylink"),
        (RENPHO, "Renpho"),
    ];
}

/// The assembled testbed.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub devices: Vec<DeviceConfig>,
}

impl Catalog {
    /// Find a device by its unique name.
    pub fn find(&self, name: &str) -> Option<&DeviceConfig> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// All devices of a vendor.
    pub fn by_vendor(&self, vendor: &str) -> Vec<&DeviceConfig> {
        self.devices.iter().filter(|d| d.vendor == vendor).collect()
    }

    /// All devices of a category.
    pub fn by_category(&self, category: Category) -> Vec<&DeviceConfig> {
        self.devices
            .iter()
            .filter(|d| d.category == category)
            .collect()
    }

    /// Count of unique (vendor, model) pairs — the paper's "78 unique
    /// device models".
    pub fn unique_models(&self) -> usize {
        let mut models: Vec<(&str, &str)> = self
            .devices
            .iter()
            .map(|d| (d.vendor.as_str(), d.model.as_str()))
            .collect();
        models.sort();
        models.dedup();
        models.len()
    }

    /// IP → device-name map.
    pub fn ip_map(&self) -> std::collections::HashMap<Ipv4Addr, String> {
        self.devices
            .iter()
            .map(|d| (d.ip, d.name.clone()))
            .collect()
    }
}

struct Builder {
    devices: Vec<DeviceConfig>,
    next_host: u8,
    per_oui_counter: std::collections::HashMap<[u8; 3], u8>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            devices: Vec::new(),
            next_host: 10,
            per_oui_counter: std::collections::HashMap::new(),
        }
    }

    fn alloc(&mut self, oui: [u8; 3]) -> (EthernetAddress, Ipv4Addr) {
        let counter = self.per_oui_counter.entry(oui).or_insert(0);
        *counter += 1;
        let mac = EthernetAddress([oui[0], oui[1], oui[2], 0x10, 0x20, *counter]);
        let ip = Ipv4Addr::new(192, 168, 10, self.next_host);
        self.next_host += 1;
        (mac, ip)
    }

    fn push(&mut self, config: DeviceConfig) {
        self.devices.push(config);
    }
}

// --- certificate factories ------------------------------------------------

fn echo_certificate(ip: Ipv4Addr) -> CertificateInfo {
    CertificateInfo {
        issuer_cn: ip.to_string(),
        subject_cn: ip.to_string(),
        validity_days: 90,
        key_bits: 2048,
        self_signed: true,
    }
}

fn google_cast_certificate(name: &str) -> CertificateInfo {
    CertificateInfo {
        issuer_cn: "Chromecast ICA 3".into(),
        subject_cn: name.into(),
        validity_days: 7300, // 20-year leafs
        key_bits: 96,        // the 64–122-bit finding on port 8009
        self_signed: false,
    }
}

fn hub_certificate(subject: &str, years: u32) -> CertificateInfo {
    CertificateInfo {
        issuer_cn: subject.into(),
        subject_cn: subject.into(),
        validity_days: years * 365,
        key_bits: 2048,
        self_signed: true,
    }
}

// --- vendor families --------------------------------------------------------

/// An Amazon Echo-family device. `rtp_peer`/`tls_peer` wire the intra-vendor
/// cluster edges of Figure 4(b)/(e).
fn echo_device(
    b: &mut Builder,
    name: &str,
    model: &str,
    display_name: &str,
    rtp_peer: Option<Ipv4Addr>,
    tls_peer: Option<Ipv4Addr>,
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui::AMAZON);
    let mut c = DeviceConfig::base(name, "Amazon", model, Category::VoiceAssistant, mac, ip);
    c.ipv6 = true;
    c.ndp_discovery = true;
    c.igmp = true;
    c.hostname = HostnameScheme::NamePlusMac("amazon".into());
    c.dhcp_vendor_class = Some("udhcpc 1.30.1-Amazon".into());
    c.dhcp_param_list = vec![1, 3, 6, 15, 28, 42, 5, 69, 17];
    c.identity.display_name = Some(display_name.to_string());
    let uuid = format!(
        "ab{:02x}{:02x}01-echo-4c4f-9a2b-{:02x}51c39e2a77",
        mac.0[4], mac.0[5], mac.0[3]
    );
    c.identity.uuid = Some(uuid.clone());
    c.mdns = Some(MdnsConfig {
        advertise: vec![
            MdnsService {
                service_type: "_amzn-wplay._tcp.local".into(),
                instance: display_name.to_string(),
                port: 55442,
                txt: vec![
                    format!("u={uuid}"),
                    "t=1".into(),
                    format!("n={display_name}"),
                ],
            },
            // §4.1: "the newly-released IPv6-based Matter traffic from
            // Amazon Echo smart speakers".
            MdnsService {
                service_type: "_matter._tcp.local".into(),
                instance: format!("echo-matter-{:02x}{:02x}", mac.0[4], mac.0[5]),
                port: 5540,
                txt: vec!["CM=2".into()],
            },
        ],
        query: vec![
            "_amzn-wplay._tcp.local".into(),
            "_matter._tcp.local".into(),
            "_spotify-connect._tcp.local".into(),
        ],
        query_interval_secs: 60,
        unicast_response: false,
    });
    c.ssdp = Some(SsdpConfig {
        search_targets: vec!["ssdp:all".into(), "upnp:rootdevice".into()],
        search_interval_secs: 9000, // every 2–3 hours
        notify: false,
        responds: false,
        uuid,
        server_banner: "Linux/4.9 UPnP/1.0 Amazon/1.0".into(),
        location: None,
        upnp_version_10: true,
    });
    c.arp_scan = Some(ArpScanConfig {
        sweep_interval_secs: 86_400, // daily
        unicast_probes: true,
    });
    c.tplink = Some(TplinkRole::Client {
        poll_interval_secs: 3600,
    });
    c.lifx_probe_interval_secs = Some(7200);
    let certificate = echo_certificate(ip);
    c.open_tcp = vec![
        ServicePort::new(
            55442,
            ServiceKind::Http {
                server_banner: None,
                index_body: "amzn audio cache".into(),
                extra_paths: vec![],
            },
        ),
        ServicePort::new(
            55443,
            ServiceKind::Tls {
                version: TlsVersion::Tls12,
                cipher_suite: 0xc02f,
                certificate: certificate.clone(),
                encrypted_certificates: false,
            },
        ),
        ServicePort::new(
            4070,
            ServiceKind::Tls {
                version: TlsVersion::Tls12,
                cipher_suite: 0xc02f,
                certificate: certificate.clone(),
                encrypted_certificates: false,
            },
        ),
    ];
    c.tls_certificate = Some(certificate);
    if let Some(peer) = tls_peer {
        c.tls_peers.push(TlsPeerConfig {
            peer_ip: peer,
            peer_port: 55443,
            version: TlsVersion::Tls12,
            interval_secs: 1800,
        });
    }
    if let Some(peer) = rtp_peer {
        c.rtp = Some(RtpConfig {
            peer_ip: peer,
            port: 55444,
            interval_secs: 600,
        });
    }
    c.open_udp.push(ServicePort::new(
        55444,
        ServiceKind::Opaque {
            label: "rtp-multiroom".into(),
        },
    ));
    c.scan_profile = ScanProfile {
        responds_tcp: true,
        responds_udp: false,
        responds_ip_proto: true,
    };
    b.push(c);
    ip
}

/// A Google/Nest device. `kind` selects speaker vs hub vs Chromecast.
fn google_device(
    b: &mut Builder,
    name: &str,
    model: &str,
    display_name: &str,
    category: Category,
    is_hub: bool,
    tls_peer: Option<Ipv4Addr>,
    http_peer: Option<Ipv4Addr>,
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui::GOOGLE);
    let mut c = DeviceConfig::base(name, "Google", model, category, mac, ip);
    c.ipv6 = true;
    c.ndp_discovery = true;
    c.ndp_probe_count = if is_hub { 64 } else { 8 }; // Nest Hub's fan-out
    c.igmp = true;
    c.hostname = HostnameScheme::DisplayName;
    c.dhcp_vendor_class = Some("dhcpcd-6.8.2:Linux-4.9.113:armv7l".into());
    c.dhcp_param_list = vec![1, 3, 6, 15, 28, 42, 119];
    c.identity.display_name = Some(display_name.to_string());
    let uuid = format!(
        "f{:02x}{:02x}9e70-cast-11eb-b8bc-{:02x}42ac130003",
        mac.0[4], mac.0[5], mac.0[3]
    );
    c.identity.uuid = Some(uuid.clone());
    c.mdns = Some(MdnsConfig {
        advertise: vec![MdnsService {
            service_type: "_googlecast._tcp.local".into(),
            instance: format!("{model}-{uuid}"),
            port: 8009,
            txt: vec![
                format!("id={}", uuid.replace('-', "")),
                format!("fn={display_name}"),
                format!("md={model}"),
                "ve=05".into(),
            ],
        }],
        query: vec![
            "_googlecast._tcp.local".into(),
            "_androidtvremote2._tcp.local".into(),
            "_spotify-connect._tcp.local".into(),
        ],
        query_interval_secs: 25,
        unicast_response: true,
    });
    if matches!(category, Category::VoiceAssistant | Category::MediaTv) {
        c.ssdp = Some(SsdpConfig {
            search_targets: vec![
                "urn:dial-multiscreen-org:service:dial:1".into(),
                "urn:schemas-upnp-org:device:MediaRenderer:1".into(),
            ],
            search_interval_secs: 20, // the §5.1 20-second cadence
            notify: false,
            responds: is_hub, // Nest hubs respond thanks to Chromecast built-in
            uuid,
            server_banner: "Linux/3.8.13, UPnP/1.0, Portable SDK for UPnP devices/1.6.18".into(),
            location: Some(format!("http://{ip}:8008/ssdp/device-desc.xml")),
            upnp_version_10: true,
        });
    }
    let certificate = google_cast_certificate(name);
    c.open_tcp = vec![
        ServicePort::new(
            8008,
            ServiceKind::Http {
                server_banner: None,
                index_body: "{\"name\":\"eureka\"}".into(),
                extra_paths: vec![(
                    "/setup/eureka_info".into(),
                    format!("{{\"name\":\"{display_name}\",\"uuid\":\"unset\"}}"),
                )],
            },
        ),
        ServicePort::new(
            8009,
            ServiceKind::Tls {
                version: TlsVersion::Tls12,
                cipher_suite: TLS_RSA_WITH_3DES_EDE_CBC_SHA,
                certificate: certificate.clone(),
                encrypted_certificates: false,
            },
        ),
        ServicePort::new(
            8443,
            ServiceKind::Tls {
                version: TlsVersion::Tls12,
                cipher_suite: 0xc02f,
                certificate: certificate.clone(),
                encrypted_certificates: false,
            },
        ),
    ];
    c.tls_certificate = Some(certificate);
    if let Some(peer) = tls_peer {
        c.tls_peers.push(TlsPeerConfig {
            peer_ip: peer,
            peer_port: 8009,
            version: TlsVersion::Tls12,
            interval_secs: 900,
        });
    }
    if let Some(peer) = http_peer {
        c.http_polls.push(HttpPollConfig {
            peer_ip: peer,
            peer_port: 8008,
            path: "/setup/eureka_info".into(),
            user_agent: Some("Chromecast OS/1.56.281627 (gtv)".into()),
            interval_secs: 1200,
        });
    }
    if is_hub {
        // §5.1: Google platforms also poll TP-Link devices over SHP.
        c.tplink = Some(TplinkRole::Client {
            poll_interval_secs: 5400,
        });
    }
    // The UDP 10000–10010 stream both nDPI and tshark mislabel as STUN.
    if is_hub {
        c.rtp = Some(RtpConfig {
            peer_ip: Ipv4Addr::new(192, 168, 10, 255), // filled by caller via rewire
            port: 10005,
            interval_secs: 700,
        });
        c.open_udp.push(ServicePort::new(
            10005,
            ServiceKind::Opaque {
                label: "cast-sync".into(),
            },
        ));
    }
    c.scan_profile = ScanProfile {
        responds_tcp: true,
        responds_udp: matches!(category, Category::VoiceAssistant | Category::MediaTv),
        responds_ip_proto: true,
    };
    b.push(c);
    ip
}

/// An Apple device (HomePod / Apple TV).
fn apple_device(
    b: &mut Builder,
    name: &str,
    model: &str,
    display_name: &str,
    category: Category,
    tls_peer: Option<Ipv4Addr>,
    with_sheerdns: bool,
    with_coap: bool,
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui::APPLE);
    let mut c = DeviceConfig::base(name, "Apple", model, category, mac, ip);
    c.ipv6 = true;
    c.ndp_discovery = true;
    c.igmp = true;
    c.hostname = HostnameScheme::DisplayName;
    c.dhcp_vendor_class = None; // Apple omits option 60 locally
    c.dhcp_param_list = vec![1, 3, 6, 15, 119, 252];
    c.identity.display_name = Some(display_name.to_string());
    let uuid = format!(
        "7d{:02x}{:02x}55-a1b2-4c3d-8e9f-{:02x}ab12cd34ef",
        mac.0[4], mac.0[5], mac.0[3]
    );
    c.identity.uuid = Some(uuid.clone());
    c.mdns = Some(MdnsConfig {
        advertise: vec![
            MdnsService {
                service_type: "_airplay._tcp.local".into(),
                instance: display_name.to_string(),
                port: 7000,
                txt: vec![
                    format!("deviceid={mac}"),
                    format!("psi={uuid}"),
                    format!("model={model}"),
                ],
            },
            MdnsService {
                service_type: "_sleep-proxy._udp.local".into(),
                instance: format!("70-35-60-63.1 {display_name}"),
                port: 59952,
                txt: vec![],
            },
        ],
        query: vec![
            "_airplay._tcp.local".into(),
            "_companion-link._tcp.local".into(),
            "_rdlink._tcp.local".into(),
        ],
        query_interval_secs: 40,
        unicast_response: true,
    });
    let certificate = CertificateInfo {
        issuer_cn: "Apple Accessory CA".into(),
        subject_cn: display_name.into(),
        validity_days: 365,
        key_bits: 256, // EC keys
        self_signed: false,
    };
    c.open_tcp = vec![ServicePort::new(
        7000,
        ServiceKind::Tls {
            version: TlsVersion::Tls13,
            cipher_suite: 0x1301,
            certificate: certificate.clone(),
            encrypted_certificates: true, // §5.2: certs encrypted in handshake
        },
    )];
    c.tls_certificate = Some(certificate);
    if with_sheerdns {
        c.open_udp.push(ServicePort::new(
            53,
            ServiceKind::Dns {
                software: "SheerDNS 1.0.0".into(),
                cached_names: vec!["time.apple.com".into(), "gateway.icloud.com".into()],
                reveals_hostname: true,
            },
        ));
        c.open_tcp.push(ServicePort::new(
            53,
            ServiceKind::Opaque {
                label: "dns-tcp".into(),
            },
        ));
    }
    if with_coap {
        c.coap = Some(CoapConfig {
            uri_path: "x/opq".into(), // undecodable payloads, §5.1
            interval_secs: 1800,
            multicast: true,
        });
    }
    if let Some(peer) = tls_peer {
        c.tls_peers.push(TlsPeerConfig {
            peer_ip: peer,
            peer_port: 7000,
            version: TlsVersion::Tls13,
            interval_secs: 1200,
        });
    }
    c.scan_profile = ScanProfile {
        responds_tcp: true,
        responds_udp: with_sheerdns,
        responds_ip_proto: true,
    };
    b.push(c);
    ip
}

/// A TP-Link smart plug or bulb (SHP server with geolocation leak).
fn tplink_device(
    b: &mut Builder,
    name: &str,
    model: &str,
    alias: &str,
    dev_name: &str,
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui::TPLINK);
    let mut c = DeviceConfig::base(name, "TP-Link", model, Category::HomeAutomation, mac, ip);
    c.igmp = false;
    c.hostname = HostnameScheme::NamePlusMac("HS".into());
    c.dhcp_vendor_class = Some("udhcp 1.19.4".into());
    c.identity.geolocation = Some((42.337681, -71.087036)); // the lab's location
    c.tplink = Some(TplinkRole::Server {
        alias: alias.into(),
        dev_name: dev_name.into(),
        device_id: format!(
            "8006E8E9017F556D283C850B4E29BC1F1853{:02X}{:02X}",
            mac.0[4], mac.0[5]
        ),
        hw_id: "60FF6B258734EA6880E186F8C96DDC61".into(),
        oem_id: "FFF22CFF774A0B89F7624BFC6F50D5DE".into(),
        latitude: 42.337681,
        longitude: -71.087036,
    });
    c.open_tcp = vec![ServicePort::new(9999, ServiceKind::TplinkShp)];
    c.open_udp = vec![ServicePort::new(
        9999,
        ServiceKind::Opaque {
            label: "tplink-shp-udp".into(),
        },
    )];
    c.scan_profile = ScanProfile {
        responds_tcp: true,
        responds_udp: false,
        responds_ip_proto: true,
    };
    b.push(c);
    ip
}

/// A Tuya-platform device (TuyaLP broadcaster).
fn tuya_device(
    b: &mut Builder,
    name: &str,
    model: &str,
    category: Category,
    port: u16,
    gw_id: &str,
    product_key: &str,
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui::TUYA);
    let mut c = DeviceConfig::base(name, "Tuya", model, category, mac, ip);
    c.hostname = HostnameScheme::NamePlusMac("ESP".into()); // vendor + MAC fragment
    c.dhcp_vendor_class = Some("udhcp 1.24.2".into());
    c.tuya = Some(TuyaConfig {
        gw_id: gw_id.into(),
        product_key: product_key.into(),
        interval_secs: 10,
        port,
    });
    c.identity.uuid = Some(gw_id.to_string());
    c.scan_profile = ScanProfile {
        responds_tcp: false, // Tuya devices drop scans
        responds_udp: false,
        responds_ip_proto: false,
    };
    b.push(c);
    ip
}

/// A generic quiet device (sensors, health, small appliances).
fn quiet_device(
    b: &mut Builder,
    name: &str,
    vendor: &str,
    model: &str,
    category: Category,
    oui: [u8; 3],
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui);
    let mut c = DeviceConfig::base(name, vendor, model, category, mac, ip);
    c.hostname = HostnameScheme::Model(model.into());
    c.dhcp_vendor_class = Some("udhcp 1.24.2".into());
    c.scan_profile = ScanProfile {
        responds_tcp: false,
        responds_udp: false,
        responds_ip_proto: false,
    };
    b.push(c);
    ip
}

/// A camera with an HTTP/RTSP surface.
#[allow(clippy::too_many_arguments)]
fn camera_device(
    b: &mut Builder,
    name: &str,
    vendor: &str,
    model: &str,
    oui: [u8; 3],
    http: Option<ServiceKind>,
    rtsp_banner: Option<&str>,
    extra_tcp: Vec<ServicePort>,
    responds_scans: bool,
) -> Ipv4Addr {
    let (mac, ip) = b.alloc(oui);
    let mut c = DeviceConfig::base(name, vendor, model, Category::Surveillance, mac, ip);
    c.hostname = HostnameScheme::Model(model.into());
    c.dhcp_vendor_class = Some("udhcp 1.19.4".into());
    if let Some(http_service) = http {
        c.open_tcp.push(ServicePort::new(80, http_service));
    }
    if let Some(banner) = rtsp_banner {
        c.open_tcp.push(ServicePort::new(
            554,
            ServiceKind::Rtsp {
                server_banner: banner.into(),
            },
        ));
    }
    c.open_tcp.extend(extra_tcp);
    c.scan_profile = ScanProfile {
        responds_tcp: responds_scans,
        responds_udp: false,
        responds_ip_proto: responds_scans,
    };
    b.push(c);
    ip
}

/// Build the full 93-device testbed.
pub fn build_testbed() -> Catalog {
    let mut b = Builder::new();

    // ---- Voice assistants: 18 Amazon Echo family -----------------------
    // The first Echo acts as the RTP multi-room coordinator (Fig. 4e).
    let echo_hub = echo_device(
        &mut b,
        "Amazon Echo (1st gen)",
        "Echo (1st gen)",
        "Living Room Echo",
        None,
        None,
    );
    let echo_models: [(&str, &str, &str); 17] = [
        ("Amazon Echo (2nd gen) A", "Echo (2nd gen)", "Kitchen Echo"),
        ("Amazon Echo (2nd gen) B", "Echo (2nd gen)", "Office Echo"),
        (
            "Amazon Echo Dot (2nd gen)",
            "Echo Dot (2nd gen)",
            "Bedroom Dot",
        ),
        (
            "Amazon Echo Dot (3rd gen) A",
            "Echo Dot (3rd gen)",
            "Hall Dot",
        ),
        (
            "Amazon Echo Dot (3rd gen) B",
            "Echo Dot (3rd gen)",
            "Bath Dot",
        ),
        (
            "Amazon Echo Dot (3rd gen) C",
            "Echo Dot (3rd gen)",
            "Desk Dot",
        ),
        (
            "Amazon Echo Dot (4th gen)",
            "Echo Dot (4th gen)",
            "Studio Dot",
        ),
        ("Amazon Echo Spot", "Echo Spot", "Nightstand Spot"),
        ("Amazon Echo Show 5 A", "Echo Show 5", "Kitchen Show"),
        ("Amazon Echo Show 5 B", "Echo Show 5", "Lab Show"),
        ("Amazon Echo Show 8", "Echo Show 8", "Den Show"),
        ("Amazon Echo Plus", "Echo Plus", "Corner Plus"),
        ("Amazon Echo Studio", "Echo Studio", "Media Studio"),
        ("Amazon Echo Flex", "Echo Flex", "Hallway Flex"),
        ("Amazon Echo Input", "Echo Input", "Stereo Input"),
        ("Amazon Echo Auto", "Echo Auto", "Car Auto"),
        ("Amazon Echo Show 10", "Echo Show 10", "Studio Show 10"),
    ];
    let mut prev_echo = echo_hub;
    for (index, (name, model, display)) in echo_models.into_iter().enumerate() {
        // Chain TLS sessions pairwise; half the family participates in the
        // multi-room RTP group (Fig. 2: RTP on ~10% of devices).
        let rtp_peer = if index % 2 == 0 { Some(echo_hub) } else { None };
        let ip = echo_device(&mut b, name, model, display, rtp_peer, Some(prev_echo));
        prev_echo = ip;
    }

    // ---- Voice assistants: 7 Google + 3 Apple + 1 Meta ------------------
    let nest_hub = google_device(
        &mut b,
        "Google Nest Hub",
        "Nest Hub",
        "Danny's Kitchen Display",
        Category::VoiceAssistant,
        true,
        None,
        None,
    );
    let google_home = google_device(
        &mut b,
        "Google Home",
        "Home",
        "Living Room Speaker",
        Category::VoiceAssistant,
        false,
        Some(nest_hub),
        Some(nest_hub),
    );
    google_device(
        &mut b,
        "Google Home Mini A",
        "Home Mini",
        "Jane Doe's Kitchen Speaker",
        Category::VoiceAssistant,
        false,
        Some(nest_hub),
        None,
    );
    google_device(
        &mut b,
        "Google Home Mini B",
        "Home Mini",
        "Bedroom Mini",
        Category::VoiceAssistant,
        false,
        Some(google_home),
        None,
    );
    google_device(
        &mut b,
        "Google Home Mini C",
        "Home Mini",
        "Office Mini",
        Category::VoiceAssistant,
        false,
        Some(nest_hub),
        Some(google_home),
    );
    google_device(
        &mut b,
        "Google Nest Hub 2",
        "Nest Hub",
        "Hallway Display",
        Category::VoiceAssistant,
        true,
        Some(nest_hub),
        None,
    );
    google_device(
        &mut b,
        "Google Nest Mini",
        "Nest Mini",
        "Studio Nest Mini",
        Category::VoiceAssistant,
        false,
        Some(nest_hub),
        None,
    );

    let homepod = apple_device(
        &mut b,
        "Apple HomePod",
        "HomePod",
        "Dave's Den HomePod",
        Category::VoiceAssistant,
        None,
        false,
        false,
    );
    apple_device(
        &mut b,
        "Apple HomePod Mini A",
        "HomePod Mini",
        "Jane Doe's Kitchen Homepod",
        Category::VoiceAssistant,
        Some(homepod),
        true, // SheerDNS 1.0.0
        true, // opaque CoAP
    );
    apple_device(
        &mut b,
        "Apple HomePod Mini B",
        "HomePod Mini",
        "Bedroom HomePod",
        Category::VoiceAssistant,
        Some(homepod),
        false,
        true,
    );

    // Meta Portal.
    {
        let (mac, ip) = b.alloc(oui::META);
        let mut c = DeviceConfig::base(
            "Meta Portal",
            "Meta",
            "Portal Go",
            Category::VoiceAssistant,
            mac,
            ip,
        );
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::Model("Portal Go".into());
        c.mdns = Some(MdnsConfig {
            advertise: vec![],
            query: vec!["_googlecast._tcp.local".into()],
            query_interval_secs: 90,
            unicast_response: false,
        });
        c.scan_profile = ScanProfile {
            responds_tcp: false,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }

    // ---- Media/TV: 7 ----------------------------------------------------
    // Fire TV: the /16 LOCATION misconfiguration.
    {
        let (mac, ip) = b.alloc(oui::AMAZON);
        let mut c = DeviceConfig::base(
            "Amazon Fire TV",
            "Amazon",
            "Fire TV Stick 4K",
            Category::MediaTv,
            mac,
            ip,
        );
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::NamePlusMac("amazon".into());
        c.dhcp_vendor_class = Some("dhcpcd-5.5.6".into());
        let uuid = "f32a1b2c-aftv-4d5e-8f90-123456789abc".to_string();
        c.identity.uuid = Some(uuid.clone());
        c.ssdp = Some(SsdpConfig {
            search_targets: vec![],
            search_interval_secs: 0,
            notify: true,
            responds: true,
            uuid,
            server_banner: "Linux/4.9 UPnP/1.0 Cling/2.0".into(),
            // Misconfiguration: a /16 address not valid on this LAN (§5.1).
            location: Some("http://192.168.0.7:60000/upnp/dev/desc.xml".into()),
            upnp_version_10: true,
        });
        c.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_amzn-wplay._tcp.local".into(),
                instance: format!("aftv-{:02x}{:02x}", mac.0[4], mac.0[5]),
                port: 8009,
                txt: vec![format!("mac={mac}")], // exposes its own MAC to apps
            }],
            query: vec![],
            query_interval_secs: 120,
            unicast_response: false,
        });
        c.open_tcp = vec![ServicePort::new(
            8008,
            ServiceKind::Http {
                server_banner: None,
                index_body: "firetv".into(),
                extra_paths: vec![],
            },
        )];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: true,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // Apple TV.
    apple_device(
        &mut b,
        "Apple TV 4K",
        "Apple TV 4K",
        "Living Room Apple TV",
        Category::MediaTv,
        Some(homepod),
        false,
        false,
    );
    // Chromecast with Google TV.
    let chromecast = google_device(
        &mut b,
        "Google Chromecast",
        "Chromecast with Google TV",
        "Lab TV Chromecast",
        Category::MediaTv,
        false,
        Some(nest_hub),
        Some(nest_hub),
    );
    let _ = chromecast;
    // LG TV: three firmware banners.
    {
        let (mac, ip) = b.alloc(oui::LG);
        let mut c = DeviceConfig::base("LG Smart TV", "LG", "OLED55C9", Category::MediaTv, mac, ip);
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::Model("LGwebOSTV".into());
        let uuid = "d3a0fba2-lgtv-4b4c-9d8e-2f3a4b5c6d7e".to_string();
        c.identity.uuid = Some(uuid.clone());
        c.ssdp = Some(SsdpConfig {
            search_targets: vec!["urn:schemas-upnp-org:device:MediaRenderer:1".into()],
            search_interval_secs: 300,
            notify: true,
            responds: true,
            uuid,
            // §5.1: requests sent by three different firmware versions; we
            // advertise the oldest here and rotate the rest in HTTP UAs.
            server_banner: "WebOS TV/Version 0.9 UPnP/1.0".into(),
            location: Some(format!("http://{ip}:1424/description.xml")),
            upnp_version_10: true,
        });
        c.http_polls = vec![HttpPollConfig {
            peer_ip: Ipv4Addr::new(192, 168, 10, 1),
            peer_port: 80,
            path: "/".into(),
            user_agent: Some("WebOS/1.5 (LGE; OLED55C9)".into()),
            interval_secs: 3600,
        }];
        c.open_tcp = vec![
            ServicePort::new(
                1424,
                ServiceKind::Http {
                    server_banner: Some("WebOS/4.1.0 UPnP/1.0".into()),
                    index_body:
                        "<root><device><friendlyName>[LG] webOS TV</friendlyName></device></root>"
                            .into(),
                    extra_paths: vec![],
                },
            ),
            ServicePort::new(
                3000,
                ServiceKind::Tls {
                    version: TlsVersion::Tls12,
                    cipher_suite: 0xc02f,
                    certificate: hub_certificate("lgtv", 10),
                    encrypted_certificates: false,
                },
            ),
        ];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: true,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // Roku TV: possessive name + IGD searches.
    {
        let (mac, ip) = b.alloc(oui::ROKU);
        let mut c = DeviceConfig::base(
            "Roku Express",
            "Roku",
            "Express 3960",
            Category::MediaTv,
            mac,
            ip,
        );
        c.igmp = true;
        c.hostname = HostnameScheme::Model("Roku-Express".into());
        c.identity.display_name = Some("Danny's Room".into());
        let serial = format!("YH00{:02X}{:02X}{:02X}", mac.0[3], mac.0[4], mac.0[5]);
        c.identity.serial = Some(serial.clone());
        let uuid = format!(
            "294b6e2a-roku-4e5f-8a9b-{:02x}{:02x}c39e2a77",
            mac.0[4], mac.0[5]
        );
        c.identity.uuid = Some(uuid.clone());
        c.ssdp = Some(SsdpConfig {
            // §5.1: Roku sends IGD-related SSDP requests.
            search_targets: vec!["urn:schemas-upnp-org:device:InternetGatewayDevice:1".into()],
            search_interval_secs: 600,
            notify: true,
            responds: true,
            uuid,
            server_banner: "Roku/9.3.0 UPnP/1.0 Roku/9.3.0".into(),
            location: Some(format!("http://{ip}:8060/")),
            upnp_version_10: true,
        });
        c.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_roku-rcp._tcp.local".into(),
                // The Table 2 "name" leak: "Roku 3 - REDACTED's Room".
                instance: "Roku Express - Danny's Room".into(),
                port: 8060,
                txt: vec![format!("sn={serial}"), format!("mac={mac}")],
            }],
            query: vec![],
            query_interval_secs: 90,
            unicast_response: false,
        });
        c.open_tcp = vec![ServicePort::new(
            8060,
            ServiceKind::Http {
                server_banner: Some("Roku/9.3.0 UPnP/1.0".into()),
                index_body: format!(
                    "<root><device><friendlyName>Danny's Room</friendlyName>\
                     <serialNumber>{serial}</serialNumber>\
                     <UDN>uuid:{}</UDN></device></root>",
                    c.identity.uuid.clone().unwrap()
                ),
                extra_paths: vec![(
                    "/query/device-info".into(),
                    format!("<device-info><wifi-mac>{mac}</wifi-mac></device-info>"),
                )],
            },
        )];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: true,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // Samsung TV.
    {
        let (mac, ip) = b.alloc(oui::SAMSUNG);
        let mut c = DeviceConfig::base(
            "Samsung Smart TV",
            "Samsung",
            "QN55Q60",
            Category::MediaTv,
            mac,
            ip,
        );
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::Model("Samsung-TV".into());
        let uuid = "0b7e61a5-smtv-4f5a-9b8c-3d4e5f6a7b8c".to_string();
        c.identity.uuid = Some(uuid.clone());
        c.ssdp = Some(SsdpConfig {
            search_targets: vec![],
            search_interval_secs: 0,
            notify: true,
            responds: true,
            uuid,
            server_banner: "SHP, UPnP/1.0, Samsung UPnP SDK/1.0".into(),
            location: Some(format!("http://{ip}:7676/smp_2_")),
            upnp_version_10: true,
        });
        c.open_tcp = vec![
            ServicePort::new(
                7676,
                ServiceKind::Http {
                    server_banner: Some("Samsung UPnP SDK/1.0".into()),
                    index_body: "<root/>".into(),
                    extra_paths: vec![],
                },
            ),
            ServicePort::new(
                8002,
                ServiceKind::Tls {
                    version: TlsVersion::Tls12,
                    cipher_suite: 0xc02f,
                    certificate: hub_certificate("SmartViewSDK", 20),
                    encrypted_certificates: false,
                },
            ),
        ];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // TiVo Stream: obfuscated names (§5.1).
    {
        let (mac, ip) = b.alloc(oui::TIVO);
        let mut c = DeviceConfig::base(
            "TiVo Stream 4K",
            "TiVo",
            "Stream 4K",
            Category::MediaTv,
            mac,
            ip,
        );
        c.igmp = true;
        c.hostname = HostnameScheme::Randomized("tivo".into());
        c.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_androidtvremote2._tcp.local".into(),
                instance: format!("ts4k-{:02x}{:02x}", mac.0[4], mac.0[5]),
                port: 6466,
                txt: vec![],
            }],
            query: vec!["_googlecast._tcp.local".into()],
            query_interval_secs: 100,
            unicast_response: false,
        });
        c.open_tcp = vec![ServicePort::new(
            6466,
            ServiceKind::Opaque {
                label: "atv-remote".into(),
            },
        )];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }

    // ---- Home automation: 21 -------------------------------------------
    // Amazon Smart Plug.
    {
        let (mac, ip) = b.alloc(oui::AMAZON);
        let mut c = DeviceConfig::base(
            "Amazon Smart Plug",
            "Amazon",
            "Smart Plug",
            Category::HomeAutomation,
            mac,
            ip,
        );
        c.hostname = HostnameScheme::NamePlusMac("amazon-plug".into());
        c.dhcp_vendor_class = Some("udhcpc 1.30.1-Amazon".into());
        c.scan_profile = ScanProfile {
            responds_tcp: false,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // Aqara hub.
    {
        let ip = quiet_device(
            &mut b,
            "Aqara Hub",
            "Aqara",
            "Hub M2",
            Category::HomeAutomation,
            oui::AQARA,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.igmp = true;
        c.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_hap._tcp.local".into(),
                instance: "Aqara Hub M2".into(),
                port: 80,
                txt: vec![format!("id={}", c.mac), "md=HM2".into()],
            }],
            query: vec![],
            query_interval_secs: 60,
            unicast_response: false,
        });
    }
    // Google Nest Thermostat (automation).
    google_device(
        &mut b,
        "Google Nest Thermostat",
        "Nest Thermostat",
        "Hallway Thermostat",
        Category::HomeAutomation,
        false,
        Some(nest_hub),
        None,
    );
    // IKEA Tradfri gateway.
    {
        let ip = quiet_device(
            &mut b,
            "IKEA Tradfri Gateway",
            "IKEA",
            "Tradfri E1526",
            Category::HomeAutomation,
            oui::IKEA,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.igmp = true;
        c.coap = Some(CoapConfig {
            uri_path: "15001".into(),
            interval_secs: 1200,
            multicast: false,
        });
        c.open_udp.push(ServicePort::new(
            5684,
            ServiceKind::Opaque {
                label: "coaps".into(),
            },
        ));
    }
    // MagicHome LED controller.
    quiet_device(
        &mut b,
        "MagicHome LED Strip",
        "MagicHome",
        "LEDnet WF",
        Category::HomeAutomation,
        oui::MAGICHOME,
    );
    // 3 Meross plugs (same model).
    for suffix in ["A", "B", "C"] {
        let ip = quiet_device(
            &mut b,
            &format!("Meross Smart Plug {suffix}"),
            "Meross",
            "MSS110",
            Category::HomeAutomation,
            oui::MEROSS,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.igmp = true;
        c.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_meross-mqtt._tcp.local".into(),
                instance: format!("Meross MSS110 {suffix}"),
                port: 2001,
                txt: vec![format!("mac={}", c.mac)],
            }],
            query: vec![],
            query_interval_secs: 120,
            unicast_response: false,
        });
        c.open_tcp.push(ServicePort::new(
            80,
            ServiceKind::Http {
                server_banner: None,
                index_body: "meross".into(),
                extra_paths: vec![],
            },
        ));
        c.scan_profile.responds_tcp = true;
    }
    // Philips Hue hub.
    {
        let (mac, ip) = b.alloc(oui::PHILIPS);
        let mut c = DeviceConfig::base(
            "Philips Hue Bridge",
            "Philips",
            "Hue Bridge 2.0",
            Category::HomeAutomation,
            mac,
            ip,
        );
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::Model("Philips-hue".into());
        c.dhcp_vendor_class = Some("udhcp 1.15.2".into());
        let mac_fragment = format!("{:02X}{:02X}{:02X}", mac.0[3], mac.0[4], mac.0[5]);
        let bridge_id = format!(
            "{:02X}{:02X}{:02X}FFFE{mac_fragment}",
            mac.0[0], mac.0[1], mac.0[2]
        );
        let uuid = format!("2f402f80-da50-11e1-9b23-{}", bridge_id.to_lowercase());
        c.identity.uuid = Some(uuid.clone());
        c.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_hue._tcp.local".into(),
                // §5.1: "Philips Hub reveals MAC address in its mDNS
                // hostnames".
                instance: format!("Philips Hue - {mac_fragment}"),
                port: 443,
                txt: vec![format!("bridgeid={bridge_id}"), "modelid=BSB002".into()],
            }],
            query: vec![],
            query_interval_secs: 60,
            unicast_response: true,
        });
        c.ssdp = Some(SsdpConfig {
            search_targets: vec![],
            search_interval_secs: 0,
            notify: true,
            responds: true,
            uuid,
            server_banner: "Linux/3.14.0 UPnP/1.0 IpBridge/1.56.0".into(),
            location: Some(format!("http://{ip}:80/description.xml")),
            upnp_version_10: true,
        });
        let certificate = hub_certificate("Philips Hue", 28); // 20–28-year certs
        c.open_tcp = vec![
            ServicePort::new(
                80,
                ServiceKind::Http {
                    server_banner: Some("nginx".into()),
                    index_body: "<root><URLBase>http://hue</URLBase></root>".into(),
                    extra_paths: vec![(
                        "/description.xml".into(),
                        format!(
                            "<friendlyName>Philips hue ({ip})</friendlyName>\
                             <serialNumber>{mac_fragment}</serialNumber>\
                             <UDN>uuid:{}</UDN>",
                            c.identity.uuid.clone().unwrap()
                        ),
                    )],
                },
            ),
            ServicePort::new(
                443,
                ServiceKind::Tls {
                    version: TlsVersion::Tls12,
                    cipher_suite: 0xc02f,
                    certificate: certificate.clone(),
                    encrypted_certificates: false,
                },
            ),
        ];
        c.tls_certificate = Some(certificate);
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: true,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // Ring Chime: hostname = name + MAC (§5.1).
    {
        let ip = quiet_device(
            &mut b,
            "Ring Chime",
            "Ring",
            "Chime Pro",
            Category::HomeAutomation,
            oui::RING,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.hostname = HostnameScheme::NamePlusMac("RingChime".into());
    }
    // Sengled hub.
    quiet_device(
        &mut b,
        "Sengled Hub",
        "Sengled",
        "Smart Hub E39",
        Category::HomeAutomation,
        oui::SENGLED,
    );
    // SmartThings hub: long self-signed cert.
    {
        let (mac, ip) = b.alloc(oui::SMARTTHINGS);
        let mut c = DeviceConfig::base(
            "SmartThings Hub",
            "SmartThings",
            "Hub v3",
            Category::HomeAutomation,
            mac,
            ip,
        );
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::Model("SmartThings-Hub".into());
        let certificate = hub_certificate("SmartThings", 25);
        c.open_tcp = vec![ServicePort::new(
            8889,
            ServiceKind::Tls {
                version: TlsVersion::Tls12,
                cipher_suite: 0xc02f,
                certificate: certificate.clone(),
                encrypted_certificates: false,
            },
        )];
        c.tls_certificate = Some(certificate);
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // SwitchBot hub.
    quiet_device(
        &mut b,
        "SwitchBot Hub",
        "SwitchBot",
        "Hub Mini",
        Category::HomeAutomation,
        oui::SWITCHBOT,
    );
    // 2 TP-Link devices: a plug and a bulb (§6.1's pair).
    tplink_device(
        &mut b,
        "TP-Link Smart Plug",
        "HS110",
        "TP-Link Plug",
        "Wi-Fi Smart Plug With Energy Monitoring",
    );
    tplink_device(
        &mut b,
        "TP-Link Smart Bulb",
        "LB130",
        "TP-Link Bulb",
        "Smart Wi-Fi LED Bulb with Color Changing",
    );
    // 3 Tuya home-automation devices: 2× bulb (same model) + 1 plug.
    tuya_device(
        &mut b,
        "Jinvoo Smart Bulb",
        "Jinvoo Bulb SM-B22",
        Category::HomeAutomation,
        6666,
        "60594237840d8e5f1b4a",
        "keymw7ewtjaqy9d3",
    );
    tuya_device(
        &mut b,
        "Jinvoo Smart Bulb 2",
        "Jinvoo Bulb SM-B22",
        Category::HomeAutomation,
        6666,
        "60594237840d8e5f1b4b",
        "keymw7ewtjaqy9d3",
    );
    tuya_device(
        &mut b,
        "Gosund Smart Plug",
        "Gosund WP3",
        Category::HomeAutomation,
        6667,
        "112233445566778899aa",
        "keygosundwp3zzzz",
    );
    // WeMo plug: snooping-prone DNS + UPnP.
    {
        let (mac, ip) = b.alloc(oui::BELKIN_WEMO);
        let mut c = DeviceConfig::base(
            "Belkin WeMo Plug",
            "Belkin",
            "WeMo Insight",
            Category::HomeAutomation,
            mac,
            ip,
        );
        c.igmp = true;
        c.hostname = HostnameScheme::Model("wemo".into());
        let uuid = format!("Insight-1_0-2311{:02X}{:02X}", mac.0[4], mac.0[5]);
        c.identity.uuid = Some(uuid.clone());
        c.ssdp = Some(SsdpConfig {
            search_targets: vec![],
            search_interval_secs: 0,
            notify: true,
            responds: true,
            uuid,
            server_banner: "Unspecified, UPnP/1.0, Unspecified".into(),
            location: Some(format!("http://{ip}:49153/setup.xml")),
            upnp_version_10: true,
        });
        c.open_tcp = vec![ServicePort::new(
            49153,
            ServiceKind::Http {
                server_banner: Some("Unspecified, UPnP/1.0, Unspecified".into()),
                index_body: "<root/>".into(),
                extra_paths: vec![(
                    "/setup.xml".into(),
                    format!(
                        "<friendlyName>Wemo Insight</friendlyName><macAddress>{mac}</macAddress>"
                    ),
                )],
            },
        )];
        c.open_udp = vec![ServicePort::new(
            53,
            ServiceKind::Dns {
                software: "dnsmasq-2.47".into(),
                cached_names: vec!["api.xbcs.net".into()],
                reveals_hostname: true,
            },
        )];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: true,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // Wiz bulb.
    quiet_device(
        &mut b,
        "Wiz Bulb",
        "Wiz",
        "A60 Tunable",
        Category::HomeAutomation,
        oui::WIZ,
    );
    // Yeelight bulb.
    {
        let ip = quiet_device(
            &mut b,
            "Yeelight Bulb",
            "Yeelight",
            "Color 1S",
            Category::HomeAutomation,
            oui::YEELIGHT,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.igmp = true;
        c.open_tcp.push(ServicePort::new(
            55443,
            ServiceKind::Opaque {
                label: "yeelight-ctl".into(),
            },
        ));
    }

    // ---- Surveillance: 18 ------------------------------------------------
    // Amcrest camera: the Table 5 SSDP payload.
    {
        let (mac, ip) = b.alloc(oui::AMCREST);
        let serial = "AMC020SC43PJ749D66".to_string();
        let mut c = DeviceConfig::base(
            "Amcrest Camera",
            "Amcrest",
            "IP2M-841B",
            Category::Surveillance,
            mac,
            ip,
        );
        c.igmp = true;
        c.hostname = HostnameScheme::Model("AMC".into());
        c.identity.serial = Some(serial.clone());
        let uuid = format!("device_3_0-{serial}");
        c.identity.uuid = Some(uuid.clone());
        c.ssdp = Some(SsdpConfig {
            search_targets: vec![],
            search_interval_secs: 0,
            notify: true,
            responds: true,
            uuid,
            server_banner: "Linux, UPnP/1.0, Private UPnP SDK".into(),
            location: Some(format!("http://{ip}:49152/rootDesc.xml")),
            upnp_version_10: true,
        });
        c.open_tcp = vec![
            ServicePort::new(
                80,
                ServiceKind::Http {
                    server_banner: Some("Webs".into()),
                    index_body: format!(
                        "<friendlyName>{serial}</friendlyName><serialNumber>{mac}</serialNumber>"
                    ),
                    extra_paths: vec![],
                },
            ),
            ServicePort::new(
                554,
                ServiceKind::Rtsp {
                    server_banner: "Rtsp Server/2.0".into(),
                },
            ),
        ];
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: true,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    // 2 Arlo Q cameras (same model).
    for suffix in ["A", "B"] {
        camera_device(
            &mut b,
            &format!("Arlo Q {suffix}"),
            "Arlo",
            "Arlo Q VMC3040",
            oui::ARLO,
            None,
            None, // cloud-only streaming, no local RTSP
            vec![],
            false, // Arlo drops scans
        );
    }
    // Blink camera.
    camera_device(
        &mut b,
        "Blink Camera",
        "Blink",
        "Blink XT2",
        oui::BLINK,
        None,
        None,
        vec![],
        false,
    );
    // D-Link camera: long self-signed cert (§5.2).
    {
        let ip = camera_device(
            &mut b,
            "D-Link Camera",
            "D-Link",
            "DCS-8000LH",
            oui::DLINK,
            Some(ServiceKind::Http {
                server_banner: Some("alphapd/2.1.8".into()),
                index_body: "dlink".into(),
                extra_paths: vec![],
            }),
            Some("DCS-RTSP"),
            vec![ServicePort::new(
                443,
                ServiceKind::Tls {
                    version: TlsVersion::Tls12,
                    cipher_suite: 0xc02f,
                    certificate: hub_certificate("DCS-8000LH", 20),
                    encrypted_certificates: false,
                },
            )],
            true,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.tls_certificate = Some(hub_certificate("DCS-8000LH", 20));
    }
    // 2 Google Nest Cams (same model).
    for suffix in ["A", "B"] {
        google_device(
            &mut b,
            &format!("Google Nest Cam {suffix}"),
            "Nest Cam",
            &format!("Backyard Cam {suffix}"),
            Category::Surveillance,
            false,
            Some(nest_hub),
            None,
        );
    }
    // ICSee doorbell.
    camera_device(
        &mut b,
        "ICSee Doorbell",
        "ICSee",
        "XM-JPR1",
        oui::ICSEE,
        None,
        Some("XM RTSP"),
        vec![ServicePort::new(
            34567,
            ServiceKind::Opaque {
                label: "xm-dvrip".into(),
            },
        )],
        true,
    );
    // Lefun camera: HTTP server exposing backup files (§5.2).
    camera_device(
        &mut b,
        "Lefun Camera",
        "Lefun",
        "Lefun C2",
        oui::LEFUN,
        Some(ServiceKind::Http {
            server_banner: Some("mini_httpd/1.19".into()),
            index_body: "lefun cam".into(),
            extra_paths: vec![
                (
                    "/backup/config.bin".into(),
                    "admin:admin\nwifi_ssid=MonIoTr\nrtsp_pw=123456".into(),
                ),
                ("/server.conf".into(), "listen 80;\nroot /var/www;".into()),
            ],
        }),
        Some("Hipcam RealServer/V1.0"),
        vec![],
        true,
    );
    // Microseven camera: jQuery 1.2 XSS + unauthenticated ONVIF snapshot.
    camera_device(
        &mut b,
        "Microseven Camera",
        "Microseven",
        "M7B77",
        oui::MICROSEVEN,
        Some(ServiceKind::Http {
            server_banner: Some("lighttpd/1.4.32".into()),
            index_body: "<script src=\"js/jquery-1.2.6.min.js\"></script>".into(),
            extra_paths: vec![
                (
                    "/onvif/snapshot".into(),
                    "\u{fffd}JFIF-fake-snapshot-bytes".into(),
                ),
                (
                    "/cgi-bin/users".into(),
                    "admin\nviewer\nservice\n/mnt/sd/recordings".into(),
                ),
            ],
        }),
        Some("Microseven RTSP"),
        vec![],
        true,
    );
    // 2 Ring Doorbells (same model) + Ring Spotlight.
    for suffix in ["A", "B"] {
        camera_device(
            &mut b,
            &format!("Ring Doorbell {suffix}"),
            "Ring",
            "Video Doorbell 2",
            oui::RING,
            None,
            None,
            vec![],
            false,
        );
    }
    camera_device(
        &mut b,
        "Ring Spotlight Cam",
        "Ring",
        "Spotlight Cam",
        oui::RING,
        None,
        None,
        vec![],
        false,
    );
    // Tuya camera.
    tuya_device(
        &mut b,
        "Tuya Camera",
        "Tuya Cam TY-05",
        Category::Surveillance,
        6667,
        "bf9a8c7d6e5f4a3b2c1d",
        "keytuyacam05xxxx",
    );
    // Ubell doorbell.
    camera_device(
        &mut b,
        "Ubell Doorbell",
        "Ubell",
        "Ubell WiFi",
        oui::UBELL,
        None,
        None,
        vec![ServicePort::new(
            8800,
            ServiceKind::Opaque {
                label: "ubell-p2p".into(),
            },
        )],
        true,
    );
    // Wansview camera.
    camera_device(
        &mut b,
        "Wansview Camera",
        "Wansview",
        "Q5",
        oui::WANSVIEW,
        Some(ServiceKind::Http {
            server_banner: Some("WansviewWeb".into()),
            index_body: "wansview".into(),
            extra_paths: vec![],
        }),
        Some("Wansview RTSP"),
        vec![],
        true,
    );
    // Wyze cam.
    camera_device(
        &mut b,
        "Wyze Cam",
        "Wyze",
        "Cam v3",
        oui::WYZE,
        None,
        None,
        vec![],
        false,
    );
    // Yi camera.
    camera_device(
        &mut b,
        "Yi Camera",
        "Yi",
        "Yi Home 1080p",
        oui::YI,
        None,
        Some("Yi RTSP"),
        vec![],
        true,
    );

    // ---- Home appliances: 10 ---------------------------------------------
    quiet_device(
        &mut b,
        "Anova Precision Cooker",
        "Anova",
        "Precision Cooker Pro",
        Category::HomeAppliance,
        oui::ANOVA,
    );
    quiet_device(
        &mut b,
        "Behmor Brewer",
        "Behmor",
        "Connected Brewer",
        Category::HomeAppliance,
        oui::BEHMOR,
    );
    // Blueair purifier: its companion app uploads MAC + geolocation (§6.1).
    quiet_device(
        &mut b,
        "Blueair Purifier",
        "Blueair",
        "Classic 480i",
        Category::HomeAppliance,
        oui::BLUEAIR,
    );
    // GE Microwave: randomized hostname (§5.1's positive example).
    {
        let ip = quiet_device(
            &mut b,
            "GE Microwave",
            "GE",
            "Smart Microwave",
            Category::HomeAppliance,
            oui::GE,
        );
        let _ = ip;
        let c = b.devices.last_mut().unwrap();
        c.hostname = HostnameScheme::Randomized("ge".into());
    }
    quiet_device(
        &mut b,
        "LG Dishwasher",
        "LG",
        "QuadWash",
        Category::HomeAppliance,
        oui::LG,
    );
    // Samsung fridge: CoAP + IoTivity (§5.1).
    {
        let (mac, ip) = b.alloc(oui::SAMSUNG);
        let mut c = DeviceConfig::base(
            "Samsung Fridge",
            "Samsung",
            "Family Hub RF28",
            Category::HomeAppliance,
            mac,
            ip,
        );
        c.ipv6 = true;
        c.igmp = true;
        c.hostname = HostnameScheme::Model("Family-Hub".into());
        c.coap = Some(CoapConfig {
            uri_path: "oic/res".into(),
            interval_secs: 600,
            multicast: true,
        });
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }
    quiet_device(
        &mut b,
        "Samsung Washer",
        "Samsung",
        "WF45 Washer",
        Category::HomeAppliance,
        oui::SAMSUNG,
    );
    quiet_device(
        &mut b,
        "Samsung Dryer",
        "Samsung",
        "DVE45 Dryer",
        Category::HomeAppliance,
        oui::SAMSUNG,
    );
    quiet_device(
        &mut b,
        "Smarter iKettle",
        "Smarter",
        "iKettle 3",
        Category::HomeAppliance,
        oui::SMARTER,
    );
    quiet_device(
        &mut b,
        "Xiaomi Rice Cooker",
        "Xiaomi",
        "Mi IH Cooker",
        Category::HomeAppliance,
        oui::XIAOMI,
    );

    // ---- Generic IoT: 7 ----------------------------------------------------
    quiet_device(
        &mut b,
        "Keyco Air Sensor",
        "Keyco",
        "Keyco Air",
        Category::GenericIot,
        oui::KEYCO,
    );
    quiet_device(
        &mut b,
        "Oxylink Oximeter",
        "Oxylink",
        "Oxylink Wear",
        Category::GenericIot,
        oui::OXYLINK,
    );
    quiet_device(
        &mut b,
        "Renpho Scale",
        "Renpho",
        "ES-CS20M",
        Category::GenericIot,
        oui::RENPHO,
    );
    tuya_device(
        &mut b,
        "Tuya Air Sensor",
        "Tuya AirBox",
        Category::GenericIot,
        6666,
        "00aa11bb22cc33dd44ee",
        "keytuyaairboxxxx",
    );
    // 3 Withings devices: 2× Body+ (same model) + Sleep.
    for (name, model) in [
        ("Withings Body+ A", "Body+"),
        ("Withings Body+ B", "Body+"),
        ("Withings Sleep", "Sleep Analyzer"),
    ] {
        quiet_device(
            &mut b,
            name,
            "Withings",
            model,
            Category::GenericIot,
            oui::WITHINGS,
        );
    }

    // ---- Game console: 1 ---------------------------------------------------
    {
        let (mac, ip) = b.alloc(oui::NINTENDO);
        let mut c = DeviceConfig::base(
            "Nintendo Switch",
            "Nintendo",
            "Switch",
            Category::GameConsole,
            mac,
            ip,
        );
        // The Switch's EAPOL L2 traffic is the one nDPI mislabels
        // AmazonAWS (Appendix C.2).
        c.eapol = true;
        c.igmp = true;
        c.hostname = HostnameScheme::None;
        c.scan_profile = ScanProfile {
            responds_tcp: true,
            responds_udp: false,
            responds_ip_proto: true,
        };
        b.push(c);
    }

    // ---- calibration pass ---------------------------------------------------
    // §4.1 aggregates: EAPOL 84%, IPv6 59%, IGMP 56%, broadcast 93%.
    // The constructors above leave every device with eapol=true and some
    // without IPv6; trim/extend deterministically to the paper's rates.
    let mut catalog = Catalog { devices: b.devices };
    calibrate(&mut catalog);
    catalog
}

/// Deterministically adjust boolean capabilities so aggregate support rates
/// match §4.1: EAPOL 84% (78/93), IPv6 59% (55/93), IGMP 56% (52/93).
/// §5.1's DHCP identifier statistics: hostnames observed for 67% of
/// devices, and 16 unique DHCP client versions from 40% of devices.
fn calibrate_dhcp_identifiers(catalog: &mut Catalog) {
    const CLIENT_VERSIONS: [&str; 16] = [
        "udhcp 1.14.3",
        "udhcp 1.15.2",
        "udhcp 1.19.4",
        "udhcp 1.24.2",
        "udhcpc 1.30.1-Amazon",
        "dhcpcd-5.5.6",
        "dhcpcd-6.8.2:Linux-4.9.113:armv7l",
        "dhcpcd-7.2.3",
        "dhcpcd-9.4.0",
        "systemd-networkd/245",
        "BusyBox v1.22.1 udhcpc",
        "ISC dhclient-4.4.1",
        "esp-idf-dhcpc/4.2",
        "lwIP/2.1.2 dhcp",
        "ConnMan/1.37",
        "Realtek-SDK dhcpc 2.0",
    ];
    let stable_hash = |text: &str| -> usize {
        text.bytes().fold(0usize, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(b as usize)
        })
    };
    // 40% of devices (37) send option 60; firmware families share a client.
    let total = catalog.devices.len();
    let keep_vendor_class = (total * 2) / 5;
    // Deterministic keep-set: the chattiest devices first (they are the
    // ones whose requests the paper's capture actually observed).
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| {
        let d = &catalog.devices[i];
        let chatty = d.mdns.is_some() as i32 + d.ssdp.is_some() as i32 + d.tuya.is_some() as i32;
        std::cmp::Reverse((chatty, d.open_tcp.len()))
    });
    for (rank, &index) in order.iter().enumerate() {
        let device = &mut catalog.devices[index];
        if rank < keep_vendor_class {
            // Firmware families differ per model generation, not just per
            // vendor — that is how the paper saw 16 distinct clients.
            let key = format!("{}/{}", device.vendor, device.model);
            let version = CLIENT_VERSIONS[stable_hash(&key) % CLIENT_VERSIONS.len()];
            device.dhcp_vendor_class = Some(version.to_string());
        } else {
            device.dhcp_vendor_class = None;
        }
    }
    // 33% of devices (31) never expose a hostname; take the quiet tail,
    // preserving the named schemes the paper calls out (Ring, GE, TiVo,
    // Tuya, Google/Apple display names).
    let mut silenced = 0;
    for &index in order.iter().rev() {
        if silenced == 31 {
            break;
        }
        let device = &mut catalog.devices[index];
        let protected = matches!(
            device.hostname,
            HostnameScheme::Randomized(_)
                | HostnameScheme::NamePlusMac(_)
                | HostnameScheme::DisplayName
        );
        if !protected {
            device.hostname = HostnameScheme::None;
            silenced += 1;
        }
    }
}

fn calibrate(catalog: &mut Catalog) {
    calibrate_dhcp_identifiers(catalog);
    // Gateway keepalive pings: ~78% of devices show ICMP passively
    // (Fig. 2); battery/quiet devices skip the keepalive.
    let mut silenced = 0;
    for device in catalog.devices.iter_mut().rev() {
        if silenced == 20 {
            break;
        }
        if device.mdns.is_none() && device.ssdp.is_none() {
            device.pings_gateway = false;
            silenced += 1;
        }
    }
    // EAPOL: disable on the 15 quietest devices (wired or pre-WPA2 stacks).
    let mut disabled = 0;
    for device in catalog.devices.iter_mut().rev() {
        if disabled == 15 {
            break;
        }
        if device.mdns.is_none() && device.ssdp.is_none() && device.tuya.is_none() {
            device.eapol = false;
            disabled += 1;
        }
    }
    // IPv6 → exactly 55: enable on non-quiet devices first.
    let current: usize = catalog.devices.iter().filter(|d| d.ipv6).count();
    let mut need = 55usize.saturating_sub(current);
    for device in catalog.devices.iter_mut() {
        if need == 0 {
            break;
        }
        if !device.ipv6 {
            device.ipv6 = true;
            // Newly-v6 devices do SLAAC NDP but not active probing.
            need -= 1;
        }
    }
    // IGMP → exactly 52.
    let current: usize = catalog.devices.iter().filter(|d| d.igmp).count();
    let mut need = 52usize.saturating_sub(current);
    for device in catalog.devices.iter_mut() {
        if need == 0 {
            break;
        }
        if !device.igmp {
            device.igmp = true;
            need -= 1;
        }
    }
    calibrate_ports(catalog);
}

/// §4.2: "We find 178 unique open TCP ports and 115 unique open UDP ports
/// on 61 devices", UDP 68 open on ~7%, DNS 53 on ~5%, PTP 320 on ~5%.
/// Devices in the long tail run vendor-specific high ports ("Other-TCP" /
/// "Other-UDP" in Figure 2); we add deterministic per-device opaque ports
/// until the catalog carries the paper's diversity.
fn calibrate_ports(catalog: &mut Catalog) {
    // PTP (UDP 320) on the larger Apple devices — AirPlay clock sync.
    for device in catalog.devices.iter_mut() {
        if device.vendor == "Apple" && !device.model.contains("Mini") {
            device.open_udp.push(ServicePort::new(
                320,
                ServiceKind::Opaque {
                    label: "ptp".into(),
                },
            ));
        }
    }
    // DHCP client port (UDP 68) held open by ~7 devices.
    let mut dhcp_open = 0;
    for device in catalog.devices.iter_mut() {
        if dhcp_open == 2 {
            break;
        }
        if device.vendor == "Amazon" && device.category == Category::VoiceAssistant {
            device.open_udp.push(ServicePort::new(
                68,
                ServiceKind::Opaque {
                    label: "dhcpc".into(),
                },
            ));
            dhcp_open += 1;
        }
    }
    // Vendor-specific high ports: give every scan-responsive device a
    // deterministic set of opaque listeners derived from its index, sized
    // to land the testbed at the paper's unique-port counts.
    let mut tcp_ports: std::collections::BTreeSet<u16> = catalog
        .devices
        .iter()
        .flat_map(|d| d.open_tcp.iter().map(|s| s.port))
        .collect();
    let mut udp_ports: std::collections::BTreeSet<u16> = catalog
        .devices
        .iter()
        .flat_map(|d| d.open_udp.iter().map(|s| s.port))
        .collect();
    for (index, device) in catalog.devices.iter_mut().enumerate() {
        let scannable = device.scan_profile.responds_tcp || !device.open_tcp.is_empty();
        if !scannable {
            continue;
        }
        let index = index as u16;
        // Up to 3 extra TCP ports per device, unique testbed-wide.
        for k in 0..3u16 {
            if tcp_ports.len() >= 178 {
                break;
            }
            let port = 30000 + index * 37 + k * 11;
            if tcp_ports.insert(port) {
                device.open_tcp.push(ServicePort::new(
                    port,
                    ServiceKind::Opaque {
                        label: format!("vendor-tcp-{port}"),
                    },
                ));
            }
        }
        // Up to 2 extra UDP ports per device.
        for k in 0..2u16 {
            if udp_ports.len() >= 115 {
                break;
            }
            let port = 20000 + index * 29 + k * 13;
            if udp_ports.insert(port) {
                device.open_udp.push(ServicePort::new(
                    port,
                    ServiceKind::Opaque {
                        label: format!("vendor-udp-{port}"),
                    },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninety_three_devices() {
        let catalog = build_testbed();
        assert_eq!(catalog.devices.len(), 93);
    }

    #[test]
    fn seventy_eight_unique_models() {
        let catalog = build_testbed();
        assert_eq!(catalog.unique_models(), 78);
    }

    #[test]
    fn unique_macs_and_ips() {
        let catalog = build_testbed();
        let mut macs: Vec<_> = catalog.devices.iter().map(|d| d.mac).collect();
        macs.sort();
        macs.dedup();
        assert_eq!(macs.len(), 93);
        let mut ips: Vec<_> = catalog.devices.iter().map(|d| d.ip).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 93);
    }

    #[test]
    fn category_counts_match_table3() {
        let catalog = build_testbed();
        let count = |cat| catalog.by_category(cat).len();
        assert_eq!(count(Category::GameConsole), 1);
        assert_eq!(count(Category::GenericIot), 7);
        assert_eq!(count(Category::HomeAppliance), 10);
        assert_eq!(count(Category::HomeAutomation), 21);
        assert_eq!(count(Category::MediaTv), 7);
        assert_eq!(count(Category::Surveillance), 18);
        assert_eq!(count(Category::VoiceAssistant), 29); // 18+7+3+1
    }

    #[test]
    fn aggregate_rates_match_section41() {
        let catalog = build_testbed();
        let n = catalog.devices.len() as f64;
        let rate = |pred: fn(&DeviceConfig) -> bool| {
            catalog.devices.iter().filter(|d| pred(d)).count() as f64 / n
        };
        let eapol = rate(|d| d.eapol);
        assert!((0.80..=0.88).contains(&eapol), "EAPOL {eapol}");
        let ipv6 = rate(|d| d.ipv6);
        assert!((0.55..=0.63).contains(&ipv6), "IPv6 {ipv6}");
        let igmp = rate(|d| d.igmp);
        assert!((0.52..=0.60).contains(&igmp), "IGMP {igmp}");
        let mdns = rate(|d| d.mdns.is_some());
        assert!((0.40..=0.48).contains(&mdns), "mDNS {mdns}");
        let ssdp = rate(|d| d.ssdp.is_some());
        assert!((0.28..=0.36).contains(&ssdp), "SSDP {ssdp}");
        let tplink = rate(|d| d.tplink.is_some());
        assert!((0.20..=0.28).contains(&tplink), "TPLINK {tplink}");
        let tuya = rate(|d| d.tuya.is_some());
        assert!((0.03..=0.08).contains(&tuya), "TuyaLP {tuya}");
    }

    #[test]
    fn ssdp_substructure_matches_section51() {
        let catalog = build_testbed();
        let ssdp_devices: Vec<_> = catalog
            .devices
            .iter()
            .filter_map(|d| d.ssdp.as_ref())
            .collect();
        let searchers = ssdp_devices
            .iter()
            .filter(|s| !s.search_targets.is_empty())
            .count();
        let notifiers = ssdp_devices.iter().filter(|s| s.notify).count();
        let responders = ssdp_devices.iter().filter(|s| s.responds).count();
        // §5.1: 26/30 M-SEARCH, 7/30 NOTIFY, 9 respond.
        assert!(
            (24..=28).contains(&searchers),
            "searchers {searchers} of {}",
            ssdp_devices.len()
        );
        assert!((7..=12).contains(&notifiers), "notifiers {notifiers}");
        assert!((8..=12).contains(&responders), "responders {responders}");
    }

    #[test]
    fn key_devices_present_with_signature_behaviours() {
        let catalog = build_testbed();
        let hue = catalog.find("Philips Hue Bridge").unwrap();
        assert!(hue.mdns.as_ref().unwrap().advertise[0]
            .instance
            .contains("Philips Hue - "));
        let plug = catalog.find("TP-Link Smart Plug").unwrap();
        assert!(matches!(plug.tplink, Some(TplinkRole::Server { .. })));
        let firetv = catalog.find("Amazon Fire TV").unwrap();
        assert!(firetv
            .ssdp
            .as_ref()
            .unwrap()
            .location
            .as_ref()
            .unwrap()
            .contains("192.168.0.")); // the /16 misconfiguration
        let roku = catalog.find("Roku Express").unwrap();
        assert!(roku.mdns.as_ref().unwrap().advertise[0]
            .instance
            .contains("Danny's Room"));
        let ge = catalog.find("GE Microwave").unwrap();
        assert!(matches!(ge.hostname, HostnameScheme::Randomized(_)));
        let homepod_mini = catalog.find("Apple HomePod Mini A").unwrap();
        assert!(homepod_mini
            .open_udp
            .iter()
            .any(|s| matches!(&s.service, ServiceKind::Dns { software, .. } if software.contains("SheerDNS"))));
    }

    #[test]
    fn scan_response_population() {
        let catalog = build_testbed();
        let tcp = catalog
            .devices
            .iter()
            .filter(|d| d.scan_profile.responds_tcp)
            .count();
        let udp = catalog
            .devices
            .iter()
            .filter(|d| d.scan_profile.responds_udp)
            .count();
        // §3.1: "only 54 and 20 devices responded to TCP SYN and UDP scans"
        // — ours are in the same band.
        assert!((45..=60).contains(&tcp), "tcp responders {tcp}");
        assert!((14..=26).contains(&udp), "udp responders {udp}");
    }

    #[test]
    fn google_tls_small_keys() {
        let catalog = build_testbed();
        for device in catalog.by_vendor("Google") {
            let port_8009 = device.open_tcp.iter().find(|s| s.port == 8009).unwrap();
            match &port_8009.service {
                ServiceKind::Tls { certificate, .. } => {
                    assert!(certificate.key_bits < 128, "{}", device.name);
                    assert!(certificate.validity_days >= 7000);
                }
                _ => panic!("8009 should be TLS"),
            }
        }
    }

    #[test]
    fn echo_cluster_wiring() {
        let catalog = build_testbed();
        let echoes: Vec<_> = catalog
            .devices
            .iter()
            .filter(|d| d.vendor == "Amazon" && d.category == Category::VoiceAssistant)
            .collect();
        assert_eq!(echoes.len(), 18);
        // Half the family streams RTP to the hub (Fig. 2 calibration);
        // all but the coordinator open TLS to a sibling.
        let with_rtp = echoes.iter().filter(|d| d.rtp.is_some()).count();
        assert_eq!(with_rtp, 9);
        let with_tls = echoes.iter().filter(|d| !d.tls_peers.is_empty()).count();
        assert_eq!(with_tls, 17);
        for echo in &echoes {
            assert!(echo.arp_scan.is_some());
            assert_eq!(echo.lifx_probe_interval_secs, Some(7200));
            assert!(echo.open_tcp.iter().any(|s| s.port == 55442));
            assert!(echo.open_tcp.iter().any(|s| s.port == 55443));
            assert!(echo.open_tcp.iter().any(|s| s.port == 4070));
        }
    }

    #[test]
    fn tuya_devices_dont_answer_scans() {
        let catalog = build_testbed();
        for device in catalog.by_vendor("Tuya") {
            assert!(!device.scan_profile.responds_tcp);
            assert!(device.tuya.is_some());
        }
    }

    #[test]
    fn oui_registry_covers_all_vendors() {
        let catalog = build_testbed();
        for device in &catalog.devices {
            let matched = oui::REGISTRY
                .iter()
                .any(|(prefix, _)| *prefix == device.mac.oui());
            assert!(matched, "no OUI registry entry for {}", device.vendor);
        }
    }
}
