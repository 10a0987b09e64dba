//! The LAN parts shared by the robustness and interest-audit suites: a
//! phone whose one app runs every discovery behaviour, the LAN's
//! endpoints and mDNS service types, and a generator of valid UDP frames
//! to the discovery and DHCP ports that the node handlers parse.

use iotlan::apps::android::poc_permissions;
use iotlan::apps::{AppBehavior, AppCategory, AppConfig, Phone};
use iotlan::devices::Catalog;
use iotlan::netsim::router::{GATEWAY_IP, GATEWAY_MAC};
use iotlan::netsim::stack::{self, Endpoint};
use iotlan::netsim::SimDuration;
use iotlan::util::check::Gen;
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::wire::{dhcpv4, dns, lifx, ssdp, tplink, tuya};
use std::net::Ipv4Addr;

const PHONE: Endpoint = Endpoint {
    mac: EthernetAddress([0x02, 0x91, 0x0e, 0x00, 0x00, 0x01]),
    ip: Ipv4Addr::new(192, 168, 10, 240),
};

/// A host that is not on the LAN.
const STRANGER: Endpoint = Endpoint {
    mac: EthernetAddress([0x02, 0xba, 0xd0, 0x00, 0x00, 0x01]),
    ip: Ipv4Addr::new(192, 168, 10, 250),
};

/// mDNS, SSDP, TP-Link SHP, Tuya, LIFX and DHCP.
const PORTS: [u16; 8] = [
    dns::MDNS_PORT,
    ssdp::SSDP_PORT,
    tplink::SHP_PORT,
    6666,
    6667,
    lifx::LIFX_PORT,
    67,
    68,
];

/// A phone whose one app (every discovery behaviour) stays in its test
/// window for an hour.
pub fn discovery_phone() -> Phone {
    let app = AppConfig {
        package: "test.every_discovery".into(),
        category: AppCategory::Iot,
        permissions: poc_permissions(),
        behaviors: vec![
            AppBehavior::MdnsScan(vec!["_services._dns-sd._udp.local".into()]),
            AppBehavior::SsdpScan(vec![ssdp::targets::ALL.into()]),
            AppBehavior::NetBiosScan,
            AppBehavior::TplinkDiscovery,
            AppBehavior::TuyaDiscovery,
        ],
        sdks: Vec::new(),
    };
    let mut phone = Phone::new(PHONE.mac, PHONE.ip, "MonIoTr-Lab", GATEWAY_MAC, vec![app]);
    phone.set_window(SimDuration::from_hours(1));
    phone
}

/// Every addressable endpoint on the LAN, plus one that is not.
pub fn endpoints(catalog: &Catalog) -> Vec<Endpoint> {
    let mut out: Vec<Endpoint> = catalog
        .devices
        .iter()
        .map(|d| Endpoint {
            mac: d.mac,
            ip: d.ip,
        })
        .collect();
    out.extend([
        Endpoint {
            mac: GATEWAY_MAC,
            ip: GATEWAY_IP,
        },
        PHONE,
        STRANGER,
    ]);
    out
}

/// A service type no catalog device advertises or queries.
const UNADVERTISED: &str = "_nobody-advertises._tcp.local";

/// Every mDNS service type the catalog's devices advertise or query (the
/// DNS-SD meta-query among them), plus one that nobody advertises: the
/// names an mDNS query asks.
pub fn service_types(catalog: &Catalog) -> Vec<String> {
    let mut out: Vec<String> = catalog
        .devices
        .iter()
        .filter_map(|d| d.mdns.as_ref())
        .flat_map(|m| {
            m.advertise
                .iter()
                .map(|s| s.service_type.clone())
                .chain(m.query.iter().cloned())
        })
        .chain([UNADVERTISED.to_string()])
        .collect();
    out.sort();
    out.dedup();
    out
}

pub fn pick<T: Copy>(g: &mut Gen, items: &[T]) -> T {
    items[g.int_in(0..items.len())]
}

/// A well-formed message for `port`, as the lab's own nodes send it. An
/// mDNS query asks for one to three of `services`.
fn real_payload(g: &mut Gen, port: u16, services: &[String]) -> Vec<u8> {
    match port {
        dns::MDNS_PORT => {
            let names = g.vec_of(1, 3, |g| services[g.int_in(0..services.len())].as_str());
            let questions: Vec<_> = names.iter().map(|&n| (n, dns::RecordType::Ptr)).collect();
            let mut query = dns::Message::mdns_query(&questions);
            query.questions[0].unicast_response = g.bool();
            query.to_bytes()
        }
        ssdp::SSDP_PORT => ssdp::Message::msearch(ssdp::targets::ALL, 3).to_bytes(),
        tplink::SHP_PORT => tplink::Message::get_sysinfo().to_udp_bytes(),
        6666 | 6667 => tuya::Frame::discovery("gw", "key", "192.168.10.250", "3.3").to_bytes(),
        lifx::LIFX_PORT => lifx::Header::get_service(1, 1).to_bytes(),
        _ => dhcpv4::Repr::discover(7, STRANGER.mac, Some("probe".into()), None, vec![1, 3, 6])
            .to_bytes(),
    }
}

/// An arbitrary payload for `port`: short (under a DNS header), garbage
/// with the DNS QR bit set or clear, or a real message with a few bytes
/// flipped or the tail cut off.
fn payload(g: &mut Gen, port: u16, services: &[String]) -> Vec<u8> {
    match g.int_in(0..5u8) {
        0 => {
            let mut bytes = g.bytes(11);
            bytes.truncate(11);
            bytes
        }
        1 | 2 => {
            let mut bytes = g.bytes(1200);
            bytes.resize(bytes.len().max(12), 0);
            if g.bool() {
                bytes[2] |= 0x80;
            } else {
                bytes[2] &= 0x7f;
            }
            bytes
        }
        3 => real_payload(g, port, services),
        _ => {
            let mut bytes = real_payload(g, port, services);
            for _ in 0..g.int_in(1..4u8) {
                let at = g.int_in(0..bytes.len());
                bytes[at] ^= g.int_in(1..=255u8);
            }
            if g.bool() {
                bytes.truncate(g.int_in(0..=bytes.len()));
            }
            bytes
        }
    }
}

/// A valid Ethernet/IPv4/UDP frame to a discovery port: multicast,
/// broadcast or unicast, from a LAN node or a stranger. mDNS queries ask
/// for `services` ([`service_types`]).
pub fn udp_frame(g: &mut Gen, endpoints: &[Endpoint], services: &[String]) -> Vec<u8> {
    let dport = pick(g, &PORTS);
    let sport = if g.bool() {
        pick(g, &PORTS)
    } else {
        g.int_in(1..=u16::MAX)
    };
    let src = pick(g, endpoints);
    let payload = payload(g, dport, services);
    match g.int_in(0..3u8) {
        0 => {
            let group = if dport == ssdp::SSDP_PORT {
                ssdp::SSDP_GROUP_V4
            } else {
                dns::MDNS_GROUP_V4
            };
            stack::udp_multicast(src, group, sport, dport, &payload)
        }
        1 => stack::udp_broadcast(src, sport, dport, &payload),
        _ => stack::udp_unicast(src, pick(g, endpoints), sport, dport, &payload),
    }
}
