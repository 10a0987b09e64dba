//! Frame-composition helpers: wrap application payloads in the full
//! Ethernet/IP/transport stack with valid checksums, and take the layers
//! apart again on receive. Every device model, honeypot, scanner and app in
//! the workspace builds its traffic through these.
//!
//! All builders route through [`iotlan_wire::compose`]: the total frame
//! length is computed from the layer `Repr`s, a single buffer is allocated,
//! and every header is emitted in place — one allocation and one payload
//! copy per frame, instead of one of each per layer.

use iotlan_wire::compose;
use iotlan_wire::ethernet::{self, EtherType, EthernetAddress};
use iotlan_wire::ipv4::{self, Protocol};
use iotlan_wire::{arp, dns, icmpv4, icmpv6, igmp, ipv6, ssdp, tcp, udp};
use std::cell::OnceCell;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Map an IPv4 multicast group to its Ethernet multicast MAC (RFC 1112).
pub fn multicast_mac_v4(group: Ipv4Addr) -> EthernetAddress {
    let o = group.octets();
    EthernetAddress([0x01, 0x00, 0x5e, o[1] & 0x7f, o[2], o[3]])
}

/// Map an IPv6 multicast group to its Ethernet multicast MAC (RFC 2464).
pub fn multicast_mac_v6(group: Ipv6Addr) -> EthernetAddress {
    let o = group.octets();
    EthernetAddress([0x33, 0x33, o[12], o[13], o[14], o[15]])
}

/// An addressed endpoint: MAC plus IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    pub mac: EthernetAddress,
    pub ip: Ipv4Addr,
}

/// Build `eth(ipv4(udp(payload)))` between unicast endpoints.
pub fn udp_unicast(
    src: Endpoint,
    dst: Endpoint,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Vec<u8> {
    let udp_repr = udp::Repr {
        src_port: sport,
        dst_port: dport,
        payload_len: payload.len(),
    };
    compose::eth_ipv4_udp(
        &ethernet::Repr {
            src_addr: src.mac,
            dst_addr: dst.mac,
            ethertype: EtherType::Ipv4,
        },
        &ipv4::Repr {
            src_addr: src.ip,
            dst_addr: dst.ip,
            protocol: Protocol::Udp,
            ttl: 64,
            payload_len: udp_repr.buffer_len(),
        },
        &udp_repr,
        payload,
    )
}

/// Build a UDP datagram to an IPv4 multicast group.
pub fn udp_multicast(
    src: Endpoint,
    group: Ipv4Addr,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Vec<u8> {
    udp_unicast(
        src,
        Endpoint {
            mac: multicast_mac_v4(group),
            ip: group,
        },
        sport,
        dport,
        payload,
    )
}

/// Build a UDP datagram to the limited broadcast address.
pub fn udp_broadcast(src: Endpoint, sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    udp_unicast(
        src,
        Endpoint {
            mac: EthernetAddress::BROADCAST,
            ip: Ipv4Addr::new(255, 255, 255, 255),
        },
        sport,
        dport,
        payload,
    )
}

/// Build `eth(ipv4(tcp(payload)))` between unicast endpoints.
pub fn tcp_segment(src: Endpoint, dst: Endpoint, repr: &tcp::Repr, payload: &[u8]) -> Vec<u8> {
    compose::eth_ipv4_tcp(
        &ethernet::Repr {
            src_addr: src.mac,
            dst_addr: dst.mac,
            ethertype: EtherType::Ipv4,
        },
        &ipv4::Repr {
            src_addr: src.ip,
            dst_addr: dst.ip,
            protocol: Protocol::Tcp,
            ttl: 64,
            payload_len: repr.buffer_len(),
        },
        repr,
        payload,
    )
}

/// Build an ARP frame (request → broadcast, reply → unicast).
pub fn arp_frame(repr: &arp::Repr) -> Vec<u8> {
    let dst = match repr.operation {
        arp::Operation::Request => EthernetAddress::BROADCAST,
        _ => repr.target_hardware_addr,
    };
    compose::eth_arp(
        &ethernet::Repr {
            src_addr: repr.sender_hardware_addr,
            dst_addr: dst,
            ethertype: EtherType::Arp,
        },
        repr,
    )
}

/// Build an ICMPv4 frame.
pub fn icmpv4_frame(src: Endpoint, dst: Endpoint, repr: &icmpv4::Repr, payload: &[u8]) -> Vec<u8> {
    compose::eth_ipv4_icmp(
        &ethernet::Repr {
            src_addr: src.mac,
            dst_addr: dst.mac,
            ethertype: EtherType::Ipv4,
        },
        &ipv4::Repr {
            src_addr: src.ip,
            dst_addr: dst.ip,
            protocol: Protocol::Icmp,
            ttl: 64,
            payload_len: repr.buffer_len(),
        },
        repr,
        payload,
    )
}

/// Build an IGMP frame to `group` (IGMP rides directly on IPv4, TTL 1).
pub fn igmp_frame(src: Endpoint, group: Ipv4Addr, repr: &igmp::Repr) -> Vec<u8> {
    compose::eth_ipv4_igmp(
        &ethernet::Repr {
            src_addr: src.mac,
            dst_addr: multicast_mac_v4(group),
            ethertype: EtherType::Ipv4,
        },
        &ipv4::Repr {
            src_addr: src.ip,
            dst_addr: group,
            protocol: Protocol::Igmp,
            ttl: 1,
            payload_len: repr.buffer_len(),
        },
        repr,
    )
}

/// Build an ICMPv6 frame (NDP or echo) to an IPv6 multicast group, at the
/// group's Ethernet multicast MAC. A unicast destination has no MAC to
/// derive; build it with [`icmpv6_frame_to`].
pub fn icmpv6_frame(
    src_mac: EthernetAddress,
    src_ip: Ipv6Addr,
    dst_ip: Ipv6Addr,
    repr: &icmpv6::Repr,
) -> Vec<u8> {
    debug_assert!(
        ipv6::is_multicast(dst_ip),
        "icmpv6_frame to unicast {dst_ip}: use icmpv6_frame_to"
    );
    icmpv6_frame_to(src_mac, multicast_mac_v6(dst_ip), src_ip, dst_ip, repr)
}

/// Build an ICMPv6 frame to a known MAC (a unicast NDP advert, say).
pub fn icmpv6_frame_to(
    src_mac: EthernetAddress,
    dst_mac: EthernetAddress,
    src_ip: Ipv6Addr,
    dst_ip: Ipv6Addr,
    repr: &icmpv6::Repr,
) -> Vec<u8> {
    compose::eth_ipv6_icmpv6(
        &ethernet::Repr {
            src_addr: src_mac,
            dst_addr: dst_mac,
            ethertype: EtherType::Ipv6,
        },
        &ipv6::Repr {
            src_addr: src_ip,
            dst_addr: dst_ip,
            next_header: Protocol::Ipv6Icmp,
            hop_limit: 255,
            payload_len: repr.buffer_len(),
        },
        repr,
    )
}

/// Build a UDP datagram over IPv6 (for mDNS over ff02::fb).
pub fn udp_multicast_v6(
    src_mac: EthernetAddress,
    src_ip: Ipv6Addr,
    group: Ipv6Addr,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Vec<u8> {
    let udp_repr = udp::Repr {
        src_port: sport,
        dst_port: dport,
        payload_len: payload.len(),
    };
    compose::eth_ipv6_udp(
        &ethernet::Repr {
            src_addr: src_mac,
            dst_addr: multicast_mac_v6(group),
            ethertype: EtherType::Ipv6,
        },
        &ipv6::Repr {
            src_addr: src_ip,
            dst_addr: group,
            next_header: Protocol::Udp,
            hop_limit: 255,
            payload_len: udp_repr.buffer_len(),
        },
        &udp_repr,
        payload,
    )
}

/// A fully dissected received frame, one layer per field, plus the raw
/// bytes it was dissected from. The UDP payload's mDNS and SSDP parses are
/// made on first use and shared by every receiver of the delivery.
#[derive(Debug, Clone)]
pub struct Dissected<'a> {
    pub frame: &'a [u8],
    pub eth: ethernet::Repr,
    pub content: Content<'a>,
    dns: OnceCell<Option<dns::Message>>,
    ssdp: OnceCell<Option<ssdp::Message>>,
}

impl<'a> Dissected<'a> {
    /// The UDP payload (over IPv4 or IPv6), if the frame carries one.
    fn udp_payload(&self) -> Option<&'a [u8]> {
        match self.content {
            Content::UdpV4 { payload, .. } | Content::UdpV6 { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The UDP payload parsed as a DNS/mDNS message; `None` if the frame
    /// is not UDP or the payload does not parse. Callers check the port.
    pub fn dns(&self) -> Option<&dns::Message> {
        self.dns
            .get_or_init(|| dns::Message::parse(self.udp_payload()?).ok())
            .as_ref()
    }

    /// The UDP payload parsed as an SSDP message; `None` if the frame is
    /// not UDP or the payload does not parse. Callers check the port.
    pub fn ssdp(&self) -> Option<&ssdp::Message> {
        self.ssdp
            .get_or_init(|| ssdp::Message::parse(self.udp_payload()?).ok())
            .as_ref()
    }
}

/// The transport-level content of a dissected frame.
#[derive(Debug, Clone)]
pub enum Content<'a> {
    Arp(arp::Repr),
    UdpV4 {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: &'a [u8],
    },
    TcpV4 {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        repr: tcp::Repr,
        payload: &'a [u8],
    },
    IcmpV4 {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        repr: icmpv4::Repr,
    },
    Igmp {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        repr: igmp::Repr,
    },
    IcmpV6 {
        src: Ipv6Addr,
        dst: Ipv6Addr,
        repr: icmpv6::Repr,
    },
    UdpV6 {
        src: Ipv6Addr,
        dst: Ipv6Addr,
        sport: u16,
        dport: u16,
        payload: &'a [u8],
    },
    /// IPv4 with an unhandled protocol number.
    OtherIpv4 {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: Protocol,
    },
    /// Non-IP, non-ARP EtherTypes (EAPOL, vendor frames).
    OtherEther,
}

/// Dissect a raw frame layer by layer. Returns `None` for anything that
/// fails validation at any layer — receivers ignore malformed traffic, while
/// the capture keeps the raw bytes for offline analysis.
pub fn dissect(frame: &[u8]) -> Option<Dissected<'_>> {
    let eth_view = ethernet::Frame::new_checked(frame).ok()?;
    let eth = ethernet::Repr::parse(&eth_view).ok()?;
    // Borrow the payload region directly from `frame` so the lifetime
    // outlives the local view.
    let payload = &frame[ethernet::HEADER_LEN..];
    let content = match eth.ethertype {
        EtherType::Arp => {
            let packet = arp::Packet::new_checked(payload).ok()?;
            Content::Arp(arp::Repr::parse(&packet).ok()?)
        }
        EtherType::Ipv4 => {
            let packet = ipv4::Packet::new_checked(payload).ok()?;
            let repr = ipv4::Repr::parse(&packet).ok()?;
            let header_len = packet.header_len() as usize;
            let total_len = packet.total_len() as usize;
            let ip_payload = &payload[header_len..total_len];
            match repr.protocol {
                Protocol::Udp => {
                    let udp_packet = udp::Packet::new_checked(ip_payload).ok()?;
                    if !udp_packet.verify_checksum_v4(repr.src_addr, repr.dst_addr) {
                        return None;
                    }
                    let udp_repr = udp::Repr::parse(&udp_packet).ok()?;
                    let dgram_len = udp_packet.length() as usize;
                    Content::UdpV4 {
                        src: repr.src_addr,
                        dst: repr.dst_addr,
                        sport: udp_repr.src_port,
                        dport: udp_repr.dst_port,
                        payload: &ip_payload[udp::HEADER_LEN..dgram_len],
                    }
                }
                Protocol::Tcp => {
                    let tcp_packet = tcp::Packet::new_checked(ip_payload).ok()?;
                    if !tcp_packet.verify_checksum_v4(repr.src_addr, repr.dst_addr) {
                        return None;
                    }
                    let tcp_repr = tcp::Repr::parse(&tcp_packet).ok()?;
                    let header_len = tcp_packet.header_len() as usize;
                    Content::TcpV4 {
                        src: repr.src_addr,
                        dst: repr.dst_addr,
                        repr: tcp_repr,
                        payload: &ip_payload[header_len..],
                    }
                }
                Protocol::Icmp => {
                    let icmp_packet = icmpv4::Packet::new_checked(ip_payload).ok()?;
                    Content::IcmpV4 {
                        src: repr.src_addr,
                        dst: repr.dst_addr,
                        repr: icmpv4::Repr::parse(&icmp_packet).ok()?,
                    }
                }
                Protocol::Igmp => {
                    let igmp_packet = igmp::Packet::new_checked(ip_payload).ok()?;
                    Content::Igmp {
                        src: repr.src_addr,
                        dst: repr.dst_addr,
                        repr: igmp::Repr::parse(&igmp_packet).ok()?,
                    }
                }
                other => Content::OtherIpv4 {
                    src: repr.src_addr,
                    dst: repr.dst_addr,
                    protocol: other,
                },
            }
        }
        EtherType::Ipv6 => {
            let packet = ipv6::Packet::new_checked(payload).ok()?;
            let repr = ipv6::Repr::parse(&packet).ok()?;
            let ip_payload = &payload[ipv6::HEADER_LEN..ipv6::HEADER_LEN + repr.payload_len];
            match repr.next_header {
                Protocol::Ipv6Icmp => {
                    let icmp_packet = icmpv6::Packet::new_checked(ip_payload).ok()?;
                    Content::IcmpV6 {
                        src: repr.src_addr,
                        dst: repr.dst_addr,
                        repr: icmpv6::Repr::parse(&icmp_packet, repr.src_addr, repr.dst_addr)
                            .ok()?,
                    }
                }
                Protocol::Udp => {
                    let udp_packet = udp::Packet::new_checked(ip_payload).ok()?;
                    if !udp_packet.verify_checksum_v6(repr.src_addr, repr.dst_addr) {
                        return None;
                    }
                    let udp_repr = udp::Repr::parse(&udp_packet).ok()?;
                    let dgram_len = udp_packet.length() as usize;
                    Content::UdpV6 {
                        src: repr.src_addr,
                        dst: repr.dst_addr,
                        sport: udp_repr.src_port,
                        dport: udp_repr.dst_port,
                        payload: &ip_payload[udp::HEADER_LEN..dgram_len],
                    }
                }
                _ => Content::OtherEther,
            }
        }
        _ => Content::OtherEther,
    };
    Some(Dissected {
        frame,
        eth,
        content,
        dns: OnceCell::new(),
        ssdp: OnceCell::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(last: u8) -> Endpoint {
        Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: Ipv4Addr::new(192, 168, 10, last),
        }
    }

    #[test]
    fn udp_unicast_dissects() {
        let frame = udp_unicast(endpoint(1), endpoint(2), 5000, 9999, b"query");
        let dissected = dissect(&frame).unwrap();
        match dissected.content {
            Content::UdpV4 {
                sport,
                dport,
                payload,
                ..
            } => {
                assert_eq!(sport, 5000);
                assert_eq!(dport, 9999);
                assert_eq!(payload, b"query");
            }
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn multicast_mac_mapping() {
        assert_eq!(
            multicast_mac_v4(Ipv4Addr::new(224, 0, 0, 251)),
            EthernetAddress([0x01, 0x00, 0x5e, 0, 0, 0xfb])
        );
        assert_eq!(
            multicast_mac_v4(Ipv4Addr::new(239, 255, 255, 250)),
            EthernetAddress([0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa])
        );
        assert_eq!(
            multicast_mac_v6("ff02::fb".parse().unwrap()),
            EthernetAddress([0x33, 0x33, 0, 0, 0, 0xfb])
        );
    }

    #[test]
    fn multicast_and_broadcast_frames() {
        let frame = udp_multicast(endpoint(1), Ipv4Addr::new(224, 0, 0, 251), 5353, 5353, b"m");
        let view = ethernet::Frame::new_checked(&frame[..]).unwrap();
        assert!(view.dst_addr().is_multicast());

        let frame = udp_broadcast(endpoint(1), 68, 67, b"b");
        let view = ethernet::Frame::new_checked(&frame[..]).unwrap();
        assert!(view.dst_addr().is_broadcast());
    }

    #[test]
    fn tcp_roundtrip_through_dissect() {
        let repr = tcp::Repr::syn(40000, 80, 1);
        let frame = tcp_segment(endpoint(1), endpoint(2), &repr, &[]);
        match dissect(&frame).unwrap().content {
            Content::TcpV4 { repr: parsed, .. } => assert_eq!(parsed, repr),
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn arp_frames() {
        let request = arp::Repr::request(endpoint(1).mac, endpoint(1).ip, endpoint(2).ip);
        let frame = arp_frame(&request);
        let view = ethernet::Frame::new_checked(&frame[..]).unwrap();
        assert!(view.dst_addr().is_broadcast());
        match dissect(&frame).unwrap().content {
            Content::Arp(parsed) => assert_eq!(parsed, request),
            _ => panic!("wrong content"),
        }

        let reply = arp::Repr::reply(
            endpoint(2).mac,
            endpoint(2).ip,
            endpoint(1).mac,
            endpoint(1).ip,
        );
        let frame = arp_frame(&reply);
        let view = ethernet::Frame::new_checked(&frame[..]).unwrap();
        assert_eq!(view.dst_addr(), endpoint(1).mac);
    }

    #[test]
    fn icmpv6_multicast_ns() {
        let src_mac = endpoint(1).mac;
        let src_ip = ipv6::link_local_from_mac(src_mac);
        let target: Ipv6Addr = "fe80::2".parse().unwrap();
        let dst_ip = ipv6::solicited_node(target);
        let repr = icmpv6::Repr {
            message: icmpv6::Message::NeighborSolicit {
                target,
                source_mac: Some(src_mac),
            },
        };
        let frame = icmpv6_frame(src_mac, src_ip, dst_ip, &repr);
        match dissect(&frame).unwrap().content {
            Content::IcmpV6 { repr: parsed, .. } => assert_eq!(parsed, repr),
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn icmpv6_frame_goes_to_the_group_mac() {
        let src_mac = endpoint(1).mac;
        let group = ipv6::solicited_node("fe80::2".parse().unwrap());
        let repr = icmpv6::Repr {
            message: icmpv6::Message::NeighborAdvert {
                target: ipv6::link_local_from_mac(src_mac),
                target_mac: Some(src_mac),
            },
        };
        let frame = icmpv6_frame(src_mac, ipv6::link_local_from_mac(src_mac), group, &repr);
        assert_eq!(
            dissect(&frame).unwrap().eth.dst_addr,
            multicast_mac_v6(group)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "use icmpv6_frame_to")]
    fn icmpv6_frame_rejects_a_unicast_destination() {
        let src_mac = endpoint(1).mac;
        let src_ip = ipv6::link_local_from_mac(src_mac);
        let repr = icmpv6::Repr {
            message: icmpv6::Message::NeighborSolicit {
                target: src_ip,
                source_mac: None,
            },
        };
        icmpv6_frame(src_mac, src_ip, "fe80::2".parse().unwrap(), &repr);
    }

    #[test]
    fn udp_v6_mdns() {
        let src_mac = endpoint(1).mac;
        let src_ip = ipv6::link_local_from_mac(src_mac);
        let frame = udp_multicast_v6(
            src_mac,
            src_ip,
            iotlan_wire::dns::MDNS_GROUP_V6,
            5353,
            5353,
            b"mdns-payload",
        );
        match dissect(&frame).unwrap().content {
            Content::UdpV6 { dport, payload, .. } => {
                assert_eq!(dport, 5353);
                assert_eq!(payload, b"mdns-payload");
            }
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn igmp_join() {
        let group = Ipv4Addr::new(224, 0, 0, 251);
        let repr = igmp::Repr {
            message: igmp::Message::MembershipReportV2 { group },
        };
        let frame = igmp_frame(endpoint(5), group, &repr);
        match dissect(&frame).unwrap().content {
            Content::Igmp { repr: parsed, .. } => assert_eq!(parsed, repr),
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn corrupted_frame_dissects_to_none() {
        let mut frame = udp_unicast(endpoint(1), endpoint(2), 1, 2, b"x");
        let n = frame.len();
        frame[n - 1] ^= 0xff; // corrupt UDP payload -> checksum fails
        assert!(dissect(&frame).is_none());
    }
}
