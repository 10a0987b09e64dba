//! Single-allocation frame composition.
//!
//! Every layer in this crate follows the smoltcp idiom — a `Repr` knows its
//! own `buffer_len()` and can `emit()` itself into any mutable byte view —
//! but the per-layer `build_*` helpers compose by nesting: each layer
//! allocates its own buffer and copies the inner layers into it, so a full
//! `eth(ipv4(udp(payload)))` frame costs three allocations and three
//! payload copies. This module composes the same `emit()` calls the other
//! way around: the total frame length is computed top-down from the layer
//! `Repr`s, **one** buffer is allocated, and every header is emitted in
//! place with the payload written exactly once.
//!
//! The emitted bytes are identical to the nested builders' — same fields,
//! same offsets, same checksum order — which the roundtrip tests below and
//! the simulator's determinism suites pin down.

use crate::ethernet::{self, EtherType};
use crate::ipv4;
use crate::{arp, icmpv4, icmpv6, igmp, ipv6, tcp, udp};

/// `eth(ipv4(udp(payload)))` in one allocation, UDP checksum over the IPv4
/// pseudo-header.
pub fn eth_ipv4_udp(
    eth: &ethernet::Repr,
    ip: &ipv4::Repr,
    udp_repr: &udp::Repr,
    payload: &[u8],
) -> Vec<u8> {
    debug_assert_eq!(udp_repr.payload_len, payload.len());
    debug_assert_eq!(ip.payload_len, udp_repr.buffer_len());
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + ip.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    ip.emit(&mut ipv4::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    let transport = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut datagram = udp::Packet::new_unchecked(&mut buffer[transport..]);
    udp_repr.emit(&mut datagram);
    datagram.payload_mut().copy_from_slice(payload);
    datagram.fill_checksum_v4(ip.src_addr, ip.dst_addr);
    buffer
}

/// `eth(ipv4(tcp(payload)))` in one allocation.
pub fn eth_ipv4_tcp(
    eth: &ethernet::Repr,
    ip: &ipv4::Repr,
    tcp_repr: &tcp::Repr,
    payload: &[u8],
) -> Vec<u8> {
    debug_assert_eq!(tcp_repr.payload_len, payload.len());
    debug_assert_eq!(ip.payload_len, tcp_repr.buffer_len());
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + ip.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    ip.emit(&mut ipv4::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    let transport = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut segment = tcp::Packet::new_unchecked(&mut buffer[transport..]);
    tcp_repr.emit(&mut segment);
    segment.payload_mut().copy_from_slice(payload);
    segment.fill_checksum_v4(ip.src_addr, ip.dst_addr);
    buffer
}

/// `eth(ipv4(icmp(payload)))` in one allocation. The ICMP checksum covers
/// the payload, so the payload lands first and `emit` finalizes it.
pub fn eth_ipv4_icmp(
    eth: &ethernet::Repr,
    ip: &ipv4::Repr,
    icmp: &icmpv4::Repr,
    payload: &[u8],
) -> Vec<u8> {
    debug_assert_eq!(icmp.payload_len, payload.len());
    debug_assert_eq!(ip.payload_len, icmp.buffer_len());
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + ip.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    ip.emit(&mut ipv4::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    let transport = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut packet = icmpv4::Packet::new_unchecked(&mut buffer[transport..]);
    packet.payload_mut().copy_from_slice(payload);
    icmp.emit(&mut packet);
    buffer
}

/// `eth(ipv4(igmp))` in one allocation.
pub fn eth_ipv4_igmp(eth: &ethernet::Repr, ip: &ipv4::Repr, igmp_repr: &igmp::Repr) -> Vec<u8> {
    debug_assert_eq!(ip.payload_len, igmp_repr.buffer_len());
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + ip.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    ip.emit(&mut ipv4::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    let transport = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    igmp_repr.emit(&mut igmp::Packet::new_unchecked(&mut buffer[transport..]));
    buffer
}

/// `eth(arp)` in one allocation.
pub fn eth_arp(eth: &ethernet::Repr, arp_repr: &arp::Repr) -> Vec<u8> {
    debug_assert_eq!(eth.ethertype, EtherType::Arp);
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + arp_repr.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    arp_repr.emit(&mut arp::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    buffer
}

/// `eth(ipv6(udp(payload)))` in one allocation, UDP checksum over the IPv6
/// pseudo-header.
pub fn eth_ipv6_udp(
    eth: &ethernet::Repr,
    ip: &ipv6::Repr,
    udp_repr: &udp::Repr,
    payload: &[u8],
) -> Vec<u8> {
    debug_assert_eq!(udp_repr.payload_len, payload.len());
    debug_assert_eq!(ip.payload_len, udp_repr.buffer_len());
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + ip.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    ip.emit(&mut ipv6::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    let transport = ethernet::HEADER_LEN + ipv6::HEADER_LEN;
    let mut datagram = udp::Packet::new_unchecked(&mut buffer[transport..]);
    udp_repr.emit(&mut datagram);
    datagram.payload_mut().copy_from_slice(payload);
    datagram.fill_checksum_v6(ip.src_addr, ip.dst_addr);
    buffer
}

/// `eth(ipv6(icmpv6))` in one allocation; the ICMPv6 checksum needs the
/// pseudo-header endpoints, which are taken from the IPv6 `Repr`.
pub fn eth_ipv6_icmpv6(eth: &ethernet::Repr, ip: &ipv6::Repr, icmp: &icmpv6::Repr) -> Vec<u8> {
    debug_assert_eq!(ip.payload_len, icmp.buffer_len());
    let mut buffer = vec![0u8; ethernet::HEADER_LEN + ip.buffer_len()];
    eth.emit(&mut ethernet::Frame::new_unchecked(&mut buffer[..]));
    ip.emit(&mut ipv6::Packet::new_unchecked(
        &mut buffer[ethernet::HEADER_LEN..],
    ));
    let transport = ethernet::HEADER_LEN + ipv6::HEADER_LEN;
    icmp.emit(
        &mut icmpv6::Packet::new_unchecked(&mut buffer[transport..]),
        ip.src_addr,
        ip.dst_addr,
    );
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::EthernetAddress;
    use crate::ipv4::Protocol;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn eth(ethertype: EtherType) -> ethernet::Repr {
        ethernet::Repr {
            src_addr: EthernetAddress([2, 0, 0, 0, 0, 1]),
            dst_addr: EthernetAddress([2, 0, 0, 0, 0, 2]),
            ethertype,
        }
    }

    fn v4(protocol: Protocol, ttl: u8, payload_len: usize) -> ipv4::Repr {
        ipv4::Repr {
            src_addr: Ipv4Addr::new(192, 168, 10, 1),
            dst_addr: Ipv4Addr::new(192, 168, 10, 2),
            protocol,
            ttl,
            payload_len,
        }
    }

    #[test]
    fn udp_matches_nested_builders() {
        for payload in [&b""[..], b"q", b"a-longer-mdns-style-payload"] {
            let udp_repr = udp::Repr {
                src_port: 5353,
                dst_port: 5353,
                payload_len: payload.len(),
            };
            let ip = v4(Protocol::Udp, 64, udp_repr.buffer_len());
            let eth = eth(EtherType::Ipv4);
            let nested = {
                let datagram = udp::build_datagram_v4(&udp_repr, ip.src_addr, ip.dst_addr, payload);
                let packet = ipv4::build_packet(&ip, &datagram);
                ethernet::build_frame(&eth, &packet)
            };
            assert_eq!(eth_ipv4_udp(&eth, &ip, &udp_repr, payload), nested);
        }
    }

    #[test]
    fn tcp_matches_nested_builders() {
        let payload = b"GET / HTTP/1.1\r\n\r\n";
        let tcp_repr = tcp::Repr::data(40000, 80, 7, 9, payload.len());
        let ip = v4(Protocol::Tcp, 64, tcp_repr.buffer_len());
        let eth = eth(EtherType::Ipv4);
        let nested = {
            let segment = tcp::build_segment_v4(&tcp_repr, ip.src_addr, ip.dst_addr, payload);
            let packet = ipv4::build_packet(&ip, &segment);
            ethernet::build_frame(&eth, &packet)
        };
        assert_eq!(eth_ipv4_tcp(&eth, &ip, &tcp_repr, payload), nested);
    }

    #[test]
    fn icmp_matches_nested_builders() {
        let payload = b"abcdefgh";
        let icmp = icmpv4::Repr {
            message: icmpv4::Message::EchoRequest { ident: 1, seq: 2 },
            payload_len: payload.len(),
        };
        let ip = v4(Protocol::Icmp, 64, icmp.buffer_len());
        let eth = eth(EtherType::Ipv4);
        let nested = {
            let packet = icmpv4::build_packet(&icmp, payload);
            let ip_packet = ipv4::build_packet(&ip, &packet);
            ethernet::build_frame(&eth, &ip_packet)
        };
        assert_eq!(eth_ipv4_icmp(&eth, &ip, &icmp, payload), nested);
    }

    #[test]
    fn igmp_matches_nested_builders() {
        let group = Ipv4Addr::new(224, 0, 0, 251);
        let igmp_repr = igmp::Repr {
            message: igmp::Message::MembershipReportV2 { group },
        };
        let ip = v4(Protocol::Igmp, 1, igmp_repr.buffer_len());
        let eth = eth(EtherType::Ipv4);
        let nested = {
            let body = igmp_repr.to_bytes();
            let packet = ipv4::build_packet(&ip, &body);
            ethernet::build_frame(&eth, &packet)
        };
        assert_eq!(eth_ipv4_igmp(&eth, &ip, &igmp_repr), nested);
    }

    #[test]
    fn arp_matches_nested_builders() {
        let arp_repr = arp::Repr::request(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            Ipv4Addr::new(192, 168, 10, 1),
            Ipv4Addr::new(192, 168, 10, 2),
        );
        let eth = eth(EtherType::Arp);
        let nested = ethernet::build_frame(&eth, &arp_repr.to_bytes());
        assert_eq!(eth_arp(&eth, &arp_repr), nested);
    }

    #[test]
    fn udp_v6_matches_nested_builders() {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "ff02::fb".parse().unwrap();
        let payload = b"mdns";
        let udp_repr = udp::Repr {
            src_port: 5353,
            dst_port: 5353,
            payload_len: payload.len(),
        };
        let ip = ipv6::Repr {
            src_addr: src,
            dst_addr: dst,
            next_header: Protocol::Udp,
            hop_limit: 255,
            payload_len: udp_repr.buffer_len(),
        };
        let eth = eth(EtherType::Ipv6);
        let nested = {
            let datagram = udp::build_datagram_v6(&udp_repr, src, dst, payload);
            let packet = ipv6::build_packet(&ip, &datagram);
            ethernet::build_frame(&eth, &packet)
        };
        assert_eq!(eth_ipv6_udp(&eth, &ip, &udp_repr, payload), nested);
    }

    #[test]
    fn icmpv6_matches_nested_builders() {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let target: Ipv6Addr = "fe80::2".parse().unwrap();
        let dst = ipv6::solicited_node(target);
        let icmp = icmpv6::Repr {
            message: icmpv6::Message::NeighborSolicit {
                target,
                source_mac: Some(EthernetAddress([2, 0, 0, 0, 0, 1])),
            },
        };
        let ip = ipv6::Repr {
            src_addr: src,
            dst_addr: dst,
            next_header: Protocol::Ipv6Icmp,
            hop_limit: 255,
            payload_len: icmp.buffer_len(),
        };
        let eth = eth(EtherType::Ipv6);
        let nested = {
            let body = icmp.to_bytes(src, dst);
            let packet = ipv6::build_packet(&ip, &body);
            ethernet::build_frame(&eth, &packet)
        };
        assert_eq!(eth_ipv6_icmpv6(&eth, &ip, &icmp), nested);
    }
}
