//! The Appendix C.1 local-traffic filter, as an explicit predicate over
//! raw frames. The paper's tshark expression for a 192.168.10.0/24 LAN:
//!
//! ```text
//! (ip.dst === 192.168.10.0/24 and ip.src === 192.168.10.0/24)
//!   or (eth.dst.ig == 1)
//!   or (eth.dst.ig == 0 && !ip)
//! ```
//!
//! i.e. keep (1) local↔local IP unicast, (2) all Ethernet multicast and
//! broadcast, and (3) non-IP unicast. Everything else — traffic to or from
//! the Internet — is out of scope for the local analysis.

use iotlan_wire::ethernet::{EtherType, Frame};
use std::net::Ipv4Addr;

/// A /24-style prefix filter (mask length 0–32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSubnet {
    pub network: Ipv4Addr,
    pub prefix_len: u8,
}

impl LocalSubnet {
    /// The lab's subnet from Appendix C.1.
    pub fn lab_default() -> LocalSubnet {
        LocalSubnet {
            network: Ipv4Addr::new(192, 168, 10, 0),
            prefix_len: 24,
        }
    }

    /// Is `addr` inside this subnet?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(self.prefix_len));
        (u32::from(addr) & mask) == (u32::from(self.network) & mask)
    }
}

/// Why a frame was kept (mirrors the three clauses of the filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Clause 1: both IP endpoints in the local subnet.
    LocalIpUnicast,
    /// Clause 2: Ethernet multicast/broadcast destination.
    MulticastOrBroadcast,
    /// Clause 3: unicast but not IP (ARP, EAPOL, LLC…).
    NonIpUnicast,
}

/// Apply the Appendix C.1 filter to one frame. `None` = drop (non-local).
pub fn classify_frame(frame: &[u8], subnet: LocalSubnet) -> Option<KeepReason> {
    let view = Frame::new_checked(frame).ok()?;
    // Clause 2: eth.dst.ig == 1.
    if view.dst_addr().is_multicast() {
        return Some(KeepReason::MulticastOrBroadcast);
    }
    match view.ethertype() {
        EtherType::Ipv4 => {
            let packet = iotlan_wire::ipv4::Packet::new_checked(view.payload()).ok()?;
            // Clause 1: both endpoints local. (DHCP's 0.0.0.0 source is
            // accepted: it is a station on the local segment.)
            let src_ok = subnet.contains(packet.src_addr()) || packet.src_addr().is_unspecified();
            if src_ok && subnet.contains(packet.dst_addr()) {
                Some(KeepReason::LocalIpUnicast)
            } else {
                None
            }
        }
        // IPv6 unicast on the segment is link-local by construction here;
        // the paper's v4 filter expression has no v6 clause, but link-local
        // v6 unicast is local traffic under RFC 6890 just the same.
        EtherType::Ipv6 => {
            let packet = iotlan_wire::ipv6::Packet::new_checked(view.payload()).ok()?;
            if iotlan_wire::ipv6::is_link_local(packet.src_addr())
                && (iotlan_wire::ipv6::is_link_local(packet.dst_addr())
                    || iotlan_wire::ipv6::is_multicast(packet.dst_addr()))
            {
                Some(KeepReason::LocalIpUnicast)
            } else {
                None
            }
        }
        // Clause 3: eth.dst.ig == 0 && !ip.
        _ => Some(KeepReason::NonIpUnicast),
    }
}

/// Filter a whole capture; returns kept frame indices with their reasons.
pub fn filter_capture(
    capture: &iotlan_netsim::Capture,
    subnet: LocalSubnet,
) -> Vec<(usize, KeepReason)> {
    capture
        .frames()
        .enumerate()
        .filter_map(|(index, frame)| {
            classify_frame(frame.data(), subnet).map(|reason| (index, reason))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_wire::ethernet::EthernetAddress;

    fn ep(last: u8) -> Endpoint {
        Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: Ipv4Addr::new(192, 168, 10, last),
        }
    }

    #[test]
    fn clause1_local_ip_unicast() {
        let frame = stack::udp_unicast(ep(1), ep(2), 1, 2, b"x");
        assert_eq!(
            classify_frame(&frame, LocalSubnet::lab_default()),
            Some(KeepReason::LocalIpUnicast)
        );
    }

    #[test]
    fn clause1_rejects_internet_traffic() {
        let cloud = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 99]), // via gateway MAC
            ip: Ipv4Addr::new(52, 94, 236, 20),        // AWS
        };
        let frame = stack::udp_unicast(ep(1), cloud, 1, 443, b"x");
        assert_eq!(classify_frame(&frame, LocalSubnet::lab_default()), None);
        // And inbound from the Internet.
        let frame = stack::udp_unicast(cloud, ep(1), 443, 1, b"x");
        assert_eq!(classify_frame(&frame, LocalSubnet::lab_default()), None);
    }

    #[test]
    fn clause2_multicast_broadcast() {
        let frame = stack::udp_multicast(ep(1), Ipv4Addr::new(224, 0, 0, 251), 5353, 5353, b"m");
        assert_eq!(
            classify_frame(&frame, LocalSubnet::lab_default()),
            Some(KeepReason::MulticastOrBroadcast)
        );
        let frame = stack::udp_broadcast(ep(1), 68, 67, b"d");
        assert_eq!(
            classify_frame(&frame, LocalSubnet::lab_default()),
            Some(KeepReason::MulticastOrBroadcast)
        );
    }

    #[test]
    fn clause3_non_ip_unicast() {
        let request = iotlan_wire::arp::Repr::reply(ep(1).mac, ep(1).ip, ep(2).mac, ep(2).ip);
        let frame = stack::arp_frame(&request); // unicast ARP reply
        assert_eq!(
            classify_frame(&frame, LocalSubnet::lab_default()),
            Some(KeepReason::NonIpUnicast)
        );
    }

    #[test]
    fn dhcp_unspecified_source_kept() {
        let src = Endpoint {
            mac: ep(9).mac,
            ip: Ipv4Addr::UNSPECIFIED,
        };
        // Unicast DHCP renewal to the server.
        let frame = stack::udp_unicast(src, ep(1), 68, 67, b"dhcp");
        assert_eq!(
            classify_frame(&frame, LocalSubnet::lab_default()),
            Some(KeepReason::LocalIpUnicast)
        );
    }

    #[test]
    fn subnet_math() {
        let subnet = LocalSubnet::lab_default();
        assert!(subnet.contains(Ipv4Addr::new(192, 168, 10, 255)));
        assert!(!subnet.contains(Ipv4Addr::new(192, 168, 11, 1)));
        let all = LocalSubnet {
            network: Ipv4Addr::UNSPECIFIED,
            prefix_len: 0,
        };
        assert!(all.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn ipv6_link_local_kept() {
        let src_mac = ep(1).mac;
        let src_ip = iotlan_wire::ipv6::link_local_from_mac(src_mac);
        let frame = stack::udp_multicast_v6(
            src_mac,
            src_ip,
            iotlan_wire::dns::MDNS_GROUP_V6,
            5353,
            5353,
            b"v6",
        );
        // Multicast at L2 wins first.
        assert_eq!(
            classify_frame(&frame, LocalSubnet::lab_default()),
            Some(KeepReason::MulticastOrBroadcast)
        );
    }
}
