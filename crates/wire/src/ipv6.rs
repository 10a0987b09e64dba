//! IPv6 (RFC 8200) fixed headers. 59% of lab devices support IPv6 (§4.1);
//! SLAAC/NDP behaviour lives in [`crate::icmpv6`].

use crate::field::{self, Field};
use crate::ipv4::Protocol;
use crate::{Error, Result};
use std::net::Ipv6Addr;

#[allow(dead_code)]
mod layout {
    use super::Field;
    pub const VER_TC_FL: Field = 0..4;
    pub const LENGTH: Field = 4..6;
    pub const NEXT_HEADER: usize = 6;
    pub const HOP_LIMIT: usize = 7;
    pub const SRC_ADDR: Field = 8..24;
    pub const DST_ADDR: Field = 24..40;
}

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// True for fe80::/10 link-local addresses.
pub fn is_link_local(addr: Ipv6Addr) -> bool {
    addr.segments()[0] & 0xffc0 == 0xfe80
}

/// True for ff00::/8 multicast.
pub fn is_multicast(addr: Ipv6Addr) -> bool {
    addr.octets()[0] == 0xff
}

/// The solicited-node multicast address for `addr` (RFC 4291 §2.7.1).
pub fn solicited_node(addr: Ipv6Addr) -> Ipv6Addr {
    let o = addr.octets();
    Ipv6Addr::new(
        0xff02,
        0,
        0,
        0,
        0,
        1,
        0xff00 | u16::from(o[13]),
        (u16::from(o[14]) << 8) | u16::from(o[15]),
    )
}

/// Derive an EUI-64 link-local address from a MAC, as SLAAC devices do.
pub fn link_local_from_mac(mac: crate::EthernetAddress) -> Ipv6Addr {
    let m = mac.0;
    Ipv6Addr::new(
        0xfe80,
        0,
        0,
        0,
        (u16::from(m[0] ^ 0x02) << 8) | u16::from(m[1]),
        (u16::from(m[2]) << 8) | 0x00ff,
        0xfe00 | u16::from(m[3]),
        (u16::from(m[4]) << 8) | u16::from(m[5]),
    )
}

/// A view of an IPv6 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let packet = Packet { buffer };
        if packet.version() != 6 {
            return Err(Error::Malformed);
        }
        if HEADER_LEN + packet.payload_len() as usize > len {
            return Err(Error::Truncated);
        }
        Ok(packet)
    }

    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    pub fn payload_len(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::LENGTH.start).unwrap()
    }

    /// Next-header, reusing the IPv4 protocol registry (the numbers are
    /// shared for the transports we care about).
    pub fn next_header(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[layout::NEXT_HEADER])
    }

    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[layout::HOP_LIMIT]
    }

    pub fn src_addr(&self) -> Ipv6Addr {
        let b: [u8; 16] = self.buffer.as_ref()[layout::SRC_ADDR].try_into().unwrap();
        Ipv6Addr::from(b)
    }

    pub fn dst_addr(&self) -> Ipv6Addr {
        let b: [u8; 16] = self.buffer.as_ref()[layout::DST_ADDR].try_into().unwrap();
        Ipv6Addr::from(b)
    }

    pub fn payload(&self) -> &[u8] {
        let end = HEADER_LEN + self.payload_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_version(&mut self) {
        let data = self.buffer.as_mut();
        data[0] = 0x60;
        data[1] = 0;
        data[2] = 0;
        data[3] = 0;
    }

    pub fn set_payload_len(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::LENGTH.start, value);
    }

    pub fn set_next_header(&mut self, value: Protocol) {
        self.buffer.as_mut()[layout::NEXT_HEADER] = value.into();
    }

    pub fn set_hop_limit(&mut self, value: u8) {
        self.buffer.as_mut()[layout::HOP_LIMIT] = value;
    }

    pub fn set_src_addr(&mut self, value: Ipv6Addr) {
        self.buffer.as_mut()[layout::SRC_ADDR].copy_from_slice(&value.octets());
    }

    pub fn set_dst_addr(&mut self, value: Ipv6Addr) {
        self.buffer.as_mut()[layout::DST_ADDR].copy_from_slice(&value.octets());
    }

    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = HEADER_LEN + self.payload_len() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..end]
    }
}

/// High-level representation of an IPv6 fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub src_addr: Ipv6Addr,
    pub dst_addr: Ipv6Addr,
    pub next_header: Protocol,
    pub hop_limit: u8,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            next_header: packet.next_header(),
            hop_limit: packet.hop_limit(),
            payload_len: packet.payload_len() as usize,
        })
    }

    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version();
        packet.set_payload_len(self.payload_len as u16);
        packet.set_next_header(self.next_header);
        packet.set_hop_limit(self.hop_limit);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
    }
}

/// Build a complete IPv6 packet around `payload`.
pub fn build_packet(repr: &Repr, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(repr.payload_len, payload.len());
    let mut buffer = vec![0u8; HEADER_LEN + payload.len()];
    let mut packet = Packet::new_unchecked(&mut buffer[..]);
    repr.emit(&mut packet);
    packet.payload_mut().copy_from_slice(payload);
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EthernetAddress;

    #[test]
    fn roundtrip() {
        let repr = Repr {
            src_addr: "fe80::1".parse().unwrap(),
            dst_addr: "ff02::fb".parse().unwrap(),
            next_header: Protocol::Udp,
            hop_limit: 255,
            payload_len: 3,
        };
        let bytes = build_packet(&repr, &[7, 8, 9]);
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload(), &[7, 8, 9]);
    }

    #[test]
    fn bad_version_rejected() {
        let repr = Repr {
            src_addr: Ipv6Addr::LOCALHOST,
            dst_addr: Ipv6Addr::LOCALHOST,
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: 0,
        };
        let mut bytes = build_packet(&repr, &[]);
        bytes[0] = 0x40;
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn payload_len_bounds_checked() {
        let repr = Repr {
            src_addr: Ipv6Addr::LOCALHOST,
            dst_addr: Ipv6Addr::LOCALHOST,
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: 0,
        };
        let mut bytes = build_packet(&repr, &[]);
        bytes[5] = 10; // claims 10 payload bytes that are not there
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn address_predicates() {
        assert!(is_link_local("fe80::abcd".parse().unwrap()));
        assert!(!is_link_local("2001:db8::1".parse().unwrap()));
        assert!(is_multicast("ff02::fb".parse().unwrap()));
        assert!(!is_multicast("fe80::1".parse().unwrap()));
    }

    #[test]
    fn solicited_node_address() {
        let addr: Ipv6Addr = "fe80::0217:88ff:fe68:5f61".parse().unwrap();
        assert_eq!(
            solicited_node(addr),
            "ff02::1:ff68:5f61".parse::<Ipv6Addr>().unwrap()
        );
    }

    #[test]
    fn eui64_from_mac() {
        // The Philips Hue example from the paper's Table 5 mDNS entry:
        // MAC 00:17:88:68:5f:61 -> fe80::217:88ff:fe68:5f61.
        let mac = EthernetAddress::parse("00:17:88:68:5f:61").unwrap();
        assert_eq!(
            link_local_from_mac(mac),
            "fe80::217:88ff:fe68:5f61".parse::<Ipv6Addr>().unwrap()
        );
    }
}
