//! IPv4 (RFC 791) headers, including the private-range predicates the paper
//! uses to restrict analysis to local traffic (RFC 6890 ranges, §3.3).

use crate::field::{self, Field};
use crate::{checksum, Error, Result};
use core::fmt;
use std::net::Ipv4Addr;

/// IP protocol numbers observed in the lab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    Icmp,
    Igmp,
    Tcp,
    Udp,
    Ipv6Icmp,
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(value: u8) -> Self {
        match value {
            1 => Protocol::Icmp,
            2 => Protocol::Igmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            58 => Protocol::Ipv6Icmp,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(value: Protocol) -> u8 {
        match value {
            Protocol::Icmp => 1,
            Protocol::Igmp => 2,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Ipv6Icmp => 58,
            Protocol::Unknown(other) => other,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "ICMP"),
            Protocol::Igmp => write!(f, "IGMP"),
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Ipv6Icmp => write!(f, "ICMPv6"),
            Protocol::Unknown(p) => write!(f, "proto-{p}"),
        }
    }
}

/// True if `addr` falls in an RFC 1918/6890 private range — the filter that
/// defines "local traffic" for both the lab and the IoT Inspector subset.
pub fn is_private(addr: Ipv4Addr) -> bool {
    let o = addr.octets();
    o[0] == 10
        || (o[0] == 172 && (16..=31).contains(&o[1]))
        || (o[0] == 192 && o[1] == 168)
        || (o[0] == 169 && o[1] == 254) // link-local
}

/// True for 224.0.0.0/4.
pub fn is_multicast(addr: Ipv4Addr) -> bool {
    addr.octets()[0] & 0xf0 == 0xe0
}

/// True for the limited broadcast address.
pub fn is_limited_broadcast(addr: Ipv4Addr) -> bool {
    addr == Ipv4Addr::new(255, 255, 255, 255)
}

mod layout {
    use super::Field;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Field = 2..4;
    pub const IDENT: Field = 4..6;
    pub const FLG_OFF: Field = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Field = 10..12;
    pub const SRC_ADDR: Field = 12..16;
    pub const DST_ADDR: Field = 16..20;
}

/// Minimum (and, for us, only emitted) header length: no options.
pub const HEADER_LEN: usize = 20;

/// A view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let packet = Packet { buffer };
        if packet.version() != 4 {
            return Err(Error::Malformed);
        }
        let header_len = packet.header_len() as usize;
        if header_len < HEADER_LEN || header_len > len {
            return Err(Error::Malformed);
        }
        let total_len = packet.total_len() as usize;
        if total_len < header_len || total_len > len {
            return Err(Error::Truncated);
        }
        Ok(packet)
    }

    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[layout::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[layout::VER_IHL] & 0x0f) * 4
    }

    pub fn dscp_ecn(&self) -> u8 {
        self.buffer.as_ref()[layout::DSCP_ECN]
    }

    pub fn total_len(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::LENGTH.start).unwrap()
    }

    pub fn ident(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::IDENT.start).unwrap()
    }

    pub fn dont_frag(&self) -> bool {
        field::read_u16(self.buffer.as_ref(), layout::FLG_OFF.start).unwrap() & 0x4000 != 0
    }

    pub fn more_frags(&self) -> bool {
        field::read_u16(self.buffer.as_ref(), layout::FLG_OFF.start).unwrap() & 0x2000 != 0
    }

    pub fn frag_offset(&self) -> u16 {
        (field::read_u16(self.buffer.as_ref(), layout::FLG_OFF.start).unwrap() & 0x1fff) * 8
    }

    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[layout::TTL]
    }

    pub fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[layout::PROTOCOL])
    }

    pub fn header_checksum(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::CHECKSUM.start).unwrap()
    }

    pub fn src_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[layout::SRC_ADDR];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    pub fn dst_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[layout::DST_ADDR];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    /// Validate the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let header = &self.buffer.as_ref()[..self.header_len() as usize];
        checksum::verify(header)
    }

    /// Payload bytes, bounded by `total_len`.
    pub fn payload(&self) -> &[u8] {
        let header_len = self.header_len() as usize;
        let total_len = self.total_len() as usize;
        &self.buffer.as_ref()[header_len..total_len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_version_and_header_len(&mut self) {
        self.buffer.as_mut()[layout::VER_IHL] = 0x45;
    }

    pub fn set_total_len(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::LENGTH.start, value);
    }

    pub fn set_ident(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::IDENT.start, value);
    }

    pub fn set_dont_frag(&mut self, value: bool) {
        let raw = field::read_u16(self.buffer.as_ref(), layout::FLG_OFF.start).unwrap();
        let raw = if value { raw | 0x4000 } else { raw & !0x4000 };
        field::write_u16(self.buffer.as_mut(), layout::FLG_OFF.start, raw);
    }

    pub fn set_ttl(&mut self, value: u8) {
        self.buffer.as_mut()[layout::TTL] = value;
    }

    pub fn set_protocol(&mut self, value: Protocol) {
        self.buffer.as_mut()[layout::PROTOCOL] = value.into();
    }

    pub fn set_src_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[layout::SRC_ADDR].copy_from_slice(&value.octets());
    }

    pub fn set_dst_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[layout::DST_ADDR].copy_from_slice(&value.octets());
    }

    /// Compute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let header_len = self.header_len() as usize;
        let ck = checksum::checksum(&self.buffer.as_ref()[..header_len]);
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }

    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header_len = self.header_len() as usize;
        let total_len = self.total_len() as usize;
        &mut self.buffer.as_mut()[header_len..total_len]
    }
}

/// High-level representation of an IPv4 header (options-free, as emitted by
/// every device model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub src_addr: Ipv4Addr,
    pub dst_addr: Ipv4Addr,
    pub protocol: Protocol,
    pub ttl: u8,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        // Per smoltcp, IPv4 options are silently ignored: the payload
        // accessor already skips them.
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            payload_len: packet.payload().len(),
        })
    }

    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the header; the caller fills the payload afterwards and the
    /// checksum covers only the header so it is final here.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_and_header_len();
        packet.buffer.as_mut()[layout::DSCP_ECN] = 0;
        packet.set_total_len((HEADER_LEN + self.payload_len) as u16);
        packet.set_ident(0);
        field::write_u16(packet.buffer.as_mut(), layout::FLG_OFF.start, 0);
        packet.set_dont_frag(true);
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }
}

/// Build a complete IPv4 packet around `payload`.
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

    fn sample() -> (Repr, Vec<u8>) {
        let repr = Repr {
            src_addr: Ipv4Addr::new(192, 168, 10, 15),
            dst_addr: Ipv4Addr::new(192, 168, 10, 255),
            protocol: Protocol::Udp,
            ttl: 64,
            payload_len: 4,
        };
        let bytes = build_packet(&repr, &[1, 2, 3, 4]);
        (repr, bytes)
    }

    #[test]
    fn roundtrip() {
        let (repr, bytes) = sample();
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn corrupt_checksum_detected() {
        let (_, mut bytes) = sample();
        bytes[12] ^= 0xff;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn version_and_length_validation() {
        let (_, mut bytes) = sample();
        bytes[0] = 0x65; // version 6
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );

        let (_, mut bytes) = sample();
        bytes[0] = 0x44; // IHL 16 < 20
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );

        let (_, mut bytes) = sample();
        bytes[3] = 200; // total length beyond buffer
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn payload_bounded_by_total_len() {
        // Ethernet padding after total_len must not leak into payload().
        let (repr, mut bytes) = sample();
        bytes.extend_from_slice(&[0u8; 10]); // trailing padding
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(packet.payload().len(), repr.payload_len);
    }

    #[test]
    fn private_ranges() {
        assert!(is_private(Ipv4Addr::new(192, 168, 1, 1)));
        assert!(is_private(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(is_private(Ipv4Addr::new(172, 16, 0, 1)));
        assert!(is_private(Ipv4Addr::new(172, 31, 255, 1)));
        assert!(is_private(Ipv4Addr::new(169, 254, 1, 1)));
        assert!(!is_private(Ipv4Addr::new(172, 32, 0, 1)));
        assert!(!is_private(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn multicast_and_broadcast() {
        assert!(is_multicast(Ipv4Addr::new(224, 0, 0, 251))); // mDNS
        assert!(is_multicast(Ipv4Addr::new(239, 255, 255, 250))); // SSDP
        assert!(!is_multicast(Ipv4Addr::new(192, 168, 1, 255)));
        assert!(is_limited_broadcast(Ipv4Addr::new(255, 255, 255, 255)));
    }
}
