//! UDP (RFC 768). The bulk of local discovery traffic — mDNS, SSDP, DHCP,
//! TuyaLP, TPLINK-SHP discovery, CoAP, NetBIOS — rides on UDP.

use crate::field::{self, Field};
use crate::{checksum, Error, Result};
use std::net::{Ipv4Addr, Ipv6Addr};

mod layout {
    use super::Field;
    pub const SRC_PORT: Field = 0..2;
    pub const DST_PORT: Field = 2..4;
    pub const LENGTH: Field = 4..6;
    pub const CHECKSUM: Field = 6..8;
}

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A view of a UDP datagram.
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
        let claimed = packet.length() as usize;
        if claimed < HEADER_LEN || claimed > len {
            return Err(Error::Truncated);
        }
        Ok(packet)
    }

    pub fn src_port(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::SRC_PORT.start).unwrap()
    }

    pub fn dst_port(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::DST_PORT.start).unwrap()
    }

    pub fn length(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::LENGTH.start).unwrap()
    }

    pub fn checksum(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::CHECKSUM.start).unwrap()
    }

    pub fn payload(&self) -> &[u8] {
        let end = self.length() as usize;
        &self.buffer.as_ref()[HEADER_LEN..end]
    }

    /// Verify the checksum against an IPv4 pseudo-header. A transmitted
    /// checksum of zero means "not computed" and is accepted, per RFC 768.
    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let data = &self.buffer.as_ref()[..self.length() as usize];
        checksum::fold(
            checksum::pseudo_header_v4(src, dst, 17, data.len() as u32) + checksum::sum(data),
        ) == 0
    }

    /// Verify the checksum against an IPv6 pseudo-header (mandatory in v6).
    pub fn verify_checksum_v6(&self, src: Ipv6Addr, dst: Ipv6Addr) -> bool {
        let data = &self.buffer.as_ref()[..self.length() as usize];
        checksum::fold(
            checksum::pseudo_header_v6(src, dst, 17, data.len() as u32) + checksum::sum(data),
        ) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_src_port(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::SRC_PORT.start, value);
    }

    pub fn set_dst_port(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::DST_PORT.start, value);
    }

    pub fn set_length(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::LENGTH.start, value);
    }

    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = self.length() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..end]
    }

    /// Compute and store the checksum over an IPv4 pseudo-header.
    pub fn fill_checksum_v4(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let len = self.length() as usize;
        let ck = checksum::transport_v4(src, dst, 17, &self.buffer.as_ref()[..len]);
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }

    /// Compute and store the checksum over an IPv6 pseudo-header.
    pub fn fill_checksum_v6(&mut self, src: Ipv6Addr, dst: Ipv6Addr) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let len = self.length() as usize;
        let ck = checksum::transport_v6(src, dst, 17, &self.buffer.as_ref()[..len]);
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }
}

/// High-level representation of a UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if packet.dst_port() == 0 {
            return Err(Error::Malformed);
        }
        Ok(Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            payload_len: packet.payload().len(),
        })
    }

    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_length((HEADER_LEN + self.payload_len) as u16);
    }
}

/// Build a UDP datagram with a valid IPv4 pseudo-header checksum.
pub fn build_datagram_v4(repr: &Repr, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(repr.payload_len, payload.len());
    let mut buffer = vec![0u8; HEADER_LEN + payload.len()];
    let mut packet = Packet::new_unchecked(&mut buffer[..]);
    repr.emit(&mut packet);
    packet.payload_mut().copy_from_slice(payload);
    packet.fill_checksum_v4(src, dst);
    buffer
}

/// Build a UDP datagram with a valid IPv6 pseudo-header checksum.
pub fn build_datagram_v6(repr: &Repr, src: Ipv6Addr, dst: Ipv6Addr, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(repr.payload_len, payload.len());
    let mut buffer = vec![0u8; HEADER_LEN + payload.len()];
    let mut packet = Packet::new_unchecked(&mut buffer[..]);
    repr.emit(&mut packet);
    packet.payload_mut().copy_from_slice(payload);
    packet.fill_checksum_v6(src, dst);
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 15);
    const DST: Ipv4Addr = Ipv4Addr::new(224, 0, 0, 251);

    #[test]
    fn roundtrip_v4() {
        let repr = Repr {
            src_port: 5353,
            dst_port: 5353,
            payload_len: 5,
        };
        let bytes = build_datagram_v4(&repr, SRC, DST, b"hello");
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum_v4(SRC, DST));
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload(), b"hello");
    }

    #[test]
    fn roundtrip_v6() {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "ff02::fb".parse().unwrap();
        let repr = Repr {
            src_port: 5353,
            dst_port: 5353,
            payload_len: 3,
        };
        let bytes = build_datagram_v6(&repr, src, dst, b"abc");
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum_v6(src, dst));
    }

    #[test]
    fn corruption_detected() {
        let repr = Repr {
            src_port: 6666,
            dst_port: 6667,
            payload_len: 4,
        };
        let mut bytes = build_datagram_v4(&repr, SRC, DST, b"tuya");
        bytes[9] ^= 0x55;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(!packet.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted_v4() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut bytes = build_datagram_v4(&repr, SRC, DST, &[]);
        bytes[6] = 0;
        bytes[7] = 0;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn bogus_length_rejected() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 2,
        };
        let mut bytes = build_datagram_v4(&repr, SRC, DST, &[0, 0]);
        bytes[5] = 200;
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Truncated
        );
        bytes[5] = 4; // < HEADER_LEN
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn zero_dst_port_malformed() {
        let repr = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut bytes = build_datagram_v4(&repr, SRC, DST, &[]);
        bytes[2] = 0;
        bytes[3] = 0;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Malformed);
    }
}
