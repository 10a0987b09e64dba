//! ARP (RFC 826) for Ethernet/IPv4.
//!
//! ARP is the first protocol of the paper's threat analysis (§5.1): Amazon
//! Echo devices broadcast-sweep the entire local IP space daily and also send
//! targeted unicast requests, harvesting the MAC addresses of every host —
//! persistent identifiers usable for geolocation and cross-device tracking.

use crate::ethernet::EthernetAddress;
use crate::field::{self, Field};
use crate::{Error, Result};
use std::net::Ipv4Addr;

/// ARP operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    Request,
    Reply,
    Unknown(u16),
}

impl From<u16> for Operation {
    fn from(value: u16) -> Self {
        match value {
            1 => Operation::Request,
            2 => Operation::Reply,
            other => Operation::Unknown(other),
        }
    }
}

impl From<Operation> for u16 {
    fn from(value: Operation) -> u16 {
        match value {
            Operation::Request => 1,
            Operation::Reply => 2,
            Operation::Unknown(other) => other,
        }
    }
}

mod layout {
    use super::Field;
    pub const HTYPE: Field = 0..2;
    pub const PTYPE: Field = 2..4;
    pub const HLEN: Field = 4..5;
    pub const PLEN: Field = 5..6;
    pub const OPER: Field = 6..8;
    pub const SHA: Field = 8..14;
    pub const SPA: Field = 14..18;
    pub const THA: Field = 18..24;
    pub const TPA: Field = 24..28;
}

/// Length of an Ethernet/IPv4 ARP packet.
pub const PACKET_LEN: usize = 28;

/// A view of an ARP packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        if buffer.as_ref().len() < PACKET_LEN {
            return Err(Error::Truncated);
        }
        Ok(Packet { buffer })
    }

    pub fn hardware_type(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::HTYPE.start).unwrap()
    }

    pub fn protocol_type(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::PTYPE.start).unwrap()
    }

    pub fn hardware_len(&self) -> u8 {
        self.buffer.as_ref()[layout::HLEN.start]
    }

    pub fn protocol_len(&self) -> u8 {
        self.buffer.as_ref()[layout::PLEN.start]
    }

    pub fn operation(&self) -> Operation {
        Operation::from(field::read_u16(self.buffer.as_ref(), layout::OPER.start).unwrap())
    }

    pub fn sender_hardware_addr(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[layout::SHA]).unwrap()
    }

    pub fn sender_protocol_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[layout::SPA];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    pub fn target_hardware_addr(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[layout::THA]).unwrap()
    }

    pub fn target_protocol_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[layout::TPA];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_hardware_type(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::HTYPE.start, value);
    }

    pub fn set_protocol_type(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::PTYPE.start, value);
    }

    pub fn set_hardware_len(&mut self, value: u8) {
        self.buffer.as_mut()[layout::HLEN.start] = value;
    }

    pub fn set_protocol_len(&mut self, value: u8) {
        self.buffer.as_mut()[layout::PLEN.start] = value;
    }

    pub fn set_operation(&mut self, value: Operation) {
        field::write_u16(self.buffer.as_mut(), layout::OPER.start, value.into());
    }

    pub fn set_sender_hardware_addr(&mut self, value: EthernetAddress) {
        self.buffer.as_mut()[layout::SHA].copy_from_slice(value.as_bytes());
    }

    pub fn set_sender_protocol_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[layout::SPA].copy_from_slice(&value.octets());
    }

    pub fn set_target_hardware_addr(&mut self, value: EthernetAddress) {
        self.buffer.as_mut()[layout::THA].copy_from_slice(value.as_bytes());
    }

    pub fn set_target_protocol_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[layout::TPA].copy_from_slice(&value.octets());
    }
}

/// High-level representation of an Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub operation: Operation,
    pub sender_hardware_addr: EthernetAddress,
    pub sender_protocol_addr: Ipv4Addr,
    pub target_hardware_addr: EthernetAddress,
    pub target_protocol_addr: Ipv4Addr,
}

impl Repr {
    /// Parse and validate an ARP packet. Only Ethernet/IPv4 ARP is accepted;
    /// anything else is `Unsupported` (matching how the classifier treats
    /// exotic hardware types).
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if packet.buffer.as_ref().len() < PACKET_LEN {
            return Err(Error::Truncated);
        }
        if packet.hardware_type() != 1 || packet.protocol_type() != 0x0800 {
            return Err(Error::Unsupported);
        }
        if packet.hardware_len() != 6 || packet.protocol_len() != 4 {
            return Err(Error::Malformed);
        }
        Ok(Repr {
            operation: packet.operation(),
            sender_hardware_addr: packet.sender_hardware_addr(),
            sender_protocol_addr: packet.sender_protocol_addr(),
            target_hardware_addr: packet.target_hardware_addr(),
            target_protocol_addr: packet.target_protocol_addr(),
        })
    }

    pub const fn buffer_len(&self) -> usize {
        PACKET_LEN
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_hardware_type(1);
        packet.set_protocol_type(0x0800);
        packet.set_hardware_len(6);
        packet.set_protocol_len(4);
        packet.set_operation(self.operation);
        packet.set_sender_hardware_addr(self.sender_hardware_addr);
        packet.set_sender_protocol_addr(self.sender_protocol_addr);
        packet.set_target_hardware_addr(self.target_hardware_addr);
        packet.set_target_protocol_addr(self.target_protocol_addr);
    }

    /// Serialize to a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buffer = vec![0u8; PACKET_LEN];
        let mut packet = Packet::new_unchecked(&mut buffer[..]);
        self.emit(&mut packet);
        buffer
    }

    /// Build the probe a device sends when ARP-scanning `target` —
    /// the shape of the Echo daily sweep.
    pub fn request(sender_mac: EthernetAddress, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Repr {
        Repr {
            operation: Operation::Request,
            sender_hardware_addr: sender_mac,
            sender_protocol_addr: sender_ip,
            target_hardware_addr: EthernetAddress([0; 6]),
            target_protocol_addr: target_ip,
        }
    }

    /// Build the reply revealing this device's MAC to the requester.
    pub fn reply(
        sender_mac: EthernetAddress,
        sender_ip: Ipv4Addr,
        target_mac: EthernetAddress,
        target_ip: Ipv4Addr,
    ) -> Repr {
        Repr {
            operation: Operation::Reply,
            sender_hardware_addr: sender_mac,
            sender_protocol_addr: sender_ip,
            target_hardware_addr: target_mac,
            target_protocol_addr: target_ip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr::request(
            EthernetAddress::new(0x74, 0xda, 0x38, 0x00, 0x00, 0x01),
            Ipv4Addr::new(192, 168, 10, 15),
            Ipv4Addr::new(192, 168, 10, 42),
        )
    }

    #[test]
    fn roundtrip() {
        let repr = sample_repr();
        let bytes = repr.to_bytes();
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.operation(), Operation::Request);
    }

    #[test]
    fn rejects_short() {
        let bytes = sample_repr().to_bytes();
        assert_eq!(
            Packet::new_checked(&bytes[..20]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let mut bytes = sample_repr().to_bytes();
        bytes[0] = 0; // hardware type high byte
        bytes[1] = 6; // IEEE 802
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn rejects_bad_lengths() {
        let mut bytes = sample_repr().to_bytes();
        bytes[4] = 8; // hlen
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn reply_reveals_sender_mac() {
        let responder = EthernetAddress::new(0x00, 0x17, 0x88, 1, 2, 3);
        let repr = Repr::reply(
            responder,
            Ipv4Addr::new(192, 168, 10, 42),
            EthernetAddress::new(0x74, 0xda, 0x38, 0, 0, 1),
            Ipv4Addr::new(192, 168, 10, 15),
        );
        let bytes = repr.to_bytes();
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(parsed.operation, Operation::Reply);
        assert_eq!(parsed.sender_hardware_addr, responder);
    }

    #[test]
    fn unknown_operation_preserved() {
        let mut bytes = sample_repr().to_bytes();
        bytes[7] = 9;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(
            Repr::parse(&packet).unwrap().operation,
            Operation::Unknown(9)
        );
    }
}
