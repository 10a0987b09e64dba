//! ICMPv6 (RFC 4443) with the NDP subset (RFC 4861) used for SLAAC-style
//! multicast discovery.
//!
//! §5.1 of the paper: 55% of devices use ICMPv6 multicast discovery, and NDP
//! Neighbor Solicitations/Advertisements carry the sender's MAC in the
//! source-link-layer-address option — harvestable by any host on the LAN.
//! The Nest Hub was observed soliciting 2,597 distinct addresses.

use crate::ethernet::EthernetAddress;
use crate::field::{self, Field};
use crate::{checksum, Error, Result};
use std::net::Ipv6Addr;

/// ICMPv6 message kinds used in the lab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Message {
    EchoRequest {
        ident: u16,
        seq: u16,
    },
    EchoReply {
        ident: u16,
        seq: u16,
    },
    /// Router Solicitation (NDP type 133).
    RouterSolicit {
        source_mac: Option<EthernetAddress>,
    },
    /// Neighbor Solicitation (NDP type 135): "who has `target`?" —
    /// includes the sender's MAC as an option.
    NeighborSolicit {
        target: Ipv6Addr,
        source_mac: Option<EthernetAddress>,
    },
    /// Neighbor Advertisement (NDP type 136): reveals the target MAC.
    NeighborAdvert {
        target: Ipv6Addr,
        target_mac: Option<EthernetAddress>,
    },
    /// Multicast Listener Report v2 (type 143), summarized.
    MldV2Report {
        group_count: u16,
    },
    Other {
        msg_type: u8,
        code: u8,
    },
}

mod layout {
    use super::Field;
    pub const TYPE: usize = 0;
    pub const CODE: usize = 1;
    pub const CHECKSUM: Field = 2..4;
    pub const BODY: usize = 4;
}

/// Fixed ICMPv6 header length (type, code, checksum).
pub const HEADER_LEN: usize = 4;

/// NDP option type for source link-layer address.
const OPT_SOURCE_LLADDR: u8 = 1;
/// NDP option type for target link-layer address.
const OPT_TARGET_LLADDR: u8 = 2;

/// A view of an ICMPv6 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Packet { buffer })
    }

    pub fn msg_type(&self) -> u8 {
        self.buffer.as_ref()[layout::TYPE]
    }

    pub fn code(&self) -> u8 {
        self.buffer.as_ref()[layout::CODE]
    }

    pub fn body(&self) -> &[u8] {
        &self.buffer.as_ref()[layout::BODY..]
    }

    /// Verify the checksum with the IPv6 pseudo-header (mandatory).
    pub fn verify_checksum(&self, src: Ipv6Addr, dst: Ipv6Addr) -> bool {
        let data = self.buffer.as_ref();
        checksum::fold(
            checksum::pseudo_header_v6(src, dst, 58, data.len() as u32) + checksum::sum(data),
        ) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_msg_type(&mut self, value: u8) {
        self.buffer.as_mut()[layout::TYPE] = value;
    }

    pub fn set_code(&mut self, value: u8) {
        self.buffer.as_mut()[layout::CODE] = value;
    }

    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[layout::BODY..]
    }

    pub fn fill_checksum(&mut self, src: Ipv6Addr, dst: Ipv6Addr) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let ck = checksum::transport_v6(src, dst, 58, self.buffer.as_ref());
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }
}

/// Scan `options` (sequences of type/len8/value) for a link-layer address
/// option of kind `wanted`.
fn find_lladdr_option(options: &[u8], wanted: u8) -> Result<Option<EthernetAddress>> {
    let mut rest = options;
    while !rest.is_empty() {
        if rest.len() < 2 {
            return Err(Error::Truncated);
        }
        let opt_type = rest[0];
        let opt_len = usize::from(rest[1]) * 8;
        if opt_len == 0 || opt_len > rest.len() {
            return Err(Error::Malformed);
        }
        if opt_type == wanted && opt_len == 8 {
            return Ok(Some(EthernetAddress::from_bytes(&rest[2..8])?));
        }
        rest = &rest[opt_len..];
    }
    Ok(None)
}

/// High-level representation of an ICMPv6 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub message: Message,
}

impl Repr {
    /// Parse, verifying the pseudo-header checksum.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>, src: Ipv6Addr, dst: Ipv6Addr) -> Result<Repr> {
        if !packet.verify_checksum(src, dst) {
            return Err(Error::Checksum);
        }
        let body = packet.body();
        let message = match packet.msg_type() {
            128 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                Message::EchoRequest {
                    ident: u16::from_be_bytes([body[0], body[1]]),
                    seq: u16::from_be_bytes([body[2], body[3]]),
                }
            }
            129 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                Message::EchoReply {
                    ident: u16::from_be_bytes([body[0], body[1]]),
                    seq: u16::from_be_bytes([body[2], body[3]]),
                }
            }
            133 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                Message::RouterSolicit {
                    source_mac: find_lladdr_option(&body[4..], OPT_SOURCE_LLADDR)?,
                }
            }
            135 => {
                if body.len() < 20 {
                    return Err(Error::Truncated);
                }
                let target: [u8; 16] = body[4..20].try_into().unwrap();
                Message::NeighborSolicit {
                    target: Ipv6Addr::from(target),
                    source_mac: find_lladdr_option(&body[20..], OPT_SOURCE_LLADDR)?,
                }
            }
            136 => {
                if body.len() < 20 {
                    return Err(Error::Truncated);
                }
                let target: [u8; 16] = body[4..20].try_into().unwrap();
                Message::NeighborAdvert {
                    target: Ipv6Addr::from(target),
                    target_mac: find_lladdr_option(&body[20..], OPT_TARGET_LLADDR)?,
                }
            }
            143 => {
                if body.len() < 4 {
                    return Err(Error::Truncated);
                }
                Message::MldV2Report {
                    group_count: u16::from_be_bytes([body[2], body[3]]),
                }
            }
            t => Message::Other {
                msg_type: t,
                code: packet.code(),
            },
        };
        Ok(Repr { message })
    }

    /// Buffer length for emission.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN
            + match self.message {
                Message::EchoRequest { .. } | Message::EchoReply { .. } => 4,
                Message::RouterSolicit { source_mac } => {
                    4 + if source_mac.is_some() { 8 } else { 0 }
                }
                Message::NeighborSolicit { source_mac, .. } => {
                    20 + if source_mac.is_some() { 8 } else { 0 }
                }
                Message::NeighborAdvert { target_mac, .. } => {
                    20 + if target_mac.is_some() { 8 } else { 0 }
                }
                Message::MldV2Report { .. } => 4,
                Message::Other { .. } => 4,
            }
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        packet: &mut Packet<T>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
    ) {
        match self.message {
            Message::EchoRequest { ident, seq } | Message::EchoReply { ident, seq } => {
                let t = if matches!(self.message, Message::EchoRequest { .. }) {
                    128
                } else {
                    129
                };
                packet.set_msg_type(t);
                packet.set_code(0);
                let body = packet.body_mut();
                body[0..2].copy_from_slice(&ident.to_be_bytes());
                body[2..4].copy_from_slice(&seq.to_be_bytes());
            }
            Message::RouterSolicit { source_mac } => {
                packet.set_msg_type(133);
                packet.set_code(0);
                let body = packet.body_mut();
                body[0..4].fill(0);
                if let Some(mac) = source_mac {
                    body[4] = OPT_SOURCE_LLADDR;
                    body[5] = 1;
                    body[6..12].copy_from_slice(mac.as_bytes());
                }
            }
            Message::NeighborSolicit { target, source_mac } => {
                packet.set_msg_type(135);
                packet.set_code(0);
                let body = packet.body_mut();
                body[0..4].fill(0);
                body[4..20].copy_from_slice(&target.octets());
                if let Some(mac) = source_mac {
                    body[20] = OPT_SOURCE_LLADDR;
                    body[21] = 1;
                    body[22..28].copy_from_slice(mac.as_bytes());
                }
            }
            Message::NeighborAdvert { target, target_mac } => {
                packet.set_msg_type(136);
                packet.set_code(0);
                let body = packet.body_mut();
                // Flags: solicited + override.
                body[0] = 0x60;
                body[1..4].fill(0);
                body[4..20].copy_from_slice(&target.octets());
                if let Some(mac) = target_mac {
                    body[20] = OPT_TARGET_LLADDR;
                    body[21] = 1;
                    body[22..28].copy_from_slice(mac.as_bytes());
                }
            }
            Message::MldV2Report { group_count } => {
                packet.set_msg_type(143);
                packet.set_code(0);
                let body = packet.body_mut();
                body[0..2].fill(0);
                body[2..4].copy_from_slice(&group_count.to_be_bytes());
            }
            Message::Other { msg_type, code } => {
                packet.set_msg_type(msg_type);
                packet.set_code(code);
                packet.body_mut()[..4].fill(0);
            }
        }
        packet.fill_checksum(src, dst);
    }

    /// Serialize, producing a checksummed packet for the given endpoints.
    pub fn to_bytes(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut buffer = vec![0u8; self.buffer_len()];
        let mut packet = Packet::new_unchecked(&mut buffer[..]);
        self.emit(&mut packet, src, dst);
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (
            "fe80::1".parse().unwrap(),
            "ff02::1:ff00:2".parse().unwrap(),
        )
    }

    #[test]
    fn neighbor_solicit_roundtrip() {
        let (src, dst) = addrs();
        let mac = EthernetAddress::new(0x64, 0x16, 0x66, 1, 2, 3);
        let repr = Repr {
            message: Message::NeighborSolicit {
                target: "fe80::2".parse().unwrap(),
                source_mac: Some(mac),
            },
        };
        let bytes = repr.to_bytes(src, dst);
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        let parsed = Repr::parse(&packet, src, dst).unwrap();
        assert_eq!(parsed, repr);
        // The privacy finding: the solicitation leaks the sender's MAC.
        match parsed.message {
            Message::NeighborSolicit { source_mac, .. } => assert_eq!(source_mac, Some(mac)),
            _ => panic!("wrong message"),
        }
    }

    #[test]
    fn neighbor_advert_roundtrip() {
        let (src, dst) = addrs();
        let repr = Repr {
            message: Message::NeighborAdvert {
                target: "fe80::2".parse().unwrap(),
                target_mac: Some(EthernetAddress::new(0, 0x17, 0x88, 9, 9, 9)),
            },
        };
        let bytes = repr.to_bytes(src, dst);
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap(), src, dst).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn echo_roundtrip() {
        let (src, dst) = addrs();
        let repr = Repr {
            message: Message::EchoRequest { ident: 5, seq: 6 },
        };
        let bytes = repr.to_bytes(src, dst);
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap(), src, dst).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn checksum_validated() {
        let (src, dst) = addrs();
        let repr = Repr {
            message: Message::EchoReply { ident: 1, seq: 2 },
        };
        let mut bytes = repr.to_bytes(src, dst);
        bytes[4] ^= 0xff;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet, src, dst).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn zero_length_option_malformed() {
        let (src, dst) = addrs();
        let repr = Repr {
            message: Message::NeighborSolicit {
                target: "fe80::2".parse().unwrap(),
                source_mac: Some(EthernetAddress::new(1, 2, 3, 4, 5, 6)),
            },
        };
        let mut bytes = repr.to_bytes(src, dst);
        // Zero out the option length, then re-checksum so only the option
        // malformation triggers.
        bytes[25] = 0;
        bytes[2] = 0;
        bytes[3] = 0;
        let ck = checksum::transport_v6(src, dst, 58, &bytes);
        bytes[2..4].copy_from_slice(&ck.to_be_bytes());
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(
            Repr::parse(&packet, src, dst).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn mld_report_roundtrip() {
        let (src, dst) = addrs();
        let repr = Repr {
            message: Message::MldV2Report { group_count: 3 },
        };
        let bytes = repr.to_bytes(src, dst);
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap(), src, dst).unwrap();
        assert_eq!(parsed, repr);
    }
}
