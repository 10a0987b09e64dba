//! IGMPv2 (RFC 2236). 56% of lab devices emit IGMP (§4.1) to join the mDNS
//! (224.0.0.251) and SSDP (239.255.255.250) multicast groups.

use crate::field::{self, Field};
use crate::{checksum, Error, Result};
use std::net::Ipv4Addr;

/// IGMPv2 message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Message {
    MembershipQuery {
        group: Ipv4Addr,
        max_resp_ds: u8,
    },
    MembershipReportV2 {
        group: Ipv4Addr,
    },
    LeaveGroup {
        group: Ipv4Addr,
    },
    /// IGMPv3 report, summarized (type 0x22).
    MembershipReportV3 {
        group_count: u16,
    },
}

mod layout {
    use super::Field;
    pub const TYPE: usize = 0;
    pub const MAX_RESP: usize = 1;
    pub const CHECKSUM: Field = 2..4;
    pub const GROUP: Field = 4..8;
}

/// IGMPv2 packet length.
pub const PACKET_LEN: usize = 8;

/// A view of an IGMP packet.
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

    pub fn msg_type(&self) -> u8 {
        self.buffer.as_ref()[layout::TYPE]
    }

    pub fn max_resp(&self) -> u8 {
        self.buffer.as_ref()[layout::MAX_RESP]
    }

    pub fn group_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[layout::GROUP];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    pub fn verify_checksum(&self) -> bool {
        checksum::verify(self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_msg_type(&mut self, value: u8) {
        self.buffer.as_mut()[layout::TYPE] = value;
    }

    pub fn set_max_resp(&mut self, value: u8) {
        self.buffer.as_mut()[layout::MAX_RESP] = value;
    }

    pub fn set_group_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[layout::GROUP].copy_from_slice(&value.octets());
    }

    pub fn fill_checksum(&mut self) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let ck = checksum::checksum(self.buffer.as_ref());
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }
}

/// High-level representation of an IGMP message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub message: Message,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        let message = match packet.msg_type() {
            0x11 => Message::MembershipQuery {
                group: packet.group_addr(),
                max_resp_ds: packet.max_resp(),
            },
            0x16 => Message::MembershipReportV2 {
                group: packet.group_addr(),
            },
            0x17 => Message::LeaveGroup {
                group: packet.group_addr(),
            },
            0x22 => {
                let count = field::read_u16(packet.buffer.as_ref(), layout::GROUP.start + 2)?;
                Message::MembershipReportV3 { group_count: count }
            }
            _ => return Err(Error::Unsupported),
        };
        Ok(Repr { message })
    }

    pub const fn buffer_len(&self) -> usize {
        PACKET_LEN
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        match self.message {
            Message::MembershipQuery { group, max_resp_ds } => {
                packet.set_msg_type(0x11);
                packet.set_max_resp(max_resp_ds);
                packet.set_group_addr(group);
            }
            Message::MembershipReportV2 { group } => {
                packet.set_msg_type(0x16);
                packet.set_max_resp(0);
                packet.set_group_addr(group);
            }
            Message::LeaveGroup { group } => {
                packet.set_msg_type(0x17);
                packet.set_max_resp(0);
                packet.set_group_addr(group);
            }
            Message::MembershipReportV3 { group_count } => {
                packet.set_msg_type(0x22);
                packet.set_max_resp(0);
                packet.set_group_addr(Ipv4Addr::UNSPECIFIED);
                field::write_u16(packet.buffer.as_mut(), layout::GROUP.start + 2, group_count);
            }
        }
        packet.fill_checksum();
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buffer = vec![0u8; PACKET_LEN];
        let mut packet = Packet::new_unchecked(&mut buffer[..]);
        self.emit(&mut packet);
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_mdns_group_roundtrip() {
        let repr = Repr {
            message: Message::MembershipReportV2 {
                group: Ipv4Addr::new(224, 0, 0, 251),
            },
        };
        let bytes = repr.to_bytes();
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn query_and_leave() {
        for message in [
            Message::MembershipQuery {
                group: Ipv4Addr::UNSPECIFIED,
                max_resp_ds: 100,
            },
            Message::LeaveGroup {
                group: Ipv4Addr::new(239, 255, 255, 250),
            },
            Message::MembershipReportV3 { group_count: 2 },
        ] {
            let repr = Repr { message };
            let bytes = repr.to_bytes();
            assert_eq!(
                Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap(),
                repr
            );
        }
    }

    #[test]
    fn bad_checksum_rejected() {
        let repr = Repr {
            message: Message::LeaveGroup {
                group: Ipv4Addr::new(239, 255, 255, 250),
            },
        };
        let mut bytes = repr.to_bytes();
        bytes[4] ^= 1;
        assert_eq!(
            Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap_err(),
            Error::Checksum
        );
    }

    #[test]
    fn unknown_type_unsupported() {
        let mut bytes = vec![0x99u8, 0, 0, 0, 0, 0, 0, 0];
        let ck = checksum::checksum(&bytes);
        bytes[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(
            Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap_err(),
            Error::Unsupported
        );
    }
}
