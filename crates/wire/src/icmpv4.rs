//! ICMPv4 (RFC 792): echo, destination unreachable, and the raw forms the
//! IP-protocol scan elicits. 78% of lab devices emit ICMP (§4.1).

use crate::field::{self, Field};
use crate::{checksum, Error, Result};

/// ICMPv4 message kinds used in the lab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Message {
    EchoReply {
        ident: u16,
        seq: u16,
    },
    EchoRequest {
        ident: u16,
        seq: u16,
    },
    /// Destination unreachable; the code distinguishes port/protocol
    /// unreachable, which the UDP and IP-protocol scanners rely on.
    DstUnreachable {
        code: u8,
    },
    Other {
        msg_type: u8,
        code: u8,
    },
}

/// Code for "port unreachable" within `DstUnreachable`.
pub const UNREACHABLE_PORT: u8 = 3;
/// Code for "protocol unreachable" within `DstUnreachable`.
pub const UNREACHABLE_PROTOCOL: u8 = 2;

mod layout {
    use super::Field;
    pub const TYPE: usize = 0;
    pub const CODE: usize = 1;
    pub const CHECKSUM: Field = 2..4;
    pub const REST: Field = 4..8;
}

/// ICMPv4 header length.
pub const HEADER_LEN: usize = 8;

/// A view of an ICMPv4 packet.
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

    pub fn checksum(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::CHECKSUM.start).unwrap()
    }

    pub fn ident(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::REST.start).unwrap()
    }

    pub fn seq_number(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::REST.start + 2).unwrap()
    }

    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    pub fn verify_checksum(&self) -> bool {
        checksum::verify(self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_msg_type(&mut self, value: u8) {
        self.buffer.as_mut()[layout::TYPE] = value;
    }

    pub fn set_code(&mut self, value: u8) {
        self.buffer.as_mut()[layout::CODE] = value;
    }

    pub fn set_ident(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::REST.start, value);
    }

    pub fn set_seq_number(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::REST.start + 2, value);
    }

    pub fn fill_checksum(&mut self) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let ck = checksum::checksum(self.buffer.as_ref());
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }

    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// High-level representation of an ICMPv4 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub message: Message,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        let message = match packet.msg_type() {
            0 => Message::EchoReply {
                ident: packet.ident(),
                seq: packet.seq_number(),
            },
            8 => Message::EchoRequest {
                ident: packet.ident(),
                seq: packet.seq_number(),
            },
            3 => Message::DstUnreachable {
                code: packet.code(),
            },
            t => Message::Other {
                msg_type: t,
                code: packet.code(),
            },
        };
        Ok(Repr {
            message,
            payload_len: packet.payload().len(),
        })
    }

    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        match self.message {
            Message::EchoReply { ident, seq } => {
                packet.set_msg_type(0);
                packet.set_code(0);
                packet.set_ident(ident);
                packet.set_seq_number(seq);
            }
            Message::EchoRequest { ident, seq } => {
                packet.set_msg_type(8);
                packet.set_code(0);
                packet.set_ident(ident);
                packet.set_seq_number(seq);
            }
            Message::DstUnreachable { code } => {
                packet.set_msg_type(3);
                packet.set_code(code);
                packet.set_ident(0);
                packet.set_seq_number(0);
            }
            Message::Other { msg_type, code } => {
                packet.set_msg_type(msg_type);
                packet.set_code(code);
                packet.set_ident(0);
                packet.set_seq_number(0);
            }
        }
        packet.fill_checksum();
    }
}

/// Build a full ICMPv4 packet with payload (echo data or quoted datagram).
pub fn build_packet(repr: &Repr, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(repr.payload_len, payload.len());
    let mut buffer = vec![0u8; HEADER_LEN + payload.len()];
    {
        let mut packet = Packet::new_unchecked(&mut buffer[..]);
        packet.payload_mut().copy_from_slice(payload);
        repr.emit(&mut packet);
    }
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let repr = Repr {
            message: Message::EchoRequest { ident: 42, seq: 7 },
            payload_len: 4,
        };
        let bytes = build_packet(&repr, b"ping");
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn port_unreachable() {
        let repr = Repr {
            message: Message::DstUnreachable {
                code: UNREACHABLE_PORT,
            },
            payload_len: 0,
        };
        let bytes = build_packet(&repr, &[]);
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(
            parsed.message,
            Message::DstUnreachable {
                code: UNREACHABLE_PORT
            }
        );
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let repr = Repr {
            message: Message::EchoReply { ident: 1, seq: 1 },
            payload_len: 0,
        };
        let mut bytes = build_packet(&repr, &[]);
        bytes[4] ^= 0x01;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn unknown_type_preserved() {
        let repr = Repr {
            message: Message::Other {
                msg_type: 13,
                code: 0,
            },
            payload_len: 0,
        };
        let bytes = build_packet(&repr, &[]);
        let parsed = Repr::parse(&Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(parsed.message, repr.message);
    }
}
