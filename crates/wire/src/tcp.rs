//! TCP (RFC 9293) segment headers.
//!
//! The toolkit needs TCP at header fidelity: SYN scans (§3.1 active scans),
//! SYN/SYN-ACK/RST semantics for open/closed port inference, and flow
//! assembly for the classifier. Full stream reassembly is intentionally out
//! of scope — the paper never needs it because local payloads are analyzed
//! per-datagram or via banners on freshly opened connections.

use crate::field::{self, Field};
use crate::{checksum, Error, Result};
use std::net::Ipv4Addr;

mod layout {
    use super::Field;
    pub const SRC_PORT: Field = 0..2;
    pub const DST_PORT: Field = 2..4;
    pub const SEQ: Field = 4..8;
    pub const ACK: Field = 8..12;
    pub const OFF_FLAGS: Field = 12..14;
    pub const WINDOW: Field = 14..16;
    pub const CHECKSUM: Field = 16..18;
    pub const URGENT: Field = 18..20;
}

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// A tiny local stand-in for the bitflags crate (offline constraint):
/// generates a transparent wrapper with const flags and set operations.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(const $flag:ident = $value:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub $ty);

        impl $name {
            $(pub const $flag: $name = $name($value);)*

            pub const fn empty() -> $name {
                $name(0)
            }

            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            pub const fn union(self, other: $name) -> $name {
                $name(self.0 | other.0)
            }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, other: $name) -> $name {
                self.union(other)
            }
        }
    };
}

bitflags_lite! {
    /// TCP control flags.
    pub struct Flags: u8 {
        const FIN = 0x01;
        const SYN = 0x02;
        const RST = 0x04;
        const PSH = 0x08;
        const ACK = 0x10;
        const URG = 0x20;
    }
}

/// A view of a TCP segment.
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
        let header_len = packet.header_len() as usize;
        if header_len < HEADER_LEN || header_len > len {
            return Err(Error::Malformed);
        }
        Ok(packet)
    }

    pub fn src_port(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::SRC_PORT.start).unwrap()
    }

    pub fn dst_port(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::DST_PORT.start).unwrap()
    }

    pub fn seq_number(&self) -> u32 {
        field::read_u32(self.buffer.as_ref(), layout::SEQ.start).unwrap()
    }

    pub fn ack_number(&self) -> u32 {
        field::read_u32(self.buffer.as_ref(), layout::ACK.start).unwrap()
    }

    /// Data offset in bytes.
    pub fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[layout::OFF_FLAGS.start] >> 4) * 4
    }

    pub fn flags(&self) -> Flags {
        Flags(self.buffer.as_ref()[layout::OFF_FLAGS.start + 1] & 0x3f)
    }

    pub fn window(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::WINDOW.start).unwrap()
    }

    pub fn checksum(&self) -> u16 {
        field::read_u16(self.buffer.as_ref(), layout::CHECKSUM.start).unwrap()
    }

    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len() as usize..]
    }

    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let data = self.buffer.as_ref();
        checksum::fold(
            checksum::pseudo_header_v4(src, dst, 6, data.len() as u32) + checksum::sum(data),
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

    pub fn set_seq_number(&mut self, value: u32) {
        field::write_u32(self.buffer.as_mut(), layout::SEQ.start, value);
    }

    pub fn set_ack_number(&mut self, value: u32) {
        field::write_u32(self.buffer.as_mut(), layout::ACK.start, value);
    }

    /// Set data offset (bytes; multiple of 4) and flags together.
    pub fn set_header_len_and_flags(&mut self, header_len: u8, flags: Flags) {
        self.buffer.as_mut()[layout::OFF_FLAGS.start] = (header_len / 4) << 4;
        self.buffer.as_mut()[layout::OFF_FLAGS.start + 1] = flags.0;
    }

    pub fn set_window(&mut self, value: u16) {
        field::write_u16(self.buffer.as_mut(), layout::WINDOW.start, value);
    }

    pub fn fill_checksum_v4(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, 0);
        let ck = checksum::transport_v4(src, dst, 6, self.buffer.as_ref());
        field::write_u16(self.buffer.as_mut(), layout::CHECKSUM.start, ck);
    }

    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header_len = self.header_len() as usize;
        &mut self.buffer.as_mut()[header_len..]
    }
}

/// High-level representation of a TCP segment (options-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq_number: u32,
    pub ack_number: u32,
    pub flags: Flags,
    pub window: u16,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if packet.dst_port() == 0 || packet.src_port() == 0 {
            return Err(Error::Malformed);
        }
        Ok(Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq_number: packet.seq_number(),
            ack_number: packet.ack_number(),
            flags: packet.flags(),
            window: packet.window(),
            payload_len: packet.payload().len(),
        })
    }

    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_seq_number(self.seq_number);
        packet.set_ack_number(self.ack_number);
        packet.set_header_len_and_flags(HEADER_LEN as u8, self.flags);
        packet.set_window(self.window);
        field::write_u16(packet.buffer.as_mut(), layout::URGENT.start, 0);
    }

    /// A SYN probe, as sent by the port scanner.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Repr {
        Repr {
            src_port,
            dst_port,
            seq_number: seq,
            ack_number: 0,
            flags: Flags::SYN,
            window: 64240,
            payload_len: 0,
        }
    }

    /// The SYN-ACK an open port answers with.
    pub fn syn_ack(src_port: u16, dst_port: u16, seq: u32, ack: u32) -> Repr {
        Repr {
            src_port,
            dst_port,
            seq_number: seq,
            ack_number: ack,
            flags: Flags::SYN | Flags::ACK,
            window: 64240,
            payload_len: 0,
        }
    }

    /// The RST-ACK a closed port answers with.
    pub fn rst_ack(src_port: u16, dst_port: u16, ack: u32) -> Repr {
        Repr {
            src_port,
            dst_port,
            seq_number: 0,
            ack_number: ack,
            flags: Flags::RST | Flags::ACK,
            window: 0,
            payload_len: 0,
        }
    }

    /// A data-bearing segment for an established connection.
    pub fn data(src_port: u16, dst_port: u16, seq: u32, ack: u32, payload_len: usize) -> Repr {
        Repr {
            src_port,
            dst_port,
            seq_number: seq,
            ack_number: ack,
            flags: Flags::PSH | Flags::ACK,
            window: 64240,
            payload_len,
        }
    }
}

/// Build a TCP segment with a valid IPv4 pseudo-header checksum.
pub fn build_segment_v4(repr: &Repr, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(repr.payload_len, payload.len());
    let mut buffer = vec![0u8; HEADER_LEN + payload.len()];
    let mut packet = Packet::new_unchecked(&mut buffer[..]);
    repr.emit(&mut packet);
    packet.payload_mut().copy_from_slice(payload);
    packet.fill_checksum_v4(src, dst);
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 2);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 30);

    #[test]
    fn syn_roundtrip() {
        let repr = Repr::syn(43210, 8009, 0x1000);
        let bytes = build_segment_v4(&repr, SRC, DST, &[]);
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum_v4(SRC, DST));
        let parsed = Repr::parse(&packet).unwrap();
        assert_eq!(parsed, repr);
        assert!(parsed.flags.contains(Flags::SYN));
        assert!(!parsed.flags.contains(Flags::ACK));
    }

    #[test]
    fn syn_ack_and_rst_shapes() {
        let sa = Repr::syn_ack(8009, 43210, 7, 0x1001);
        assert!(sa.flags.contains(Flags::SYN | Flags::ACK));
        let rst = Repr::rst_ack(8009, 43210, 0x1001);
        assert!(rst.flags.contains(Flags::RST));
        assert_eq!(rst.window, 0);
    }

    #[test]
    fn data_segment_roundtrip() {
        let repr = Repr::data(55443, 43211, 1, 1, 4);
        let bytes = build_segment_v4(&repr, SRC, DST, b"LIST");
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(packet.payload(), b"LIST");
        assert!(packet.flags().contains(Flags::PSH));
    }

    #[test]
    fn checksum_corruption_detected() {
        let repr = Repr::syn(1, 2, 3);
        let mut bytes = build_segment_v4(&repr, SRC, DST, &[]);
        bytes[14] ^= 1;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert!(!packet.verify_checksum_v4(SRC, DST));
    }

    #[test]
    fn bad_offset_rejected() {
        let repr = Repr::syn(1, 2, 3);
        let mut bytes = build_segment_v4(&repr, SRC, DST, &[]);
        bytes[12] = 0x20; // offset 8 bytes < 20
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
        bytes[12] = 0xf0; // offset 60 bytes > buffer
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn zero_ports_malformed() {
        let repr = Repr::syn(1, 2, 3);
        let mut bytes = build_segment_v4(&repr, SRC, DST, &[]);
        bytes[0] = 0;
        bytes[1] = 0;
        let packet = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Malformed);
    }
}
