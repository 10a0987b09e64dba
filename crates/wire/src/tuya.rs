//! TuyaLP — the Tuya local protocol's UDP discovery broadcast.
//!
//! §5.1: Tuya devices broadcast discovery messages on UDP 6666/6667 and only
//! answer their companion apps. The frame format (per the tinytuya
//! ecosystem) is `000055aa` prefix, sequence, command, length, JSON payload,
//! CRC32, `0000aa55` suffix. The Jinvoo bulb sends its `gwId` and product
//! key in plaintext — two of Table 1's identifier exposures.

use crate::field;
use crate::{Error, Result};
use iotlan_util::json;
use iotlan_util::json::Value;

/// Plaintext discovery port.
pub const TUYA_PORT_PLAIN: u16 = 6666;
/// "Encrypted" discovery port (payload obfuscated; metadata identical).
pub const TUYA_PORT_ENC: u16 = 6667;

const PREFIX: u32 = 0x0000_55aa;
const SUFFIX: u32 = 0x0000_aa55;

/// Command codes.
pub const CMD_UDP_BROADCAST: u32 = 0x13;

/// CRC32 (IEEE 802.3, reflected) — implemented locally to avoid a
/// dependency; Tuya frames carry it after the payload.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// A TuyaLP frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub sequence: u32,
    pub command: u32,
    pub payload: Value,
}

impl Frame {
    /// The discovery broadcast a Tuya device emits, leaking its gateway id,
    /// product key and device capabilities.
    pub fn discovery(gw_id: &str, product_key: &str, ip: &str, version: &str) -> Frame {
        Frame {
            sequence: 0,
            command: CMD_UDP_BROADCAST,
            payload: json!({
                "ip": ip,
                "gwId": gw_id,
                "active": 2,
                "ability": 0,
                "mode": 0,
                "encrypt": true,
                "productKey": product_key,
                "version": version,
            }),
        }
    }

    pub fn parse(data: &[u8]) -> Result<Frame> {
        if data.len() < 20 {
            return Err(Error::Truncated);
        }
        if field::read_u32(data, 0)? != PREFIX {
            return Err(Error::Malformed);
        }
        let sequence = field::read_u32(data, 4)?;
        let command = field::read_u32(data, 8)?;
        let length = field::read_u32(data, 12)? as usize;
        // length counts payload + crc (4) + suffix (4).
        if length < 8 {
            return Err(Error::Malformed);
        }
        let payload_len = length - 8;
        let payload_start = 16;
        let payload_bytes = data
            .get(payload_start..payload_start + payload_len)
            .ok_or(Error::Truncated)?;
        let crc_pos = payload_start + payload_len;
        let crc = field::read_u32(data, crc_pos)?;
        if crc != crc32(&data[..crc_pos]) {
            return Err(Error::Checksum);
        }
        if field::read_u32(data, crc_pos + 4)? != SUFFIX {
            return Err(Error::Malformed);
        }
        let payload: Value = json::from_slice(payload_bytes).map_err(|_| Error::Malformed)?;
        Ok(Frame {
            sequence,
            command,
            payload,
        })
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload.to_string().into_bytes();
        let mut out = Vec::with_capacity(24 + payload.len());
        out.extend_from_slice(&PREFIX.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.command.to_be_bytes());
        out.extend_from_slice(&((payload.len() + 8) as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out.extend_from_slice(&SUFFIX.to_be_bytes());
        out
    }

    /// The gateway id, if present (a per-device persistent identifier).
    pub fn gw_id(&self) -> Option<&str> {
        self.payload.get("gwId")?.as_str()
    }

    /// The product key, if present.
    pub fn product_key(&self) -> Option<&str> {
        self.payload.get("productKey")?.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC32("123456789") = 0xCBF43926 — the canonical check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn discovery_roundtrip() {
        // The Jinvoo bulb's leak (§5.1): gwId and product key in plaintext.
        let frame = Frame::discovery(
            "60594237840d8e5f1b4a",
            "keymw7ewtjaqy9d3",
            "192.168.10.61",
            "3.3",
        );
        let bytes = frame.to_bytes();
        let parsed = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(parsed.gw_id(), Some("60594237840d8e5f1b4a"));
        assert_eq!(parsed.product_key(), Some("keymw7ewtjaqy9d3"));
    }

    #[test]
    fn corrupted_crc_rejected() {
        let frame = Frame::discovery("gw", "pk", "192.168.0.2", "3.3");
        let mut bytes = frame.to_bytes();
        bytes[20] ^= 0xff;
        assert_eq!(Frame::parse(&bytes).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn bad_prefix_suffix_rejected() {
        let frame = Frame::discovery("gw", "pk", "192.168.0.2", "3.3");
        let mut bytes = frame.to_bytes();
        bytes[0] = 0xff;
        assert_eq!(Frame::parse(&bytes).unwrap_err(), Error::Malformed);

        let mut bytes = frame.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 0;
        // Suffix corruption also breaks nothing before CRC, so the CRC still
        // matches; only the suffix check fires.
        assert_eq!(Frame::parse(&bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_rejected() {
        let frame = Frame::discovery("gw", "pk", "192.168.0.2", "3.3");
        let bytes = frame.to_bytes();
        assert_eq!(Frame::parse(&bytes[..10]).unwrap_err(), Error::Truncated);
        assert_eq!(
            Frame::parse(&bytes[..bytes.len() - 9]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn undersized_length_field_malformed() {
        let frame = Frame::discovery("gw", "pk", "192.168.0.2", "3.3");
        let mut bytes = frame.to_bytes();
        bytes[12..16].copy_from_slice(&4u32.to_be_bytes());
        assert_eq!(Frame::parse(&bytes).unwrap_err(), Error::Malformed);
    }
}
