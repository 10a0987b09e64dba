//! RTP (RFC 3550) headers.
//!
//! §4.1: 10% of devices use RTP for real-time exchange and synchronization —
//! Amazon Echo's multi-room music on UDP 55444, and Google's UDP 10000–10010
//! traffic that both nDPI and tshark misclassify as STUN (Appendix C.2).
//! RTP has no standard port and a non-plaintext payload, which is exactly
//! why classifiers struggle with it; the header view here gives the
//! ground-truth labeler something principled to check.

use crate::field;
use crate::{Error, Result};

/// Fixed RTP header length (without CSRCs).
pub const HEADER_LEN: usize = 12;

/// Amazon Echo's multi-room music port.
pub const ECHO_MULTIROOM_PORT: u16 = 55444;

/// A parsed RTP header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub payload_type: u8,
    pub sequence: u16,
    pub timestamp: u32,
    pub ssrc: u32,
    pub marker: bool,
    pub csrc_count: u8,
}

impl Header {
    pub fn parse(data: &[u8]) -> Result<Header> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if data[0] >> 6 != 2 {
            return Err(Error::Malformed); // RTP version must be 2
        }
        let csrc_count = data[0] & 0x0f;
        if data.len() < HEADER_LEN + usize::from(csrc_count) * 4 {
            return Err(Error::Truncated);
        }
        Ok(Header {
            payload_type: data[1] & 0x7f,
            marker: data[1] & 0x80 != 0,
            sequence: field::read_u16(data, 2)?,
            timestamp: field::read_u32(data, 4)?,
            ssrc: field::read_u32(data, 8)?,
            csrc_count,
        })
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; HEADER_LEN + usize::from(self.csrc_count) * 4];
        out[0] = 0x80 | (self.csrc_count & 0x0f);
        out[1] = (self.payload_type & 0x7f) | if self.marker { 0x80 } else { 0 };
        out[2..4].copy_from_slice(&self.sequence.to_be_bytes());
        out[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        out[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let header = Header {
            payload_type: 97,
            sequence: 4242,
            timestamp: 160_000,
            ssrc: 0xdead_beef,
            marker: true,
            csrc_count: 0,
        };
        let bytes = header.to_bytes();
        assert_eq!(Header::parse(&bytes).unwrap(), header);
    }

    #[test]
    fn csrc_space_checked() {
        let header = Header {
            payload_type: 0,
            sequence: 0,
            timestamp: 0,
            ssrc: 1,
            marker: false,
            csrc_count: 2,
        };
        let bytes = header.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 8);
        assert!(Header::parse(&bytes[..HEADER_LEN + 4]).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Header {
            payload_type: 0,
            sequence: 0,
            timestamp: 0,
            ssrc: 0,
            marker: false,
            csrc_count: 0,
        }
        .to_bytes();
        bytes[0] = 0x40;
        assert_eq!(Header::parse(&bytes).unwrap_err(), Error::Malformed);
    }
}
