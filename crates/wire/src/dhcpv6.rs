//! DHCPv6 (RFC 8415), minimal subset: Solicit/Advertise with client
//! identifier (DUID) and FQDN options. Appears in the multicast-discovery
//! protocol mix of Figure 2.

use crate::field;
use crate::{Error, Result};

/// DHCPv6 message types used here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    Solicit,
    Advertise,
    Request,
    Reply,
    Unknown(u8),
}

impl From<u8> for MessageType {
    fn from(value: u8) -> Self {
        match value {
            1 => MessageType::Solicit,
            2 => MessageType::Advertise,
            3 => MessageType::Request,
            7 => MessageType::Reply,
            other => MessageType::Unknown(other),
        }
    }
}

impl From<MessageType> for u8 {
    fn from(value: MessageType) -> u8 {
        match value {
            MessageType::Solicit => 1,
            MessageType::Advertise => 2,
            MessageType::Request => 3,
            MessageType::Reply => 7,
            MessageType::Unknown(other) => other,
        }
    }
}

/// Option codes.
pub mod option_codes {
    pub const CLIENT_ID: u16 = 1;
    pub const SERVER_ID: u16 = 2;
    /// Fully-qualified domain name — another hostname leak channel.
    pub const FQDN: u16 = 39;
}

/// A raw DHCPv6 option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dhcpv6Option {
    pub code: u16,
    pub data: Vec<u8>,
}

/// Fixed header: msg-type (1) + transaction id (3).
pub const HEADER_LEN: usize = 4;

/// High-level representation of a DHCPv6 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repr {
    pub message_type: MessageType,
    pub transaction_id: u32, // 24 bits
    pub options: Vec<Dhcpv6Option>,
}

impl Repr {
    pub fn parse(data: &[u8]) -> Result<Repr> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let message_type = MessageType::from(data[0]);
        let transaction_id =
            (u32::from(data[1]) << 16) | (u32::from(data[2]) << 8) | u32::from(data[3]);
        let mut options = Vec::new();
        let mut i = HEADER_LEN;
        while i < data.len() {
            let code = field::read_u16(data, i)?;
            let len = field::read_u16(data, i + 2)? as usize;
            if i + 4 + len > data.len() {
                return Err(Error::Truncated);
            }
            options.push(Dhcpv6Option {
                code,
                data: data[i + 4..i + 4 + len].to_vec(),
            });
            i += 4 + len;
        }
        Ok(Repr {
            message_type,
            transaction_id,
            options,
        })
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buffer = Vec::with_capacity(HEADER_LEN);
        buffer.push(self.message_type.into());
        buffer.push((self.transaction_id >> 16) as u8);
        buffer.push((self.transaction_id >> 8) as u8);
        buffer.push(self.transaction_id as u8);
        for option in &self.options {
            buffer.extend_from_slice(&option.code.to_be_bytes());
            buffer.extend_from_slice(&(option.data.len() as u16).to_be_bytes());
            buffer.extend_from_slice(&option.data);
        }
        buffer
    }

    /// Find an option by code.
    pub fn option(&self, code: u16) -> Option<&[u8]> {
        self.options
            .iter()
            .find(|o| o.code == code)
            .map(|o| o.data.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solicit_roundtrip() {
        let repr = Repr {
            message_type: MessageType::Solicit,
            transaction_id: 0x00ab_cdef,
            options: vec![
                Dhcpv6Option {
                    code: option_codes::CLIENT_ID,
                    data: vec![0, 1, 0, 1, 1, 2, 3, 4],
                },
                Dhcpv6Option {
                    code: option_codes::FQDN,
                    data: b"\x00nest-hub".to_vec(),
                },
            ],
        };
        let bytes = repr.to_bytes();
        let parsed = Repr::parse(&bytes).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(
            parsed.option(option_codes::FQDN),
            Some(&b"\x00nest-hub"[..])
        );
    }

    #[test]
    fn truncated_option_rejected() {
        let repr = Repr {
            message_type: MessageType::Solicit,
            transaction_id: 1,
            options: vec![Dhcpv6Option {
                code: 1,
                data: vec![1, 2, 3],
            }],
        };
        let bytes = repr.to_bytes();
        assert_eq!(
            Repr::parse(&bytes[..bytes.len() - 1]).unwrap_err(),
            Error::Truncated
        );
        assert_eq!(Repr::parse(&bytes[..3]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn transaction_id_is_24_bit() {
        let repr = Repr {
            message_type: MessageType::Reply,
            transaction_id: 0x0012_3456,
            options: vec![],
        };
        let parsed = Repr::parse(&repr.to_bytes()).unwrap();
        assert_eq!(parsed.transaction_id, 0x0012_3456);
    }
}
