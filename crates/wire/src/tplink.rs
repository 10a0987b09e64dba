//! The TP-Link Smart Home Protocol (TPLINK-SHP).
//!
//! 26% of lab devices speak it (§4.1). It is a JSON protocol "encrypted"
//! with a trivially reversible XOR autokey (initial key 171), sent over
//! UDP broadcast port 9999 for discovery and TCP 9999 (with a 4-byte length
//! prefix) for control. §5.1: responses disclose the device's latitude and
//! longitude in plaintext, plus deviceId, hwId, oemId, alias and status —
//! and control requires no authentication at all, so any LAN host can
//! operate the devices (Table 1's geolocation row; Table 5's payload).

use crate::{Error, Result};
use iotlan_util::json;
use iotlan_util::json::Value;

/// The TPLINK-SHP port (UDP discovery and TCP control).
pub const SHP_PORT: u16 = 9999;

/// Apply the XOR autokey cipher (self-inverse direction: encryption).
/// Each plaintext byte is XORed with the previous *ciphertext* byte,
/// starting from key 171.
pub fn encrypt(plaintext: &[u8]) -> Vec<u8> {
    let mut key = 171u8;
    plaintext
        .iter()
        .map(|&b| {
            let c = b ^ key;
            key = c;
            c
        })
        .collect()
}

/// Invert the XOR autokey cipher.
pub fn decrypt(ciphertext: &[u8]) -> Vec<u8> {
    let mut key = 171u8;
    ciphertext
        .iter()
        .map(|&c| {
            let b = c ^ key;
            key = c;
            b
        })
        .collect()
}

/// A TPLINK-SHP message: a JSON document under the autokey cipher.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub body: Value,
}

impl Message {
    /// The universal discovery/status query.
    pub fn get_sysinfo() -> Message {
        Message {
            body: json!({"system": {"get_sysinfo": {}}}),
        }
    }

    /// An unauthenticated relay-control command — the §5.1 finding that a
    /// local attacker can operate TP-Link devices.
    pub fn set_relay_state(on: bool) -> Message {
        Message {
            body: json!({"system": {"set_relay_state": {"state": if on {1} else {0}}}}),
        }
    }

    /// A sysinfo response exposing the identifiers of Tables 1 and 5.
    #[allow(clippy::too_many_arguments)]
    pub fn sysinfo_response(
        alias: &str,
        dev_name: &str,
        device_id: &str,
        hw_id: &str,
        oem_id: &str,
        latitude: f64,
        longitude: f64,
        relay_state: u8,
    ) -> Message {
        Message {
            body: json!({
                "system": {"get_sysinfo": {
                    "sw_ver": "1.5.8 Build 180815 Rel.135935",
                    "hw_ver": "2.1",
                    "model": "HS110(EU)",
                    "deviceId": device_id,
                    "hwId": hw_id,
                    "oemId": oem_id,
                    "alias": alias,
                    "dev_name": dev_name,
                    "relay_state": relay_state,
                    "latitude": latitude,
                    "longitude": longitude,
                    "err_code": 0
                }}
            }),
        }
    }

    /// Encode for UDP (no length prefix).
    pub fn to_udp_bytes(&self) -> Vec<u8> {
        encrypt(self.body.to_string().as_bytes())
    }

    /// Decode from UDP payload.
    pub fn from_udp_bytes(data: &[u8]) -> Result<Message> {
        if data.is_empty() {
            return Err(Error::Truncated);
        }
        let plain = decrypt(data);
        let body: Value = json::from_slice(&plain).map_err(|_| Error::Malformed)?;
        Ok(Message { body })
    }

    /// Encode for TCP: big-endian length prefix, then ciphertext.
    pub fn to_tcp_bytes(&self) -> Vec<u8> {
        let cipher = self.to_udp_bytes();
        let mut out = Vec::with_capacity(4 + cipher.len());
        out.extend_from_slice(&(cipher.len() as u32).to_be_bytes());
        out.extend_from_slice(&cipher);
        out
    }

    /// Decode from a TCP stream chunk.
    pub fn from_tcp_bytes(data: &[u8]) -> Result<Message> {
        if data.len() < 4 {
            return Err(Error::Truncated);
        }
        let len = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let cipher = data.get(4..4 + len).ok_or(Error::Truncated)?;
        Message::from_udp_bytes(cipher)
    }

    /// Extract the sysinfo object from a response, if present.
    pub fn sysinfo(&self) -> Option<&json::Map> {
        self.body
            .get("system")?
            .get("get_sysinfo")?
            .as_object()
            .filter(|m| !m.is_empty())
    }

    /// Extract the plaintext geolocation (the headline leak).
    pub fn geolocation(&self) -> Option<(f64, f64)> {
        let info = self.sysinfo()?;
        Some((
            info.get("latitude")?.as_f64()?,
            info.get("longitude")?.as_f64()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cipher_roundtrip_and_known_vector() {
        let plain = br#"{"system":{"get_sysinfo":{}}}"#;
        let cipher = encrypt(plain);
        assert_eq!(decrypt(&cipher), plain.to_vec());
        // First byte: '{' (0x7b) ^ 171 (0xab) = 0xd0.
        assert_eq!(cipher[0], 0xd0);
        // Autokey: second byte uses previous ciphertext byte as key.
        assert_eq!(cipher[1], b'"' ^ 0xd0);
    }

    #[test]
    fn udp_roundtrip() {
        let message = Message::get_sysinfo();
        let bytes = message.to_udp_bytes();
        let parsed = Message::from_udp_bytes(&bytes).unwrap();
        assert_eq!(parsed, message);
    }

    #[test]
    fn tcp_roundtrip() {
        let message = Message::set_relay_state(true);
        let bytes = message.to_tcp_bytes();
        let parsed = Message::from_tcp_bytes(&bytes).unwrap();
        assert_eq!(parsed, message);
        assert!(Message::from_tcp_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Message::from_tcp_bytes(&bytes[..2]).is_err());
    }

    #[test]
    fn sysinfo_response_exposes_geolocation() {
        // Table 5's payload: deviceId, hwId, oemId, alias, lat/long of the
        // MonIoTr lab (42.337681, -71.087036).
        let message = Message::sysinfo_response(
            "TP-Link Plug",
            "Wi-Fi Smart Plug With Energy Monitoring",
            "8006E8E9017F556D283C850B4E29BC1F185334E5",
            "60FF6B258734EA6880E186F8C96DDC61",
            "FFF22CFF774A0B89F7624BFC6F50D5DE",
            42.337681,
            -71.087036,
            1,
        );
        let wire_bytes = message.to_udp_bytes();
        let parsed = Message::from_udp_bytes(&wire_bytes).unwrap();
        let (lat, lon) = parsed.geolocation().unwrap();
        assert!((lat - 42.337681).abs() < 1e-9);
        assert!((lon + 71.087036).abs() < 1e-9);
        let info = parsed.sysinfo().unwrap();
        assert_eq!(
            info.get("deviceId").unwrap().as_str().unwrap(),
            "8006E8E9017F556D283C850B4E29BC1F185334E5"
        );
    }

    #[test]
    fn query_has_no_sysinfo_payload() {
        assert!(Message::get_sysinfo().sysinfo().is_none());
        assert!(Message::get_sysinfo().geolocation().is_none());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Message::from_udp_bytes(&[]).is_err());
        assert!(Message::from_udp_bytes(&[0xff, 0x00, 0x12]).is_err());
    }
}
