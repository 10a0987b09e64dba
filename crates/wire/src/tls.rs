//! TLS record and handshake metadata (RFC 5246/8446 subset).
//!
//! §5.2: 32 devices use TLS locally. The paper never decrypts TLS — it
//! classifies versions from the handshake, inspects certificate parameters
//! (validity, issuer/subject CN, key size) and flags weaknesses (the
//! 64–122-bit keys on Google's port 8009, SWEET32/CVE-2016-2183). We
//! therefore implement exactly that observable surface: the record layer,
//! ClientHello/ServerHello with SNI and `supported_versions`, and a
//! `Certificate` message carrying a compact metadata encoding.
//!
//! **Substitution note (see DESIGN.md):** real deployments carry X.509 DER;
//! we encode the same fields the paper's scanner extracts (issuer CN,
//! subject CN, validity, key bits, self-signed flag) in a length-prefixed
//! binary form. Every analysis that consumed DER metadata consumes this
//! instead; nothing downstream depends on ASN.1 itself.

use crate::field;
use crate::{Error, Result};

/// TLS record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    ChangeCipherSpec,
    Alert,
    Handshake,
    ApplicationData,
    Unknown(u8),
}

impl From<u8> for ContentType {
    fn from(value: u8) -> Self {
        match value {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            other => ContentType::Unknown(other),
        }
    }
}

impl From<ContentType> for u8 {
    fn from(value: ContentType) -> u8 {
        match value {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
            ContentType::Unknown(other) => other,
        }
    }
}

/// TLS protocol versions, as classified in §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Version {
    Tls10,
    Tls11,
    Tls12,
    Tls13,
    Unknown(u16),
}

impl From<u16> for Version {
    fn from(value: u16) -> Self {
        match value {
            0x0301 => Version::Tls10,
            0x0302 => Version::Tls11,
            0x0303 => Version::Tls12,
            0x0304 => Version::Tls13,
            other => Version::Unknown(other),
        }
    }
}

impl From<Version> for u16 {
    fn from(value: Version) -> u16 {
        match value {
            Version::Tls10 => 0x0301,
            Version::Tls11 => 0x0302,
            Version::Tls12 => 0x0303,
            Version::Tls13 => 0x0304,
            Version::Unknown(other) => other,
        }
    }
}

impl core::fmt::Display for Version {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Version::Tls10 => write!(f, "TLSv1.0"),
            Version::Tls11 => write!(f, "TLSv1.1"),
            Version::Tls12 => write!(f, "TLSv1.2"),
            Version::Tls13 => write!(f, "TLSv1.3"),
            Version::Unknown(v) => write!(f, "TLS(0x{v:04x})"),
        }
    }
}

/// TLS record header length.
pub const RECORD_HEADER_LEN: usize = 5;

/// A TLS record: header plus opaque fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub content_type: ContentType,
    /// The record-layer version (legacy_record_version in 1.3).
    pub version: Version,
    pub fragment: Vec<u8>,
}

impl Record {
    pub fn parse(data: &[u8]) -> Result<(Record, usize)> {
        if data.len() < RECORD_HEADER_LEN {
            return Err(Error::Truncated);
        }
        let length = field::read_u16(data, 3)? as usize;
        let end = RECORD_HEADER_LEN + length;
        if data.len() < end {
            return Err(Error::Truncated);
        }
        Ok((
            Record {
                content_type: ContentType::from(data[0]),
                version: Version::from(field::read_u16(data, 1)?),
                fragment: data[RECORD_HEADER_LEN..end].to_vec(),
            },
            end,
        ))
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + self.fragment.len());
        out.push(self.content_type.into());
        out.extend_from_slice(&u16::from(self.version).to_be_bytes());
        out.extend_from_slice(&(self.fragment.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.fragment);
        out
    }
}

/// Certificate metadata — the observable parameters of §5.2's findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateInfo {
    /// Issuer common name (Echo devices: an RFC 1918 IP or `0.0.0.0`).
    pub issuer_cn: String,
    /// Subject common name.
    pub subject_cn: String,
    /// Validity period in days (Echo: ~90; Google leafs: ~7300 = 20 years;
    /// D-Link/SmartThings/Hue hubs: 20–28 years).
    pub validity_days: u32,
    /// Public-key size in bits. Google's port-8009 service presents
    /// 64–122-bit keys — the high-severity Nessus finding.
    pub key_bits: u16,
    /// True when issuer == subject (self-signed).
    pub self_signed: bool,
}

impl CertificateInfo {
    fn emit(&self, out: &mut Vec<u8>) {
        emit_string(out, &self.issuer_cn);
        emit_string(out, &self.subject_cn);
        out.extend_from_slice(&self.validity_days.to_be_bytes());
        out.extend_from_slice(&self.key_bits.to_be_bytes());
        out.push(u8::from(self.self_signed));
    }

    fn parse(data: &[u8], pos: &mut usize) -> Result<CertificateInfo> {
        let issuer_cn = parse_string(data, pos)?;
        let subject_cn = parse_string(data, pos)?;
        let validity_days = field::read_u32(data, *pos)?;
        let key_bits = field::read_u16(data, *pos + 4)?;
        let self_signed = field::read_u8(data, *pos + 6)? != 0;
        *pos += 7;
        Ok(CertificateInfo {
            issuer_cn,
            subject_cn,
            validity_days,
            key_bits,
            self_signed,
        })
    }
}

fn emit_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn parse_string(data: &[u8], pos: &mut usize) -> Result<String> {
    let len = field::read_u16(data, *pos)? as usize;
    let start = *pos + 2;
    let bytes = data.get(start..start + len).ok_or(Error::Truncated)?;
    *pos = start + len;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::Malformed)
}

/// Handshake messages at the fidelity the analysis needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    ClientHello {
        /// legacy_version; 1.3 clients still send 0x0303 here.
        version: Version,
        /// Offered versions from the supported_versions extension, if sent.
        supported_versions: Vec<Version>,
        /// Server name indication, if sent. Local IoT TLS usually omits it
        /// (devices "generally cannot obtain globally unique DNS names").
        server_name: Option<String>,
        cipher_suites: Vec<u16>,
    },
    ServerHello {
        version: Version,
        /// The negotiated version (from supported_versions in 1.3).
        selected_version: Option<Version>,
        cipher_suite: u16,
    },
    Certificate {
        chain: Vec<CertificateInfo>,
    },
    Other {
        msg_type: u8,
    },
}

impl Handshake {
    /// Effective protocol version implied by a hello.
    pub fn effective_version(&self) -> Option<Version> {
        match self {
            Handshake::ClientHello {
                version,
                supported_versions,
                ..
            } => supported_versions.iter().max().copied().or(Some(*version)),
            Handshake::ServerHello {
                version,
                selected_version,
                ..
            } => selected_version.or(Some(*version)),
            _ => None,
        }
    }

    pub fn parse(data: &[u8]) -> Result<Handshake> {
        if data.len() < 4 {
            return Err(Error::Truncated);
        }
        let msg_type = data[0];
        let length = ((data[1] as usize) << 16) | ((data[2] as usize) << 8) | data[3] as usize;
        let body = data.get(4..4 + length).ok_or(Error::Truncated)?;
        match msg_type {
            1 => {
                let mut pos = 0;
                let version = Version::from(field::read_u16(body, pos)?);
                pos += 2;
                let n_versions = field::read_u8(body, pos)? as usize;
                pos += 1;
                let mut supported_versions = Vec::with_capacity(n_versions);
                for _ in 0..n_versions {
                    supported_versions.push(Version::from(field::read_u16(body, pos)?));
                    pos += 2;
                }
                let has_sni = field::read_u8(body, pos)? != 0;
                pos += 1;
                let server_name = if has_sni {
                    Some(parse_string(body, &mut pos)?)
                } else {
                    None
                };
                let n_suites = field::read_u16(body, pos)? as usize;
                pos += 2;
                let mut cipher_suites = Vec::with_capacity(n_suites);
                for _ in 0..n_suites {
                    cipher_suites.push(field::read_u16(body, pos)?);
                    pos += 2;
                }
                Ok(Handshake::ClientHello {
                    version,
                    supported_versions,
                    server_name,
                    cipher_suites,
                })
            }
            2 => {
                let version = Version::from(field::read_u16(body, 0)?);
                let has_selected = field::read_u8(body, 2)? != 0;
                let selected_version = if has_selected {
                    Some(Version::from(field::read_u16(body, 3)?))
                } else {
                    None
                };
                let suite_pos = if has_selected { 5 } else { 3 };
                let cipher_suite = field::read_u16(body, suite_pos)?;
                Ok(Handshake::ServerHello {
                    version,
                    selected_version,
                    cipher_suite,
                })
            }
            11 => {
                let count = field::read_u8(body, 0)? as usize;
                let mut pos = 1;
                let mut chain = Vec::with_capacity(count);
                for _ in 0..count {
                    chain.push(CertificateInfo::parse(body, &mut pos)?);
                }
                Ok(Handshake::Certificate { chain })
            }
            t => Ok(Handshake::Other { msg_type: t }),
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let msg_type = match self {
            Handshake::ClientHello {
                version,
                supported_versions,
                server_name,
                cipher_suites,
            } => {
                body.extend_from_slice(&u16::from(*version).to_be_bytes());
                body.push(supported_versions.len() as u8);
                for v in supported_versions {
                    body.extend_from_slice(&u16::from(*v).to_be_bytes());
                }
                match server_name {
                    Some(name) => {
                        body.push(1);
                        emit_string(&mut body, name);
                    }
                    None => body.push(0),
                }
                body.extend_from_slice(&(cipher_suites.len() as u16).to_be_bytes());
                for suite in cipher_suites {
                    body.extend_from_slice(&suite.to_be_bytes());
                }
                1
            }
            Handshake::ServerHello {
                version,
                selected_version,
                cipher_suite,
            } => {
                body.extend_from_slice(&u16::from(*version).to_be_bytes());
                match selected_version {
                    Some(v) => {
                        body.push(1);
                        body.extend_from_slice(&u16::from(*v).to_be_bytes());
                    }
                    None => body.push(0),
                }
                body.extend_from_slice(&cipher_suite.to_be_bytes());
                2
            }
            Handshake::Certificate { chain } => {
                body.push(chain.len() as u8);
                for cert in chain {
                    cert.emit(&mut body);
                }
                11
            }
            Handshake::Other { msg_type } => *msg_type,
        };
        let mut out = Vec::with_capacity(4 + body.len());
        out.push(msg_type);
        out.push((body.len() >> 16) as u8);
        out.push((body.len() >> 8) as u8);
        out.push(body.len() as u8);
        out.extend_from_slice(&body);
        out
    }

    /// Wrap this handshake in a TLS record.
    pub fn into_record(self, record_version: Version) -> Record {
        Record {
            content_type: ContentType::Handshake,
            version: record_version,
            fragment: self.to_bytes(),
        }
    }
}

/// The 3DES cipher suite affected by SWEET32 (CVE-2016-2183).
pub const TLS_RSA_WITH_3DES_EDE_CBC_SHA: u16 = 0x000a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let record = Record {
            content_type: ContentType::ApplicationData,
            version: Version::Tls12,
            fragment: vec![1, 2, 3],
        };
        let bytes = record.to_bytes();
        let (parsed, consumed) = Record::parse(&bytes).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn truncated_record() {
        let record = Record {
            content_type: ContentType::Handshake,
            version: Version::Tls12,
            fragment: vec![0; 10],
        };
        let bytes = record.to_bytes();
        assert_eq!(Record::parse(&bytes[..8]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn client_hello_tls13_effective_version() {
        // Apple devices: TLS 1.3 negotiated via supported_versions while the
        // legacy field still says 1.2.
        let hello = Handshake::ClientHello {
            version: Version::Tls12,
            supported_versions: vec![Version::Tls12, Version::Tls13],
            server_name: None,
            cipher_suites: vec![0x1301, 0x1302],
        };
        assert_eq!(hello.effective_version(), Some(Version::Tls13));
        let parsed = Handshake::parse(&hello.to_bytes()).unwrap();
        assert_eq!(parsed, hello);
    }

    #[test]
    fn server_hello_roundtrip() {
        let hello = Handshake::ServerHello {
            version: Version::Tls12,
            selected_version: None,
            cipher_suite: TLS_RSA_WITH_3DES_EDE_CBC_SHA,
        };
        assert_eq!(hello.effective_version(), Some(Version::Tls12));
        assert_eq!(Handshake::parse(&hello.to_bytes()).unwrap(), hello);
    }

    #[test]
    fn echo_certificate_shape() {
        // §5.2: Echo self-signed certs, 3-month validity, CN an RFC 1918 IP.
        let cert = Handshake::Certificate {
            chain: vec![CertificateInfo {
                issuer_cn: "192.168.0.5".into(),
                subject_cn: "192.168.0.5".into(),
                validity_days: 90,
                key_bits: 2048,
                self_signed: true,
            }],
        };
        let parsed = Handshake::parse(&cert.to_bytes()).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn google_small_key_chain() {
        // §5.2: Google's port-8009 TLS with 64–122-bit keys, 20-year leafs.
        let cert = Handshake::Certificate {
            chain: vec![
                CertificateInfo {
                    issuer_cn: "Google Cast Root CA".into(),
                    subject_cn: "Chromecast ICA".into(),
                    validity_days: 7300,
                    key_bits: 2048,
                    self_signed: false,
                },
                CertificateInfo {
                    issuer_cn: "Chromecast ICA".into(),
                    subject_cn: "nest-hub-1".into(),
                    validity_days: 7300,
                    key_bits: 96,
                    self_signed: false,
                },
            ],
        };
        let parsed = Handshake::parse(&cert.to_bytes()).unwrap();
        match &parsed {
            Handshake::Certificate { chain } => {
                assert!(chain.iter().any(|c| c.key_bits < 128));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn handshake_in_record() {
        let hello = Handshake::ClientHello {
            version: Version::Tls12,
            supported_versions: vec![],
            server_name: Some("local-api.example".into()),
            cipher_suites: vec![0xc02f],
        };
        let record = hello.clone().into_record(Version::Tls12);
        let (parsed_record, _) = Record::parse(&record.to_bytes()).unwrap();
        assert_eq!(parsed_record.content_type, ContentType::Handshake);
        let parsed = Handshake::parse(&parsed_record.fragment).unwrap();
        assert_eq!(parsed, hello);
    }

    #[test]
    fn unknown_handshake_type() {
        let other = Handshake::Other { msg_type: 42 };
        assert_eq!(Handshake::parse(&other.to_bytes()).unwrap(), other);
        assert_eq!(other.effective_version(), None);
    }

    #[test]
    fn truncated_handshake() {
        let hello = Handshake::ServerHello {
            version: Version::Tls13,
            selected_version: Some(Version::Tls13),
            cipher_suite: 0x1301,
        };
        let bytes = hello.to_bytes();
        assert!(Handshake::parse(&bytes[..3]).is_err());
        assert!(Handshake::parse(&bytes[..bytes.len() - 1]).is_err());
    }
}
