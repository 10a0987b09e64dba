//! DNS (RFC 1035) and mDNS (RFC 6762) messages.
//!
//! mDNS is the paper's highest-yield identifier channel (§5.1, §6.3):
//! 44% of lab devices use it, and hostnames are "often constructed by
//! appending unique identifiers such as MAC addresses, device IDs, serial
//! numbers" — e.g. `Philips Hue - 685F61._hue._tcp.local`. This module
//! implements full message encode/decode with compression-pointer-safe
//! parsing, the mDNS QU/cache-flush bits, and typed rdata for the record
//! types the entropy analysis consumes (PTR/SRV/TXT/A/AAAA).

use crate::field;
use crate::{Error, Result};
use std::net::{Ipv4Addr, Ipv6Addr};

/// The mDNS UDP port.
pub const MDNS_PORT: u16 = 5353;
/// The mDNS IPv4 multicast group.
pub const MDNS_GROUP_V4: Ipv4Addr = Ipv4Addr::new(224, 0, 0, 251);
/// The mDNS IPv6 multicast group (ff02::fb).
pub const MDNS_GROUP_V6: Ipv6Addr = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 0xfb);

/// Whether `data` can be a query: a full 12-byte header with the QR bit
/// (byte 2, top bit) clear. Receivers check it before parsing, because a
/// response is never answered.
pub fn is_query(data: &[u8]) -> bool {
    data.len() >= 12 && data[2] & 0x80 == 0
}

/// The DNS-SD service enumeration name (RFC 6763 §9). A query for it asks
/// every advertiser on the link for its service types.
pub const SERVICES_META_QUERY: &str = "_services._dns-sd._udp.local";

/// Record types supported with typed rdata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    A,
    Ptr,
    Txt,
    Aaaa,
    Srv,
    Any,
    Unknown(u16),
}

impl From<u16> for RecordType {
    fn from(value: u16) -> Self {
        match value {
            1 => RecordType::A,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            33 => RecordType::Srv,
            255 => RecordType::Any,
            other => RecordType::Unknown(other),
        }
    }
}

impl From<RecordType> for u16 {
    fn from(value: RecordType) -> u16 {
        match value {
            RecordType::A => 1,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Srv => 33,
            RecordType::Any => 255,
            RecordType::Unknown(other) => other,
        }
    }
}

/// A DNS question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub name: String,
    pub qtype: RecordType,
    /// mDNS unicast-response bit (QU). ~20% of lab devices send unicast
    /// responses, implying QU questions.
    pub unicast_response: bool,
}

/// Typed resource-record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    /// PTR target, e.g. `Philips Hue - 685F61._hue._tcp.local`.
    Ptr(String),
    /// TXT key=value strings (Spotify ZeroConf CPath etc. live here).
    Txt(Vec<String>),
    /// SRV priority/weight/port/target.
    Srv {
        priority: u16,
        weight: u16,
        port: u16,
        target: String,
    },
    /// Anything else, raw.
    Other(u16, Vec<u8>),
}

impl RData {
    fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Txt(_) => RecordType::Txt,
            RData::Srv { .. } => RecordType::Srv,
            RData::Other(t, _) => RecordType::Unknown(*t),
        }
    }
}

/// A DNS resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub name: String,
    /// mDNS cache-flush bit.
    pub cache_flush: bool,
    pub ttl: u32,
    pub rdata: RData,
}

/// A complete DNS/mDNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub id: u16,
    pub is_response: bool,
    pub authoritative: bool,
    pub questions: Vec<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
}

impl Message {
    /// Whether a question asks for a service type that `advertises`
    /// accepts, or for [`SERVICES_META_QUERY`], which every advertiser
    /// answers. The one test of whether an advertiser answers a query.
    pub fn asks_for(&self, mut advertises: impl FnMut(&str) -> bool) -> bool {
        self.questions
            .iter()
            .any(|q| q.name == SERVICES_META_QUERY || advertises(&q.name))
    }

    /// An mDNS query (id 0, QM unless marked).
    pub fn mdns_query(names: &[(&str, RecordType)]) -> Message {
        Message {
            id: 0,
            is_response: false,
            authoritative: false,
            questions: names
                .iter()
                .map(|(name, qtype)| Question {
                    name: (*name).to_string(),
                    qtype: *qtype,
                    unicast_response: false,
                })
                .collect(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// An mDNS response carrying `answers`.
    pub fn mdns_response(answers: Vec<Record>) -> Message {
        Message {
            id: 0,
            is_response: true,
            authoritative: true,
            questions: Vec::new(),
            answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// All textual content of the message (names, PTR/SRV targets, TXT
    /// strings) — the surface scanned by the identifier extractors.
    pub fn text_content(&self) -> Vec<String> {
        let mut out = Vec::new();
        for q in &self.questions {
            out.push(q.name.clone());
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            out.push(r.name.clone());
            match &r.rdata {
                RData::Ptr(target) => out.push(target.clone()),
                RData::Srv { target, .. } => out.push(target.clone()),
                RData::Txt(strings) => out.extend(strings.iter().cloned()),
                _ => {}
            }
        }
        out
    }

    /// Parse a complete message from `data`.
    pub fn parse(data: &[u8]) -> Result<Message> {
        if data.len() < 12 {
            return Err(Error::Truncated);
        }
        let id = field::read_u16(data, 0)?;
        let flags = field::read_u16(data, 2)?;
        let is_response = flags & 0x8000 != 0;
        let authoritative = flags & 0x0400 != 0;
        let qdcount = field::read_u16(data, 4)?;
        let ancount = field::read_u16(data, 6)?;
        let nscount = field::read_u16(data, 8)?;
        let arcount = field::read_u16(data, 10)?;

        let mut pos = 12;
        let mut questions = Vec::with_capacity(qdcount as usize);
        for _ in 0..qdcount {
            let (name, next) = parse_name(data, pos)?;
            let qtype = field::read_u16(data, next)?;
            let qclass = field::read_u16(data, next + 2)?;
            questions.push(Question {
                name,
                qtype: RecordType::from(qtype),
                unicast_response: qclass & 0x8000 != 0,
            });
            pos = next + 4;
        }
        let mut sections = [Vec::new(), Vec::new(), Vec::new()];
        for (section, count) in sections.iter_mut().zip([ancount, nscount, arcount]) {
            for _ in 0..count {
                let (record, next) = parse_record(data, pos)?;
                section.push(record);
                pos = next;
            }
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            id,
            is_response,
            authoritative,
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    /// Serialize to bytes (no compression: legal, and what most embedded
    /// mDNS stacks emit anyway).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags = 0u16;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.authoritative {
            flags |= 0x0400;
        }
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.authorities.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.additionals.len() as u16).to_be_bytes());
        for q in &self.questions {
            emit_name(&mut out, &q.name);
            out.extend_from_slice(&u16::from(q.qtype).to_be_bytes());
            let qclass = 1u16 | if q.unicast_response { 0x8000 } else { 0 };
            out.extend_from_slice(&qclass.to_be_bytes());
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            emit_record(&mut out, r);
        }
        out
    }
}

/// Parse a (possibly compressed) domain name starting at `pos`; returns the
/// dotted name and the offset just past it in the *original* encoding.
fn parse_name(data: &[u8], start: usize) -> Result<(String, usize)> {
    let mut labels: Vec<String> = Vec::new();
    let mut pos = start;
    let mut jumped = false;
    let mut after_jump = 0;
    // Guard against pointer loops: no legitimate name has > 128 jumps.
    let mut jumps = 0;
    loop {
        let len = field::read_u8(data, pos)? as usize;
        if len == 0 {
            pos += 1;
            break;
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            let low = field::read_u8(data, pos + 1)? as usize;
            let target = ((len & 0x3f) << 8) | low;
            if !jumped {
                after_jump = pos + 2;
                jumped = true;
            }
            jumps += 1;
            if jumps > 128 || target >= data.len() {
                return Err(Error::Malformed);
            }
            pos = target;
            continue;
        }
        if len > 63 {
            return Err(Error::Malformed);
        }
        let label = data.get(pos + 1..pos + 1 + len).ok_or(Error::Truncated)?;
        labels.push(String::from_utf8_lossy(label).into_owned());
        pos += 1 + len;
    }
    let end = if jumped { after_jump } else { pos };
    Ok((labels.join("."), end))
}

/// Emit a name as uncompressed labels.
fn emit_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        let len = bytes.len().min(63);
        out.push(len as u8);
        out.extend_from_slice(&bytes[..len]);
    }
    out.push(0);
}

fn parse_record(data: &[u8], start: usize) -> Result<(Record, usize)> {
    let (name, pos) = parse_name(data, start)?;
    let rtype = field::read_u16(data, pos)?;
    let rclass = field::read_u16(data, pos + 2)?;
    let ttl = field::read_u32(data, pos + 4)?;
    let rdlen = field::read_u16(data, pos + 8)? as usize;
    let rdata_start = pos + 10;
    let rdata_bytes = data
        .get(rdata_start..rdata_start + rdlen)
        .ok_or(Error::Truncated)?;
    let rdata = match RecordType::from(rtype) {
        RecordType::A => {
            let b: [u8; 4] = rdata_bytes.try_into().map_err(|_| Error::Malformed)?;
            RData::A(Ipv4Addr::from(b))
        }
        RecordType::Aaaa => {
            let b: [u8; 16] = rdata_bytes.try_into().map_err(|_| Error::Malformed)?;
            RData::Aaaa(Ipv6Addr::from(b))
        }
        RecordType::Ptr => {
            let (target, _) = parse_name(data, rdata_start)?;
            RData::Ptr(target)
        }
        RecordType::Srv => {
            if rdata_bytes.len() < 6 {
                return Err(Error::Truncated);
            }
            let (target, _) = parse_name(data, rdata_start + 6)?;
            RData::Srv {
                priority: u16::from_be_bytes([rdata_bytes[0], rdata_bytes[1]]),
                weight: u16::from_be_bytes([rdata_bytes[2], rdata_bytes[3]]),
                port: u16::from_be_bytes([rdata_bytes[4], rdata_bytes[5]]),
                target,
            }
        }
        RecordType::Txt => {
            let mut strings = Vec::new();
            let mut i = 0;
            while i < rdata_bytes.len() {
                let len = rdata_bytes[i] as usize;
                let s = rdata_bytes
                    .get(i + 1..i + 1 + len)
                    .ok_or(Error::Truncated)?;
                strings.push(String::from_utf8_lossy(s).into_owned());
                i += 1 + len;
            }
            RData::Txt(strings)
        }
        _ => RData::Other(rtype, rdata_bytes.to_vec()),
    };
    Ok((
        Record {
            name,
            cache_flush: rclass & 0x8000 != 0,
            ttl,
            rdata,
        },
        rdata_start + rdlen,
    ))
}

fn emit_record(out: &mut Vec<u8>, record: &Record) {
    emit_name(out, &record.name);
    out.extend_from_slice(&u16::from(record.rdata.record_type()).to_be_bytes());
    let class = 1u16 | if record.cache_flush { 0x8000 } else { 0 };
    out.extend_from_slice(&class.to_be_bytes());
    out.extend_from_slice(&record.ttl.to_be_bytes());
    let mut rdata = Vec::new();
    match &record.rdata {
        RData::A(a) => rdata.extend_from_slice(&a.octets()),
        RData::Aaaa(a) => rdata.extend_from_slice(&a.octets()),
        RData::Ptr(target) => emit_name(&mut rdata, target),
        RData::Srv {
            priority,
            weight,
            port,
            target,
        } => {
            rdata.extend_from_slice(&priority.to_be_bytes());
            rdata.extend_from_slice(&weight.to_be_bytes());
            rdata.extend_from_slice(&port.to_be_bytes());
            emit_name(&mut rdata, target);
        }
        RData::Txt(strings) => {
            for s in strings {
                let bytes = s.as_bytes();
                let len = bytes.len().min(255);
                rdata.push(len as u8);
                rdata.extend_from_slice(&bytes[..len]);
            }
            if strings.is_empty() {
                rdata.push(0);
            }
        }
        RData::Other(_, bytes) => rdata.extend_from_slice(bytes),
    }
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(&rdata);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hue_advertisement_roundtrip() {
        // The Table 5 example: Philips Hue advertising _hue._tcp with its
        // MAC fragment in the instance name.
        let message = Message::mdns_response(vec![
            Record {
                name: "_hue._tcp.local".into(),
                cache_flush: false,
                ttl: 4500,
                rdata: RData::Ptr("Philips Hue - 685F61._hue._tcp.local".into()),
            },
            Record {
                name: "Philips Hue - 685F61._hue._tcp.local".into(),
                cache_flush: true,
                ttl: 120,
                rdata: RData::Srv {
                    priority: 0,
                    weight: 0,
                    port: 443,
                    target: "hue-bridge.local".into(),
                },
            },
            Record {
                name: "hue-bridge.local".into(),
                cache_flush: true,
                ttl: 120,
                rdata: RData::A(Ipv4Addr::new(192, 168, 10, 12)),
            },
            Record {
                name: "Philips Hue - 685F61._hue._tcp.local".into(),
                cache_flush: true,
                ttl: 4500,
                rdata: RData::Txt(vec![
                    "bridgeid=001788FFFE685F61".into(),
                    "modelid=BSB002".into(),
                ]),
            },
        ]);
        let bytes = message.to_bytes();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, message);
        let text = parsed.text_content();
        assert!(text.iter().any(|s| s.contains("685F61")));
        assert!(text.iter().any(|s| s.contains("bridgeid=001788FFFE685F61")));
    }

    #[test]
    fn query_roundtrip_with_qu_bit() {
        let mut message = Message::mdns_query(&[
            ("_googlecast._tcp.local", RecordType::Ptr),
            ("_spotify-connect._tcp.local", RecordType::Ptr),
        ]);
        message.questions[0].unicast_response = true;
        let bytes = message.to_bytes();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, message);
        assert!(parsed.questions[0].unicast_response);
        assert!(!parsed.questions[1].unicast_response);
        assert!(is_query(&bytes));
        assert!(!is_query(&bytes[..11]));
        assert!(!is_query(&Message::mdns_response(Vec::new()).to_bytes()));
    }

    #[test]
    fn asks_for_a_service_or_the_meta_query() {
        let cast = |name: &str| name == "_googlecast._tcp.local";
        let query = |name: &str| {
            Message::mdns_query(&[
                ("_hue._tcp.local", RecordType::Ptr),
                (name, RecordType::Ptr),
            ])
        };
        assert!(query("_googlecast._tcp.local").asks_for(cast));
        assert!(query(SERVICES_META_QUERY).asks_for(cast));
        assert!(query(SERVICES_META_QUERY).asks_for(|_| false));
        assert!(!query("_airplay._tcp.local").asks_for(cast));
        assert!(!Message::mdns_query(&[]).asks_for(|_| true));
    }

    #[test]
    fn aaaa_and_srv() {
        let message = Message::mdns_response(vec![Record {
            name: "homepod.local".into(),
            cache_flush: true,
            ttl: 120,
            rdata: RData::Aaaa("fe80::1c2a:3bff:fe4c:5d6e".parse().unwrap()),
        }]);
        let parsed = Message::parse(&message.to_bytes()).unwrap();
        assert_eq!(parsed, message);
    }

    #[test]
    fn compression_pointer_parsed() {
        // Hand-build a response whose answer name is a pointer to offset 12.
        let mut data = vec![
            0x00, 0x00, 0x84, 0x00, // id, flags: QR|AA
            0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
        ];
        // Question: "a.local" PTR IN
        data.extend_from_slice(&[1, b'a', 5, b'l', b'o', b'c', b'a', b'l', 0]);
        data.extend_from_slice(&[0, 12, 0, 1]);
        // Answer: name = pointer to 12 ("a.local"), PTR, IN, ttl 5,
        // rdata = pointer to 12 too.
        data.extend_from_slice(&[0xc0, 12]);
        data.extend_from_slice(&[0, 12, 0, 1, 0, 0, 0, 5, 0, 2, 0xc0, 12]);
        let parsed = Message::parse(&data).unwrap();
        assert_eq!(parsed.questions[0].name, "a.local");
        assert_eq!(parsed.answers[0].name, "a.local");
        assert_eq!(parsed.answers[0].rdata, RData::Ptr("a.local".into()));
    }

    #[test]
    fn pointer_loop_rejected() {
        let mut data = vec![
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        // Question name is a pointer to itself.
        data.extend_from_slice(&[0xc0, 12, 0, 1, 0, 1]);
        assert_eq!(Message::parse(&data).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_rejected() {
        let message = Message::mdns_query(&[("x.local", RecordType::A)]);
        let bytes = message.to_bytes();
        for cut in [4, 11, bytes.len() - 1] {
            assert!(Message::parse(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn spotify_connect_zeroconf_shape() {
        // §5.1: "the .local URL of Spotify Connect devices is composed of
        // MAC address, device ID and special UUIDs".
        let message = Message::mdns_response(vec![Record {
            name: "sonos-949F3EC2E15A._spotify-connect._tcp.local".into(),
            cache_flush: true,
            ttl: 120,
            rdata: RData::Txt(vec![
                "CPath=/zc/0".into(),
                "deviceId=ab54munb9niq73i2e3oqmhmyzmxfq3mp".into(),
                "uuid=8c55dcdd-3fa9-4a26-9a58-b6e09df0971c".into(),
            ]),
        }]);
        let parsed = Message::parse(&message.to_bytes()).unwrap();
        let text = parsed.text_content();
        assert!(text.iter().any(|s| s.contains("949F3EC2E15A")));
        assert!(text
            .iter()
            .any(|s| s.contains("8c55dcdd-3fa9-4a26-9a58-b6e09df0971c")));
    }
}
