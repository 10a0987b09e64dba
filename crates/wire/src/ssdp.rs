//! SSDP (Simple Service Discovery Protocol, UPnP's discovery layer).
//!
//! §5.1: 32% of lab devices use SSDP; 26/30 send active `M-SEARCH` queries,
//! 7/30 send passive `NOTIFY` announcements, 9 respond. Responses and
//! announcements leak UUIDs, OS versions and UPnP implementation banners;
//! Roku issues IGD searches exploitable by malware; Fire TV announces a
//! bogus /16 LOCATION; LG TV rotates three firmware banners.

use crate::http::{parse_head, Headers};
use crate::{Error, Result};

/// The SSDP UDP port.
pub const SSDP_PORT: u16 = 1900;
/// The SSDP IPv4 multicast group.
pub const SSDP_GROUP_V4: std::net::Ipv4Addr = std::net::Ipv4Addr::new(239, 255, 255, 250);

/// Search targets with special roles in the paper.
pub mod targets {
    /// Generic all-services search (Amazon speakers).
    pub const ALL: &str = "ssdp:all";
    /// Generic root-device search (Amazon speakers).
    pub const ROOT_DEVICE: &str = "upnp:rootdevice";
    /// The Internet Gateway Device service — Roku's searches, and the
    /// Umlaut InsightCore SDK's target (§6.2).
    pub const IGD: &str = "urn:schemas-upnp-org:device:InternetGatewayDevice:1";
    /// Chromecast/Google-specific search.
    pub const DIAL: &str = "urn:dial-multiscreen-org:service:dial:1";
}

/// An SSDP message: one of the three HTTP-over-UDP forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Active discovery: `M-SEARCH * HTTP/1.1`.
    MSearch {
        /// `ST` — search target.
        search_target: String,
        /// `MX` — maximum response delay, seconds.
        max_wait: u8,
        headers: Headers,
    },
    /// Passive announcement: `NOTIFY * HTTP/1.1`.
    Notify {
        /// `NT` — notification type.
        notification_type: String,
        /// `USN` — unique service name, usually `uuid:...::<nt>`.
        unique_service_name: String,
        /// `LOCATION` — URL of the device description XML.
        location: Option<String>,
        /// `SERVER` — OS/UPnP/product banner.
        server: Option<String>,
        headers: Headers,
    },
    /// Unicast answer to an M-SEARCH: `HTTP/1.1 200 OK`.
    Response {
        /// `ST` — echoed search target.
        search_target: String,
        /// `USN` — unique service name.
        unique_service_name: String,
        location: Option<String>,
        server: Option<String>,
        headers: Headers,
    },
}

impl Message {
    /// Build a standard M-SEARCH.
    pub fn msearch(search_target: &str, max_wait: u8) -> Message {
        Message::MSearch {
            search_target: search_target.to_string(),
            max_wait,
            headers: Headers::new(),
        }
    }

    /// Build a NOTIFY `ssdp:alive` announcement.
    pub fn notify_alive(
        notification_type: &str,
        uuid: &str,
        location: Option<&str>,
        server: Option<&str>,
    ) -> Message {
        Message::Notify {
            notification_type: notification_type.to_string(),
            unique_service_name: format!("uuid:{uuid}::{notification_type}"),
            location: location.map(str::to_string),
            server: server.map(str::to_string),
            headers: Headers::new().with("NTS", "ssdp:alive"),
        }
    }

    /// Build a 200 OK response to an M-SEARCH.
    pub fn response(
        search_target: &str,
        uuid: &str,
        location: Option<&str>,
        server: Option<&str>,
    ) -> Message {
        Message::Response {
            search_target: search_target.to_string(),
            unique_service_name: format!("uuid:{uuid}::{search_target}"),
            location: location.map(str::to_string),
            server: server.map(str::to_string),
            headers: Headers::new(),
        }
    }

    /// Parse a UDP payload as SSDP.
    pub fn parse(data: &[u8]) -> Result<Message> {
        let (start, headers, _body) = parse_head(data)?;
        if start.starts_with("M-SEARCH") {
            let search_target = headers.get("ST").ok_or(Error::Malformed)?.to_string();
            let max_wait = headers
                .get("MX")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(1);
            Ok(Message::MSearch {
                search_target,
                max_wait,
                headers: strip(headers, &["ST", "MX", "HOST", "MAN"]),
            })
        } else if start.starts_with("NOTIFY") {
            Ok(Message::Notify {
                notification_type: headers.get("NT").ok_or(Error::Malformed)?.to_string(),
                unique_service_name: headers.get("USN").unwrap_or("").to_string(),
                location: headers.get("LOCATION").map(str::to_string),
                server: headers.get("SERVER").map(str::to_string),
                headers: strip(headers, &["NT", "USN", "LOCATION", "SERVER", "HOST"]),
            })
        } else if start.starts_with("HTTP/") {
            if !start.contains("200") {
                return Err(Error::Unsupported);
            }
            Ok(Message::Response {
                search_target: headers.get("ST").unwrap_or("").to_string(),
                unique_service_name: headers.get("USN").unwrap_or("").to_string(),
                location: headers.get("LOCATION").map(str::to_string),
                server: headers.get("SERVER").map(str::to_string),
                headers: strip(headers, &["ST", "USN", "LOCATION", "SERVER"]),
            })
        } else {
            Err(Error::Malformed)
        }
    }

    /// Serialize to a UDP payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            Message::MSearch {
                search_target,
                max_wait,
                headers,
            } => {
                out.push_str("M-SEARCH * HTTP/1.1\r\n");
                out.push_str("HOST: 239.255.255.250:1900\r\n");
                out.push_str("MAN: \"ssdp:discover\"\r\n");
                out.push_str(&format!("MX: {max_wait}\r\n"));
                out.push_str(&format!("ST: {search_target}\r\n"));
                for h in &headers.0 {
                    out.push_str(&format!("{}: {}\r\n", h.name, h.value));
                }
            }
            Message::Notify {
                notification_type,
                unique_service_name,
                location,
                server,
                headers,
            } => {
                out.push_str("NOTIFY * HTTP/1.1\r\n");
                out.push_str("HOST: 239.255.255.250:1900\r\n");
                out.push_str(&format!("NT: {notification_type}\r\n"));
                out.push_str(&format!("USN: {unique_service_name}\r\n"));
                if let Some(location) = location {
                    out.push_str(&format!("LOCATION: {location}\r\n"));
                }
                if let Some(server) = server {
                    out.push_str(&format!("SERVER: {server}\r\n"));
                }
                for h in &headers.0 {
                    out.push_str(&format!("{}: {}\r\n", h.name, h.value));
                }
            }
            Message::Response {
                search_target,
                unique_service_name,
                location,
                server,
                headers,
            } => {
                out.push_str("HTTP/1.1 200 OK\r\n");
                out.push_str("CACHE-CONTROL: max-age=1800\r\n");
                out.push_str("EXT:\r\n");
                out.push_str(&format!("ST: {search_target}\r\n"));
                out.push_str(&format!("USN: {unique_service_name}\r\n"));
                if let Some(location) = location {
                    out.push_str(&format!("LOCATION: {location}\r\n"));
                }
                if let Some(server) = server {
                    out.push_str(&format!("SERVER: {server}\r\n"));
                }
                for h in &headers.0 {
                    out.push_str(&format!("{}: {}\r\n", h.name, h.value));
                }
            }
        }
        out.push_str("\r\n");
        out.into_bytes()
    }

    /// All textual content — the surface scanned for identifiers.
    pub fn text_content(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Message::MSearch {
                search_target,
                headers,
                ..
            } => {
                out.push(search_target.clone());
                out.extend(headers.0.iter().map(|h| h.value.clone()));
            }
            Message::Notify {
                notification_type,
                unique_service_name,
                location,
                server,
                headers,
            }
            | Message::Response {
                search_target: notification_type,
                unique_service_name,
                location,
                server,
                headers,
            } => {
                out.push(notification_type.clone());
                out.push(unique_service_name.clone());
                out.extend(location.iter().cloned());
                out.extend(server.iter().cloned());
                out.extend(headers.0.iter().map(|h| h.value.clone()));
            }
        }
        out
    }
}

fn strip(headers: Headers, remove: &[&str]) -> Headers {
    Headers(
        headers
            .0
            .into_iter()
            .filter(|h| !remove.iter().any(|r| h.name.eq_ignore_ascii_case(r)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msearch_roundtrip() {
        let message = Message::msearch(targets::ALL, 3);
        let bytes = message.to_bytes();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("M-SEARCH * HTTP/1.1\r\n"));
        assert!(text.contains("ST: ssdp:all"));
        let parsed = Message::parse(&bytes).unwrap();
        match parsed {
            Message::MSearch {
                search_target,
                max_wait,
                ..
            } => {
                assert_eq!(search_target, "ssdp:all");
                assert_eq!(max_wait, 3);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn notify_roundtrip() {
        let message = Message::notify_alive(
            "upnp:rootdevice",
            "device_3_0-AMC020SC43PJ749D66",
            Some("http://192.168.10.31:49152/rootDesc.xml"),
            Some("Linux, UPnP/1.0, Private UPnP SDK"),
        );
        let parsed = Message::parse(&message.to_bytes()).unwrap();
        match &parsed {
            Message::Notify {
                unique_service_name,
                server,
                ..
            } => {
                assert!(unique_service_name.contains("AMC020SC43PJ749D66"));
                assert_eq!(server.as_deref(), Some("Linux, UPnP/1.0, Private UPnP SDK"));
            }
            _ => panic!("wrong variant"),
        }
        assert!(parsed.text_content().iter().any(|s| s.contains("UPnP/1.0")));
    }

    #[test]
    fn response_roundtrip() {
        // The Amcrest camera example from Table 5.
        let message = Message::response(
            "upnp:rootdevice",
            "device_3_0-AMC020SC43PJ749D66",
            Some("http://192.168.10.31:49152/rootDesc.xml"),
            Some("Linux, UPnP/1.0, Private UPnP SDK"),
        );
        let parsed = Message::parse(&message.to_bytes()).unwrap();
        match parsed {
            Message::Response {
                search_target,
                unique_service_name,
                ..
            } => {
                assert_eq!(search_target, "upnp:rootdevice");
                assert!(unique_service_name.starts_with("uuid:"));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn igd_search_target() {
        let message = Message::msearch(targets::IGD, 2);
        let parsed = Message::parse(&message.to_bytes()).unwrap();
        match parsed {
            Message::MSearch { search_target, .. } => {
                assert!(search_target.contains("InternetGatewayDevice"))
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn missing_st_malformed() {
        let bytes = b"M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n\r\n";
        assert_eq!(Message::parse(bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn non_200_unsupported() {
        let bytes = b"HTTP/1.1 404 Not Found\r\n\r\n";
        assert_eq!(Message::parse(bytes).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Message::parse(b"GARBAGE\r\n\r\n").is_err());
        assert!(Message::parse(b"").is_err());
    }
}
