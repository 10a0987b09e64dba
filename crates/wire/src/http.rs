//! HTTP/1.1 message framing (RFC 9112 subset).
//!
//! 40% of lab devices speak plaintext HTTP locally (§4.1); §5.2 analyzes
//! User-Agent and Server banners (Chromecast OS versions, LG WebOS, the
//! Lefun/Microseven camera servers). This module parses and emits requests
//! and responses with full header access; it is also the base syntax for
//! SSDP ([`crate::ssdp`]).

use crate::{Error, Result};

/// An HTTP header (name, value). Names compare case-insensitively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub name: String,
    pub value: String,
}

/// Ordered header list with case-insensitive lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(pub Vec<Header>);

impl Headers {
    pub fn new() -> Headers {
        Headers(Vec::new())
    }

    /// Append a header.
    pub fn push(&mut self, name: &str, value: &str) {
        self.0.push(Header {
            name: name.to_string(),
            value: value.to_string(),
        });
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|h| h.name.eq_ignore_ascii_case(name))
            .map(|h| h.value.as_str())
    }

    /// Builder-style append.
    pub fn with(mut self, name: &str, value: &str) -> Headers {
        self.push(name, value);
        self
    }

    fn emit(&self, out: &mut Vec<u8>) {
        for h in &self.0 {
            out.extend_from_slice(h.name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(h.value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }
}

/// Split `data` into (start-line, headers, body). Tolerates bare-LF line
/// endings, which some IoT firmwares emit.
pub(crate) fn parse_head(data: &[u8]) -> Result<(String, Headers, Vec<u8>)> {
    let text_end = find_head_end(data).ok_or(Error::Truncated)?;
    let head = std::str::from_utf8(&data[..text_end.head_len]).map_err(|_| Error::Malformed)?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let start_line = lines.next().ok_or(Error::Malformed)?.to_string();
    if start_line.is_empty() {
        return Err(Error::Malformed);
    }
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(Error::Malformed)?;
        headers.push(name.trim(), value.trim());
    }
    Ok((start_line, headers, data[text_end.body_start..].to_vec()))
}

struct HeadEnd {
    head_len: usize,
    body_start: usize,
}

fn find_head_end(data: &[u8]) -> Option<HeadEnd> {
    // Look for CRLFCRLF first, then LFLF.
    if let Some(i) = data.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(HeadEnd {
            head_len: i,
            body_start: i + 4,
        });
    }
    if let Some(i) = data.windows(2).position(|w| w == b"\n\n") {
        return Some(HeadEnd {
            head_len: i,
            body_start: i + 2,
        });
    }
    None
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub target: String,
    pub version: String,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Request {
    /// Build a GET request.
    pub fn get(target: &str, headers: Headers) -> Request {
        Request {
            method: "GET".into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers,
            body: Vec::new(),
        }
    }

    pub fn parse(data: &[u8]) -> Result<Request> {
        let (start, headers, body) = parse_head(data)?;
        let mut parts = start.split_whitespace();
        let method = parts.next().ok_or(Error::Malformed)?.to_string();
        let target = parts.next().ok_or(Error::Malformed)?.to_string();
        let version = parts.next().unwrap_or("HTTP/1.0").to_string();
        if !version.starts_with("HTTP/") {
            return Err(Error::Malformed);
        }
        Ok(Request {
            method,
            target,
            version,
            headers,
            body,
        })
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(
            format!("{} {} {}\r\n", self.method, self.target, self.version).as_bytes(),
        );
        self.headers.emit(&mut out);
        out.extend_from_slice(&self.body);
        out
    }

    /// The User-Agent banner, if any (§5.2: only Google products and the
    /// LG TV expose one).
    pub fn user_agent(&self) -> Option<&str> {
        self.headers.get("User-Agent")
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub version: String,
    pub status: u16,
    pub reason: String,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Response {
    /// Build a `200 OK`.
    pub fn ok(headers: Headers, body: Vec<u8>) -> Response {
        Response {
            version: "HTTP/1.1".into(),
            status: 200,
            reason: "OK".into(),
            headers,
            body,
        }
    }

    pub fn parse(data: &[u8]) -> Result<Response> {
        let (start, headers, body) = parse_head(data)?;
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().ok_or(Error::Malformed)?.to_string();
        if !version.starts_with("HTTP/") {
            return Err(Error::Malformed);
        }
        let status: u16 = parts
            .next()
            .ok_or(Error::Malformed)?
            .parse()
            .map_err(|_| Error::Malformed)?;
        let reason = parts.next().unwrap_or("").to_string();
        Ok(Response {
            version,
            status,
            reason,
            headers,
            body,
        })
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(
            format!("{} {} {}\r\n", self.version, self.status, self.reason).as_bytes(),
        );
        self.headers.emit(&mut out);
        out.extend_from_slice(&self.body);
        out
    }

    /// The Server banner, if any — Nessus-style version fingerprinting
    /// hangs off this.
    pub fn server(&self) -> Option<&str> {
        self.headers.get("Server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let request = Request::get(
            "/setup/eureka_info",
            Headers::new()
                .with("Host", "192.168.10.20:8008")
                .with("User-Agent", "Chromecast OS/1.56.281627 (gtv)"),
        );
        let bytes = request.to_bytes();
        let parsed = Request::parse(&bytes).unwrap();
        assert_eq!(parsed, request);
        assert_eq!(parsed.user_agent(), Some("Chromecast OS/1.56.281627 (gtv)"));
    }

    #[test]
    fn response_roundtrip_with_body() {
        let response = Response::ok(
            Headers::new()
                .with("Server", "SheerDNS 1.0.0")
                .with("Content-Type", "text/html"),
            b"<html></html>".to_vec(),
        );
        let parsed = Response::parse(&response.to_bytes()).unwrap();
        assert_eq!(parsed, response);
        assert_eq!(parsed.server(), Some("SheerDNS 1.0.0"));
        assert_eq!(parsed.body, b"<html></html>");
    }

    #[test]
    fn case_insensitive_headers() {
        let request = Request::parse(b"GET / HTTP/1.1\r\nhOsT: example.local\r\n\r\n").unwrap();
        assert_eq!(request.headers.get("Host"), Some("example.local"));
        assert_eq!(request.headers.get("HOST"), Some("example.local"));
    }

    #[test]
    fn bare_lf_tolerated() {
        let request = Request::parse(b"GET /ping HTTP/1.1\nHost: a\n\nbody").unwrap();
        assert_eq!(request.target, "/ping");
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn malformed_rejected() {
        assert!(Request::parse(b"").is_err());
        assert!(Request::parse(b"GET\r\n\r\n").is_err());
        assert!(Request::parse(b"GET / JUNK/1.1\r\n\r\n").is_err());
        assert!(Response::parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(Request::parse(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").is_err());
    }

    #[test]
    fn status_without_reason() {
        let parsed = Response::parse(b"HTTP/1.1 204\r\n\r\n");
        // "HTTP/1.1 204" splits into 2 parts; reason defaults empty.
        let response = parsed.unwrap();
        assert_eq!(response.status, 204);
        assert_eq!(response.reason, "");
    }
}
