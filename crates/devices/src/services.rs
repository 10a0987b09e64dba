//! Open-port service models: what a device answers when something connects
//! to one of its listening ports. This is the attack surface the §4.2
//! active scans and the §5.2 Nessus findings exercise.

use iotlan_wire::http::{Headers, Request, Response};
use iotlan_wire::tls::{CertificateInfo, Handshake, Record, Version as TlsVersion};
use iotlan_wire::{dns, tplink};

/// A listening port plus the service behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePort {
    pub port: u16,
    pub service: ServiceKind,
}

impl ServicePort {
    pub fn new(port: u16, service: ServiceKind) -> ServicePort {
        ServicePort { port, service }
    }
}

/// Service behaviours observed in the testbed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceKind {
    /// Plaintext HTTP server.
    Http {
        /// Server banner (`Server:` header), None = no banner.
        server_banner: Option<String>,
        /// Body served at `/` — may leak configuration (Lefun backups).
        index_body: String,
        /// Extra paths with canned responses, e.g. `/backup.tar` on the
        /// Lefun camera or the ONVIF snapshot endpoint on the Microseven.
        extra_paths: Vec<(String, String)>,
    },
    /// TLS service; answers a ClientHello with ServerHello + certificate.
    Tls {
        version: TlsVersion,
        /// The cipher suite chosen. Google's 8009 picks the SWEET32 3DES
        /// suite in our model to carry the small-key finding.
        cipher_suite: u16,
        certificate: CertificateInfo,
        /// TLS 1.3 encrypts certificates in the handshake (Apple, §5.2) —
        /// when set, the certificate is NOT observable on the wire.
        encrypted_certificates: bool,
    },
    /// Telnet server with a login banner.
    Telnet { banner: String },
    /// A DNS server (HomePod: SheerDNS 1.0.0; WeMo) — cache-snooping
    /// susceptible per §5.2.
    Dns {
        software: String,
        /// Names "recently resolved" — what cache snooping reveals.
        cached_names: Vec<String>,
        /// Answers hostname/PTR metadata queries with internal details.
        reveals_hostname: bool,
    },
    /// TP-Link Smart Home protocol over TCP (unauthenticated control).
    TplinkShp,
    /// RTSP camera endpoint.
    Rtsp { server_banner: String },
    /// An open port with an unknown/opaque protocol (Echo's 55442 etc.).
    Opaque { label: String },
}

impl ServiceKind {
    pub fn is_http(&self) -> bool {
        matches!(self, ServiceKind::Http { .. })
    }

    pub fn is_tls(&self) -> bool {
        matches!(self, ServiceKind::Tls { .. })
    }

    /// The label an *accurate* classifier would give this service.
    pub fn truth_label(&self) -> &'static str {
        match self {
            ServiceKind::Http { .. } => "HTTP",
            ServiceKind::Tls { .. } => "TLS",
            ServiceKind::Telnet { .. } => "TELNET",
            ServiceKind::Dns { .. } => "DNS",
            ServiceKind::TplinkShp => "TPLINK_SHP",
            ServiceKind::Rtsp { .. } => "HTTP.RTSP",
            ServiceKind::Opaque { .. } => "UNKNOWN",
        }
    }

    /// Produce the service's response to the first data a client sends
    /// after connecting. `None` means the service stays silent.
    pub fn respond(
        &self,
        request_data: &[u8],
        sysinfo: Option<&tplink::Message>,
    ) -> Option<Vec<u8>> {
        match self {
            ServiceKind::Http {
                server_banner,
                index_body,
                extra_paths,
            } => {
                let request = Request::parse(request_data).ok()?;
                let mut headers = Headers::new();
                if let Some(banner) = server_banner {
                    headers.push("Server", banner);
                }
                headers.push("Content-Type", "text/html");
                let body = if request.target == "/" {
                    Some(index_body.clone())
                } else {
                    extra_paths
                        .iter()
                        .find(|(path, _)| *path == request.target)
                        .map(|(_, body)| body.clone())
                };
                let response = match body {
                    Some(body) => Response::ok(headers, body.into_bytes()),
                    None => Response {
                        version: "HTTP/1.1".into(),
                        status: 404,
                        reason: "Not Found".into(),
                        headers,
                        body: Vec::new(),
                    },
                };
                Some(response.to_bytes())
            }
            ServiceKind::Tls {
                version,
                cipher_suite,
                certificate,
                encrypted_certificates,
            } => {
                // Expect a ClientHello record.
                let (record, _) = Record::parse(request_data).ok()?;
                let hello = Handshake::parse(&record.fragment).ok()?;
                if !matches!(hello, Handshake::ClientHello { .. }) {
                    return None;
                }
                let mut out = Vec::new();
                let server_hello = Handshake::ServerHello {
                    version: if *version == TlsVersion::Tls13 {
                        TlsVersion::Tls12 // legacy field; real version below
                    } else {
                        *version
                    },
                    selected_version: if *version == TlsVersion::Tls13 {
                        Some(TlsVersion::Tls13)
                    } else {
                        None
                    },
                    cipher_suite: *cipher_suite,
                };
                out.extend_from_slice(&server_hello.into_record(TlsVersion::Tls12).to_bytes());
                if *encrypted_certificates {
                    // TLS 1.3: the certificate travels as opaque encrypted
                    // application-style handshake bytes.
                    let record = Record {
                        content_type: iotlan_wire::tls::ContentType::ApplicationData,
                        version: TlsVersion::Tls12,
                        fragment: vec![0x17; 256],
                    };
                    out.extend_from_slice(&record.to_bytes());
                } else {
                    let cert = Handshake::Certificate {
                        chain: vec![certificate.clone()],
                    };
                    out.extend_from_slice(&cert.into_record(TlsVersion::Tls12).to_bytes());
                }
                Some(out)
            }
            ServiceKind::Telnet { banner } => Some(format!("{banner}\r\nlogin: ").into_bytes()),
            ServiceKind::Dns {
                software,
                cached_names,
                reveals_hostname,
            } => {
                // Answer a DNS query; cache-snooping questions (RD=0 checks
                // are simplified to name membership) get a positive answer
                // iff the name is "cached".
                let query = dns::Message::parse(request_data).ok()?;
                let question = query.questions.first()?;
                let mut answers = Vec::new();
                if cached_names.iter().any(|n| n == &question.name) {
                    answers.push(dns::Record {
                        name: question.name.clone(),
                        cache_flush: false,
                        ttl: 60,
                        rdata: dns::RData::A(std::net::Ipv4Addr::new(203, 0, 113, 1)),
                    });
                }
                if *reveals_hostname && question.name.ends_with(".internal") {
                    answers.push(dns::Record {
                        name: question.name.clone(),
                        cache_flush: false,
                        ttl: 60,
                        rdata: dns::RData::Ptr(format!("resolver.{software}.local")),
                    });
                }
                let mut response = dns::Message::mdns_response(answers);
                response.id = query.id;
                response.questions = query.questions.clone();
                Some(response.to_bytes())
            }
            ServiceKind::TplinkShp => {
                let message = tplink::Message::from_tcp_bytes(request_data).ok()?;
                // Any sysinfo query gets the configured sysinfo; any control
                // command (set_relay_state) is obeyed without auth and
                // echoes err_code 0 — the §5.1 no-authentication finding.
                if message.body.get("system")?.get("get_sysinfo").is_some() {
                    sysinfo.map(|info| info.to_tcp_bytes())
                } else {
                    Some(
                        tplink::Message {
                            body: iotlan_util::json!({"system":{"set_relay_state":{"err_code":0}}}),
                        }
                        .to_tcp_bytes(),
                    )
                }
            }
            ServiceKind::Rtsp { server_banner } => Some(
                format!("RTSP/1.0 200 OK\r\nCSeq: 1\r\nServer: {server_banner}\r\n\r\n")
                    .into_bytes(),
            ),
            ServiceKind::Opaque { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_service_serves_paths() {
        let service = ServiceKind::Http {
            server_banner: Some("Lefun-httpd/1.0".into()),
            index_body: "<html>camera</html>".into(),
            extra_paths: vec![(
                "/backup/config.tar".into(),
                "admin:admin\nwifi_ssid=HomeNet".into(),
            )],
        };
        let request = Request::get("/backup/config.tar", Headers::new()).to_bytes();
        let response_bytes = service.respond(&request, None).unwrap();
        let response = Response::parse(&response_bytes).unwrap();
        assert_eq!(response.status, 200);
        assert!(String::from_utf8_lossy(&response.body).contains("wifi_ssid"));
        assert_eq!(response.server(), Some("Lefun-httpd/1.0"));

        let request = Request::get("/nonexistent", Headers::new()).to_bytes();
        let response = Response::parse(&service.respond(&request, None).unwrap()).unwrap();
        assert_eq!(response.status, 404);

        assert!(service.respond(b"\x16\x03\x03", None).is_none());
    }

    #[test]
    fn tls_service_presents_certificate() {
        let cert = CertificateInfo {
            issuer_cn: "192.168.10.30".into(),
            subject_cn: "192.168.10.30".into(),
            validity_days: 90,
            key_bits: 2048,
            self_signed: true,
        };
        let service = ServiceKind::Tls {
            version: TlsVersion::Tls12,
            cipher_suite: 0xc02f,
            certificate: cert.clone(),
            encrypted_certificates: false,
        };
        let hello = Handshake::ClientHello {
            version: TlsVersion::Tls12,
            supported_versions: vec![],
            server_name: None,
            cipher_suites: vec![0xc02f],
        }
        .into_record(TlsVersion::Tls12)
        .to_bytes();
        let response = service.respond(&hello, None).unwrap();
        let (record1, used) = Record::parse(&response).unwrap();
        let server_hello = Handshake::parse(&record1.fragment).unwrap();
        assert!(matches!(server_hello, Handshake::ServerHello { .. }));
        let (record2, _) = Record::parse(&response[used..]).unwrap();
        match Handshake::parse(&record2.fragment).unwrap() {
            Handshake::Certificate { chain } => assert_eq!(chain[0], cert),
            _ => panic!("expected certificate"),
        }
    }

    #[test]
    fn tls13_hides_certificate() {
        let service = ServiceKind::Tls {
            version: TlsVersion::Tls13,
            cipher_suite: 0x1301,
            certificate: CertificateInfo {
                issuer_cn: "apple".into(),
                subject_cn: "homepod".into(),
                validity_days: 365,
                key_bits: 256,
                self_signed: false,
            },
            encrypted_certificates: true,
        };
        let hello = Handshake::ClientHello {
            version: TlsVersion::Tls12,
            supported_versions: vec![TlsVersion::Tls13],
            server_name: None,
            cipher_suites: vec![0x1301],
        }
        .into_record(TlsVersion::Tls12)
        .to_bytes();
        let response = service.respond(&hello, None).unwrap();
        let (record1, used) = Record::parse(&response).unwrap();
        match Handshake::parse(&record1.fragment).unwrap() {
            Handshake::ServerHello {
                selected_version, ..
            } => assert_eq!(selected_version, Some(TlsVersion::Tls13)),
            _ => panic!("expected ServerHello"),
        }
        // No Certificate handshake is visible — only opaque bytes.
        let (record2, _) = Record::parse(&response[used..]).unwrap();
        assert_eq!(
            record2.content_type,
            iotlan_wire::tls::ContentType::ApplicationData
        );
    }

    #[test]
    fn dns_cache_snooping() {
        let service = ServiceKind::Dns {
            software: "SheerDNS 1.0.0".into(),
            cached_names: vec!["time.apple.com".into()],
            reveals_hostname: true,
        };
        let query = dns::Message::mdns_query(&[("time.apple.com", dns::RecordType::A)]);
        let mut query = query;
        query.id = 1;
        let response =
            dns::Message::parse(&service.respond(&query.to_bytes(), None).unwrap()).unwrap();
        assert_eq!(response.answers.len(), 1);

        let miss = dns::Message::mdns_query(&[("never-visited.example", dns::RecordType::A)]);
        let response =
            dns::Message::parse(&service.respond(&miss.to_bytes(), None).unwrap()).unwrap();
        assert!(response.answers.is_empty());
    }

    #[test]
    fn tplink_tcp_control_unauthenticated() {
        let sysinfo = tplink::Message::sysinfo_response(
            "TP-Link Plug",
            "Smart Plug",
            "DEV",
            "HW",
            "OEM",
            42.33,
            -71.08,
            0,
        );
        let service = ServiceKind::TplinkShp;
        // Control without any authentication succeeds.
        let command = tplink::Message::set_relay_state(true).to_tcp_bytes();
        let response_bytes = service.respond(&command, Some(&sysinfo)).unwrap();
        let response = tplink::Message::from_tcp_bytes(&response_bytes).unwrap();
        assert_eq!(
            response.body["system"]["set_relay_state"]["err_code"],
            iotlan_util::json!(0)
        );
        // Sysinfo query returns the configured (geolocated) info.
        let query = tplink::Message::get_sysinfo().to_tcp_bytes();
        let response_bytes = service.respond(&query, Some(&sysinfo)).unwrap();
        let response = tplink::Message::from_tcp_bytes(&response_bytes).unwrap();
        assert!(response.geolocation().is_some());
    }

    #[test]
    fn telnet_and_rtsp_banners() {
        let telnet = ServiceKind::Telnet {
            banner: "BusyBox v1.19.4".into(),
        };
        let out = telnet.respond(b"\r\n", None).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("BusyBox"));

        let rtsp = ServiceKind::Rtsp {
            server_banner: "Hipcam RealServer/V1.0".into(),
        };
        let out = rtsp
            .respond(b"OPTIONS rtsp://x RTSP/1.0\r\n\r\n", None)
            .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("Hipcam"));
    }

    #[test]
    fn opaque_stays_silent() {
        let service = ServiceKind::Opaque {
            label: "amazon-55442".into(),
        };
        assert!(service.respond(b"anything", None).is_none());
        assert_eq!(service.truth_label(), "UNKNOWN");
    }
}
