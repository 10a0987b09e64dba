//! # iotlan-honeypot
//!
//! Protocol honeypots, per §3.1 of the paper: "we deploy various honeypots
//! within the same network as our IoT devices. These honeypots capture
//! network scans from IoT devices and issue authentic responses … Given our
//! control over these responses, the honeypots give us the ability to track
//! how information propagates through the IoT devices."
//!
//! The honeypot node speaks SSDP, mDNS, UPnP-description-over-HTTP, plain
//! HTTP and Telnet. Every response is seeded with **canary identifiers**
//! (a UUID and a possessive display name that exist nowhere else), and
//! [`CanaryTracker`] finds those canaries again in captures and exfiltration
//! logs — positive proof that a device or app harvested the honeypot's
//! discovery data and passed it on.

use iotlan_netsim::stack::{self, Content, Dissected, Endpoint};
use iotlan_netsim::{Context, Interest, Node, SimDuration, SimTime};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::http::{Headers, Request, Response};
use iotlan_wire::{arp, dns, icmpv4, ssdp, tcp};
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One observed interaction with the honeypot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interaction {
    pub time: SimTime,
    pub src_mac: EthernetAddress,
    pub src_ip: Option<Ipv4Addr>,
    pub protocol: HoneypotProtocol,
    /// Free-form detail (search target, requested path, queried name…).
    pub detail: String,
}

/// The protocol surface an interaction arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HoneypotProtocol {
    Arp,
    Icmp,
    Mdns,
    Ssdp,
    Http,
    Telnet,
    TcpProbe,
    UdpProbe,
}

/// The honeypot node.
pub struct Honeypot {
    endpoint: Endpoint,
    /// Canary UUID embedded in every SSDP/UPnP response. Fixed at
    /// construction: the discovery replies built from it are kept.
    pub canary_uuid: String,
    /// Canary display name embedded in mDNS/UPnP responses. Fixed at
    /// construction, like the UUID.
    pub canary_name: String,
    /// Everything that ever talked to us.
    pub interactions: Vec<Interaction>,
    /// SSDP reply payloads keyed by the search target they echo, and mDNS
    /// decoy payloads keyed by the first queried name: each is built on
    /// the first query that asks for it, since its bytes depend on nothing
    /// else.
    ssdp_replies: HashMap<String, Vec<u8>>,
    mdns_replies: HashMap<String, Vec<u8>>,
}

impl Honeypot {
    pub fn new(mac: EthernetAddress, ip: Ipv4Addr) -> Honeypot {
        let suffix = format!("{:02x}{:02x}", mac.0[4], mac.0[5]);
        Honeypot {
            endpoint: Endpoint { mac, ip },
            canary_uuid: format!("ca4a47ee-{suffix}-4dec-a000-feedfacecafe"),
            canary_name: format!("Canary's Decoy Speaker {suffix}"),
            interactions: Vec::new(),
            ssdp_replies: HashMap::new(),
            mdns_replies: HashMap::new(),
        }
    }

    /// The honeypot's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    fn log(
        &mut self,
        ctx: &Context,
        src_mac: EthernetAddress,
        src_ip: Option<Ipv4Addr>,
        protocol: HoneypotProtocol,
        detail: impl Into<String>,
    ) {
        iotlan_telemetry::counter!("honeypot.interactions").incr();
        self.interactions.push(Interaction {
            time: ctx.now(),
            src_mac,
            src_ip,
            protocol,
            detail: detail.into(),
        });
    }

    /// Count one outbound deception reply (SSDP/mDNS response, SYN-ACK,
    /// HTTP page, telnet banner, ARP reply, ICMP echo reply).
    fn note_response(&self) {
        iotlan_telemetry::counter!("honeypot.responses").incr();
    }

    /// The UPnP description XML served at the canary LOCATION — the payload
    /// AppDynamics-style SDKs harvest.
    pub fn upnp_description(&self) -> String {
        format!(
            "<?xml version=\"1.0\"?><root><device>\
             <friendlyName>{}</friendlyName>\
             <UDN>uuid:{}</UDN>\
             <serialNumber>{}</serialNumber>\
             </device></root>",
            self.canary_name, self.canary_uuid, self.endpoint.mac
        )
    }

    /// Distinct scanners seen on a given protocol.
    pub fn scanners(&self, protocol: HoneypotProtocol) -> Vec<EthernetAddress> {
        let mut macs: Vec<EthernetAddress> = self
            .interactions
            .iter()
            .filter(|i| i.protocol == protocol)
            .map(|i| i.src_mac)
            .collect();
        macs.sort();
        macs.dedup();
        macs
    }

    /// Run manifest for a completed honeypot campaign: interaction totals
    /// per protocol surface, the distinct-scanner census, and a content
    /// digest of the full interaction log (ordered, so two campaigns match
    /// iff every interaction matches).
    pub fn campaign_manifest(&self) -> iotlan_telemetry::Manifest {
        use std::fmt::Write as _;
        let mut manifest = iotlan_telemetry::Manifest::new("honeypot_campaign");
        manifest.set("interactions", self.interactions.len());
        const SURFACES: [(HoneypotProtocol, &str); 8] = [
            (HoneypotProtocol::Arp, "arp"),
            (HoneypotProtocol::Icmp, "icmp"),
            (HoneypotProtocol::Mdns, "mdns"),
            (HoneypotProtocol::Ssdp, "ssdp"),
            (HoneypotProtocol::Http, "http"),
            (HoneypotProtocol::Telnet, "telnet"),
            (HoneypotProtocol::TcpProbe, "tcp_probe"),
            (HoneypotProtocol::UdpProbe, "udp_probe"),
        ];
        let mut all_scanners: Vec<EthernetAddress> = Vec::new();
        for (protocol, name) in SURFACES {
            let count = self
                .interactions
                .iter()
                .filter(|i| i.protocol == protocol)
                .count();
            manifest.set(&format!("interactions.{name}"), count);
            let scanners = self.scanners(protocol);
            manifest.set(&format!("scanners.{name}"), scanners.len());
            all_scanners.extend(scanners);
        }
        all_scanners.sort();
        all_scanners.dedup();
        manifest.set("scanners", all_scanners.len());
        let mut log = String::new();
        for i in &self.interactions {
            let _ = writeln!(
                log,
                "{} {} {:?} {:?} {}",
                i.time.as_micros(),
                i.src_mac,
                i.src_ip,
                i.protocol,
                i.detail,
            );
        }
        manifest.digest("interactions.log", log.as_bytes());
        manifest.attach_metrics();
        manifest.attach_host_info();
        manifest
    }

    /// The SSDP response payload echoing `target`, pointing at the canary
    /// description.
    fn ssdp_reply(&self, target: &str) -> Vec<u8> {
        let location = format!("http://{}:80/rootDesc.xml", self.endpoint.ip);
        ssdp::Message::response(
            target,
            &self.canary_uuid,
            Some(&location),
            Some("Linux/4.4 UPnP/1.0 CanaryPot/1.0"),
        )
        .to_bytes()
    }

    /// The mDNS response payload advertising the canary instance under the
    /// queried `service_type`: an authentic-looking decoy.
    fn mdns_decoy(&self, service_type: &str) -> Vec<u8> {
        let instance = format!("{}.{}", self.canary_name, service_type);
        dns::Message::mdns_response(vec![
            dns::Record {
                name: service_type.to_owned(),
                cache_flush: false,
                ttl: 4500,
                rdata: dns::RData::Ptr(instance.clone()),
            },
            dns::Record {
                name: instance,
                cache_flush: true,
                ttl: 4500,
                rdata: dns::RData::Txt(vec![
                    format!("uuid={}", self.canary_uuid),
                    format!("fn={}", self.canary_name),
                ]),
            },
        ])
        .to_bytes()
    }

    fn handle_udp(
        &mut self,
        ctx: &mut Context,
        frame: &Dissected<'_>,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: &[u8],
    ) {
        let src_mac = frame.eth.src_addr;
        let src = Endpoint {
            mac: src_mac,
            ip: src_ip,
        };
        match dport {
            ssdp::SSDP_PORT => {
                if let Some(ssdp::Message::MSearch { search_target, .. }) = frame.ssdp() {
                    self.log(
                        ctx,
                        src_mac,
                        Some(src_ip),
                        HoneypotProtocol::Ssdp,
                        search_target.clone(),
                    );
                    let echoed = if search_target == ssdp::targets::ALL {
                        ssdp::targets::ROOT_DEVICE
                    } else {
                        search_target
                    };
                    if !self.ssdp_replies.contains_key(echoed) {
                        let reply = self.ssdp_reply(echoed);
                        self.ssdp_replies.insert(echoed.to_owned(), reply);
                    }
                    self.note_response();
                    ctx.send_frame_delayed(
                        SimDuration::from_millis(120),
                        stack::udp_unicast(
                            self.endpoint,
                            src,
                            ssdp::SSDP_PORT,
                            sport,
                            &self.ssdp_replies[echoed],
                        ),
                    );
                }
            }
            dns::MDNS_PORT => {
                if !dns::is_query(payload) {
                    return;
                }
                if let Some(message) = frame.dns() {
                    let Some(first) = message.questions.first() else {
                        return;
                    };
                    let names: Vec<&str> =
                        message.questions.iter().map(|q| q.name.as_str()).collect();
                    self.log(
                        ctx,
                        src_mac,
                        Some(src_ip),
                        HoneypotProtocol::Mdns,
                        names.join(","),
                    );
                    if !self.mdns_replies.contains_key(&first.name) {
                        let reply = self.mdns_decoy(&first.name);
                        self.mdns_replies.insert(first.name.clone(), reply);
                    }
                    self.note_response();
                    ctx.send_frame_delayed(
                        SimDuration::from_millis(25),
                        stack::udp_multicast(
                            self.endpoint,
                            dns::MDNS_GROUP_V4,
                            dns::MDNS_PORT,
                            dns::MDNS_PORT,
                            &self.mdns_replies[&first.name],
                        ),
                    );
                }
            }
            _ if dst_ip == self.endpoint.ip => {
                self.log(
                    ctx,
                    src_mac,
                    Some(src_ip),
                    HoneypotProtocol::UdpProbe,
                    format!("udp:{dport}"),
                );
            }
            _ => {}
        }
    }

    fn handle_tcp(
        &mut self,
        ctx: &mut Context,
        src_mac: EthernetAddress,
        src_ip: Ipv4Addr,
        repr: tcp::Repr,
        payload: &[u8],
    ) {
        let src = Endpoint {
            mac: src_mac,
            ip: src_ip,
        };
        let is_syn = repr.flags.contains(tcp::Flags::SYN) && !repr.flags.contains(tcp::Flags::ACK);
        if is_syn {
            // Every port is "open" — that is the point of a honeypot.
            self.log(
                ctx,
                src_mac,
                Some(src_ip),
                HoneypotProtocol::TcpProbe,
                format!("syn:{}", repr.dst_port),
            );
            let reply = tcp::Repr::syn_ack(
                repr.dst_port,
                repr.src_port,
                0x7000,
                repr.seq_number.wrapping_add(1),
            );
            self.note_response();
            ctx.send_frame(stack::tcp_segment(self.endpoint, src, &reply, &[]));
            return;
        }
        if payload.is_empty() {
            return;
        }
        match repr.dst_port {
            80 | 8080 => {
                if let Ok(request) = Request::parse(payload) {
                    self.log(
                        ctx,
                        src_mac,
                        Some(src_ip),
                        HoneypotProtocol::Http,
                        request.target.clone(),
                    );
                    let body = if request.target.contains("rootDesc") {
                        self.upnp_description()
                    } else {
                        format!("<html>{}</html>", self.canary_name)
                    };
                    let response = Response::ok(
                        Headers::new().with("Server", "CanaryPot/1.0"),
                        body.into_bytes(),
                    )
                    .to_bytes();
                    let reply = tcp::Repr::data(
                        repr.dst_port,
                        repr.src_port,
                        repr.ack_number,
                        repr.seq_number.wrapping_add(payload.len() as u32),
                        response.len(),
                    );
                    self.note_response();
                    ctx.send_frame(stack::tcp_segment(self.endpoint, src, &reply, &response));
                }
            }
            23 => {
                self.log(
                    ctx,
                    src_mac,
                    Some(src_ip),
                    HoneypotProtocol::Telnet,
                    String::from_utf8_lossy(payload).into_owned(),
                );
                let banner = b"BusyBox v1.19.4 built-in shell (ash)\r\nlogin: ";
                let reply = tcp::Repr::data(
                    repr.dst_port,
                    repr.src_port,
                    repr.ack_number,
                    repr.seq_number.wrapping_add(payload.len() as u32),
                    banner.len(),
                );
                self.note_response();
                ctx.send_frame(stack::tcp_segment(self.endpoint, src, &reply, banner));
            }
            _ => {
                self.log(
                    ctx,
                    src_mac,
                    Some(src_ip),
                    HoneypotProtocol::TcpProbe,
                    format!("data:{}", repr.dst_port),
                );
            }
        }
    }
}

impl Node for Honeypot {
    fn mac(&self) -> EthernetAddress {
        self.endpoint.mac
    }

    /// SSDP, mDNS queries, and what is addressed to the honeypot.
    fn interest(&self) -> Interest {
        Interest {
            udp_ports: vec![ssdp::SSDP_PORT],
            mdns_queries: true,
            ..Interest::addressed_to(self.endpoint.ip)
        }
    }

    fn on_frame(&mut self, ctx: &mut Context, frame: &Dissected<'_>) {
        let src_mac = frame.eth.src_addr;
        match frame.content {
            Content::Arp(repr)
                if repr.operation == arp::Operation::Request
                    && repr.target_protocol_addr == self.endpoint.ip =>
            {
                self.log(
                    ctx,
                    src_mac,
                    Some(repr.sender_protocol_addr),
                    HoneypotProtocol::Arp,
                    "arp-request",
                );
                let reply = arp::Repr::reply(
                    self.endpoint.mac,
                    self.endpoint.ip,
                    repr.sender_hardware_addr,
                    repr.sender_protocol_addr,
                );
                self.note_response();
                ctx.send_frame(stack::arp_frame(&reply));
            }
            Content::IcmpV4 {
                src,
                dst,
                repr:
                    icmpv4::Repr {
                        message: icmpv4::Message::EchoRequest { ident, seq },
                        ..
                    },
            } if dst == self.endpoint.ip => {
                self.log(ctx, src_mac, Some(src), HoneypotProtocol::Icmp, "echo");
                let reply = icmpv4::Repr {
                    message: icmpv4::Message::EchoReply { ident, seq },
                    payload_len: 0,
                };
                let frame = stack::icmpv4_frame(
                    self.endpoint,
                    Endpoint {
                        mac: src_mac,
                        ip: src,
                    },
                    &reply,
                    &[],
                );
                self.note_response();
                ctx.send_frame(frame);
            }
            Content::UdpV4 {
                src,
                dst,
                sport,
                dport,
                payload,
            } => self.handle_udp(ctx, frame, src, dst, sport, dport, payload),
            Content::TcpV4 {
                src,
                dst,
                repr,
                payload,
            } if dst == self.endpoint.ip => self.handle_tcp(ctx, src_mac, src, repr, payload),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Finds canary identifiers downstream of the honeypot: in raw captures and
/// in app exfiltration payloads.
#[derive(Debug, Clone)]
pub struct CanaryTracker {
    pub canary_uuid: String,
    pub canary_name: String,
}

/// A place a canary was re-observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Propagation {
    pub context: String,
    pub which: CanaryKind,
}

/// Which canary was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanaryKind {
    Uuid,
    Name,
}

impl CanaryTracker {
    pub fn for_honeypot(honeypot: &Honeypot) -> CanaryTracker {
        CanaryTracker {
            canary_uuid: honeypot.canary_uuid.clone(),
            canary_name: honeypot.canary_name.clone(),
        }
    }

    /// Scan arbitrary text (decrypted exfil payloads, capture extracts) for
    /// the canaries.
    pub fn scan_text(&self, context: &str, text: &str) -> Vec<Propagation> {
        let mut out = Vec::new();
        if text.contains(&self.canary_uuid) {
            out.push(Propagation {
                context: context.to_string(),
                which: CanaryKind::Uuid,
            });
        }
        if text.contains(&self.canary_name) {
            out.push(Propagation {
                context: context.to_string(),
                which: CanaryKind::Name,
            });
        }
        out
    }

    /// Scan a raw capture for canary bytes.
    pub fn scan_capture(&self, capture: &iotlan_netsim::Capture) -> Vec<Propagation> {
        let mut out = Vec::new();
        for (index, frame) in capture.frames().enumerate() {
            let text = String::from_utf8_lossy(frame.data());
            out.extend(self.scan_text(&format!("frame#{index}"), &text));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_netsim::Network;

    fn honeypot_net() -> (Network, iotlan_netsim::NodeId, Endpoint) {
        let mut network = Network::new(11);
        let mac = EthernetAddress([0x02, 0xca, 0x4a, 0x21, 0x00, 0x01]);
        let ip = Ipv4Addr::new(192, 168, 10, 200);
        let id = network.add_node(Box::new(Honeypot::new(mac, ip)));
        let scanner = Endpoint {
            mac: EthernetAddress([0x02, 0, 0, 0, 0, 0x66]),
            ip: Ipv4Addr::new(192, 168, 10, 66),
        };
        (network, id, scanner)
    }

    #[test]
    fn ssdp_scan_logged_and_answered_with_canary() {
        let (mut network, id, scanner) = honeypot_net();
        let msearch = ssdp::Message::msearch(ssdp::targets::IGD, 1);
        network.inject_frame(stack::udp_multicast(
            scanner,
            ssdp::SSDP_GROUP_V4,
            51000,
            ssdp::SSDP_PORT,
            &msearch.to_bytes(),
        ));
        network.run_for(SimDuration::from_secs(2));
        let honeypot = network
            .node(id)
            .as_any()
            .downcast_ref::<Honeypot>()
            .unwrap();
        assert_eq!(honeypot.scanners(HoneypotProtocol::Ssdp), vec![scanner.mac]);
        assert!(honeypot.interactions[0]
            .detail
            .contains("InternetGatewayDevice"));
        // The canary UUID went out on the wire.
        let tracker = CanaryTracker::for_honeypot(honeypot);
        let hits = tracker.scan_capture(&network.capture);
        assert!(hits.iter().any(|h| h.which == CanaryKind::Uuid));
    }

    #[test]
    fn mdns_query_answered_with_canary_name() {
        let (mut network, id, scanner) = honeypot_net();
        let query = dns::Message::mdns_query(&[("_googlecast._tcp.local", dns::RecordType::Ptr)]);
        network.inject_frame(stack::udp_multicast(
            scanner,
            dns::MDNS_GROUP_V4,
            dns::MDNS_PORT,
            dns::MDNS_PORT,
            &query.to_bytes(),
        ));
        network.run_for(SimDuration::from_secs(2));
        let honeypot = network
            .node(id)
            .as_any()
            .downcast_ref::<Honeypot>()
            .unwrap();
        assert_eq!(honeypot.scanners(HoneypotProtocol::Mdns).len(), 1);
        let tracker = CanaryTracker::for_honeypot(honeypot);
        assert!(tracker
            .scan_capture(&network.capture)
            .iter()
            .any(|h| h.which == CanaryKind::Name));
    }

    #[test]
    fn discovery_replies_are_built_once_per_key() {
        let (mut network, id, scanner) = honeypot_net();
        let services = ["_googlecast._tcp.local", "_hue._tcp.local"];
        for _ in 0..3 {
            for service in services {
                // The decoy answers the first question; the second changes
                // only the log.
                let query = dns::Message::mdns_query(&[
                    (service, dns::RecordType::Ptr),
                    ("_airplay._tcp.local", dns::RecordType::Ptr),
                ]);
                network.inject_frame(stack::udp_multicast(
                    scanner,
                    dns::MDNS_GROUP_V4,
                    dns::MDNS_PORT,
                    dns::MDNS_PORT,
                    &query.to_bytes(),
                ));
                network.run_for(SimDuration::from_secs(1));
            }
            for target in [ssdp::targets::ALL, ssdp::targets::IGD] {
                let msearch = ssdp::Message::msearch(target, 1);
                network.inject_frame(stack::udp_multicast(
                    scanner,
                    ssdp::SSDP_GROUP_V4,
                    51000,
                    ssdp::SSDP_PORT,
                    &msearch.to_bytes(),
                ));
                network.run_for(SimDuration::from_secs(1));
            }
        }
        let honeypot = network
            .node(id)
            .as_any()
            .downcast_ref::<Honeypot>()
            .unwrap();
        let fresh_decoy = |service: &str| {
            let instance = format!("{}.{service}", honeypot.canary_name);
            dns::Message::mdns_response(vec![
                dns::Record {
                    name: service.to_string(),
                    cache_flush: false,
                    ttl: 4500,
                    rdata: dns::RData::Ptr(instance.clone()),
                },
                dns::Record {
                    name: instance,
                    cache_flush: true,
                    ttl: 4500,
                    rdata: dns::RData::Txt(vec![
                        format!("uuid={}", honeypot.canary_uuid),
                        format!("fn={}", honeypot.canary_name),
                    ]),
                },
            ])
            .to_bytes()
        };
        let fresh_reply = |target: &str| {
            ssdp::Message::response(
                target,
                &honeypot.canary_uuid,
                Some("http://192.168.10.200:80/rootDesc.xml"),
                Some("Linux/4.4 UPnP/1.0 CanaryPot/1.0"),
            )
            .to_bytes()
        };
        let round = [
            fresh_decoy(services[0]),
            fresh_decoy(services[1]),
            fresh_reply(ssdp::targets::ROOT_DEVICE),
            fresh_reply(ssdp::targets::IGD),
        ];
        let sent: Vec<Vec<u8>> = network
            .capture
            .sent_by(honeypot.endpoint.mac)
            .iter()
            .filter_map(|f| match stack::dissect(f.data())?.content {
                Content::UdpV4 { payload, .. } => Some(payload.to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(sent, [&round[..], &round[..], &round[..]].concat());
        assert_eq!(honeypot.interactions.len(), 12);
        assert_eq!(
            honeypot.interactions[0].detail,
            "_googlecast._tcp.local,_airplay._tcp.local"
        );
        assert_eq!(honeypot.mdns_replies.len(), 2);
        assert_eq!(honeypot.ssdp_replies.len(), 2);
    }

    #[test]
    fn http_and_telnet_and_probes() {
        let (mut network, id, scanner) = honeypot_net();
        let target = Endpoint {
            mac: EthernetAddress([0x02, 0xca, 0x4a, 0x21, 0x00, 0x01]),
            ip: Ipv4Addr::new(192, 168, 10, 200),
        };
        // SYN probe.
        network.inject_frame(stack::tcp_segment(
            scanner,
            target,
            &tcp::Repr::syn(40000, 8888, 1),
            &[],
        ));
        // HTTP GET for the UPnP description.
        let get = Request::get("/rootDesc.xml", Headers::new()).to_bytes();
        network.inject_frame(stack::tcp_segment(
            scanner,
            target,
            &tcp::Repr::data(40001, 80, 2, 0x7001, get.len()),
            &get,
        ));
        // Telnet banner grab.
        network.inject_frame(stack::tcp_segment(
            scanner,
            target,
            &tcp::Repr::data(40002, 23, 2, 0x7001, 2),
            b"\r\n",
        ));
        network.run_for(SimDuration::from_secs(2));
        let honeypot = network
            .node(id)
            .as_any()
            .downcast_ref::<Honeypot>()
            .unwrap();
        assert_eq!(
            honeypot.scanners(HoneypotProtocol::TcpProbe),
            vec![scanner.mac]
        );
        assert_eq!(honeypot.scanners(HoneypotProtocol::Http), vec![scanner.mac]);
        assert_eq!(
            honeypot.scanners(HoneypotProtocol::Telnet),
            vec![scanner.mac]
        );
        // The description leaked the canary.
        let tracker = CanaryTracker::for_honeypot(honeypot);
        let hits = tracker.scan_capture(&network.capture);
        assert!(hits.iter().any(|h| h.which == CanaryKind::Uuid));
    }

    #[test]
    fn arp_and_ping_logged() {
        let (mut network, id, scanner) = honeypot_net();
        let request = arp::Repr::request(scanner.mac, scanner.ip, Ipv4Addr::new(192, 168, 10, 200));
        network.inject_frame(stack::arp_frame(&request));
        network.run_for(SimDuration::from_secs(1));
        let honeypot = network
            .node(id)
            .as_any()
            .downcast_ref::<Honeypot>()
            .unwrap();
        assert_eq!(honeypot.scanners(HoneypotProtocol::Arp), vec![scanner.mac]);
    }

    #[test]
    fn canary_text_scan() {
        let honeypot = Honeypot::new(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            Ipv4Addr::new(192, 168, 10, 200),
        );
        let tracker = CanaryTracker::for_honeypot(&honeypot);
        let exfil = format!(
            "{{\"devices\":[{{\"uuid\":\"{}\"}}]}}",
            honeypot.canary_uuid
        );
        let hits = tracker.scan_text("POST https://gw.innotechworld.com/v1", &exfil);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].which, CanaryKind::Uuid);
        assert!(tracker.scan_text("ctx", "nothing here").is_empty());
    }
}
