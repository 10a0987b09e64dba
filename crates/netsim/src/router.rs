//! The home gateway: Wi-Fi AP / router with a DHCP server, ARP responder,
//! and a stub DNS forwarder — the device every testbed frame transits.
//!
//! Device models keep statically planned IPs (the lab assigns leases
//! deterministically), but the DHCP exchange still happens on the wire so
//! the capture contains the DISCOVER/OFFER/REQUEST/ACK traffic — and the
//! hostname/vendor-class leaks — that §5.1 analyzes.

use crate::network::{Context, Interest, Node};
use crate::stack::{self, Dissected, Endpoint};
use iotlan_wire::dhcpv4;
use iotlan_wire::dns::{self, Message as DnsMessage, RData, Record};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::{arp, icmpv4};
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Hostname/vendor-class metadata the router's DHCP server observed — the
/// §5.1 "devices carelessly respond and expose sensitive information"
/// dataset, as collected at the gateway vantage point.
#[derive(Debug, Clone, Default)]
pub struct DhcpObservations {
    /// MAC → hostname (option 12) as last seen.
    pub hostnames: HashMap<EthernetAddress, String>,
    /// MAC → vendor class / DHCP client version (option 60).
    pub vendor_classes: HashMap<EthernetAddress, String>,
    /// MAC → parameter request list (option 55).
    pub requested_options: HashMap<EthernetAddress, Vec<u8>>,
}

/// The gateway node.
pub struct Router {
    endpoint: Endpoint,
    subnet_base: Ipv4Addr,
    next_lease_host: u8,
    leases: HashMap<EthernetAddress, Ipv4Addr>,
    /// Everything the DHCP server learned about clients.
    pub observations: DhcpObservations,
}

/// The gateway's conventional address: 192.168.10.1 (the lab's subnet per
/// Appendix C.1's 192.168.10.0/24 filter example).
pub const GATEWAY_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 1);

/// The gateway's MAC.
pub const GATEWAY_MAC: EthernetAddress = EthernetAddress([0x5c, 0xa6, 0xe6, 0x00, 0x00, 0x01]);

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

impl Router {
    pub fn new() -> Router {
        Router {
            endpoint: Endpoint {
                mac: GATEWAY_MAC,
                ip: GATEWAY_IP,
            },
            subnet_base: Ipv4Addr::new(192, 168, 10, 0),
            next_lease_host: 100,
            leases: HashMap::new(),
            observations: DhcpObservations::default(),
        }
    }

    /// The gateway endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    fn allocate(&mut self, mac: EthernetAddress, requested: Option<Ipv4Addr>) -> Ipv4Addr {
        if let Some(existing) = self.leases.get(&mac) {
            return *existing;
        }
        // Honor a requested in-subnet address if free, else hand out the
        // next pool address.
        let base = self.subnet_base.octets();
        let ip = match requested {
            Some(r)
                if r.octets()[..3] == base[..3]
                    && !self.leases.values().any(|&v| v == r)
                    && r != self.endpoint.ip =>
            {
                r
            }
            _ => {
                let host = self.next_lease_host;
                self.next_lease_host = self.next_lease_host.wrapping_add(1);
                Ipv4Addr::new(base[0], base[1], base[2], host)
            }
        };
        self.leases.insert(mac, ip);
        ip
    }

    fn handle_dhcp(&mut self, ctx: &mut Context, payload: &[u8]) {
        let packet = match dhcpv4::Packet::new_checked(payload) {
            Ok(p) => p,
            Err(_) => return,
        };
        let request = match dhcpv4::Repr::parse(&packet) {
            Ok(r) => r,
            Err(_) => return,
        };
        let mac = request.client_hardware_addr;
        if let Some(hostname) = &request.hostname {
            self.observations.hostnames.insert(mac, hostname.clone());
        }
        if let Some(vendor_class) = &request.vendor_class {
            self.observations
                .vendor_classes
                .insert(mac, vendor_class.clone());
        }
        if !request.parameter_request_list.is_empty() {
            self.observations
                .requested_options
                .insert(mac, request.parameter_request_list.clone());
        }
        let reply_type = match request.message_type {
            dhcpv4::MessageType::Discover => dhcpv4::MessageType::Offer,
            dhcpv4::MessageType::Request => dhcpv4::MessageType::Ack,
            _ => return,
        };
        let your_addr = self.allocate(mac, request.requested_ip);
        let reply = dhcpv4::Repr {
            message_type: reply_type,
            xid: request.xid,
            client_hardware_addr: mac,
            client_addr: Ipv4Addr::UNSPECIFIED,
            your_addr,
            server_addr: self.endpoint.ip,
            broadcast: request.broadcast,
            hostname: None,
            vendor_class: None,
            parameter_request_list: vec![],
            requested_ip: None,
            server_id: Some(self.endpoint.ip),
            other_options: vec![
                dhcpv4::DhcpOption {
                    code: dhcpv4::option_codes::SUBNET_MASK,
                    data: vec![255, 255, 255, 0],
                },
                dhcpv4::DhcpOption {
                    code: dhcpv4::option_codes::ROUTER,
                    data: self.endpoint.ip.octets().to_vec(),
                },
                dhcpv4::DhcpOption {
                    code: dhcpv4::option_codes::DNS_SERVER,
                    data: self.endpoint.ip.octets().to_vec(),
                },
                dhcpv4::DhcpOption {
                    code: dhcpv4::option_codes::LEASE_TIME,
                    data: 86400u32.to_be_bytes().to_vec(),
                },
            ],
        };
        // DHCP replies go to the client MAC directly (we always unicast at
        // the Ethernet layer; clients asked for broadcast get broadcast IP).
        let frame = stack::udp_unicast(
            self.endpoint,
            Endpoint { mac, ip: your_addr },
            67,
            68,
            &reply.to_bytes(),
        );
        ctx.send_frame(frame);
    }

    fn handle_dns(&mut self, ctx: &mut Context, src: Endpoint, sport: u16, payload: &[u8]) {
        let query = match DnsMessage::parse(payload) {
            Ok(q) if !q.is_response && !q.questions.is_empty() => q,
            _ => return,
        };
        // Stub resolution: every A query resolves to a documentation
        // address. The paper's analysis is local-only; this simply keeps
        // device cloud-checkin logic from wedging.
        let answers: Vec<Record> = query
            .questions
            .iter()
            .filter(|q| q.qtype == dns::RecordType::A)
            .map(|q| Record {
                name: q.name.clone(),
                cache_flush: false,
                ttl: 300,
                rdata: RData::A(Ipv4Addr::new(203, 0, 113, 7)),
            })
            .collect();
        let mut response = DnsMessage::mdns_response(answers);
        response.id = query.id;
        response.questions = query.questions.clone();
        let frame = stack::udp_unicast(self.endpoint, src, 53, sport, &response.to_bytes());
        ctx.send_frame(frame);
    }
}

impl Node for Router {
    fn mac(&self) -> EthernetAddress {
        self.endpoint.mac
    }

    /// DHCP requests, and what is addressed to the gateway.
    fn interest(&self) -> Interest {
        Interest {
            udp_ports: vec![67],
            ..Interest::addressed_to(self.endpoint.ip)
        }
    }

    fn on_frame(&mut self, ctx: &mut Context, frame: &Dissected<'_>) {
        match frame.content {
            stack::Content::Arp(request)
                if request.operation == arp::Operation::Request
                    && request.target_protocol_addr == self.endpoint.ip =>
            {
                let reply = arp::Repr::reply(
                    self.endpoint.mac,
                    self.endpoint.ip,
                    request.sender_hardware_addr,
                    request.sender_protocol_addr,
                );
                ctx.send_frame(stack::arp_frame(&reply));
            }
            stack::Content::UdpV4 {
                src,
                sport,
                dport: 67,
                payload,
                ..
            } => {
                let _ = src;
                let _ = sport;
                self.handle_dhcp(ctx, payload);
            }
            stack::Content::UdpV4 {
                src,
                sport,
                dport: 53,
                dst,
                payload,
            } if dst == self.endpoint.ip => {
                self.handle_dns(
                    ctx,
                    Endpoint {
                        mac: frame.eth.src_addr,
                        ip: src,
                    },
                    sport,
                    payload,
                );
            }
            stack::Content::IcmpV4 {
                src,
                dst,
                repr:
                    icmpv4::Repr {
                        message: icmpv4::Message::EchoRequest { ident, seq },
                        ..
                    },
            } if dst == self.endpoint.ip => {
                let reply = icmpv4::Repr {
                    message: icmpv4::Message::EchoReply { ident, seq },
                    payload_len: 0,
                };
                let frame = stack::icmpv4_frame(
                    self.endpoint,
                    Endpoint {
                        mac: frame.eth.src_addr,
                        ip: src,
                    },
                    &reply,
                    &[],
                );
                ctx.send_frame(frame);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::time::SimDuration;
    use iotlan_wire::ethernet::Frame;

    /// Minimal DHCP client node for testing the router.
    struct Client {
        endpoint: Endpoint,
        hostname: String,
        acked: Option<Ipv4Addr>,
    }

    impl Node for Client {
        fn mac(&self) -> EthernetAddress {
            self.endpoint.mac
        }

        fn on_start(&mut self, ctx: &mut Context) {
            let discover = dhcpv4::Repr::discover(
                42,
                self.endpoint.mac,
                Some(self.hostname.clone()),
                Some("udhcp 1.14.3".into()),
                vec![1, 3, 6, 5, 69],
            );
            let frame = stack::udp_broadcast(
                Endpoint {
                    mac: self.endpoint.mac,
                    ip: Ipv4Addr::UNSPECIFIED,
                },
                68,
                67,
                &discover.to_bytes(),
            );
            ctx.send_frame(frame);
        }

        fn on_frame(&mut self, _ctx: &mut Context, frame: &Dissected<'_>) {
            if let stack::Content::UdpV4 {
                dport: 68, payload, ..
            } = frame.content
            {
                if let Ok(packet) = dhcpv4::Packet::new_checked(payload) {
                    if let Ok(reply) = dhcpv4::Repr::parse(&packet) {
                        if reply.message_type == dhcpv4::MessageType::Offer {
                            self.acked = Some(reply.your_addr);
                        }
                    }
                }
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn dhcp_discover_offer_and_observation() {
        let mut network = Network::new(1);
        let router_id = network.add_node(Box::new(Router::new()));
        let mac = EthernetAddress([2, 0, 0, 0, 0, 5]);
        let client_id = network.add_node(Box::new(Client {
            endpoint: Endpoint {
                mac,
                ip: Ipv4Addr::UNSPECIFIED,
            },
            hostname: "RingChime-4a5b".into(),
            acked: None,
        }));
        network.run_for(SimDuration::from_secs(1));

        let client = network
            .node(client_id)
            .as_any()
            .downcast_ref::<Client>()
            .unwrap();
        assert_eq!(client.acked, Some(Ipv4Addr::new(192, 168, 10, 100)));

        let router = network
            .node(router_id)
            .as_any()
            .downcast_ref::<Router>()
            .unwrap();
        assert_eq!(
            router.observations.hostnames.get(&mac).map(String::as_str),
            Some("RingChime-4a5b")
        );
        assert_eq!(
            router
                .observations
                .vendor_classes
                .get(&mac)
                .map(String::as_str),
            Some("udhcp 1.14.3")
        );
        assert_eq!(
            router.observations.requested_options.get(&mac).unwrap(),
            &vec![1, 3, 6, 5, 69]
        );
    }

    #[test]
    fn arp_for_gateway_answered() {
        let mut network = Network::new(1);
        network.add_node(Box::new(Router::new()));
        let asker = EthernetAddress([2, 0, 0, 0, 0, 9]);
        let request = arp::Repr::request(asker, Ipv4Addr::new(192, 168, 10, 50), GATEWAY_IP);
        network.inject_frame(stack::arp_frame(&request));
        network.run_for(SimDuration::from_secs(1));
        // Find the reply in the capture.
        let reply = network
            .capture
            .frames()
            .find(|f| f.src_mac() == GATEWAY_MAC)
            .expect("router replied");
        let view = Frame::new_unchecked(reply.data());
        assert_eq!(view.dst_addr(), asker);
    }

    #[test]
    fn dns_stub_answers_a_queries() {
        let mut network = Network::new(1);
        network.add_node(Box::new(Router::new()));
        let query = DnsMessage {
            id: 99,
            is_response: false,
            authoritative: false,
            questions: vec![dns::Question {
                name: "time.example.com".into(),
                qtype: dns::RecordType::A,
                unicast_response: false,
            }],
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        };
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 7]),
            ip: Ipv4Addr::new(192, 168, 10, 50),
        };
        let gw = Endpoint {
            mac: GATEWAY_MAC,
            ip: GATEWAY_IP,
        };
        network.inject_frame(stack::udp_unicast(src, gw, 40000, 53, &query.to_bytes()));
        network.run_for(SimDuration::from_secs(1));
        let reply = network
            .capture
            .frames()
            .find(|f| f.src_mac() == GATEWAY_MAC)
            .expect("dns reply");
        let dissected = stack::dissect(reply.data()).unwrap();
        match dissected.content {
            stack::Content::UdpV4 { payload, dport, .. } => {
                assert_eq!(dport, 40000);
                let message = DnsMessage::parse(payload).unwrap();
                assert_eq!(message.id, 99);
                assert!(message.is_response);
                assert_eq!(message.answers.len(), 1);
            }
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn gateway_answers_ping() {
        let mut network = Network::new(1);
        network.add_node(Box::new(Router::new()));
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 7]),
            ip: Ipv4Addr::new(192, 168, 10, 50),
        };
        let gw = Endpoint {
            mac: GATEWAY_MAC,
            ip: GATEWAY_IP,
        };
        let ping = icmpv4::Repr {
            message: icmpv4::Message::EchoRequest { ident: 5, seq: 1 },
            payload_len: 0,
        };
        network.inject_frame(stack::icmpv4_frame(src, gw, &ping, &[]));
        network.run_for(SimDuration::from_secs(1));
        let reply = network
            .capture
            .frames()
            .find(|f| f.src_mac() == GATEWAY_MAC)
            .expect("echo reply");
        match stack::dissect(reply.data()).unwrap().content {
            stack::Content::IcmpV4 { repr, .. } => {
                assert_eq!(
                    repr.message,
                    icmpv4::Message::EchoReply { ident: 5, seq: 1 }
                );
            }
            _ => panic!("wrong content"),
        }
    }

    #[test]
    fn lease_pool_advances_and_honors_requests() {
        let mut router = Router::new();
        let mac1 = EthernetAddress([0, 0, 0, 0, 0, 1]);
        let mac2 = EthernetAddress([0, 0, 0, 0, 0, 2]);
        let mac3 = EthernetAddress([0, 0, 0, 0, 0, 3]);
        assert_eq!(
            router.allocate(mac1, None),
            Ipv4Addr::new(192, 168, 10, 100)
        );
        assert_eq!(
            router.allocate(mac2, Some(Ipv4Addr::new(192, 168, 10, 55))),
            Ipv4Addr::new(192, 168, 10, 55)
        );
        // Same MAC keeps its lease.
        assert_eq!(
            router.allocate(mac1, None),
            Ipv4Addr::new(192, 168, 10, 100)
        );
        // Requesting an off-subnet address falls back to the pool.
        assert_eq!(
            router.allocate(mac3, Some(Ipv4Addr::new(10, 0, 0, 5))),
            Ipv4Addr::new(192, 168, 10, 101)
        );
    }
}
