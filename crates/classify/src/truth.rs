//! Ground-truth labelling: strict parsing with the `iotlan-wire` parsers.
//!
//! This is the oracle the paper built by hand ("we manually examined the
//! flows in which they disagree"): every payload is validated by a real
//! parser before a label is assigned, so a label here means the bytes
//! actually are that protocol.

use crate::flow::{Flow, Transport};
use crate::{labels, Label};
use iotlan_wire::{coap, dns, http, netbios, rtp, ssdp, stun, tls, tplink, tuya};

/// Label a flow by parsing its payload evidence.
pub fn label_flow(flow: &Flow) -> Label {
    match flow.key.transport {
        Transport::L2(0x0806) => labels::ARP,
        Transport::L2(0x888e) => labels::EAPOL,
        Transport::L2(_) => labels::UNKNOWN_L3,
        Transport::Icmp => labels::ICMP,
        Transport::Igmp => labels::IGMP,
        Transport::IcmpV6 => labels::ICMPV6,
        Transport::OtherIp(_) => labels::UNKNOWN_L3,
        Transport::Udp | Transport::UdpV6 => label_udp(flow),
        Transport::Tcp => label_tcp(flow),
    }
}

fn label_udp(flow: &Flow) -> Label {
    let sport = flow.key.src_port;
    let dport = flow.key.dst_port;
    let payload = flow.first_payload();

    // DHCP first: fixed ports, magic cookie.
    if (dport == 67 || dport == 68) && payload.is_some() {
        if iotlan_wire::dhcpv4::Packet::new_checked(payload.unwrap()).is_ok() {
            return labels::DHCP;
        }
    }
    if (dport == 546 || dport == 547) && payload.is_some() {
        if iotlan_wire::dhcpv6::Repr::parse(payload.unwrap()).is_ok() {
            return labels::DHCPV6;
        }
    }
    if dport == 5353 || sport == 5353 {
        if let Some(p) = payload {
            if dns::Message::parse(p).is_ok() {
                return labels::MDNS;
            }
        }
    }
    if dport == 53 || sport == 53 {
        if let Some(p) = payload {
            if dns::Message::parse(p).is_ok() {
                return labels::DNS;
            }
        }
    }
    if dport == 1900 || sport == 1900 {
        if let Some(p) = payload {
            if ssdp::Message::parse(p).is_ok() {
                return labels::SSDP;
            }
        }
    }
    if dport == tplink::SHP_PORT || sport == tplink::SHP_PORT {
        if let Some(p) = payload {
            if tplink::Message::from_udp_bytes(p).is_ok() {
                return labels::TPLINK_SHP;
            }
        }
    }
    if dport == 6666 || dport == 6667 {
        if let Some(p) = payload {
            if tuya::Frame::parse(p).is_ok() {
                return labels::TUYALP;
            }
        }
    }
    if dport == 5683 {
        if let Some(p) = payload {
            if coap::Message::parse(p).is_ok() {
                return labels::COAP;
            }
        }
    }
    if dport == netbios::NBNS_PORT {
        if let Some(p) = payload {
            if netbios::Query::parse(p).is_ok() {
                return labels::NETBIOS;
            }
        }
    }
    if dport == 56700 {
        if let Some(p) = payload {
            if iotlan_wire::lifx::Header::parse(p).is_ok() {
                return labels::LIFX;
            }
        }
    }
    if dport == 123 {
        return labels::NTP;
    }
    if let Some(p) = payload {
        // STUN has a cryptographic cookie: check before the loose RTP test.
        if stun::Header::looks_like_stun(p) {
            return labels::STUN;
        }
        if rtp::Header::parse(p).is_ok() {
            return labels::RTP;
        }
    }
    labels::UNKNOWN
}

fn label_tcp(flow: &Flow) -> Label {
    let payload = match flow.first_payload() {
        Some(p) => p,
        None => return labels::UNKNOWN, // handshake-only flow
    };
    // TLS record framing is unambiguous.
    if let Ok((record, _)) = tls::Record::parse(payload) {
        if matches!(
            record.content_type,
            tls::ContentType::Handshake | tls::ContentType::ApplicationData
        ) {
            return labels::TLS;
        }
    }
    if flow.key.dst_port == tplink::SHP_PORT || flow.key.src_port == tplink::SHP_PORT {
        if tplink::Message::from_tcp_bytes(payload).is_ok() {
            return labels::TPLINK_SHP;
        }
    }
    if payload.starts_with(b"RTSP/")
        || payload.starts_with(b"OPTIONS rtsp")
        || payload.starts_with(b"DESCRIBE rtsp")
    {
        return labels::RTSP;
    }
    if http::Request::parse(payload).is_ok() || http::Response::parse(payload).is_ok() {
        return labels::HTTP;
    }
    if flow.key.dst_port == 23 || flow.key.src_port == 23 {
        return labels::TELNET;
    }
    labels::UNKNOWN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowKey, FlowTable};
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_netsim::SimTime;
    use iotlan_wire::ethernet::EthernetAddress;
    use std::net::Ipv4Addr;

    fn ep(last: u8) -> Endpoint {
        Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: Ipv4Addr::new(192, 168, 10, last),
        }
    }

    fn one_flow(frame: Vec<u8>) -> Flow {
        let mut table = FlowTable::default();
        table.add_frame(SimTime::ZERO, &frame);
        table.flows.into_iter().next().unwrap()
    }

    #[test]
    fn mdns_and_ssdp() {
        let query = dns::Message::mdns_query(&[("_hue._tcp.local", dns::RecordType::Ptr)]);
        let flow = one_flow(stack::udp_multicast(
            ep(1),
            Ipv4Addr::new(224, 0, 0, 251),
            5353,
            5353,
            &query.to_bytes(),
        ));
        assert_eq!(label_flow(&flow), labels::MDNS);

        let msearch = ssdp::Message::msearch("ssdp:all", 3);
        let flow = one_flow(stack::udp_multicast(
            ep(1),
            Ipv4Addr::new(239, 255, 255, 250),
            50000,
            1900,
            &msearch.to_bytes(),
        ));
        assert_eq!(label_flow(&flow), labels::SSDP);
    }

    #[test]
    fn proprietary_protocols() {
        let shp = tplink::Message::get_sysinfo();
        let flow = one_flow(stack::udp_broadcast(
            ep(1),
            41000,
            9999,
            &shp.to_udp_bytes(),
        ));
        assert_eq!(label_flow(&flow), labels::TPLINK_SHP);

        let tuya_frame = tuya::Frame::discovery("gw", "pk", "192.168.10.5", "3.3");
        let flow = one_flow(stack::udp_broadcast(
            ep(1),
            41001,
            6666,
            &tuya_frame.to_bytes(),
        ));
        assert_eq!(label_flow(&flow), labels::TUYALP);

        let lifx = iotlan_wire::lifx::Header::get_service(1, 1);
        let flow = one_flow(stack::udp_broadcast(ep(1), 41002, 56700, &lifx.to_bytes()));
        assert_eq!(label_flow(&flow), labels::LIFX);
    }

    #[test]
    fn tcp_protocols() {
        let hello = tls::Handshake::ClientHello {
            version: tls::Version::Tls12,
            supported_versions: vec![],
            server_name: None,
            cipher_suites: vec![0xc02f],
        }
        .into_record(tls::Version::Tls12)
        .to_bytes();
        let flow = one_flow(stack::tcp_segment(
            ep(1),
            ep(2),
            &iotlan_wire::tcp::Repr::data(40000, 8009, 1, 1, hello.len()),
            &hello,
        ));
        assert_eq!(label_flow(&flow), labels::TLS);

        let get = http::Request::get("/", http::Headers::new()).to_bytes();
        let flow = one_flow(stack::tcp_segment(
            ep(1),
            ep(2),
            &iotlan_wire::tcp::Repr::data(40001, 80, 1, 1, get.len()),
            &get,
        ));
        assert_eq!(label_flow(&flow), labels::HTTP);
    }

    #[test]
    fn stun_vs_rtp_discrimination() {
        // Real STUN: labelled STUN.
        let stun_bytes = stun::Header {
            kind: stun::MessageKind::BindingRequest,
            length: 0,
            transaction_id: [1; 12],
        }
        .to_bytes();
        let flow = one_flow(stack::udp_unicast(ep(1), ep(2), 40000, 10005, &stun_bytes));
        assert_eq!(label_flow(&flow), labels::STUN);

        // RTP on the same Google port: correctly RTP in the ground truth.
        let mut rtp_bytes = rtp::Header {
            payload_type: 97,
            sequence: 1,
            timestamp: 2,
            ssrc: 3,
            marker: false,
            csrc_count: 0,
        }
        .to_bytes();
        rtp_bytes.extend_from_slice(&[0xAD; 32]);
        let flow = one_flow(stack::udp_unicast(ep(1), ep(2), 40000, 10005, &rtp_bytes));
        assert_eq!(label_flow(&flow), labels::RTP);
    }

    #[test]
    fn l2_flows() {
        let request = iotlan_wire::arp::Repr::request(ep(1).mac, ep(1).ip, ep(2).ip);
        let flow = one_flow(stack::arp_frame(&request));
        assert_eq!(label_flow(&flow), labels::ARP);

        // Synthetic EAPOL flow.
        let flow = Flow {
            key: FlowKey {
                transport: Transport::L2(0x888e),
                src_ip: None,
                dst_ip: None,
                src_port: 0,
                dst_port: 0,
                src_mac: ep(1).mac,
            },
            packets: 1,
            bytes: 60,
            first_seen: SimTime::ZERO,
            last_seen: SimTime::ZERO,
            dst_mac: EthernetAddress::BROADCAST,
            payload_samples: vec![],
            timestamps: vec![SimTime::ZERO],
        };
        assert_eq!(label_flow(&flow), labels::EAPOL);
    }

    #[test]
    fn unknown_fallbacks() {
        let flow = one_flow(stack::udp_unicast(ep(1), ep(2), 4000, 49152, &[0x00, 0x01]));
        assert_eq!(label_flow(&flow), labels::UNKNOWN);
    }
}
