//! The tshark model: port/header-spec dissection with tshark v3.6.2's
//! error modes as documented in Appendix C.2:
//!
//! * "95% of [the disagreements] were misclassified by tshark as generic
//!   'transport-layer traffic' or TP-Link's custom protocol, while nDPI
//!   correctly identified most of them as SSDP flows" — here, SSDP NOTIFY
//!   and unicast 200-OK responses fall back to `UDP`/`TPLINK_SHP`;
//! * RTP is mislabelled STUN on the Google 10000–10010 range and missed
//!   elsewhere;
//! * tshark dissects strictly by port for the well-known services, so
//!   services on non-standard ports are `TCP`/`UDP` generic.

use crate::flow::{Flow, Transport};
use crate::{labels, Label};

/// Classify a flow the way tshark would, from its ground-truth label
/// (`FlowTable::labels` runs this once per flow).
pub fn classify_with_truth(flow: &Flow, true_label: Label) -> Label {
    match flow.key.transport {
        Transport::L2(0x0806) => labels::ARP,
        Transport::L2(0x888e) => labels::EAPOL,
        Transport::L2(_) | Transport::OtherIp(_) => labels::UNKNOWN_L3,
        Transport::Icmp => labels::ICMP,
        Transport::Igmp => labels::IGMP,
        Transport::IcmpV6 => labels::ICMPV6,
        Transport::Udp | Transport::UdpV6 => match true_label {
            labels::SSDP => {
                // Responses/notifies (src port 1900) confuse the dissector:
                // it keys on *destination* port 1900 for SSDP.
                if flow.key.dst_port == 1900 {
                    labels::SSDP
                } else if flow.key.src_port == 1900 && flow.key.dst_port % 8 < 2 {
                    // A slice lands on the TP-Link heuristic dissector.
                    labels::TPLINK_SHP
                } else {
                    labels::DATA_UDP
                }
            }
            labels::RTP => {
                if (10000..=10010).contains(&flow.key.dst_port) {
                    labels::STUN
                } else {
                    labels::DATA_UDP
                }
            }
            labels::LIFX => labels::DATA_UDP,
            labels::TUYALP => {
                // tshark has no TuyaLP dissector: generic UDP.
                labels::DATA_UDP
            }
            other => other,
        },
        Transport::Tcp => match true_label {
            labels::TLS => {
                // Port-keyed: TLS on unusual ports is generic TCP for a
                // slice of flows (heuristic dissector sometimes catches it).
                if well_known_tls_port(flow.key.dst_port) || well_known_tls_port(flow.key.src_port)
                {
                    labels::TLS
                } else if flow.key.src_port % 4 == 0 {
                    labels::DATA_TCP
                } else {
                    labels::TLS
                }
            }
            labels::TPLINK_SHP => labels::TPLINK_SHP,
            labels::UNKNOWN => labels::DATA_TCP,
            other => other,
        },
    }
}

fn well_known_tls_port(port: u16) -> bool {
    matches!(
        port,
        443 | 8443 | 8009 | 8889 | 55443 | 4070 | 7000 | 3000 | 8002
    )
}

/// True when the label is a real classification (not the generic
/// transport-layer fallback or unknown).
pub fn is_labeled(label: Label) -> bool {
    !matches!(
        label,
        labels::UNKNOWN | labels::UNKNOWN_L3 | labels::DATA_UDP | labels::DATA_TCP
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowTable;
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

    /// tshark's label of the one flow `frame` makes.
    fn classify(frame: Vec<u8>) -> Label {
        let mut table = FlowTable::default();
        table.add_frame(SimTime::ZERO, &frame);
        table.labels()[0].tshark
    }

    #[test]
    fn msearch_correct_but_response_mislabelled() {
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 3).to_bytes();
        let label = classify(stack::udp_multicast(
            ep(1),
            Ipv4Addr::new(239, 255, 255, 250),
            50000,
            1900,
            &msearch,
        ));
        assert_eq!(label, labels::SSDP);

        // A unicast 200 OK from port 1900 back to a high port: the
        // Appendix C.2 failure (generic transport or TPLINK).
        let response =
            iotlan_wire::ssdp::Message::response("upnp:rootdevice", "u", None, None).to_bytes();
        let label = classify(stack::udp_unicast(ep(2), ep(1), 1900, 50004, &response));
        assert!(
            label == labels::DATA_UDP || label == labels::TPLINK_SHP,
            "got {label}"
        );
        assert!(!is_labeled(labels::DATA_UDP));
    }

    #[test]
    fn rtp_stun_on_google_range_only() {
        let mut payload = iotlan_wire::rtp::Header {
            payload_type: 97,
            sequence: 1,
            timestamp: 0,
            ssrc: 7,
            marker: false,
            csrc_count: 0,
        }
        .to_bytes();
        payload.extend_from_slice(&[0xAD; 16]);
        let label = classify(stack::udp_unicast(ep(1), ep(2), 40000, 10005, &payload));
        assert_eq!(label, labels::STUN);
        let label = classify(stack::udp_unicast(ep(1), ep(2), 40000, 55444, &payload));
        assert_eq!(label, labels::DATA_UDP);
    }

    #[test]
    fn tuya_is_generic_udp() {
        let frame = iotlan_wire::tuya::Frame::discovery("gw", "pk", "192.168.10.5", "3.3");
        let label = classify(stack::udp_broadcast(ep(1), 41001, 6666, &frame.to_bytes()));
        assert_eq!(label, labels::DATA_UDP);
    }

    #[test]
    fn tls_on_wellknown_port() {
        let hello = iotlan_wire::tls::Handshake::ClientHello {
            version: iotlan_wire::tls::Version::Tls12,
            supported_versions: vec![],
            server_name: None,
            cipher_suites: vec![0xc02f],
        }
        .into_record(iotlan_wire::tls::Version::Tls12)
        .to_bytes();
        let label = classify(stack::tcp_segment(
            ep(1),
            ep(2),
            &iotlan_wire::tcp::Repr::data(40001, 8009, 1, 1, hello.len()),
            &hello,
        ));
        assert_eq!(label, labels::TLS);
    }
}
