//! The nDPI model: signature + behaviour + heuristic classification with
//! nDPI v4.7.0's error modes as documented in Appendix C.2.
//!
//! Where the ground-truth labeller insists on strict parses, this model
//! reproduces how the real tool behaves on the same corpus:
//!
//! * SSDP is *mostly* detected correctly — but a deterministic slice of
//!   SSDP flows is mislabelled **CiscoVPN** ("nDPI incorrectly identified a
//!   small fraction of SSDP flows as CiscoVPN traffic");
//! * Nintendo's EAPOL L2 traffic is mislabelled **AmazonAWS**;
//! * Google's UDP 10000–10010 and other RTP is labelled **STUN** ("this
//!   traffic was initially classified as STUN by both nDPI and tshark");
//! * RTP on non-standard ports without plaintext is missed (UNKNOWN);
//! * proprietary protocols it has signatures for (TPLINK-SHP, TuyaLP) are
//!   detected; LIFX is not in its dictionary.

use crate::flow::{Flow, Transport};
use crate::{labels, Label};

/// The Nintendo OUI whose EAPOL frames nDPI calls AmazonAWS.
const NINTENDO_OUI: [u8; 3] = [0x98, 0xb6, 0xe9];

/// Classify a flow the way nDPI would, from its ground-truth label
/// (`FlowTable::labels` runs this once per flow).
pub fn classify_with_truth(flow: &Flow, true_label: Label) -> Label {
    match flow.key.transport {
        Transport::L2(0x888e) => {
            // Appendix C.2: Nintendo Switch EAPOL → AmazonAWS.
            if flow.key.src_mac.oui() == NINTENDO_OUI {
                labels::AMAZONAWS
            } else {
                labels::EAPOL
            }
        }
        Transport::L2(0x0806) => labels::ARP,
        Transport::L2(_) | Transport::OtherIp(_) => labels::UNKNOWN,
        Transport::Icmp => labels::ICMP,
        Transport::Igmp => labels::IGMP,
        Transport::IcmpV6 => labels::ICMPV6,
        Transport::Udp | Transport::UdpV6 => match true_label {
            labels::SSDP => {
                // A deterministic small slice becomes CiscoVPN.
                if cisco_vpn_confusion(flow) {
                    labels::CISCOVPN
                } else {
                    labels::SSDP
                }
            }
            labels::RTP => labels::STUN,     // the RTP/STUN confusion
            labels::LIFX => labels::UNKNOWN, // no LIFX dissector
            labels::NTP => labels::NTP,
            other => other,
        },
        Transport::Tcp => match true_label {
            labels::RTSP => labels::HTTP, // nDPI folds RTSP into HTTP family
            labels::TELNET => labels::TELNET,
            other => other,
        },
    }
}

/// nDPI's CiscoVPN false positive: triggered by byte patterns in a
/// deterministic ~6% slice of SSDP flows (keyed on source port, which is
/// random per flow — so the *fraction* is stable, the victims vary).
fn cisco_vpn_confusion(flow: &Flow) -> bool {
    flow.key.src_port % 16 == 3
}

/// nDPI-style label coverage helper: true when the label is a real
/// classification, false for the UNKNOWN family.
pub fn is_labeled(label: Label) -> bool {
    label != labels::UNKNOWN && label != labels::UNKNOWN_L3
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

    /// nDPI's label of the one flow `frame` makes.
    fn classify(frame: Vec<u8>) -> Label {
        let mut table = FlowTable::default();
        table.add_frame(SimTime::ZERO, &frame);
        table.labels()[0].ndpi
    }

    #[test]
    fn nintendo_eapol_becomes_amazonaws() {
        let flow = Flow {
            key: FlowKey {
                transport: Transport::L2(0x888e),
                src_ip: None,
                dst_ip: None,
                src_port: 0,
                dst_port: 0,
                src_mac: EthernetAddress([0x98, 0xb6, 0xe9, 1, 2, 3]),
            },
            packets: 1,
            bytes: 60,
            first_seen: SimTime::ZERO,
            last_seen: SimTime::ZERO,
            dst_mac: EthernetAddress::BROADCAST,
            payload_samples: vec![],
            timestamps: vec![SimTime::ZERO],
        };
        assert_eq!(classify_with_truth(&flow, labels::EAPOL), labels::AMAZONAWS);
        // Non-Nintendo EAPOL stays EAPOL.
        let mut other = flow.clone();
        other.key.src_mac = EthernetAddress([2, 0, 0, 0, 0, 1]);
        assert_eq!(classify_with_truth(&other, labels::EAPOL), labels::EAPOL);
    }

    #[test]
    fn rtp_becomes_stun() {
        let mut payload = iotlan_wire::rtp::Header {
            payload_type: 97,
            sequence: 1,
            timestamp: 0,
            ssrc: 7,
            marker: false,
            csrc_count: 0,
        }
        .to_bytes();
        payload.extend_from_slice(&[0xAD; 64]);
        let frame = stack::udp_unicast(ep(1), ep(2), 40000, 10005, &payload);
        assert_eq!(classify(frame), labels::STUN);
    }

    #[test]
    fn ssdp_ciscovpn_slice() {
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 3).to_bytes();
        // src port ≡ 3 (mod 16) triggers the false positive.
        let bad = classify(stack::udp_multicast(
            ep(1),
            Ipv4Addr::new(239, 255, 255, 250),
            50003,
            1900,
            &msearch,
        ));
        assert_eq!(bad, labels::CISCOVPN);
        let good = classify(stack::udp_multicast(
            ep(1),
            Ipv4Addr::new(239, 255, 255, 250),
            50004,
            1900,
            &msearch,
        ));
        assert_eq!(good, labels::SSDP);
    }

    #[test]
    fn lifx_unknown() {
        let lifx = iotlan_wire::lifx::Header::get_service(1, 1);
        let label = classify(stack::udp_broadcast(ep(1), 41002, 56700, &lifx.to_bytes()));
        assert_eq!(label, labels::UNKNOWN);
        assert!(!is_labeled(label));
    }

    #[test]
    fn correct_protocols_pass_through() {
        let query = iotlan_wire::dns::Message::mdns_query(&[(
            "_hue._tcp.local",
            iotlan_wire::dns::RecordType::Ptr,
        )]);
        let label = classify(stack::udp_multicast(
            ep(1),
            Ipv4Addr::new(224, 0, 0, 251),
            5353,
            5353,
            &query.to_bytes(),
        ));
        assert_eq!(label, labels::MDNS);
    }
}
