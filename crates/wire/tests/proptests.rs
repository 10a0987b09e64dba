//! Property-based tests for the wire formats.
//!
//! Two invariant families:
//! 1. **Roundtrip**: `parse(emit(repr)) == repr` for arbitrary valid reprs.
//! 2. **No panic on garbage**: parsers must return `Err`, never panic, on
//!    arbitrary byte soup and on random truncations/mutations of valid
//!    packets — the robustness property a capture pipeline facing real
//!    device traffic depends on.

use iotlan_util::check::Gen;
use iotlan_util::props;

use iotlan_wire::EthernetAddress;
use iotlan_wire::{
    arp, coap, dhcpv4, dns, ethernet, icmpv4, igmp, ipv4, lifx, netbios, pcap, rtp, ssdp, stun,
    tcp, tls, tplink, tuya, udp,
};
use std::net::Ipv4Addr;

fn mac(g: &mut Gen) -> EthernetAddress {
    EthernetAddress(g.array())
}

fn ipv4_addr(g: &mut Gen) -> Ipv4Addr {
    Ipv4Addr::from(g.array::<4>())
}

/// `[a-z]{1,12}(\.[a-z]{1,10}){0,3}` — dotted DNS-ish name.
fn domain(g: &mut Gen) -> String {
    let mut name = g.label(1, 12);
    for _ in 0..g.int_in(0usize..=3) {
        name.push('.');
        name.push_str(&g.label(1, 10));
    }
    name
}

props! {
    fn ethernet_roundtrip(g) {
        let (src, dst, et) = (mac(g), mac(g), g.u16());
        let payload = g.bytes(255);
        let repr = ethernet::Repr { src_addr: src, dst_addr: dst, ethertype: et.into() };
        let bytes = ethernet::build_frame(&repr, &payload);
        let frame = ethernet::Frame::new_checked(&bytes[..]).unwrap();
        assert_eq!(ethernet::Repr::parse(&frame).unwrap(), repr);
        assert_eq!(frame.payload(), &payload[..]);
    }

    fn arp_roundtrip(g) {
        let repr = arp::Repr {
            operation: g.int_in(1u16..=2).into(),
            sender_hardware_addr: mac(g),
            sender_protocol_addr: ipv4_addr(g),
            target_hardware_addr: mac(g),
            target_protocol_addr: ipv4_addr(g),
        };
        let bytes = repr.to_bytes();
        let parsed = arp::Repr::parse(&arp::Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(parsed, repr);
    }

    fn ipv4_roundtrip(g) {
        let payload = g.bytes(127);
        let repr = ipv4::Repr {
            src_addr: ipv4_addr(g),
            dst_addr: ipv4_addr(g),
            protocol: g.u8().into(),
            ttl: g.int_in(1u8..=255),
            payload_len: payload.len(),
        };
        let bytes = ipv4::build_packet(&repr, &payload);
        let packet = ipv4::Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(ipv4::Repr::parse(&packet).unwrap(), repr);
    }

    /// Flipping any single header bit must flip checksum validity
    /// (RFC 1071 detects all 1-bit errors) — unless the flip hits the
    /// version/IHL byte and the packet is rejected earlier.
    fn ipv4_single_bit_corruption_detected_or_harmless(g) {
        let payload = g.bytes(31);
        let bit = g.int_in(0usize..160);
        let repr = ipv4::Repr {
            src_addr: ipv4_addr(g),
            dst_addr: ipv4_addr(g),
            protocol: ipv4::Protocol::Udp,
            ttl: 64,
            payload_len: payload.len(),
        };
        let mut bytes = ipv4::build_packet(&repr, &payload);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match ipv4::Packet::new_checked(&bytes[..]) {
            Ok(packet) => assert!(!packet.verify_checksum()),
            Err(_) => {} // structurally rejected, also fine
        }
    }

    fn udp_roundtrip(g) {
        let (src, dst) = (ipv4_addr(g), ipv4_addr(g));
        let payload = g.bytes(255);
        let repr = udp::Repr {
            src_port: g.u16(),
            dst_port: g.int_in(1u16..=65535),
            payload_len: payload.len(),
        };
        let bytes = udp::build_datagram_v4(&repr, src, dst, &payload);
        let packet = udp::Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum_v4(src, dst));
        assert_eq!(udp::Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload(), &payload[..]);
    }

    fn tcp_roundtrip(g) {
        let (src, dst) = (ipv4_addr(g), ipv4_addr(g));
        let payload = g.bytes(127);
        let repr = tcp::Repr {
            src_port: g.int_in(1u16..=65535),
            dst_port: g.int_in(1u16..=65535),
            seq_number: g.u32(),
            ack_number: g.u32(),
            flags: tcp::Flags(g.int_in(0u8..64)),
            window: 1024,
            payload_len: payload.len(),
        };
        let bytes = tcp::build_segment_v4(&repr, src, dst, &payload);
        let packet = tcp::Packet::new_checked(&bytes[..]).unwrap();
        assert!(packet.verify_checksum_v4(src, dst));
        assert_eq!(tcp::Repr::parse(&packet).unwrap(), repr);
    }

    fn icmpv4_echo_roundtrip(g) {
        let payload = g.bytes(63);
        let repr = icmpv4::Repr {
            message: icmpv4::Message::EchoRequest { ident: g.u16(), seq: g.u16() },
            payload_len: payload.len(),
        };
        let bytes = icmpv4::build_packet(&repr, &payload);
        let packet = icmpv4::Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(icmpv4::Repr::parse(&packet).unwrap(), repr);
    }

    fn igmp_roundtrip(g) {
        let group = ipv4_addr(g);
        let message = match g.int_in(0u8..3) {
            0 => igmp::Message::MembershipQuery { group, max_resp_ds: 100 },
            1 => igmp::Message::MembershipReportV2 { group },
            _ => igmp::Message::LeaveGroup { group },
        };
        let repr = igmp::Repr { message };
        let bytes = repr.to_bytes();
        assert_eq!(igmp::Repr::parse(&igmp::Packet::new_checked(&bytes[..]).unwrap()).unwrap(), repr);
    }

    fn dns_roundtrip(g) {
        let names = g.vec_of(1, 3, domain);
        let ttl = g.u32();
        let records: Vec<dns::Record> = names.iter().map(|n| dns::Record {
            name: n.clone(),
            cache_flush: ttl % 2 == 0,
            ttl,
            rdata: dns::RData::Ptr(format!("{n}.local")),
        }).collect();
        let message = dns::Message::mdns_response(records);
        let parsed = dns::Message::parse(&message.to_bytes()).unwrap();
        assert_eq!(parsed, message);
    }

    fn dns_no_panic_on_garbage(g) {
        let data = g.bytes(299);
        let _ = dns::Message::parse(&data);
    }

    fn dns_no_panic_on_truncation(g) {
        let names = g.vec_of(1, 2, |g| g.label(1, 8));
        let cut = g.int_in(0usize..100);
        let message = dns::Message::mdns_query(&names.iter().map(|n| (n.as_str(), dns::RecordType::Ptr)).collect::<Vec<_>>());
        let bytes = message.to_bytes();
        let cut = cut.min(bytes.len());
        let _ = dns::Message::parse(&bytes[..cut]);
    }

    fn dhcp_roundtrip(g) {
        let xid = g.u32();
        let mac = mac(g);
        let hostname = g.option(|g| {
            g.string_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '-", 1, 30)
        });
        let repr = dhcpv4::Repr::discover(xid, mac, hostname, Some("dhcpcd-5.5.6".into()), vec![1, 3, 6]);
        let bytes = repr.to_bytes();
        let parsed = dhcpv4::Repr::parse(&dhcpv4::Packet::new_checked(&bytes[..]).unwrap()).unwrap();
        assert_eq!(parsed, repr);
    }

    fn dhcp_no_panic_on_mutation(g) {
        let mut byte = g.int_in(0usize..300);
        let value = g.u8();
        let repr = dhcpv4::Repr::discover(1, EthernetAddress([1, 2, 3, 4, 5, 6]), Some("host".into()), None, vec![1, 3]);
        let mut bytes = repr.to_bytes();
        byte %= bytes.len();
        bytes[byte] = value;
        if let Ok(packet) = dhcpv4::Packet::new_checked(&bytes[..]) {
            let _ = dhcpv4::Repr::parse(&packet);
        }
    }

    fn ssdp_no_panic_on_garbage(g) {
        let data = g.bytes(299);
        let _ = ssdp::Message::parse(&data);
    }

    fn coap_roundtrip(g) {
        // `[a-z]{1,8}(/[a-z0-9]{1,8}){0,3}`
        let mut path = g.label(1, 8);
        for _ in 0..g.int_in(0usize..=3) {
            path.push('/');
            path.push_str(&g.string_of("abcdefghijklmnopqrstuvwxyz0123456789", 1, 8));
        }
        let message = coap::Message::get(g.u16(), &path);
        let parsed = coap::Message::parse(&message.to_bytes()).unwrap();
        assert_eq!(parsed.uri_path(), path);
    }

    fn coap_no_panic_on_garbage(g) {
        let data = g.bytes(127);
        let _ = coap::Message::parse(&data);
    }

    fn netbios_roundtrip(g) {
        let query = netbios::Query::nbstat_wildcard(g.u16());
        assert_eq!(netbios::Query::parse(&query.to_bytes()).unwrap(), query);
    }

    fn tplink_cipher_involution(g) {
        let data = g.bytes(511);
        assert_eq!(tplink::decrypt(&tplink::encrypt(&data)), data);
    }

    fn tplink_no_panic_on_garbage(g) {
        let data = g.bytes(255);
        let _ = tplink::Message::from_udp_bytes(&data);
        let _ = tplink::Message::from_tcp_bytes(&data);
    }

    fn tuya_roundtrip(g) {
        let gw = g.string_of("abcdef0123456789", 10, 22);
        let pk = g.string_of("abcdefghijklmnopqrstuvwxyz0123456789", 8, 16);
        let frame = tuya::Frame::discovery(&gw, &pk, "192.168.10.61", "3.3");
        let parsed = tuya::Frame::parse(&frame.to_bytes()).unwrap();
        assert_eq!(parsed.gw_id(), Some(gw.as_str()));
    }

    fn tuya_no_panic_on_mutation(g) {
        let byte = g.int_in(0usize..64);
        let value = g.u8();
        let frame = tuya::Frame::discovery("abc123", "key", "192.168.0.9", "3.3");
        let mut bytes = frame.to_bytes();
        let byte = byte % bytes.len();
        bytes[byte] = value;
        let _ = tuya::Frame::parse(&bytes);
    }

    fn tls_record_roundtrip(g) {
        let (ct, ver) = (g.u8(), g.u16());
        let frag = g.bytes(255);
        let record = tls::Record { content_type: ct.into(), version: ver.into(), fragment: frag };
        let bytes = record.to_bytes();
        let (parsed, consumed) = tls::Record::parse(&bytes).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(consumed, bytes.len());
    }

    fn tls_handshake_no_panic(g) {
        let data = g.bytes(127);
        let _ = tls::Handshake::parse(&data);
    }

    fn rtp_roundtrip(g) {
        let header = rtp::Header {
            payload_type: g.int_in(0u8..128),
            sequence: g.u16(),
            timestamp: g.u32(),
            ssrc: g.u32(),
            marker: g.bool(),
            csrc_count: 0,
        };
        assert_eq!(rtp::Header::parse(&header.to_bytes()).unwrap(), header);
    }

    fn stun_roundtrip(g) {
        let header = stun::Header {
            kind: stun::MessageKind::BindingRequest,
            length: g.u16(),
            transaction_id: g.array(),
        };
        assert_eq!(stun::Header::parse(&header.to_bytes()).unwrap(), header);
    }

    fn lifx_roundtrip(g) {
        let header = lifx::Header::get_service(g.u32(), g.u8());
        assert_eq!(lifx::Header::parse(&header.to_bytes()).unwrap(), header);
    }

    fn pcap_roundtrip(g) {
        let packets = g.vec_of(0, 9, |g| pcap::PcapPacket {
            ts_sec: g.u32(),
            ts_usec: g.u32(),
            data: g.bytes(63),
        });
        let refs: Vec<(u32, u32, &[u8])> = packets
            .iter()
            .map(|p| (p.ts_sec, p.ts_usec, p.data.as_slice()))
            .collect();
        let image = pcap::write_pcap_refs(&refs);
        assert_eq!(pcap::read_pcap(&image).unwrap(), packets);
    }

    fn pcap_no_panic_on_garbage(g) {
        let data = g.bytes(199);
        let _ = pcap::read_pcap(&data);
    }

    fn netbios_name_encoding_involution(g) {
        let name = g.string_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", 1, 15);
        let encoded = netbios::encode_name(&name);
        assert_eq!(encoded.len(), 32);
        let raw = netbios::decode_name(&encoded).unwrap();
        let recovered = String::from_utf8_lossy(&raw).trim_end().to_string();
        assert_eq!(recovered, name);
    }
}
