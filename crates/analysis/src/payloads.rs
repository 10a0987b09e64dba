//! Table 5 payload-example extraction: pull representative identifier-
//! bearing payloads (SSDP, mDNS, NetBIOS, TPLINK-SHP) out of a capture and
//! render them like the paper's appendix.

use iotlan_classify::flow::FlowTable;

/// One rendered example.
#[derive(Debug, Clone)]
pub struct PayloadExample {
    pub protocol: String,
    pub rendered: String,
}

/// Extract up to one example per Table 5 protocol from a flow table.
pub fn payload_examples(table: &FlowTable) -> Vec<PayloadExample> {
    let wanted = ["SSDP", "mDNS", "NETBIOS", "TPLINK_SHP", "TuyaLP"];
    let mut out: Vec<PayloadExample> = Vec::new();
    for (flow, labels) in table.flows.iter().zip(table.labels()) {
        let protocol = labels.paper;
        let protocol = if protocol == "NETBIOS" {
            "NETBIOS"
        } else {
            protocol
        };
        if !wanted.contains(&protocol) {
            continue;
        }
        if out.iter().any(|e| e.protocol == protocol) {
            continue;
        }
        let Some(payload) = flow.first_payload() else {
            continue;
        };
        let rendered = match protocol {
            "SSDP" => String::from_utf8_lossy(payload).into_owned(),
            "mDNS" => iotlan_wire::dns::Message::parse(payload)
                .map(|m| m.text_content().join("\n"))
                .unwrap_or_else(|_| hexdump(payload)),
            "NETBIOS" => hexdump(payload),
            "TPLINK_SHP" => iotlan_wire::tplink::Message::from_udp_bytes(payload)
                .map(|m| m.body.pretty())
                .unwrap_or_else(|_| hexdump(payload)),
            "TuyaLP" => iotlan_wire::tuya::Frame::parse(payload)
                .map(|f| f.payload.to_string())
                .unwrap_or_else(|_| hexdump(payload)),
            _ => hexdump(payload),
        };
        out.push(PayloadExample {
            protocol: protocol.to_string(),
            rendered,
        });
    }
    out
}

/// The classic offset/hex/ASCII dump (Table 5's NetBIOS row format).
pub fn hexdump(data: &[u8]) -> String {
    let mut out = String::new();
    for (row, chunk) in data.chunks(16).enumerate() {
        out.push_str(&format!("{:08x}  ", row * 16));
        for i in 0..16 {
            match chunk.get(i) {
                Some(b) => out.push_str(&format!("{b:02x} ")),
                None => out.push_str("   "),
            }
        }
        out.push(' ');
        for &b in chunk {
            out.push(if (0x20..0x7f).contains(&b) {
                b as char
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_netsim::stack::{self, Endpoint};
    use iotlan_netsim::SimTime;

    fn ep(last: u8) -> Endpoint {
        Endpoint {
            mac: iotlan_wire::ethernet::EthernetAddress([2, 0, 0, 0, 0, last]),
            ip: std::net::Ipv4Addr::new(192, 168, 10, last),
        }
    }

    #[test]
    fn extracts_table5_examples() {
        let mut table = FlowTable::default();
        let ssdp_response = iotlan_wire::ssdp::Message::response(
            "upnp:rootdevice",
            "device_3_0-AMC020SC43PJ749D66",
            Some("http://192.168.10.31:49152/rootDesc.xml"),
            Some("Linux, UPnP/1.0, Private UPnP SDK"),
        );
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_unicast(ep(1), ep(2), 1900, 50000, &ssdp_response.to_bytes()),
        );
        let netbios = iotlan_wire::netbios::Query::nbstat_wildcard(1);
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_unicast(ep(3), ep(4), 137, 137, &netbios.to_bytes()),
        );
        let shp = iotlan_wire::tplink::Message::sysinfo_response(
            "TP-Link Plug",
            "Smart Plug",
            "8006E8E9017F556D283C850B4E29BC1F185334E5",
            "HW",
            "FFF22CFF774A0B89F7624BFC6F50D5DE",
            42.337681,
            -71.087036,
            1,
        );
        table.add_frame(
            SimTime::ZERO,
            &stack::udp_unicast(ep(5), ep(6), 9999, 43000, &shp.to_udp_bytes()),
        );

        let examples = payload_examples(&table);
        assert_eq!(examples.len(), 3);
        let ssdp = examples.iter().find(|e| e.protocol == "SSDP").unwrap();
        assert!(ssdp.rendered.contains("AMC020SC43PJ749D66"));
        let nb = examples.iter().find(|e| e.protocol == "NETBIOS").unwrap();
        // The Table 5 NetBIOS bytes: 0x43 0x4b ('C','K') then the 'A' run.
        assert!(nb.rendered.contains("43 4b 41"));
        assert!(nb.rendered.contains("AAAAAAAAAAAAAAAA"));
        let tp = examples
            .iter()
            .find(|e| e.protocol == "TPLINK_SHP")
            .unwrap();
        assert!(tp
            .rendered
            .contains("8006E8E9017F556D283C850B4E29BC1F185334E5"));
        assert!(tp.rendered.contains("42.337681"));
    }

    #[test]
    fn hexdump_format() {
        let dump = hexdump(b"CKAAAAAAAAAAAAAAAAAA");
        assert!(dump.starts_with("00000000  43 4b 41 41"));
        assert!(dump.contains("CKAAAAAAAAAAAAAA"));
    }
}
