//! nmap-style service-name inference, "primarily rel[ying] on port numbers
//! and packet responses" (§3.5) — and therefore wrong in the exact ways the
//! paper hand-corrected. The weird labels in Figure 2's long tail (AJP,
//! SOCKS5, EZMEETING-2, CSLISTENER, HTTPS-ALT, SCP-CONFIG, IRC, RMONITOR,
//! WEAVE) are nmap's port-table names for the testbed's nonstandard ports.

use iotlan_devices::services::ServiceKind;

/// nmap's `services` table for the ports that matter in this testbed.
/// Returns the *port-table* name, which is often not the truth.
pub fn nmap_service_name(port: u16, udp: bool) -> &'static str {
    if udp {
        match port {
            53 => "domain",
            67 => "dhcps",
            68 => "dhcpc",
            123 => "ntp",
            137 => "netbios-ns",
            320 => "ptp-event",
            1900 => "upnp",
            5353 => "zeroconf",
            5683 => "coap",
            6666 => "irc",      // nmap: irc — actually TuyaLP
            6667 => "irc",      // nmap: irc — actually TuyaLP
            9999 => "distinct", // actually TPLINK-SHP discovery
            55444 => "unknown",
            56700 => "unknown",
            _ => "unknown",
        }
    } else {
        match port {
            23 => "telnet",
            53 => "domain",
            80 => "http",
            443 => "https",
            554 => "rtsp",
            1080 => "socks5",
            1424 => "hybrid",
            3000 => "ppp",   // nmap's 3000/tcp entry
            4070 => "tripe", // actually Amazon device control (HTTPS)
            6466 => "unknown",
            6667 => "irc",
            7000 => "afs3-fileserver", // actually AirPlay TLS
            7676 => "imqbrokerd",
            8002 => "teradataordbms",
            560 => "rmonitor",
            8008 => "http",
            8009 => "ajp13", // the Figure 2 "AJP" — actually Google cast TLS
            8060 => "aero",  // actually Roku ECP (HTTP)
            8080 => "http-proxy",
            8443 => "https-alt",
            8800 => "sunwebadmin",
            8888 => "sun-answerbook",
            8889 => "ddi-tcp-2",
            9000 => "cslistener",
            9080 => "glrpc",
            9999 => "abyss", // actually TPLINK-SHP control
            10001 => "scp-config",
            10101 => "ezmeeting-2",
            11095 => "weave",
            34567 => "dhanalakshmi", // the XM DVR port; nmap's table name
            49153 => "unknown",
            55442.. => "unknown", // Amazon audio cache / device control / RTP
            _ => "unknown",
        }
    }
}

/// A service identification: nmap's guess, and the truth after the paper's
/// manual validation ("We manually validated and corrected nmap labels").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceId {
    pub port: u16,
    pub udp: bool,
    /// What nmap's port table says.
    pub nmap_label: &'static str,
    /// The corrected label from banner/behaviour inspection.
    pub corrected_label: &'static str,
}

/// Identify a service using the port table plus the manual correction the
/// paper applied (the corrected label comes from the actual service model,
/// standing in for the authors' banner-and-payload inspection).
pub fn identify(port: u16, udp: bool, service: &ServiceKind) -> ServiceId {
    ServiceId {
        port,
        udp,
        nmap_label: nmap_service_name(port, udp),
        corrected_label: service.truth_label(),
    }
}

/// Did nmap's port-table guess disagree with the validated truth?
pub fn was_mislabeled(id: &ServiceId) -> bool {
    // Compare loosely: "http"/"HTTP", "https-alt" vs TLS, etc.
    let nmap = id.nmap_label.to_ascii_lowercase();
    let truth = id.corrected_label.to_ascii_lowercase();
    match truth.as_str() {
        "http" => !(nmap.contains("http") && !nmap.contains("https")),
        "tls" => !(nmap.contains("https") || nmap.contains("ssl")),
        "telnet" => nmap != "telnet",
        "dns" => nmap != "domain",
        "http.rtsp" => nmap != "rtsp",
        "tplink_shp" => true, // nmap never knows TPLINK-SHP
        "unknown" => false,   // both clueless: not a mislabel
        _ => nmap != truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_long_tail_names() {
        assert_eq!(nmap_service_name(8009, false), "ajp13");
        assert_eq!(nmap_service_name(9000, false), "cslistener");
        assert_eq!(nmap_service_name(8443, false), "https-alt");
        assert_eq!(nmap_service_name(10001, false), "scp-config");
        assert_eq!(nmap_service_name(10101, false), "ezmeeting-2");
        assert_eq!(nmap_service_name(11095, false), "weave");
        assert_eq!(nmap_service_name(1080, false), "socks5");
        assert_eq!(nmap_service_name(6667, true), "irc");
    }

    #[test]
    fn google_cast_port_mislabeled_as_ajp() {
        // The real 8009 service is TLS; nmap's table says ajp13.
        let service = ServiceKind::Tls {
            version: iotlan_wire::tls::Version::Tls12,
            cipher_suite: 0x000a,
            certificate: iotlan_wire::tls::CertificateInfo {
                issuer_cn: "x".into(),
                subject_cn: "y".into(),
                validity_days: 7300,
                key_bits: 96,
                self_signed: false,
            },
            encrypted_certificates: false,
        };
        let id = identify(8009, false, &service);
        assert_eq!(id.nmap_label, "ajp13");
        assert_eq!(id.corrected_label, "TLS");
        assert!(was_mislabeled(&id));
    }

    #[test]
    fn http_on_port_80_correct() {
        let service = ServiceKind::Http {
            server_banner: None,
            index_body: String::new(),
            extra_paths: vec![],
        };
        let id = identify(80, false, &service);
        assert_eq!(id.nmap_label, "http");
        assert!(!was_mislabeled(&id));
    }

    #[test]
    fn tplink_always_mislabeled() {
        let id = identify(9999, false, &ServiceKind::TplinkShp);
        assert_eq!(id.nmap_label, "abyss");
        assert!(was_mislabeled(&id));
    }

    #[test]
    fn telnet_and_dns_correct() {
        let telnet = identify(23, false, &ServiceKind::Telnet { banner: "b".into() });
        assert!(!was_mislabeled(&telnet));
        let dns = identify(
            53,
            true,
            &ServiceKind::Dns {
                software: "SheerDNS 1.0.0".into(),
                cached_names: vec![],
                reveals_hostname: false,
            },
        );
        assert!(!was_mislabeled(&dns));
    }

    #[test]
    fn opaque_ports_not_counted_as_mislabels() {
        let id = identify(
            55442,
            false,
            &ServiceKind::Opaque {
                label: "amzn".into(),
            },
        );
        // nmap says unknown, truth says UNKNOWN: both clueless.
        assert!(!was_mislabeled(&id));
    }
}
