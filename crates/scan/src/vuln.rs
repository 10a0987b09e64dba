//! The Nessus-style vulnerability scanner: a plugin engine over the
//! observable service surface (banners, certificates, service software,
//! served paths), with a CVE knowledge base covering every §5.2 finding:
//!
//! * SWEET32 / small TLS keys on Google's port 8009 (CVE-2016-2183, High);
//! * jQuery 1.2 XSS on the Microseven camera (CVE-2020-11022/11023);
//! * unauthenticated ONVIF snapshot + account enumeration (Microseven);
//! * web-accessible backup/configuration files (Lefun);
//! * SheerDNS 1.0.0 known flaws and DNS cache snooping (HomePod, WeMo);
//! * deprecated UPnP 1.0 stacks and IGD searches (Roku, smart TVs);
//! * unauthenticated TP-Link SHP control;
//! * very-long-validity self-signed certificates (D-Link/SmartThings/Hue);
//! * open Telnet.

use iotlan_devices::config::{DeviceConfig, TplinkRole};
use iotlan_devices::services::ServiceKind;
use iotlan_devices::Catalog;

/// Finding severity, Nessus-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Low,
    Medium,
    High,
    Critical,
}

/// One vulnerability/exposure finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub plugin: &'static str,
    pub severity: Severity,
    pub cve: Option<&'static str>,
    pub port: Option<u16>,
    pub description: String,
}

/// A scanner plugin.
pub trait Plugin {
    fn name(&self) -> &'static str;
    fn check(&self, device: &DeviceConfig) -> Vec<Finding>;
}

macro_rules! plugin {
    ($struct_name:ident, $name:expr, |$device:ident| $body:block) => {
        pub struct $struct_name;
        impl Plugin for $struct_name {
            fn name(&self) -> &'static str {
                $name
            }
            fn check(&self, $device: &DeviceConfig) -> Vec<Finding> {
                $body
            }
        }
    };
}

plugin!(Sweet32SmallKey, "ssl-weak-key", |device| {
    let mut findings = Vec::new();
    for service in &device.open_tcp {
        if let ServiceKind::Tls {
            certificate,
            cipher_suite,
            encrypted_certificates,
            ..
        } = &service.service
        {
            if *encrypted_certificates {
                continue; // TLS 1.3 hides the certificate from the scanner
            }
            if certificate.key_bits < 128 {
                findings.push(Finding {
                    plugin: "ssl-weak-key",
                    severity: Severity::High,
                    cve: Some("CVE-2016-2183"),
                    port: Some(service.port),
                    description: format!(
                        "TLS service on port {} presents a {}-bit key; \
                         long sessions are subject to birthday attacks (SWEET32)",
                        service.port, certificate.key_bits
                    ),
                });
            } else if *cipher_suite == iotlan_wire::tls::TLS_RSA_WITH_3DES_EDE_CBC_SHA {
                findings.push(Finding {
                    plugin: "ssl-weak-key",
                    severity: Severity::High,
                    cve: Some("CVE-2016-2183"),
                    port: Some(service.port),
                    description: format!(
                        "TLS service on port {} negotiates 3DES (SWEET32)",
                        service.port
                    ),
                });
            }
        }
    }
    findings
});

plugin!(LongLivedSelfSigned, "ssl-self-signed-long", |device| {
    let mut findings = Vec::new();
    for service in &device.open_tcp {
        if let ServiceKind::Tls {
            certificate,
            encrypted_certificates,
            ..
        } = &service.service
        {
            if *encrypted_certificates {
                continue;
            }
            if certificate.self_signed && certificate.validity_days > 3650 {
                findings.push(Finding {
                    plugin: "ssl-self-signed-long",
                    severity: Severity::Medium,
                    cve: None,
                    port: Some(service.port),
                    description: format!(
                        "self-signed certificate valid for {} years on port {}",
                        certificate.validity_days / 365,
                        service.port
                    ),
                });
            }
        }
    }
    findings
});

plugin!(JQueryXss, "jquery-1.2-xss", |device| {
    let mut findings = Vec::new();
    for service in &device.open_tcp {
        if let ServiceKind::Http { index_body, .. } = &service.service {
            if index_body.contains("jquery-1.2") {
                for cve in ["CVE-2020-11022", "CVE-2020-11023"] {
                    findings.push(Finding {
                        plugin: "jquery-1.2-xss",
                        severity: Severity::Medium,
                        cve: Some(cve),
                        port: Some(service.port),
                        description:
                            "HTTP server ships jQuery 1.2, which has multiple XSS vulnerabilities"
                                .into(),
                    });
                }
            }
        }
    }
    findings
});

plugin!(ExposedFiles, "web-exposed-files", |device| {
    let mut findings = Vec::new();
    for service in &device.open_tcp {
        if let ServiceKind::Http { extra_paths, .. } = &service.service {
            for (path, _) in extra_paths {
                if path.contains("backup") || path.contains(".conf") {
                    findings.push(Finding {
                        plugin: "web-exposed-files",
                        severity: Severity::High,
                        cve: None,
                        port: Some(service.port),
                        description: format!("backup/configuration file accessible at {path}"),
                    });
                }
                if path.contains("onvif") {
                    findings.push(Finding {
                        plugin: "web-exposed-files",
                        severity: Severity::High,
                        cve: None,
                        port: Some(service.port),
                        description: format!(
                            "unauthenticated camera snapshot available at {path} (ONVIF)"
                        ),
                    });
                }
                if path.contains("users") {
                    findings.push(Finding {
                        plugin: "web-exposed-files",
                        severity: Severity::Medium,
                        cve: None,
                        port: Some(service.port),
                        description: format!("user-account listing at {path}"),
                    });
                }
            }
        }
    }
    findings
});

plugin!(DnsIssues, "dns-server-issues", |device| {
    let mut findings = Vec::new();
    for service in device.open_udp.iter().chain(&device.open_tcp) {
        if let ServiceKind::Dns {
            software,
            cached_names,
            reveals_hostname,
        } = &service.service
        {
            if software.contains("SheerDNS 1.0") {
                findings.push(Finding {
                    plugin: "dns-server-issues",
                    severity: Severity::High,
                    cve: None,
                    port: Some(service.port),
                    description: "SheerDNS < 1.0.1 has multiple known vulnerabilities".into(),
                });
            }
            if !cached_names.is_empty() {
                findings.push(Finding {
                    plugin: "dns-server-issues",
                    severity: Severity::Medium,
                    cve: None,
                    port: Some(service.port),
                    description: "DNS server allows cache snooping (remote information disclosure)"
                        .into(),
                });
            }
            if *reveals_hostname {
                findings.push(Finding {
                    plugin: "dns-server-issues",
                    severity: Severity::Low,
                    cve: None,
                    port: Some(service.port),
                    description: "DNS service reveals internal host name and resolver IP".into(),
                });
            }
        }
    }
    findings
});

plugin!(LegacyUpnp, "upnp-legacy", |device| {
    let mut findings = Vec::new();
    if let Some(ssdp) = &device.ssdp {
        if ssdp.upnp_version_10 {
            findings.push(Finding {
                plugin: "upnp-legacy",
                severity: Severity::Medium,
                cve: None,
                port: Some(1900),
                description: format!(
                    "UPnP 1.0 stack ({}), fifteen years past UPnP 1.1, known exploitable",
                    ssdp.server_banner
                ),
            });
        }
        if ssdp
            .search_targets
            .iter()
            .any(|t| t.contains("InternetGatewayDevice"))
        {
            findings.push(Finding {
                plugin: "upnp-legacy",
                severity: Severity::Medium,
                cve: None,
                port: Some(1900),
                description:
                    "device issues IGD SSDP searches; IGD is abused by malware for port mapping"
                        .into(),
            });
        }
    }
    findings
});

plugin!(
    UnauthenticatedControl,
    "unauthenticated-control",
    |device| {
        let mut findings = Vec::new();
        if matches!(device.tplink, Some(TplinkRole::Server { .. })) {
            findings.push(Finding {
                plugin: "unauthenticated-control",
                severity: Severity::High,
                cve: None,
                port: Some(9999),
                description:
                    "TPLINK-SHP accepts unauthenticated control commands from any LAN host".into(),
            });
        }
        findings
    }
);

plugin!(GeolocationExposure, "geolocation-exposure", |device| {
    let mut findings = Vec::new();
    if let Some(TplinkRole::Server {
        latitude,
        longitude,
        ..
    }) = &device.tplink
    {
        findings.push(Finding {
            plugin: "geolocation-exposure",
            severity: Severity::High,
            cve: None,
            port: Some(9999),
            description: format!(
                "discovery responses disclose plaintext geolocation ({latitude:.6}, {longitude:.6})"
            ),
        });
    }
    findings
});

plugin!(OpenTelnet, "telnet-open", |device| {
    device
        .open_tcp
        .iter()
        .filter_map(|service| match &service.service {
            ServiceKind::Telnet { banner } => Some(Finding {
                plugin: "telnet-open",
                severity: Severity::High,
                cve: None,
                port: Some(service.port),
                description: format!("open Telnet service ({banner})"),
            }),
            _ => None,
        })
        .collect()
});

/// The full plugin set.
pub fn all_plugins() -> Vec<Box<dyn Plugin>> {
    vec![
        Box::new(Sweet32SmallKey),
        Box::new(LongLivedSelfSigned),
        Box::new(JQueryXss),
        Box::new(ExposedFiles),
        Box::new(DnsIssues),
        Box::new(LegacyUpnp),
        Box::new(UnauthenticatedControl),
        Box::new(GeolocationExposure),
        Box::new(OpenTelnet),
    ]
}

/// Scan one device with every plugin.
pub fn scan_device(device: &DeviceConfig) -> Vec<Finding> {
    all_plugins()
        .iter()
        .flat_map(|plugin| plugin.check(device))
        .collect()
}

/// Scan the whole catalog; returns (device name, findings) pairs for
/// devices with at least one finding.
pub fn scan_catalog_vulns(catalog: &Catalog) -> Vec<(String, Vec<Finding>)> {
    catalog
        .devices
        .iter()
        .filter_map(|device| {
            let findings = scan_device(device);
            if findings.is_empty() {
                None
            } else {
                Some((device.name.clone(), findings))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_devices::build_testbed;

    #[test]
    fn google_8009_high_severity() {
        let catalog = build_testbed();
        let nest = catalog.find("Google Nest Hub").unwrap();
        let findings = scan_device(nest);
        let sweet32 = findings
            .iter()
            .find(|f| f.plugin == "ssl-weak-key")
            .expect("small-key finding");
        assert_eq!(sweet32.severity, Severity::High);
        assert_eq!(sweet32.cve, Some("CVE-2016-2183"));
        assert_eq!(sweet32.port, Some(8009));
    }

    #[test]
    fn microseven_jquery_and_onvif() {
        let catalog = build_testbed();
        let cam = catalog.find("Microseven Camera").unwrap();
        let findings = scan_device(cam);
        assert!(findings.iter().any(|f| f.cve == Some("CVE-2020-11022")));
        assert!(findings.iter().any(|f| f.cve == Some("CVE-2020-11023")));
        assert!(findings.iter().any(|f| f.description.contains("snapshot")));
        assert!(findings
            .iter()
            .any(|f| f.description.contains("user-account")));
    }

    #[test]
    fn lefun_backup_files() {
        let catalog = build_testbed();
        let cam = catalog.find("Lefun Camera").unwrap();
        let findings = scan_device(cam);
        assert!(findings
            .iter()
            .any(|f| f.plugin == "web-exposed-files" && f.severity == Severity::High));
    }

    #[test]
    fn homepod_sheerdns_and_snooping() {
        let catalog = build_testbed();
        let homepod = catalog.find("Apple HomePod Mini A").unwrap();
        let findings = scan_device(homepod);
        assert!(findings.iter().any(|f| f.description.contains("SheerDNS")));
        assert!(findings
            .iter()
            .any(|f| f.description.contains("cache snooping")));
        assert!(findings
            .iter()
            .any(|f| f.description.contains("internal host name")));
    }

    #[test]
    fn apple_tls13_hides_certificate_from_scanner() {
        let catalog = build_testbed();
        let homepod = catalog.find("Apple HomePod").unwrap();
        let findings = scan_device(homepod);
        // The HomePod's AirPlay TLS is 1.3 with encrypted certs: the cert
        // plugins must not fire.
        assert!(!findings.iter().any(|f| f.plugin == "ssl-weak-key"));
        assert!(!findings.iter().any(|f| f.plugin == "ssl-self-signed-long"));
    }

    #[test]
    fn tplink_unauthenticated_control_and_geolocation() {
        let catalog = build_testbed();
        let plug = catalog.find("TP-Link Smart Plug").unwrap();
        let findings = scan_device(plug);
        assert!(findings
            .iter()
            .any(|f| f.plugin == "unauthenticated-control"));
        let geo = findings
            .iter()
            .find(|f| f.plugin == "geolocation-exposure")
            .unwrap();
        assert!(geo.description.contains("42.33"));
    }

    #[test]
    fn roku_igd_flagged() {
        let catalog = build_testbed();
        let roku = catalog.find("Roku Express").unwrap();
        let findings = scan_device(roku);
        assert!(findings.iter().any(|f| f.description.contains("IGD")));
    }

    #[test]
    fn long_lived_hub_certificates() {
        let catalog = build_testbed();
        for name in ["Philips Hue Bridge", "SmartThings Hub", "D-Link Camera"] {
            let device = catalog.find(name).unwrap();
            let findings = scan_device(device);
            assert!(
                findings.iter().any(|f| f.plugin == "ssl-self-signed-long"),
                "{name} should have a long-lived self-signed cert"
            );
        }
    }

    #[test]
    fn catalog_wide_scan_nonempty_but_not_universal() {
        let catalog = build_testbed();
        let results = scan_catalog_vulns(&catalog);
        // Many devices have findings (the UPnP 1.0 fleet alone is large),
        // but quiet sensors are clean.
        assert!(results.len() > 20);
        assert!(results.len() < 93);
        let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
        assert!(!names.contains(&"Renpho Scale"));
    }
}
