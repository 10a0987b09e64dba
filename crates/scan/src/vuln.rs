//! The Nessus-style vulnerability scanner: a table of plugin checks over the
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

/// Collects one plugin's findings under its name.
struct Report<'a> {
    plugin: &'static str,
    findings: &'a mut Vec<Finding>,
}

impl Report<'_> {
    fn add(
        &mut self,
        severity: Severity,
        cve: Option<&'static str>,
        port: u16,
        description: impl Into<String>,
    ) {
        self.findings.push(Finding {
            plugin: self.plugin,
            severity,
            cve,
            port: Some(port),
            description: description.into(),
        });
    }
}

/// The plugin set in report order: each plugin's name and its check.
const PLUGINS: [(&str, fn(&DeviceConfig, &mut Report)); 9] = [
    ("ssl-weak-key", sweet32_small_key),
    ("ssl-self-signed-long", long_lived_self_signed),
    ("jquery-1.2-xss", jquery_xss),
    ("web-exposed-files", exposed_files),
    ("dns-server-issues", dns_issues),
    ("upnp-legacy", legacy_upnp),
    ("unauthenticated-control", unauthenticated_control),
    ("geolocation-exposure", geolocation_exposure),
    ("telnet-open", open_telnet),
];

fn sweet32_small_key(device: &DeviceConfig, report: &mut Report) {
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
                report.add(
                    Severity::High,
                    Some("CVE-2016-2183"),
                    service.port,
                    format!(
                        "TLS service on port {} presents a {}-bit key; \
                         long sessions are subject to birthday attacks (SWEET32)",
                        service.port, certificate.key_bits
                    ),
                );
            } else if *cipher_suite == iotlan_wire::tls::TLS_RSA_WITH_3DES_EDE_CBC_SHA {
                report.add(
                    Severity::High,
                    Some("CVE-2016-2183"),
                    service.port,
                    format!(
                        "TLS service on port {} negotiates 3DES (SWEET32)",
                        service.port
                    ),
                );
            }
        }
    }
}

fn long_lived_self_signed(device: &DeviceConfig, report: &mut Report) {
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
                report.add(
                    Severity::Medium,
                    None,
                    service.port,
                    format!(
                        "self-signed certificate valid for {} years on port {}",
                        certificate.validity_days / 365,
                        service.port
                    ),
                );
            }
        }
    }
}

fn jquery_xss(device: &DeviceConfig, report: &mut Report) {
    for service in &device.open_tcp {
        if let ServiceKind::Http { index_body, .. } = &service.service {
            if index_body.contains("jquery-1.2") {
                for cve in ["CVE-2020-11022", "CVE-2020-11023"] {
                    report.add(
                        Severity::Medium,
                        Some(cve),
                        service.port,
                        "HTTP server ships jQuery 1.2, which has multiple XSS vulnerabilities",
                    );
                }
            }
        }
    }
}

fn exposed_files(device: &DeviceConfig, report: &mut Report) {
    for service in &device.open_tcp {
        if let ServiceKind::Http { extra_paths, .. } = &service.service {
            for (path, _) in extra_paths {
                if path.contains("backup") || path.contains(".conf") {
                    report.add(
                        Severity::High,
                        None,
                        service.port,
                        format!("backup/configuration file accessible at {path}"),
                    );
                }
                if path.contains("onvif") {
                    report.add(
                        Severity::High,
                        None,
                        service.port,
                        format!("unauthenticated camera snapshot available at {path} (ONVIF)"),
                    );
                }
                if path.contains("users") {
                    report.add(
                        Severity::Medium,
                        None,
                        service.port,
                        format!("user-account listing at {path}"),
                    );
                }
            }
        }
    }
}

fn dns_issues(device: &DeviceConfig, report: &mut Report) {
    for service in device.open_udp.iter().chain(&device.open_tcp) {
        if let ServiceKind::Dns {
            software,
            cached_names,
            reveals_hostname,
        } = &service.service
        {
            if software.contains("SheerDNS 1.0") {
                report.add(
                    Severity::High,
                    None,
                    service.port,
                    "SheerDNS < 1.0.1 has multiple known vulnerabilities",
                );
            }
            if !cached_names.is_empty() {
                report.add(
                    Severity::Medium,
                    None,
                    service.port,
                    "DNS server allows cache snooping (remote information disclosure)",
                );
            }
            if *reveals_hostname {
                report.add(
                    Severity::Low,
                    None,
                    service.port,
                    "DNS service reveals internal host name and resolver IP",
                );
            }
        }
    }
}

fn legacy_upnp(device: &DeviceConfig, report: &mut Report) {
    let Some(ssdp) = &device.ssdp else { return };
    if ssdp.upnp_version_10 {
        report.add(
            Severity::Medium,
            None,
            1900,
            format!(
                "UPnP 1.0 stack ({}), fifteen years past UPnP 1.1, known exploitable",
                ssdp.server_banner
            ),
        );
    }
    if ssdp
        .search_targets
        .iter()
        .any(|t| t.contains("InternetGatewayDevice"))
    {
        report.add(
            Severity::Medium,
            None,
            1900,
            "device issues IGD SSDP searches; IGD is abused by malware for port mapping",
        );
    }
}

fn unauthenticated_control(device: &DeviceConfig, report: &mut Report) {
    if matches!(device.tplink, Some(TplinkRole::Server { .. })) {
        report.add(
            Severity::High,
            None,
            9999,
            "TPLINK-SHP accepts unauthenticated control commands from any LAN host",
        );
    }
}

fn geolocation_exposure(device: &DeviceConfig, report: &mut Report) {
    if let Some(TplinkRole::Server {
        latitude,
        longitude,
        ..
    }) = &device.tplink
    {
        report.add(
            Severity::High,
            None,
            9999,
            format!(
                "discovery responses disclose plaintext geolocation ({latitude:.6}, {longitude:.6})"
            ),
        );
    }
}

fn open_telnet(device: &DeviceConfig, report: &mut Report) {
    for service in &device.open_tcp {
        if let ServiceKind::Telnet { banner } = &service.service {
            report.add(
                Severity::High,
                None,
                service.port,
                format!("open Telnet service ({banner})"),
            );
        }
    }
}

/// Scan one device with every plugin.
pub fn scan_device(device: &DeviceConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (plugin, check) in PLUGINS {
        check(
            device,
            &mut Report {
                plugin,
                findings: &mut findings,
            },
        );
    }
    findings
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
