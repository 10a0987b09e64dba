//! App configurations and the 2,335-app population of §3.2, with behaviour
//! rates calibrated to §4.3/§6.1: mDNS 6.0% of apps, SSDP/UPnP 4.0%,
//! NetBIOS 0.5% (10 apps, only 2 of them IoT), TLS-to-device 25%, and 9%
//! of apps using at least one discovery protocol.

use crate::android::Permission;
use crate::sdk::SdkKind;

/// IoT companion app vs regular (social/game/news) app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppCategory {
    Iot,
    Regular,
}

/// A local-network behaviour an app exhibits during a test run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppBehavior {
    /// mDNS service discovery for the given service types.
    MdnsScan(Vec<String>),
    /// SSDP M-SEARCH for the given targets.
    SsdpScan(Vec<String>),
    /// NetBIOS NBSTAT sweep (the innosdk pattern).
    NetBiosScan,
    /// TLS connection to a paired device's local API port.
    TlsToDevice { dst_port: u16 },
    /// TPLINK-SHP discovery broadcast (Kasa and platform apps).
    TplinkDiscovery,
    /// TuyaLP discovery broadcast (Tuya Smart app).
    TuyaDiscovery,
    /// Read the router SSID/BSSID via official APIs and upload.
    CollectRouterInfo,
    /// Upload the Android Advertising ID alongside harvested data
    /// (the Blueair pattern: MAC + AAID + geolocation).
    AttachAdvertisingId,
    /// Receive device MACs in *downlink* traffic from the cloud (the §6.1
    /// observation on 13 companion apps).
    DownlinkMacReceipt,
}

/// One app.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Package name, e.g. `com.tpl.kasa`.
    pub package: String,
    pub category: AppCategory,
    pub permissions: Vec<Permission>,
    pub behaviors: Vec<AppBehavior>,
    pub sdks: Vec<SdkKind>,
}

impl AppConfig {
    /// Does the app use any local discovery protocol (the 9% statistic)?
    pub fn scans_network(&self) -> bool {
        self.behaviors.iter().any(|b| {
            matches!(
                b,
                AppBehavior::MdnsScan(_)
                    | AppBehavior::SsdpScan(_)
                    | AppBehavior::NetBiosScan
                    | AppBehavior::TplinkDiscovery
                    | AppBehavior::TuyaDiscovery
            )
        })
    }

    pub fn uses_mdns(&self) -> bool {
        self.behaviors
            .iter()
            .any(|b| matches!(b, AppBehavior::MdnsScan(_)))
    }

    pub fn uses_ssdp(&self) -> bool {
        self.behaviors
            .iter()
            .any(|b| matches!(b, AppBehavior::SsdpScan(_)))
    }

    pub fn uses_netbios(&self) -> bool {
        self.behaviors.contains(&AppBehavior::NetBiosScan)
    }

    pub fn uses_tls(&self) -> bool {
        self.behaviors
            .iter()
            .any(|b| matches!(b, AppBehavior::TlsToDevice { .. }))
    }
}

fn base_permissions() -> Vec<Permission> {
    vec![
        Permission::Internet,
        Permission::ChangeWifiMulticastState,
        Permission::AccessWifiState,
    ]
}

/// The named case-study apps, modelled explicitly.
pub fn named_apps() -> Vec<AppConfig> {
    let cast = || "_googlecast._tcp.local".to_string();
    let airplay = || "_airplay._tcp.local".to_string();
    vec![
        AppConfig {
            package: "com.amazon.dee.app".into(), // Alexa companion
            category: AppCategory::Iot,
            permissions: base_permissions(),
            behaviors: vec![
                AppBehavior::MdnsScan(vec!["_amzn-wplay._tcp.local".into()]),
                AppBehavior::SsdpScan(vec!["ssdp:all".into()]),
                AppBehavior::TplinkDiscovery,
                AppBehavior::TlsToDevice { dst_port: 55443 },
                AppBehavior::DownlinkMacReceipt,
            ],
            sdks: vec![SdkKind::Amplitude],
        },
        AppConfig {
            package: "com.google.android.apps.chromecast.app".into(), // Google Home
            category: AppCategory::Iot,
            permissions: base_permissions(),
            behaviors: vec![
                AppBehavior::MdnsScan(vec![cast()]),
                AppBehavior::SsdpScan(vec!["urn:dial-multiscreen-org:service:dial:1".into()]),
                AppBehavior::TlsToDevice { dst_port: 8009 },
                AppBehavior::CollectRouterInfo,
                AppBehavior::DownlinkMacReceipt,
            ],
            sdks: vec![],
        },
        AppConfig {
            package: "com.tplink.kasa_android".into(),
            category: AppCategory::Iot,
            permissions: base_permissions(),
            behaviors: vec![
                AppBehavior::TplinkDiscovery,
                AppBehavior::CollectRouterInfo,
                AppBehavior::AttachAdvertisingId,
            ],
            sdks: vec![],
        },
        AppConfig {
            package: "com.tuya.smart".into(),
            category: AppCategory::Iot,
            permissions: base_permissions(),
            behaviors: vec![
                AppBehavior::TuyaDiscovery,
                AppBehavior::MdnsScan(vec!["_matter._tcp.local".into()]),
                AppBehavior::DownlinkMacReceipt,
            ],
            sdks: vec![SdkKind::TuyaSdk],
        },
        AppConfig {
            package: "com.blueair.android".into(),
            category: AppCategory::Iot,
            permissions: {
                let mut p = base_permissions();
                p.push(Permission::AccessCoarseLocation);
                p
            },
            behaviors: vec![
                AppBehavior::MdnsScan(vec!["_services._dns-sd._udp.local".into()]),
                AppBehavior::AttachAdvertisingId,
            ],
            sdks: vec![],
        },
        AppConfig {
            package: "com.cnn.mobile.android.phone".into(), // CNN 6.18.3
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![AppBehavior::SsdpScan(vec![
                "urn:dial-multiscreen-org:service:dial:1".into(),
            ])],
            sdks: vec![SdkKind::AppDynamics],
        },
        AppConfig {
            package: "org.speedspot.speedspotspeedtest".into(), // Simple Speedcheck
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![AppBehavior::SsdpScan(vec![
                "urn:schemas-upnp-org:device:InternetGatewayDevice:1".into(),
            ])],
            sdks: vec![SdkKind::UmlautInsightCore],
        },
        AppConfig {
            package: "com.luckyapp.winner".into(), // Lucky Time
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![AppBehavior::NetBiosScan],
            sdks: vec![SdkKind::InnoSdk],
        },
        AppConfig {
            package: "com.pzolee.networkscanner".into(), // Device Finder
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![
                AppBehavior::NetBiosScan,
                AppBehavior::MdnsScan(vec![cast()]),
            ],
            sdks: vec![],
        },
        AppConfig {
            package: "com.myprog.netscan".into(), // Network Scanner
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![AppBehavior::NetBiosScan],
            sdks: vec![],
        },
        AppConfig {
            package: "com.spotify.music".into(),
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![AppBehavior::MdnsScan(vec![
                "_spotify-connect._tcp.local".into()
            ])],
            sdks: vec![],
        },
        AppConfig {
            package: "tv.apple.remote".into(),
            category: AppCategory::Regular,
            permissions: base_permissions(),
            behaviors: vec![AppBehavior::MdnsScan(vec![airplay()])],
            sdks: vec![],
        },
    ]
}

/// Build the full 2,335-app population: the named apps plus synthesized
/// apps whose behaviour mixture matches the paper's aggregates. Fully
/// deterministic (no RNG: counts are exact).
pub fn build_population() -> Vec<AppConfig> {
    let mut apps = named_apps();

    // Behaviour targets over N = 2335:
    //   mDNS    : 6.0%  -> 140 apps
    //   SSDP    : 4.0%  ->  93 apps
    //   NetBIOS : 0.5%  ->  10 apps (2 IoT, 8 regular)
    //   TLS     : 25%   -> 584 apps
    //   scan any: ~9%   -> achieved via mDNS∩SSDP overlap
    //   router-info upload: SSID 36, router MAC 28, Wi-Fi MAC 15 (§6.1)
    const TOTAL: usize = 2335;
    const IOT: usize = 987;
    let named_count = apps.len();

    let mut mdns_left = 140usize.saturating_sub(apps.iter().filter(|a| a.uses_mdns()).count());
    let mut ssdp_left = 93usize.saturating_sub(apps.iter().filter(|a| a.uses_ssdp()).count());
    let mut both_left = 33usize; // overlap so that "any scan" lands near 9%
    let mut netbios_left = 10usize.saturating_sub(apps.iter().filter(|a| a.uses_netbios()).count());
    let mut tls_left = 584usize.saturating_sub(apps.iter().filter(|a| a.uses_tls()).count());
    let mut router_info_left = 36usize.saturating_sub(
        apps.iter()
            .filter(|a| a.behaviors.contains(&AppBehavior::CollectRouterInfo))
            .count(),
    );
    let mut downlink_left = 13usize.saturating_sub(
        apps.iter()
            .filter(|a| a.behaviors.contains(&AppBehavior::DownlinkMacReceipt))
            .count(),
    );

    for index in named_count..TOTAL {
        let is_iot = index < IOT + named_count / 2; // keep ~987 IoT total
        let category = if is_iot {
            AppCategory::Iot
        } else {
            AppCategory::Regular
        };
        let mut behaviors = Vec::new();
        let mut sdks = Vec::new();

        if both_left > 0 {
            behaviors.push(AppBehavior::MdnsScan(vec![
                "_services._dns-sd._udp.local".into()
            ]));
            behaviors.push(AppBehavior::SsdpScan(vec!["ssdp:all".into()]));
            if both_left >= 31 {
                // Three more IoT apps relaying harvested MACs to analytics
                // (with the named apps: §6.1's six MAC-relaying IoT apps).
                sdks.push(SdkKind::Amplitude);
            }
            both_left -= 1;
            mdns_left = mdns_left.saturating_sub(1);
            ssdp_left = ssdp_left.saturating_sub(1);
        } else if mdns_left > 0 {
            behaviors.push(AppBehavior::MdnsScan(vec![if is_iot {
                "_hap._tcp.local".into()
            } else {
                "_googlecast._tcp.local".into()
            }]));
            mdns_left -= 1;
        } else if ssdp_left > 0 {
            behaviors.push(AppBehavior::SsdpScan(vec!["upnp:rootdevice".into()]));
            ssdp_left -= 1;
        } else if netbios_left > 0 && !is_iot {
            behaviors.push(AppBehavior::NetBiosScan);
            netbios_left -= 1;
            if netbios_left >= 7 {
                // Three of the NetBIOS apps also use ARP natively; the
                // innosdk carrier pattern.
                sdks.push(SdkKind::InnoSdk);
            }
        }
        if netbios_left > 0 && is_iot && index % 401 == 0 {
            // The 2 IoT-category NetBIOS apps.
            behaviors.push(AppBehavior::NetBiosScan);
            netbios_left -= 1;
        }
        if tls_left > 0 && index % 4 == 0 {
            behaviors.push(AppBehavior::TlsToDevice {
                dst_port: if is_iot { 8009 } else { 443 },
            });
            tls_left -= 1;
        }
        if router_info_left > 0 && index % 71 == 0 {
            behaviors.push(AppBehavior::CollectRouterInfo);
            router_info_left -= 1;
            if index % 142 == 0 {
                sdks.push(SdkKind::MyTracker);
            }
        }
        if downlink_left > 0 && is_iot && index % 83 == 0 {
            behaviors.push(AppBehavior::DownlinkMacReceipt);
            downlink_left -= 1;
        }

        apps.push(AppConfig {
            package: format!(
                "{}.app{index:04}",
                if is_iot {
                    "iot.companion"
                } else {
                    "com.regular"
                }
            ),
            category,
            permissions: base_permissions(),
            behaviors,
            sdks,
        });
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_size_and_split() {
        let apps = build_population();
        assert_eq!(apps.len(), 2335);
        let iot = apps
            .iter()
            .filter(|a| a.category == AppCategory::Iot)
            .count();
        // 987 IoT apps, give or take the named handful.
        assert!((980..=995).contains(&iot), "iot apps {iot}");
    }

    #[test]
    fn behaviour_rates_match_section43() {
        let apps = build_population();
        let n = apps.len() as f64;
        let mdns = apps.iter().filter(|a| a.uses_mdns()).count() as f64 / n;
        assert!((0.055..=0.065).contains(&mdns), "mdns {mdns}");
        let ssdp = apps.iter().filter(|a| a.uses_ssdp()).count() as f64 / n;
        assert!((0.035..=0.045).contains(&ssdp), "ssdp {ssdp}");
        let netbios = apps.iter().filter(|a| a.uses_netbios()).count();
        assert_eq!(netbios, 10, "netbios {netbios}");
        let tls = apps.iter().filter(|a| a.uses_tls()).count() as f64 / n;
        assert!((0.23..=0.27).contains(&tls), "tls {tls}");
        let scanning = apps.iter().filter(|a| a.scans_network()).count() as f64 / n;
        assert!((0.07..=0.11).contains(&scanning), "scanning {scanning}");
    }

    #[test]
    fn netbios_split_two_iot_eight_regular() {
        let apps = build_population();
        let iot_netbios = apps
            .iter()
            .filter(|a| a.uses_netbios() && a.category == AppCategory::Iot)
            .count();
        assert_eq!(iot_netbios, 2, "paper: only 2 NetBIOS apps are IoT apps");
    }

    #[test]
    fn named_apps_present() {
        let apps = build_population();
        for package in [
            "com.amazon.dee.app",
            "com.cnn.mobile.android.phone",
            "com.luckyapp.winner",
            "org.speedspot.speedspotspeedtest",
        ] {
            assert!(apps.iter().any(|a| a.package == package), "{package}");
        }
        let cnn = apps
            .iter()
            .find(|a| a.package == "com.cnn.mobile.android.phone")
            .unwrap();
        assert!(cnn.sdks.contains(&SdkKind::AppDynamics));
    }

    #[test]
    fn downlink_count() {
        let apps = build_population();
        let downlink = apps
            .iter()
            .filter(|a| a.behaviors.contains(&AppBehavior::DownlinkMacReceipt))
            .count();
        assert_eq!(
            downlink, 13,
            "§6.1: 13 companion apps receive MACs downlink"
        );
    }

    #[test]
    fn deterministic() {
        let a = build_population();
        let b = build_population();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.package, y.package);
            assert_eq!(x.behaviors, y.behaviors);
        }
    }
}
