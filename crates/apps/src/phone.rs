//! The instrumented test phone: a LAN node that runs apps one at a time
//! (Monkey-style, §3.2), generates each app's local traffic, harvests the
//! responses, and produces [`TestRun`] records with taint-tracked
//! exfiltration.

use crate::android::{evaluate_access, AndroidApi};
use crate::app::{AppBehavior, AppConfig};
use crate::appcensus::{
    extract_macs, extract_possessive_names, extract_uuids, DataType, Direction, ExfilRecord,
    Harvested, TestRun,
};
use crate::sdk::{innosdk_generate_probe, SdkKind};
use iotlan_netsim::stack::{self, Content, Dissected, Endpoint};
use iotlan_netsim::{Context, Node, SimDuration};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::tls::{Handshake, Version as TlsVersion};
use iotlan_wire::{arp, dns, icmpv4, ssdp, tcp, tplink, tuya};
use std::any::Any;
use std::net::Ipv4Addr;

/// Per-app test window. The paper exercises each app ~5 wall-clock
/// minutes; the network-relevant behaviour compresses into seconds.
pub const APP_WINDOW: SimDuration = SimDuration(2_000_000);

/// The instrumented phone node.
pub struct Phone {
    endpoint: Endpoint,
    router_ssid: String,
    router_bssid: EthernetAddress,
    /// TLS/TPLINK test targets: a paired device per protocol.
    tls_target: Option<(Ipv4Addr, EthernetAddress)>,
    apps: Vec<AppConfig>,
    window: SimDuration,
    current: Option<usize>,
    current_protocols: Vec<&'static str>,
    current_harvest: Vec<Harvested>,
    /// Completed runs.
    pub runs: Vec<TestRun>,
}

impl Phone {
    pub fn new(
        mac: EthernetAddress,
        ip: Ipv4Addr,
        router_ssid: &str,
        router_bssid: EthernetAddress,
        apps: Vec<AppConfig>,
    ) -> Phone {
        Phone {
            endpoint: Endpoint { mac, ip },
            router_ssid: router_ssid.to_string(),
            router_bssid,
            tls_target: None,
            apps,
            window: APP_WINDOW,
            current: None,
            current_protocols: Vec::new(),
            current_harvest: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Pair the phone with a device for TLS / local-API tests.
    pub fn pair_tls_target(&mut self, ip: Ipv4Addr, mac: EthernetAddress) {
        self.tls_target = Some((ip, mac));
    }

    /// Override the per-app window (e.g. to passively collect slow
    /// periodic broadcasts like TuyaLP's 10-second cadence).
    pub fn set_window(&mut self, window: SimDuration) {
        self.window = window;
    }

    /// Total sim time needed to exercise `n` apps.
    pub fn schedule_length(n: usize) -> SimDuration {
        SimDuration(APP_WINDOW.0 * (n as u64 + 2))
    }

    fn start_app(&mut self, ctx: &mut Context, index: usize) {
        self.current = Some(index);
        self.current_protocols.clear();
        self.current_harvest.clear();
        let app = self.apps[index].clone();

        // OS-level background traffic present in most tests (§4.3): a
        // gateway ARP and an ICMP ping.
        let request = arp::Repr::request(
            self.endpoint.mac,
            self.endpoint.ip,
            iotlan_netsim::router::GATEWAY_IP,
        );
        ctx.send_frame(stack::arp_frame(&request));
        self.current_protocols.push("ARP");
        let ping = icmpv4::Repr {
            message: icmpv4::Message::EchoRequest {
                ident: index as u16,
                seq: 1,
            },
            payload_len: 0,
        };
        ctx.send_frame(stack::icmpv4_frame(
            self.endpoint,
            Endpoint {
                mac: iotlan_netsim::router::GATEWAY_MAC,
                ip: iotlan_netsim::router::GATEWAY_IP,
            },
            &ping,
            &[],
        ));
        self.current_protocols.push("ICMP");

        for behavior in &app.behaviors {
            match behavior {
                AppBehavior::MdnsScan(targets) => {
                    let questions: Vec<(&str, dns::RecordType)> = targets
                        .iter()
                        .map(|t| (t.as_str(), dns::RecordType::Ptr))
                        .collect();
                    let query = dns::Message::mdns_query(&questions);
                    ctx.send_frame(stack::udp_multicast(
                        self.endpoint,
                        dns::MDNS_GROUP_V4,
                        dns::MDNS_PORT,
                        dns::MDNS_PORT,
                        &query.to_bytes(),
                    ));
                    self.current_protocols.push("mDNS");
                }
                AppBehavior::SsdpScan(targets) => {
                    for target in targets {
                        let msearch = ssdp::Message::msearch(target, 1);
                        ctx.send_frame(stack::udp_multicast(
                            self.endpoint,
                            ssdp::SSDP_GROUP_V4,
                            50000 + index as u16 % 10000,
                            ssdp::SSDP_PORT,
                            &msearch.to_bytes(),
                        ));
                    }
                    self.current_protocols.push("SSDP");
                }
                AppBehavior::NetBiosScan => {
                    // The innosdk sweep: a datagram to every IP in the /24
                    // "regardless of whether there was a machine assigned",
                    // preceded by libarp.so ARP resolution (§6.2: "three of
                    // which utilize ARP … to collect MAC addresses and
                    // subsequently send targeted NetBIOS requests").
                    // We model a compressed sweep of 25 addresses.
                    for host in (10u8..=250).step_by(10) {
                        let target_ip = Ipv4Addr::new(192, 168, 10, host);
                        let request =
                            arp::Repr::request(self.endpoint.mac, self.endpoint.ip, target_ip);
                        ctx.send_frame(stack::arp_frame(&request));
                        let probe = innosdk_generate_probe(host as u16);
                        let dst = Endpoint {
                            mac: EthernetAddress::BROADCAST,
                            ip: target_ip,
                        };
                        ctx.send_frame(stack::udp_unicast(
                            self.endpoint,
                            dst,
                            137,
                            137,
                            &probe,
                        ));
                    }
                    self.current_protocols.push("NETBIOS");
                }
                AppBehavior::TlsToDevice { dst_port } => {
                    if let Some((ip, mac)) = self.tls_target {
                        let hello = Handshake::ClientHello {
                            version: TlsVersion::Tls12,
                            supported_versions: vec![TlsVersion::Tls12, TlsVersion::Tls13],
                            server_name: None,
                            cipher_suites: vec![0xc02f, 0x1301],
                        }
                        .into_record(TlsVersion::Tls12)
                        .to_bytes();
                        // Simplified session: SYN then first flight.
                        let sport = 42000 + (index as u16 % 20000);
                        let syn = tcp::Repr::syn(sport, *dst_port, 0x0a00_0000);
                        let target = Endpoint { mac, ip };
                        ctx.send_frame(stack::tcp_segment(self.endpoint, target, &syn, &[]));
                        let data = tcp::Repr::data(sport, *dst_port, 0x0a00_0001, 0x2001, hello.len());
                        ctx.send_frame_delayed(
                            SimDuration::from_millis(30),
                            stack::tcp_segment(self.endpoint, target, &data, &hello),
                        );
                        self.current_protocols.push("TLS");
                    }
                }
                AppBehavior::TplinkDiscovery => {
                    let query = tplink::Message::get_sysinfo();
                    ctx.send_frame(stack::udp_broadcast(
                        self.endpoint,
                        43000 + index as u16 % 10000,
                        tplink::SHP_PORT,
                        &query.to_udp_bytes(),
                    ));
                    self.current_protocols.push("TPLINK_SHP");
                }
                AppBehavior::TuyaDiscovery => {
                    // The companion app announces itself; Tuya devices only
                    // respond to it (§5.1), and their periodic broadcasts
                    // are harvested passively during the window.
                    self.current_protocols.push("TuyaLP");
                }
                AppBehavior::CollectRouterInfo
                | AppBehavior::AttachAdvertisingId
                | AppBehavior::DownlinkMacReceipt => {}
            }
        }
    }

    fn finalize_app(&mut self, index: usize) {
        let app = self.apps[index].clone();
        let mut api_accesses = Vec::new();
        // Log the side-channel usage the behaviours imply.
        if app.uses_mdns() {
            api_accesses.push((
                AndroidApi::NsdDiscoverMdns,
                evaluate_access(AndroidApi::NsdDiscoverMdns, &app.permissions),
            ));
        }
        if app.uses_ssdp() {
            api_accesses.push((
                AndroidApi::SsdpSocket,
                evaluate_access(AndroidApi::SsdpSocket, &app.permissions),
            ));
        }
        if app.uses_netbios() {
            api_accesses.push((
                AndroidApi::NetBiosSocket,
                evaluate_access(AndroidApi::NetBiosSocket, &app.permissions),
            ));
        }
        if app.behaviors.contains(&AppBehavior::CollectRouterInfo) {
            let outcome = evaluate_access(AndroidApi::GetBssid, &app.permissions);
            api_accesses.push((AndroidApi::GetBssid, outcome));
            if outcome == crate::android::AccessOutcome::Denied {
                // §2.1/§6.1: the WSJ-style apps got the router identifiers
                // anyway, via raw sockets — the ARP table exposes the
                // gateway MAC to any app with INTERNET.
                api_accesses.push((
                    AndroidApi::ArpTable,
                    crate::android::AccessOutcome::SideChannel,
                ));
            }
        }

        let exfil = self.build_exfil(&app);
        self.runs.push(TestRun {
            package: app.package.clone(),
            category: app.category,
            api_accesses,
            protocols_used: std::mem::take(&mut self.current_protocols),
            harvested: std::mem::take(&mut self.current_harvest),
            exfil,
        });
        self.current = None;
    }

    /// Build the exfiltration records: structural taint — values are drawn
    /// from what this run actually harvested (or the OS APIs provide).
    fn build_exfil(&self, app: &AppConfig) -> Vec<ExfilRecord> {
        let mut out = Vec::new();
        let harvested = &self.current_harvest;
        let values_of = |data: DataType| -> Vec<(DataType, String)> {
            harvested
                .iter()
                .filter(|h| h.data == data)
                .map(|h| (h.data, h.value.clone()))
                .collect()
        };
        let device_macs = values_of(DataType::DeviceMac);
        let uuids = values_of(DataType::DeviceUuid);
        let names = values_of(DataType::DisplayName);
        let geoloc = values_of(DataType::Geolocation);
        let tplink_ids: Vec<(DataType, String)> = harvested
            .iter()
            .filter(|h| matches!(h.data, DataType::TplinkDeviceId | DataType::TplinkOemId))
            .map(|h| (h.data, h.value.clone()))
            .collect();
        let netbios = values_of(DataType::NetbiosName);
        let descriptors = values_of(DataType::UpnpDescriptor);

        // First-party relays: IoT apps with tracking SDKs or AAID
        // attachment relay harvested device MACs (§6.1's six apps).
        let relays_macs = app.sdks.contains(&SdkKind::Amplitude)
            || app.sdks.contains(&SdkKind::TuyaSdk)
            || app.behaviors.contains(&AppBehavior::AttachAdvertisingId);
        if relays_macs && !device_macs.is_empty() {
            let mut values = device_macs.clone();
            if app.behaviors.contains(&AppBehavior::AttachAdvertisingId) {
                values.push((
                    DataType::AdvertisingId,
                    "38400000-8cf0-11bd-b23e-10b96e40000d".into(),
                ));
                values.push((DataType::Geolocation, "42.34,-71.09 (coarse)".into()));
            }
            let (endpoint, sdk) = if let Some(sdk) = app
                .sdks
                .iter()
                .find(|s| matches!(s, SdkKind::Amplitude | SdkKind::TuyaSdk))
            {
                (sdk.endpoint().to_string(), Some(*sdk))
            } else {
                (format!("https://cloud.{}.example/devices", app.package), None)
            };
            out.push(ExfilRecord {
                endpoint,
                sdk,
                direction: Direction::Uplink,
                values,
            });
        }

        // TP-Link identifiers + geolocation (Kasa, Alexa; §6.1).
        if !tplink_ids.is_empty() {
            let mut values = tplink_ids;
            values.extend(geoloc.clone());
            out.push(ExfilRecord {
                endpoint: format!("https://cloud.{}.example/iot", app.package),
                sdk: None,
                direction: Direction::Uplink,
                values,
            });
        }

        // Router info through official (permission-gated) APIs — §6.1: 36
        // apps upload the SSID, 28 the router MAC, 15 the Wi-Fi MAC.
        if app.behaviors.contains(&AppBehavior::CollectRouterInfo) {
            let mut values = vec![
                (DataType::RouterSsid, self.router_ssid.clone()),
                (DataType::RouterMac, self.router_bssid.to_string()),
            ];
            let sdk = if app.sdks.contains(&SdkKind::MyTracker) {
                values.push((DataType::WifiMac, self.endpoint.mac.to_string()));
                Some(SdkKind::MyTracker)
            } else {
                None
            };
            out.push(ExfilRecord {
                endpoint: sdk
                    .map(|s| s.endpoint().to_string())
                    .unwrap_or_else(|| format!("https://cloud.{}.example/net", app.package)),
                sdk,
                direction: Direction::Uplink,
                values,
            });
        }

        // SDK-specific collection.
        for sdk in &app.sdks {
            match sdk {
                SdkKind::InnoSdk if !netbios.is_empty() || !device_macs.is_empty() => {
                    let mut values = netbios.clone();
                    values.extend(device_macs.clone());
                    out.push(ExfilRecord {
                        endpoint: sdk.endpoint().to_string(),
                        sdk: Some(*sdk),
                        direction: Direction::Uplink,
                        values,
                    });
                }
                SdkKind::AppDynamics if !descriptors.is_empty() || !uuids.is_empty() => {
                    let mut values = descriptors.clone();
                    values.extend(uuids.clone());
                    values.extend(names.clone());
                    // The side-channel extras: base64 SSID, Android ID, IDFA.
                    values.push((DataType::RouterSsid, base64ish(&self.router_ssid)));
                    values.push((DataType::AndroidId, "a1b2c3d4e5f60718".into()));
                    values.push((
                        DataType::AdvertisingId,
                        "c0ffee00-dead-beef-cafe-012345678901".into(),
                    ));
                    out.push(ExfilRecord {
                        endpoint: sdk.endpoint().to_string(),
                        sdk: Some(*sdk),
                        direction: Direction::Uplink,
                        values,
                    });
                }
                SdkKind::UmlautInsightCore if !uuids.is_empty() || !descriptors.is_empty() => {
                    let mut values = uuids.clone();
                    values.extend(descriptors.clone());
                    values.push((DataType::Geolocation, "42.34,-71.09".into()));
                    out.push(ExfilRecord {
                        endpoint: sdk.endpoint().to_string(),
                        sdk: Some(*sdk),
                        direction: Direction::Uplink,
                        values,
                    });
                }
                _ => {}
            }
        }

        // Downlink MAC dissemination (§6.1: 13 companion apps).
        if app.behaviors.contains(&AppBehavior::DownlinkMacReceipt) {
            out.push(ExfilRecord {
                endpoint: "https://aws-iot.cloud.example/shadow".into(),
                sdk: None,
                direction: Direction::Downlink,
                values: vec![(DataType::DeviceMac, "(cloud-provided sibling MACs)".into())],
            });
        }
        out
    }

    fn harvest_text(&mut self, source_protocol: &'static str, text: &str) {
        for mac in extract_macs(text) {
            self.current_harvest.push(Harvested {
                data: DataType::DeviceMac,
                value: mac,
                source_protocol,
            });
        }
        for uuid in extract_uuids(text) {
            self.current_harvest.push(Harvested {
                data: DataType::DeviceUuid,
                value: uuid,
                source_protocol,
            });
        }
        for name in extract_possessive_names(text) {
            self.current_harvest.push(Harvested {
                data: DataType::DisplayName,
                value: name,
                source_protocol,
            });
        }
    }
}

fn base64ish(text: &str) -> String {
    // Stand-in for base64 (offline: no dep); reversible hex tagging.
    let hex: String = text.bytes().map(|b| format!("{b:02x}")).collect();
    format!("b64:{hex}")
}

impl Node for Phone {
    fn mac(&self) -> EthernetAddress {
        self.endpoint.mac
    }

    fn on_start(&mut self, ctx: &mut Context) {
        if !self.apps.is_empty() {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let index = token as usize;
        if let Some(current) = self.current {
            self.finalize_app(current);
        }
        if index < self.apps.len() {
            self.start_app(ctx, index);
            ctx.set_timer(self.window, token + 1);
        }
    }

    // No `interest`: the gates below change with the app under test, so
    // the phone keeps the default and hears every frame.
    fn on_frame(&mut self, ctx: &mut Context, frame: &Dissected<'_>) {
        let _ = ctx;
        if self.current.is_none() {
            return;
        }
        let src_mac = frame.eth.src_addr;
        if src_mac == self.endpoint.mac {
            return;
        }
        let app = &self.apps[self.current.unwrap()];
        let (gate_mdns, gate_ssdp, gate_netbios, gate_tplink) = (
            app.uses_mdns(),
            app.uses_ssdp(),
            app.uses_netbios(),
            app.behaviors.contains(&AppBehavior::TplinkDiscovery),
        );
        match frame.content {
            Content::UdpV4 { sport, dport, payload, .. } => {
                // mDNS responses — only a registered NsdManager listener
                // receives them.
                if (sport == dns::MDNS_PORT || dport == dns::MDNS_PORT) && gate_mdns {
                    if let Some(message) = frame.dns() {
                        if message.is_response {
                            let text = message.text_content().join(" ");
                            self.harvest_text("mDNS", &text);
                            // mDNS source MAC is itself an identifier.
                            self.current_harvest.push(Harvested {
                                data: DataType::DeviceMac,
                                value: src_mac.to_string(),
                                source_protocol: "mDNS",
                            });
                        }
                    }
                } else if sport == ssdp::SSDP_PORT && dport != ssdp::SSDP_PORT && gate_ssdp {
                    // Unicast SSDP response to our M-SEARCH.
                    if let Some(message) = frame.ssdp() {
                        let text = message.text_content().join(" ");
                        self.harvest_text("SSDP", &text);
                        self.current_harvest.push(Harvested {
                            data: DataType::UpnpDescriptor,
                            value: text.chars().take(120).collect(),
                            source_protocol: "SSDP",
                        });
                    }
                } else if sport == tplink::SHP_PORT && gate_tplink {
                    if let Ok(message) = tplink::Message::from_udp_bytes(payload) {
                        if let Some(info) = message.sysinfo() {
                            if let Some(id) = info.get("deviceId").and_then(|v| v.as_str()) {
                                self.current_harvest.push(Harvested {
                                    data: DataType::TplinkDeviceId,
                                    value: id.to_string(),
                                    source_protocol: "TPLINK_SHP",
                                });
                            }
                            if let Some(oem) = info.get("oemId").and_then(|v| v.as_str()) {
                                self.current_harvest.push(Harvested {
                                    data: DataType::TplinkOemId,
                                    value: oem.to_string(),
                                    source_protocol: "TPLINK_SHP",
                                });
                            }
                            if let Some((lat, lon)) = message.geolocation() {
                                self.current_harvest.push(Harvested {
                                    data: DataType::Geolocation,
                                    value: format!("{lat:.6},{lon:.6}"),
                                    source_protocol: "TPLINK_SHP",
                                });
                            }
                        }
                    }
                } else if (dport == 6666 || dport == 6667)
                    && self.apps[self.current.unwrap()]
                        .behaviors
                        .contains(&AppBehavior::TuyaDiscovery)
                {
                    if let Ok(frame) = tuya::Frame::parse(payload) {
                        if let Some(gw_id) = frame.gw_id() {
                            self.current_harvest.push(Harvested {
                                data: DataType::TuyaGwId,
                                value: gw_id.to_string(),
                                source_protocol: "TuyaLP",
                            });
                        }
                    }
                } else if sport == 137 && gate_netbios {
                    if let Ok(response) = iotlan_wire::netbios::NbstatResponse::parse(payload) {
                        for name in response.names {
                            self.current_harvest.push(Harvested {
                                data: DataType::NetbiosName,
                                value: name,
                                source_protocol: "NETBIOS",
                            });
                        }
                        let mac = EthernetAddress(response.mac);
                        self.current_harvest.push(Harvested {
                            data: DataType::DeviceMac,
                            value: mac.to_string(),
                            source_protocol: "NETBIOS",
                        });
                    }
                }
            }
            Content::Arp(repr) if repr.operation == arp::Operation::Reply => {
                // The gateway's MAC is router metadata, not an IoT device
                // identifier (they are counted separately in §6.1).
                let data = if repr.sender_protocol_addr == iotlan_netsim::router::GATEWAY_IP {
                    DataType::RouterMac
                } else {
                    DataType::DeviceMac
                };
                self.current_harvest.push(Harvested {
                    data,
                    value: repr.sender_hardware_addr.to_string(),
                    source_protocol: "ARP",
                });
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
    use crate::android::AccessOutcome;
    use crate::app::{named_apps, AppCategory};
    use crate::appcensus::AppCensusReport;
    use iotlan_devices::{build_testbed, Device};
    use iotlan_netsim::router::Router;
    use iotlan_netsim::Network;

    fn phone_mac() -> EthernetAddress {
        EthernetAddress([0x02, 0x91, 0x0e, 0x00, 0x00, 0x01])
    }

    /// A small testbed: router + a handful of signature devices.
    fn mini_network(apps: Vec<AppConfig>) -> (Network, iotlan_netsim::NodeId) {
        let catalog = build_testbed();
        let mut network = Network::new(33);
        network.add_node(Box::new(Router::new()));
        for name in [
            "Philips Hue Bridge",
            "TP-Link Smart Plug",
            "Jinvoo Smart Bulb",
            "Roku Express",
            "Google Nest Hub",
        ] {
            let config = catalog.find(name).unwrap().clone();
            network.add_node(Box::new(Device::new(config)));
        }
        let mut phone = Phone::new(
            phone_mac(),
            Ipv4Addr::new(192, 168, 10, 240),
            "MonIoTr-Lab",
            iotlan_netsim::router::GATEWAY_MAC,
            apps,
        );
        let hue = catalog.find("Philips Hue Bridge").unwrap();
        phone.pair_tls_target(hue.ip, hue.mac);
        let id = network.add_node(Box::new(phone));
        (network, id)
    }

    #[test]
    fn mdns_scanning_app_harvests_identifiers() {
        let apps = vec![AppConfig {
            package: "test.mdns".into(),
            category: AppCategory::Regular,
            permissions: crate::android::poc_permissions(),
            behaviors: vec![AppBehavior::MdnsScan(vec!["_hue._tcp.local".into()])],
            sdks: vec![],
        }];
        let (mut network, id) = mini_network(apps);
        network.run_for(Phone::schedule_length(1) + SimDuration::from_secs(5));
        let phone = network.node(id).as_any().downcast_ref::<Phone>().unwrap();
        assert_eq!(phone.runs.len(), 1);
        let run = &phone.runs[0];
        assert!(run.protocols_used.contains(&"mDNS"));
        // Harvested the Hue's MAC-bearing mDNS data.
        assert!(
            run.harvested
                .iter()
                .any(|h| h.data == DataType::DeviceMac),
            "harvest: {:?}",
            run.harvested
        );
        // Side channel logged: no dangerous permission held.
        assert!(run
            .api_accesses
            .iter()
            .any(|(api, outcome)| *api == AndroidApi::NsdDiscoverMdns
                && *outcome == AccessOutcome::SideChannel));
    }

    #[test]
    fn tplink_discovery_harvests_geolocation() {
        let apps: Vec<AppConfig> = named_apps()
            .into_iter()
            .filter(|a| a.package == "com.tplink.kasa_android")
            .collect();
        let (mut network, id) = mini_network(apps);
        network.run_for(Phone::schedule_length(1) + SimDuration::from_secs(5));
        let phone = network.node(id).as_any().downcast_ref::<Phone>().unwrap();
        let run = &phone.runs[0];
        assert!(
            run.harvested
                .iter()
                .any(|h| h.data == DataType::Geolocation),
            "{:?}",
            run.harvested
        );
        assert!(run.exfiltrates(DataType::TplinkDeviceId));
        assert!(run.exfiltrates(DataType::TplinkOemId));
    }

    #[test]
    fn tuya_app_harvests_gwid() {
        let apps: Vec<AppConfig> = named_apps()
            .into_iter()
            .filter(|a| a.package == "com.tuya.smart")
            .collect();
        let (mut network, id) = mini_network(apps);
        // Tuya broadcasts every ~10 s; widen the app window to catch one.
        let phone_id = network.node_by_mac(phone_mac()).unwrap();
        network
            .node_mut(phone_id)
            .as_any_mut()
            .downcast_mut::<Phone>()
            .unwrap()
            .set_window(SimDuration::from_secs(25));
        network.run_for(SimDuration::from_secs(40));
        let phone = network.node(id).as_any().downcast_ref::<Phone>().unwrap();
        // Run may still be open; check harvest OR finished run.
        let has_gwid = phone
            .runs
            .iter()
            .flat_map(|r| &r.harvested)
            .chain(&phone.current_harvest)
            .any(|h| h.data == DataType::TuyaGwId);
        assert!(has_gwid);
    }

    #[test]
    fn router_info_collection_exfil() {
        let apps = vec![AppConfig {
            package: "test.router".into(),
            category: AppCategory::Regular,
            permissions: vec![
                crate::android::Permission::Internet,
                crate::android::Permission::NearbyWifiDevices,
            ],
            behaviors: vec![AppBehavior::CollectRouterInfo],
            sdks: vec![SdkKind::MyTracker],
        }];
        let (mut network, id) = mini_network(apps);
        network.run_for(Phone::schedule_length(1) + SimDuration::from_secs(2));
        let phone = network.node(id).as_any().downcast_ref::<Phone>().unwrap();
        let run = &phone.runs[0];
        assert!(run.exfiltrates(DataType::RouterSsid));
        assert!(run.exfiltrates(DataType::RouterMac));
        assert!(run.exfiltrates(DataType::WifiMac)); // MyTracker extra
        assert!(run
            .exfil
            .iter()
            .any(|e| e.endpoint.contains("tracker.my.com")));
    }

    #[test]
    fn multiple_apps_sequenced() {
        let apps = vec![
            AppConfig {
                package: "a.one".into(),
                category: AppCategory::Regular,
                permissions: crate::android::poc_permissions(),
                behaviors: vec![AppBehavior::SsdpScan(vec!["ssdp:all".into()])],
                sdks: vec![],
            },
            AppConfig {
                package: "a.two".into(),
                category: AppCategory::Regular,
                permissions: crate::android::poc_permissions(),
                behaviors: vec![],
                sdks: vec![],
            },
        ];
        let (mut network, id) = mini_network(apps);
        network.run_for(Phone::schedule_length(2) + SimDuration::from_secs(5));
        let phone = network.node(id).as_any().downcast_ref::<Phone>().unwrap();
        assert_eq!(phone.runs.len(), 2);
        assert_eq!(phone.runs[0].package, "a.one");
        assert_eq!(phone.runs[1].package, "a.two");
        let report = AppCensusReport::from_runs(&phone.runs);
        assert_eq!(report.total_apps, 2);
        assert_eq!(report.protocol_usage.get("SSDP"), Some(&1));
    }

    #[test]
    fn downlink_record() {
        let apps: Vec<AppConfig> = named_apps()
            .into_iter()
            .filter(|a| a.package == "com.amazon.dee.app")
            .collect();
        let (mut network, id) = mini_network(apps);
        network.run_for(Phone::schedule_length(1) + SimDuration::from_secs(5));
        let phone = network.node(id).as_any().downcast_ref::<Phone>().unwrap();
        assert!(phone.runs[0].receives_downlink(DataType::DeviceMac));
    }
}
