//! The instrumented test phone: a LAN node that runs apps one at a time
//! (Monkey-style, §3.2), generates each app's local traffic, harvests the
//! responses, and produces [`TestRun`] records with taint-tracked
//! exfiltration.
//!
//! Devices resend the same mDNS and SSDP responses throughout a run, so the
//! phone harvests each distinct response once: a memo keyed on the exact
//! UDP payload bytes holds what the payload yielded, and a repeat copies
//! those items instead of parsing and scanning again. The per-app gates and
//! the mDNS source MAC stay per frame, since they depend on the app under
//! test and on the frame, not on the payload.

use crate::android::{evaluate_access, AndroidApi};
use crate::app::{AppBehavior, AppConfig};
use crate::appcensus::{DataType, Direction, ExfilRecord, Harvested, TestRun};
use crate::sdk::{innosdk_generate_probe, SdkKind};
use iotlan_inspector::ident::{self, Id};
use iotlan_netsim::stack::{self, Content, Dissected, Endpoint};
use iotlan_netsim::{Context, Node, SimDuration};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::tls::{Handshake, Version as TlsVersion};
use iotlan_wire::{arp, dns, icmpv4, ssdp, tcp, tplink, tuya};
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-app test window. The paper exercises each app ~5 wall-clock
/// minutes; the network-relevant behaviour compresses into seconds.
pub const APP_WINDOW: SimDuration = SimDuration(2_000_000);

/// Exact response payload bytes → what the payload yields to the harvest:
/// its items in scan order, or `None` when it is not a parseable response.
/// Boxed slices, so a lookup borrows the frame's payload without allocating.
type ResponseMemo = HashMap<Box<[u8]>, Option<Vec<Harvested>>>;

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
    /// The harvest memo, one map per protocol (mDNS, SSDP), kept for the
    /// phone's lifetime. The key is the full payload, never a digest, so
    /// two frames share an entry only when their payloads are identical;
    /// the memo holds one entry per distinct payload heard.
    mdns_memo: ResponseMemo,
    ssdp_memo: ResponseMemo,
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
            mdns_memo: HashMap::new(),
            ssdp_memo: HashMap::new(),
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
                        ctx.send_frame(stack::udp_unicast(self.endpoint, dst, 137, 137, &probe));
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
                        let data =
                            tcp::Repr::data(sport, *dst_port, 0x0a00_0001, 0x2001, hello.len());
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
                (
                    format!("https://cloud.{}.example/devices", app.package),
                    None,
                )
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
}

/// Push what a response `payload` yields onto `harvest`, parsing and
/// scanning it only the first time the phone hears these exact bytes.
/// Returns whether the payload is a parseable response.
fn harvest_response(
    memo: &mut ResponseMemo,
    harvest: &mut Vec<Harvested>,
    payload: &[u8],
    parse: impl FnOnce() -> Option<Vec<Harvested>>,
) -> bool {
    if let Some(items) = memo.get(payload) {
        iotlan_telemetry::counter!("apps.harvest_reuses").incr();
        harvest.extend_from_slice(items.as_deref().unwrap_or_default());
        return items.is_some();
    }
    iotlan_telemetry::counter!("apps.harvest_parses").incr();
    let items = parse();
    harvest.extend_from_slice(items.as_deref().unwrap_or_default());
    let is_response = items.is_some();
    memo.insert(payload.into(), items);
    is_response
}

/// The items an mDNS response yields; `None` for a query or for bytes
/// that do not parse.
fn mdns_items(frame: &Dissected<'_>) -> Option<Vec<Harvested>> {
    let message = frame.dns().filter(|message| message.is_response)?;
    Some(text_items("mDNS", &message.text_content().join(" ")))
}

/// The items an SSDP message yields, ending with its UPnP descriptor (the
/// text's first 120 chars); `None` for bytes that do not parse.
fn ssdp_items(frame: &Dissected<'_>) -> Option<Vec<Harvested>> {
    let text = frame.ssdp()?.text_content().join(" ");
    let mut items = text_items("SSDP", &text);
    items.push(Harvested {
        data: DataType::UpnpDescriptor,
        value: text.chars().take(120).collect(),
        source_protocol: "SSDP",
    });
    Some(items)
}

/// The colon-separated MACs, UUIDs and possessive display names in a
/// response's text, in that order, as one `inspector::ident` (§6.3) pass
/// finds them.
fn text_items(source_protocol: &'static str, text: &str) -> Vec<Harvested> {
    let (mut macs, mut uuids, mut names) = (Vec::new(), Vec::new(), Vec::new());
    ident::for_each_id(text, |id| match id {
        Id::Mac(key, sep @ Some(b':')) => {
            macs.push((DataType::DeviceMac, ident::mac_text(key, sep)))
        }
        Id::Uuid(key) => uuids.push((DataType::DeviceUuid, ident::uuid_text(key))),
        Id::Name(name) => names.push((DataType::DisplayName, name.to_string())),
        Id::Mac(..) => {}
    });
    macs.into_iter()
        .chain(uuids)
        .chain(names)
        .map(|(data, value)| Harvested {
            data,
            value,
            source_protocol,
        })
        .collect()
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
            Content::UdpV4 {
                sport,
                dport,
                payload,
                ..
            } => {
                // mDNS responses — only a registered NsdManager listener
                // receives them.
                if (sport == dns::MDNS_PORT || dport == dns::MDNS_PORT) && gate_mdns {
                    let is_response = harvest_response(
                        &mut self.mdns_memo,
                        &mut self.current_harvest,
                        payload,
                        || mdns_items(frame),
                    );
                    if is_response {
                        // mDNS source MAC is itself an identifier.
                        self.current_harvest.push(Harvested {
                            data: DataType::DeviceMac,
                            value: src_mac.to_string(),
                            source_protocol: "mDNS",
                        });
                    }
                } else if sport == ssdp::SSDP_PORT && dport != ssdp::SSDP_PORT && gate_ssdp {
                    // Unicast SSDP response to our M-SEARCH.
                    harvest_response(
                        &mut self.ssdp_memo,
                        &mut self.current_harvest,
                        payload,
                        || ssdp_items(frame),
                    );
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
    use crate::appcensus::{oracle, AppCensusReport};
    use iotlan_devices::{build_testbed, Device};
    use iotlan_netsim::router::{Router, GATEWAY_MAC};
    use iotlan_netsim::{Network, NodeId};
    use iotlan_util::check::Gen;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    fn phone_mac() -> EthernetAddress {
        EthernetAddress([0x02, 0x91, 0x0e, 0x00, 0x00, 0x01])
    }

    const PHONE_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 240);

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
        let mut phone = Phone::new(phone_mac(), PHONE_IP, "MonIoTr-Lab", GATEWAY_MAC, apps);
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
            run.harvested.iter().any(|h| h.data == DataType::DeviceMac),
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

    /// An app whose gates let both mDNS and SSDP responses through.
    fn scanner_app() -> AppConfig {
        AppConfig {
            package: "test.scanner".into(),
            category: AppCategory::Iot,
            permissions: crate::android::poc_permissions(),
            behaviors: vec![
                AppBehavior::MdnsScan(vec!["_services._dns-sd._udp.local".into()]),
                AppBehavior::SsdpScan(vec!["ssdp:all".into()]),
            ],
            sdks: vec![],
        }
    }

    /// An mDNS or SSDP payload and the device that sent it.
    struct Response {
        mdns: bool,
        src: Endpoint,
        payload: Vec<u8>,
    }

    /// Every mDNS and SSDP response the mini-network's devices send while
    /// [`scanner_app`] runs.
    fn real_responses() -> &'static [Response] {
        static RESPONSES: OnceLock<Vec<Response>> = OnceLock::new();
        RESPONSES.get_or_init(|| {
            let (mut network, _) = mini_network(vec![scanner_app()]);
            network.run_for(Phone::schedule_length(1));
            let responses: Vec<Response> = network
                .capture
                .frames()
                .filter_map(|captured| {
                    let frame = stack::dissect(captured.data())?;
                    let Content::UdpV4 {
                        src,
                        sport,
                        dport,
                        payload,
                        ..
                    } = frame.content
                    else {
                        return None;
                    };
                    let mdns = sport == dns::MDNS_PORT && frame.dns()?.is_response;
                    let ssdp = sport == ssdp::SSDP_PORT && dport != ssdp::SSDP_PORT;
                    (mdns || ssdp).then(|| Response {
                        mdns,
                        src: Endpoint {
                            mac: frame.eth.src_addr,
                            ip: src,
                        },
                        payload: payload.to_vec(),
                    })
                })
                .collect();
            assert!(responses.iter().any(|r| r.mdns) && responses.iter().any(|r| !r.mdns));
            responses
        })
    }

    /// `payload` from `src` the way a device sends it: mDNS to the group,
    /// SSDP unicast to the phone's M-SEARCH port.
    fn response_frame(mdns: bool, src: Endpoint, payload: &[u8]) -> Vec<u8> {
        if mdns {
            stack::udp_multicast(
                src,
                dns::MDNS_GROUP_V4,
                dns::MDNS_PORT,
                dns::MDNS_PORT,
                payload,
            )
        } else {
            let phone = Endpoint {
                mac: phone_mac(),
                ip: PHONE_IP,
            };
            stack::udp_unicast(src, phone, ssdp::SSDP_PORT, 50000, payload)
        }
    }

    /// A LAN holding only a phone, inside its first app's window.
    fn listening_phone(apps: Vec<AppConfig>, window: SimDuration) -> (Network, NodeId) {
        let mut network = Network::new(5);
        let mut phone = Phone::new(phone_mac(), PHONE_IP, "MonIoTr-Lab", GATEWAY_MAC, apps);
        phone.set_window(window);
        let id = network.add_node(Box::new(phone));
        network.run_for(SimDuration::from_millis(200));
        (network, id)
    }

    fn phone_of(network: &Network, id: NodeId) -> &Phone {
        network.node(id).as_any().downcast_ref::<Phone>().unwrap()
    }

    /// Distinct (protocol, payload) pairs in the phone's two harvest memos:
    /// every mDNS and SSDP payload it has examined, responses or not.
    fn memoized(network: &Network, id: NodeId) -> usize {
        let phone = phone_of(network, id);
        phone.mdns_memo.len() + phone.ssdp_memo.len()
    }

    /// Deliver `frame` and return what the phone harvested from it.
    fn deliver(network: &mut Network, id: NodeId, frame: &[u8]) -> Vec<Harvested> {
        let before = phone_of(network, id).current_harvest.len();
        network.inject_frame(frame.to_vec());
        network.run_for(SimDuration::from_millis(10));
        phone_of(network, id).current_harvest[before..].to_vec()
    }

    /// The harvest as the phone computed it before the memo: every frame
    /// parsed, its text joined and scanned.
    fn unmemoized_harvest(frame: &[u8]) -> Vec<Harvested> {
        let frame = stack::dissect(frame).unwrap();
        let Content::UdpV4 { sport, dport, .. } = frame.content else {
            return Vec::new();
        };
        if sport == dns::MDNS_PORT || dport == dns::MDNS_PORT {
            let Some(message) = frame.dns().filter(|m| m.is_response) else {
                return Vec::new();
            };
            let mut out = text_items("mDNS", &message.text_content().join(" "));
            out.push(Harvested {
                data: DataType::DeviceMac,
                value: frame.eth.src_addr.to_string(),
                source_protocol: "mDNS",
            });
            out
        } else if sport == ssdp::SSDP_PORT && dport != ssdp::SSDP_PORT {
            let Some(message) = frame.ssdp() else {
                return Vec::new();
            };
            let text = message.text_content().join(" ");
            let mut out = text_items("SSDP", &text);
            out.push(Harvested {
                data: DataType::UpnpDescriptor,
                value: text.chars().take(120).collect(),
                source_protocol: "SSDP",
            });
            out
        } else {
            Vec::new()
        }
    }

    /// A real response, as sent or mutated: truncated, a byte flipped,
    /// bytes appended, or (for mDNS) replaced by a query.
    fn response_variant(g: &mut Gen) -> (bool, Endpoint, Vec<u8>) {
        let real = real_responses();
        let response = &real[g.int_in(0..real.len())];
        let mut payload = response.payload.clone();
        match g.int_in(0..5u8) {
            0 => payload.truncate(g.int_in(0..=payload.len())),
            1 if !payload.is_empty() => {
                let at = g.int_in(0..payload.len());
                payload[at] ^= g.int_in(1..=255u8);
            }
            2 => payload.extend(g.bytes(64)),
            3 if response.mdns => {
                let name = format!("_{}._tcp.local", g.label(1, 12));
                payload = dns::Message::mdns_query(&[(&name, dns::RecordType::Ptr)]).to_bytes();
            }
            _ => {}
        }
        // Another device's address now and then: the payload, not the
        // sender, keys the memo.
        let src = if g.bool() {
            response.src
        } else {
            real[g.int_in(0..real.len())].src
        };
        (response.mdns, src, payload)
    }

    #[test]
    fn real_responses_are_memoized_once_per_distinct_payload() {
        let (mut network, id) = listening_phone(vec![scanner_app()], SimDuration::from_hours(1));
        let mut distinct = BTreeSet::new();
        for response in real_responses() {
            let frame = response_frame(response.mdns, response.src, &response.payload);
            let harvest = deliver(&mut network, id, &frame);
            assert!(!harvest.is_empty(), "a real response yields items");
            assert_eq!(harvest, unmemoized_harvest(&frame));
            distinct.insert((response.mdns, response.payload.clone()));
        }
        assert!(
            distinct.len() < real_responses().len(),
            "devices repeat responses"
        );
        assert_eq!(memoized(&network, id), distinct.len());
    }

    #[test]
    fn one_payload_from_two_devices_pushes_each_source_mac() {
        let response = real_responses().iter().find(|r| r.mdns).unwrap();
        let other = Endpoint {
            mac: EthernetAddress([0x02, 0, 0, 0, 0, 0x42]),
            ip: Ipv4Addr::new(192, 168, 10, 42),
        };
        let (mut network, id) = listening_phone(vec![scanner_app()], SimDuration::from_hours(1));
        let first = deliver(
            &mut network,
            id,
            &response_frame(true, response.src, &response.payload),
        );
        let second = deliver(
            &mut network,
            id,
            &response_frame(true, other, &response.payload),
        );
        assert_eq!(memoized(&network, id), 1);
        let (last, items) = first.split_last().unwrap();
        assert_eq!(last.value, response.src.mac.to_string());
        assert_eq!(
            second.split_last().unwrap(),
            (
                &Harvested {
                    value: other.mac.to_string(),
                    ..last.clone()
                },
                items
            )
        );
    }

    #[test]
    fn one_payload_on_both_ports_is_memoized_per_protocol() {
        let response = real_responses().iter().find(|r| r.mdns).unwrap();
        let (mut network, id) = listening_phone(vec![scanner_app()], SimDuration::from_hours(1));
        let as_ssdp = response_frame(false, response.src, &response.payload);
        let as_mdns = response_frame(true, response.src, &response.payload);
        assert_eq!(deliver(&mut network, id, &as_ssdp), Vec::new());
        assert_eq!(
            deliver(&mut network, id, &as_mdns),
            unmemoized_harvest(&as_mdns)
        );
        assert_eq!(memoized(&network, id), 2);
    }

    #[test]
    fn a_closed_gate_harvests_nothing_from_a_memoized_payload() {
        let silent = AppConfig {
            package: "test.silent".into(),
            behaviors: vec![],
            ..scanner_app()
        };
        let (mut network, id) =
            listening_phone(vec![scanner_app(), silent], SimDuration::from_secs(1));
        let frames: Vec<Vec<u8>> = [true, false]
            .into_iter()
            .map(|mdns| {
                let response = real_responses().iter().find(|r| r.mdns == mdns).unwrap();
                response_frame(mdns, response.src, &response.payload)
            })
            .collect();
        for frame in &frames {
            assert!(!deliver(&mut network, id, frame).is_empty());
        }
        // Into the silent app's window: neither gate is open.
        network.run_for(SimDuration::from_secs(1));
        assert_eq!(phone_of(&network, id).runs.len(), 1);
        for frame in &frames {
            assert_eq!(deliver(&mut network, id, frame), Vec::new());
        }
        assert_eq!(memoized(&network, id), 2);
    }

    /// The distinct text of every mDNS and SSDP response the whole testbed
    /// sends while [`scanner_app`] runs: what `text_items` reads in a lab.
    fn catalog_texts() -> &'static [String] {
        static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
        TEXTS.get_or_init(|| {
            let mut network = Network::new(33);
            network.add_node(Box::new(Router::new()));
            for config in build_testbed().devices {
                network.add_node(Box::new(Device::new(config)));
            }
            let phone = Phone::new(
                phone_mac(),
                PHONE_IP,
                "MonIoTr-Lab",
                GATEWAY_MAC,
                vec![scanner_app()],
            );
            network.add_node(Box::new(phone));
            network.run_for(Phone::schedule_length(1));
            let texts: BTreeSet<String> = network
                .capture
                .frames()
                .filter_map(|captured| {
                    let frame = stack::dissect(captured.data())?;
                    let Content::UdpV4 { sport, dport, .. } = frame.content else {
                        return None;
                    };
                    let text = if sport == dns::MDNS_PORT {
                        frame.dns().filter(|m| m.is_response)?.text_content()
                    } else if sport == ssdp::SSDP_PORT && dport != ssdp::SSDP_PORT {
                        frame.ssdp()?.text_content()
                    } else {
                        return None;
                    };
                    Some(text.join(" "))
                })
                .collect();
            assert!(texts.len() >= 60, "{} response texts", texts.len());
            texts.into_iter().collect()
        })
    }

    /// `text_items` as the phone's original extractors compute it.
    fn oracle_items(source_protocol: &'static str, text: &str) -> Vec<Harvested> {
        let mut out = Vec::new();
        for (extract, data) in [
            (
                oracle::extract_macs as fn(&str) -> Vec<String>,
                DataType::DeviceMac,
            ),
            (oracle::extract_uuids, DataType::DeviceUuid),
            (oracle::extract_possessive_names, DataType::DisplayName),
        ] {
            out.extend(extract(text).into_iter().map(|value| Harvested {
                data,
                value,
                source_protocol,
            }));
        }
        out
    }

    fn values(items: &[Harvested]) -> Vec<&str> {
        items.iter().map(|item| item.value.as_str()).collect()
    }

    /// `len` lowercase hex digits.
    fn hex(g: &mut Gen, len: usize) -> String {
        g.string_of("0123456789abcdef", len, len)
    }

    /// `count` lowercase hex pairs joined by `sep`.
    fn hex_pairs(g: &mut Gen, count: usize, sep: &str) -> String {
        let pairs: Vec<String> = (0..count).map(|_| hex(g, 2)).collect();
        pairs.join(sep)
    }

    /// One identifier-shaped or noise piece, in a syntax the phone's scan
    /// and the oracles read alike: lowercase hex, UUIDs that start their
    /// hex run, `'s ` names, and no MAC of one syntax that starts inside a
    /// candidate of another.
    fn piece(g: &mut Gen) -> String {
        match g.int_in(0..8u8) {
            0 => hex_pairs(g, 6, ":"),
            // A colon MAC that starts inside a short hex run.
            1 => {
                let len = g.int_in(1..=6usize);
                hex(g, len) + &hex_pairs(g, 6, ":")
            }
            // Chained colon pairs: matches consume 17 bytes and may chain.
            2 => {
                let count = g.int_in(7..=13usize);
                hex_pairs(g, count, ":")
            }
            3 => hex_pairs(g, 6, "-"),
            4 => hex(g, 12),
            5 => {
                let uuid = [8, 4, 4, 4, 12].map(|len| hex(g, len)).join("-");
                let len = g.int_in(0..=4usize);
                uuid + &hex(g, len)
            }
            6 => {
                let owner = g.string_of("abcxyzRé中", 1, 6);
                let rest = g.string_of("abcRé中 1", 0, 8);
                format!("{owner}'s R{rest}")
            }
            _ => g.string_of("0123456789abcdefABCDEFxyzé .=;/\"<>", 0, 16),
        }
    }

    /// A catalog response text with pieces spliced in at random char
    /// boundaries, each between two delimiters that end any hex run.
    fn spliced_text(g: &mut Gen) -> String {
        let texts = catalog_texts();
        let mut text = texts[g.int_in(0..texts.len())].clone();
        for _ in 0..g.int_in(0..=6usize) {
            let boundaries: Vec<usize> = text
                .char_indices()
                .map(|(at, _)| at)
                .chain([text.len()])
                .collect();
            let at = boundaries[g.int_in(0..boundaries.len())];
            let delimiters = [" ", ";", "=", "\"", "<", ">", "/", "\n"];
            let open = delimiters[g.int_in(0..delimiters.len())];
            let close = delimiters[g.int_in(0..delimiters.len())];
            text.insert_str(at, &format!("{open}{}{close}", piece(g)));
        }
        text
    }

    /// The four ways `text_items` departs from the phone's original
    /// extractors; no catalog response text shows any of them.
    #[test]
    fn text_items_differ_from_the_oracles_only_as_licensed() {
        let scan = |text: &str| values(&text_items("SSDP", text)).join(" | ");
        let oracle = |text: &str| values(&oracle_items("SSDP", text)).join(" | ");
        // 1. Hex is lowercased.
        let upper = "x=00:17:88:68:5F:61 uuid:ABCDEF01-2345-6789-ABCD-EF0123456789";
        assert_eq!(
            scan(upper),
            "00:17:88:68:5f:61 | abcdef01-2345-6789-abcd-ef0123456789"
        );
        assert_eq!(
            oracle(upper),
            "00:17:88:68:5F:61 | ABCDEF01-2345-6789-ABCD-EF0123456789"
        );
        // 2. A UUID inside a longer hex run is not matched.
        let inside = "x=12abcdef01-2345-6789-abcd-ef0123456789";
        assert_eq!(scan(inside), "");
        assert_eq!(oracle(inside), "abcdef01-2345-6789-abcd-ef0123456789");
        // 3. `'S ` names are matched.
        let shouted = "DANNY'S ROOM";
        assert_eq!(scan(shouted), "DANNY'S ROOM");
        assert_eq!(oracle(shouted), "");
        // 4. Candidates never overlap: a colon MAC that starts inside an
        //    earlier bare or dash candidate is not matched.
        for (text, colon) in [
            ("x=0123456789aa:bb:cc:dd:ee:ff", "aa:bb:cc:dd:ee:ff"),
            ("x=00-11-22-33-44-55:66:77:88:99:aa", "55:66:77:88:99:aa"),
        ] {
            assert_eq!(scan(text), "", "{text}");
            assert_eq!(oracle(text), colon, "{text}");
        }
    }

    #[test]
    fn catalog_texts_scan_as_the_oracles_do() {
        for text in catalog_texts() {
            assert_eq!(
                text_items("mDNS", text),
                oracle_items("mDNS", text),
                "{text:?}"
            );
        }
    }

    iotlan_util::props! {
        /// Over catalog response texts with MACs, UUIDs, names and noise
        /// spliced in, the phone's scan through `inspector::ident` finds
        /// what its original extractors found.
        fn text_items_match_the_oracles(g) {
            let text = spliced_text(g);
            assert_eq!(text_items("SSDP", &text), oracle_items("SSDP", &text), "{text:?}");
        }

        /// A memo hit yields what the first delivery yielded, which is what
        /// a fresh phone and the unmemoized harvest yield; queries and
        /// broken payloads yield nothing; the memo holds one entry per
        /// distinct (protocol, payload).
        fn memoized_harvest_equals_a_fresh_harvest(g) {
            let window = SimDuration::from_hours(1);
            let (mut network, id) = listening_phone(vec![scanner_app()], window);
            let mut distinct = BTreeSet::new();
            for _ in 0..g.int_in(1..=8usize) {
                let (mdns, src, payload) = response_variant(g);
                let frame = response_frame(mdns, src, &payload);
                let first = deliver(&mut network, id, &frame);
                assert_eq!(first, unmemoized_harvest(&frame));
                let (mut fresh, fresh_id) = listening_phone(vec![scanner_app()], window);
                assert_eq!(deliver(&mut fresh, fresh_id, &frame), first);
                for _ in 0..g.int_in(1..=3usize) {
                    assert_eq!(deliver(&mut network, id, &frame), first);
                }
                distinct.insert((mdns, payload));
            }
            assert_eq!(memoized(&network, id), distinct.len());
        }
    }
}
