//! The generic device node: executes a [`DeviceConfig`] on the simulated
//! LAN — periodic discovery traffic, responses to discovery by others,
//! open-port services, and scan reactions.

use crate::config::{DeviceConfig, SsdpConfig, TplinkRole};
use crate::services::ServicePort;
use iotlan_netsim::stack::{self, Content, Dissected, Endpoint};
use iotlan_netsim::{Context, Interest, Node, SimDuration};
use iotlan_wire::ethernet::{build_frame, EtherType, EthernetAddress};
use iotlan_wire::tls::{Handshake, Version as TlsVersion};
use iotlan_wire::{
    arp, coap, dhcpv4, dns, eapol, icmpv4, icmpv6, igmp, ipv6, lifx, rtp, ssdp, tcp, tplink, tuya,
};
use std::any::Any;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

// Timer tokens: one per periodic behaviour.
const T_MDNS_QUERY: u64 = 1;
const T_MDNS_ANNOUNCE: u64 = 2;
const T_SSDP_SEARCH: u64 = 3;
const T_SSDP_NOTIFY: u64 = 4;
const T_ARP_SWEEP: u64 = 5;
const T_NDP: u64 = 6;
const T_TPLINK_POLL: u64 = 7;
const T_TUYA: u64 = 8;
const T_LIFX: u64 = 9;
const T_COAP: u64 = 10;
const T_DHCP_RENEW: u64 = 11;
const T_GW_PING: u64 = 12;
// Per-peer timers are offset from these bases.
const T_TLS_BASE: u64 = 100;
const T_HTTP_BASE: u64 = 200;
const T_RTP: u64 = 300;

/// What a client-side TCP connection intends to do once established.
#[derive(Debug, Clone)]
enum ClientIntent {
    TlsHello {
        version: TlsVersion,
    },
    HttpGet {
        path: String,
        user_agent: Option<String>,
    },
    TplinkControl,
}

impl ClientIntent {
    /// Used by the Echo model when a TPLINK-SHP discovery response reveals
    /// a controllable plug (§5.1: platforms control TP-Link over TCP).
    fn tplink() -> ClientIntent {
        ClientIntent::TplinkControl
    }
}

/// The executable device.
pub struct Device {
    config: DeviceConfig,
    endpoint: Endpoint,
    /// Client connections awaiting SYN-ACK: (peer_ip, peer_port, local_port).
    pending: HashMap<(Ipv4Addr, u16, u16), ClientIntent>,
    next_client_port: u16,
    /// Long-lived discovery socket port (devices keep one socket open for
    /// SSDP/TPLINK/Tuya rounds; responses aggregate into stable flows).
    stable_port: u16,
    hostname_nonce: u64,
    /// MACs learned from ARP replies (used for Echo's unicast probes).
    /// BTreeMap: iteration order must be deterministic for reproducible runs.
    arp_table: BTreeMap<Ipv4Addr, EthernetAddress>,
    /// The mDNS answer message, built on the first answer or announcement
    /// and reused by both: its bytes depend only on the config.
    mdns_answer: OnceCell<Vec<u8>>,
    /// SSDP reply payloads keyed by the search target they echo, each
    /// built on the first M-SEARCH that asks for it: the bytes depend only
    /// on the config and that target.
    ssdp_replies: HashMap<String, Vec<u8>>,
    /// Number of mDNS queries answered (exposure accounting).
    pub mdns_responses_sent: u64,
    /// Number of SSDP M-SEARCH queries answered.
    pub ssdp_responses_sent: u64,
}

impl Device {
    pub fn new(config: DeviceConfig) -> Device {
        let endpoint = Endpoint {
            mac: config.mac,
            ip: config.ip,
        };
        let stable_port = 41000 + (u16::from_be_bytes([config.mac.0[4], config.mac.0[5]]) % 19000);
        Device {
            config,
            endpoint,
            pending: HashMap::new(),
            next_client_port: 40000,
            stable_port,
            hostname_nonce: 1,
            arp_table: BTreeMap::new(),
            mdns_answer: OnceCell::new(),
            ssdp_replies: HashMap::new(),
            mdns_responses_sent: 0,
            ssdp_responses_sent: 0,
        }
    }

    /// The device's declarative configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    fn alloc_client_port(&mut self) -> u16 {
        let port = self.next_client_port;
        self.next_client_port = self.next_client_port.wrapping_add(1).max(40000);
        port
    }

    /// Interval with ±10% deterministic jitter.
    fn jittered(ctx: &mut Context, secs: u64) -> SimDuration {
        let base = secs * 1_000_000;
        let jitter = base / 10;
        let offset = if jitter > 0 {
            ctx.rng().gen_range(0..=2 * jitter)
        } else {
            0
        };
        SimDuration::from_micros(base - jitter + offset)
    }

    /// The `.local` hostname used in mDNS records.
    fn mdns_hostname(&self) -> String {
        let base = self
            .config
            .hostname_string(0)
            .unwrap_or_else(|| self.config.model.clone())
            .replace(' ', "-");
        format!("{base}.local")
    }

    fn find_open_tcp(&self, port: u16) -> Option<&ServicePort> {
        self.config.open_tcp.iter().find(|s| s.port == port)
    }

    fn find_open_udp(&self, port: u16) -> Option<&ServicePort> {
        self.config.open_udp.iter().find(|s| s.port == port)
    }

    fn tplink_sysinfo(&self) -> Option<tplink::Message> {
        match &self.config.tplink {
            Some(TplinkRole::Server {
                alias,
                dev_name,
                device_id,
                hw_id,
                oem_id,
                latitude,
                longitude,
            }) => Some(tplink::Message::sysinfo_response(
                alias, dev_name, device_id, hw_id, oem_id, *latitude, *longitude, 1,
            )),
            _ => None,
        }
    }

    // ---- periodic behaviours -------------------------------------------

    fn send_dhcp_discover(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.dhcp_discovers").incr();
        self.hostname_nonce = self
            .hostname_nonce
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        let discover = dhcpv4::Repr::discover(
            ctx.rng().gen_u32(),
            self.config.mac,
            self.config.hostname_string(self.hostname_nonce),
            self.config.dhcp_vendor_class.clone(),
            self.config.dhcp_param_list.clone(),
        );
        let mut request = discover.clone();
        request.message_type = dhcpv4::MessageType::Request;
        request.requested_ip = Some(self.config.ip);
        let src = Endpoint {
            mac: self.config.mac,
            ip: Ipv4Addr::UNSPECIFIED,
        };
        ctx.send_frame(stack::udp_broadcast(src, 68, 67, &discover.to_bytes()));
        ctx.send_frame_delayed(
            SimDuration::from_millis(50),
            stack::udp_broadcast(src, 68, 67, &request.to_bytes()),
        );
    }

    fn send_xid_probe(&self, ctx: &mut Context) {
        // Broadcast 802.2 XID at association — the Figure 2 "XID/LLC" bar.
        let frame = iotlan_wire::llc::LlcFrame::xid_probe()
            .to_8023_frame(self.config.mac, EthernetAddress::BROADCAST);
        ctx.send_frame(frame);
    }

    fn send_dhcpv6_solicit(&self, ctx: &mut Context) {
        // DHCPv6 Solicit to ff02::1:2 — the Fig. 2 DHCPv6 bar. Carries a
        // DUID (another persistent identifier) and often an FQDN.
        let mut options = vec![iotlan_wire::dhcpv6::Dhcpv6Option {
            code: iotlan_wire::dhcpv6::option_codes::CLIENT_ID,
            data: {
                let mut duid = vec![0x00, 0x03, 0x00, 0x01]; // DUID-LL/eth
                duid.extend_from_slice(self.config.mac.as_bytes());
                duid
            },
        }];
        if let Some(hostname) = self.config.hostname_string(0) {
            let mut fqdn = vec![0x00];
            fqdn.extend_from_slice(hostname.as_bytes());
            options.push(iotlan_wire::dhcpv6::Dhcpv6Option {
                code: iotlan_wire::dhcpv6::option_codes::FQDN,
                data: fqdn,
            });
        }
        let solicit = iotlan_wire::dhcpv6::Repr {
            message_type: iotlan_wire::dhcpv6::MessageType::Solicit,
            transaction_id: u32::from(self.config.mac.0[5]) << 8 | 0x11,
            options,
        };
        let src_ip = ipv6::link_local_from_mac(self.config.mac);
        let group: std::net::Ipv6Addr = "ff02::1:2".parse().unwrap();
        ctx.send_frame(stack::udp_multicast_v6(
            self.config.mac,
            src_ip,
            group,
            546,
            547,
            &solicit.to_bytes(),
        ));
    }

    fn send_gateway_ping(&mut self, ctx: &mut Context) {
        let seq = (self.hostname_nonce & 0xffff) as u16;
        self.hostname_nonce = self.hostname_nonce.wrapping_add(1);
        let ping = icmpv4::Repr {
            message: icmpv4::Message::EchoRequest {
                ident: u16::from(self.config.mac.0[5]),
                seq,
            },
            payload_len: 0,
        };
        let gw = Endpoint {
            mac: iotlan_netsim::router::GATEWAY_MAC,
            ip: iotlan_netsim::router::GATEWAY_IP,
        };
        ctx.send_frame(stack::icmpv4_frame(self.endpoint, gw, &ping, &[]));
        let interval = Self::jittered(ctx, 900);
        ctx.set_timer(interval, T_GW_PING);
    }

    fn send_eapol(&self, ctx: &mut Context) {
        // EAPOL-Key to the 802.1X PAE group address.
        let repr = eapol::Repr {
            version: 2,
            packet_type: eapol::PacketType::Key,
            body_len: 95,
        };
        let frame = build_frame(
            &iotlan_wire::ethernet::Repr {
                src_addr: self.config.mac,
                dst_addr: EthernetAddress([0x01, 0x80, 0xc2, 0x00, 0x00, 0x03]),
                ethertype: EtherType::Eapol,
            },
            &repr.to_bytes(&vec![0u8; 95]),
        );
        ctx.send_frame(frame);
    }

    fn send_igmp_joins(&self, ctx: &mut Context) {
        let mut groups = Vec::new();
        if self.config.mdns.is_some() {
            groups.push(Ipv4Addr::new(224, 0, 0, 251));
        }
        if self.config.ssdp.is_some() {
            groups.push(Ipv4Addr::new(239, 255, 255, 250));
        }
        if groups.is_empty() {
            groups.push(Ipv4Addr::new(224, 0, 0, 1));
        }
        for group in groups {
            let repr = igmp::Repr {
                message: igmp::Message::MembershipReportV2 { group },
            };
            ctx.send_frame(stack::igmp_frame(self.endpoint, group, &repr));
        }
    }

    fn send_mdns_queries(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.mdns_queries").incr();
        let Some(mdns) = &self.config.mdns else {
            return;
        };
        if mdns.query.is_empty() {
            return;
        }
        let questions: Vec<(&str, dns::RecordType)> = mdns
            .query
            .iter()
            .map(|q| (q.as_str(), dns::RecordType::Ptr))
            .collect();
        let mut message = dns::Message::mdns_query(&questions);
        // Apple's mDNSResponder sets QU on initial queries; peers that
        // serve unicast responses answer directly (the ~20% unicast
        // population of §5.1).
        if mdns.unicast_response && self.config.vendor == "Apple" {
            for question in &mut message.questions {
                question.unicast_response = true;
            }
        }
        ctx.send_frame(stack::udp_multicast(
            self.endpoint,
            dns::MDNS_GROUP_V4,
            dns::MDNS_PORT,
            dns::MDNS_PORT,
            &message.to_bytes(),
        ));
        let interval = Self::jittered(ctx, mdns.query_interval_secs);
        ctx.set_timer(interval, T_MDNS_QUERY);
    }

    fn mdns_answer_records(&self) -> Vec<dns::Record> {
        let Some(mdns) = &self.config.mdns else {
            return Vec::new();
        };
        let hostname = self.mdns_hostname();
        let mut records = Vec::new();
        for service in &mdns.advertise {
            let full_instance = format!("{}.{}", service.instance, service.service_type);
            records.push(dns::Record {
                name: service.service_type.clone(),
                cache_flush: false,
                ttl: 4500,
                rdata: dns::RData::Ptr(full_instance.clone()),
            });
            records.push(dns::Record {
                name: full_instance.clone(),
                cache_flush: true,
                ttl: 120,
                rdata: dns::RData::Srv {
                    priority: 0,
                    weight: 0,
                    port: service.port,
                    target: hostname.clone(),
                },
            });
            if !service.txt.is_empty() {
                records.push(dns::Record {
                    name: full_instance,
                    cache_flush: true,
                    ttl: 4500,
                    rdata: dns::RData::Txt(service.txt.clone()),
                });
            }
        }
        records.push(dns::Record {
            name: hostname,
            cache_flush: true,
            ttl: 120,
            rdata: dns::RData::A(self.config.ip),
        });
        records
    }

    fn mdns_answer(&self) -> &[u8] {
        self.mdns_answer
            .get_or_init(|| dns::Message::mdns_response(self.mdns_answer_records()).to_bytes())
    }

    fn send_mdns_announce(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.mdns_announces").incr();
        let Some(mdns) = &self.config.mdns else {
            return;
        };
        if !mdns.advertise.is_empty() {
            ctx.send_frame(stack::udp_multicast(
                self.endpoint,
                dns::MDNS_GROUP_V4,
                dns::MDNS_PORT,
                dns::MDNS_PORT,
                self.mdns_answer(),
            ));
        }
        let interval = Self::jittered(ctx, mdns.query_interval_secs.max(30) * 2);
        ctx.set_timer(interval, T_MDNS_ANNOUNCE);
    }

    fn send_ssdp_search(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.ssdp_searches").incr();
        let Some(ssdp_config) = &self.config.ssdp else {
            return;
        };
        for target in &ssdp_config.search_targets {
            let message = ssdp::Message::msearch(target, 3);
            let sport = self.stable_port;
            ctx.send_frame(stack::udp_multicast(
                self.endpoint,
                ssdp::SSDP_GROUP_V4,
                sport,
                ssdp::SSDP_PORT,
                &message.to_bytes(),
            ));
        }
        if ssdp_config.search_interval_secs > 0 {
            let interval = Self::jittered(ctx, ssdp_config.search_interval_secs);
            ctx.set_timer(interval, T_SSDP_SEARCH);
        }
    }

    fn send_ssdp_notify(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.ssdp_notifies").incr();
        let Some(ssdp_config) = &self.config.ssdp else {
            return;
        };
        if ssdp_config.notify {
            let banner = ssdp_banner(ssdp_config);
            let message = ssdp::Message::notify_alive(
                "upnp:rootdevice",
                &ssdp_config.uuid,
                ssdp_config.location.as_deref(),
                Some(&banner),
            );
            let sport = ctx_ephemeral_port(ctx);
            ctx.send_frame(stack::udp_multicast(
                self.endpoint,
                ssdp::SSDP_GROUP_V4,
                sport,
                ssdp::SSDP_PORT,
                &message.to_bytes(),
            ));
        }
        let interval = Self::jittered(ctx, 900);
        ctx.set_timer(interval, T_SSDP_NOTIFY);
    }

    fn send_arp_sweep(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.arp_sweeps").incr();
        let Some(scan) = &self.config.arp_scan else {
            return;
        };
        let base = self.config.ip.octets();
        // Broadcast-sweep the /24 (Echo's daily scan).
        for host in 2u8..=254 {
            let target = Ipv4Addr::new(base[0], base[1], base[2], host);
            if target == self.config.ip {
                continue;
            }
            let request = arp::Repr::request(self.config.mac, self.config.ip, target);
            // Spread over ~25 seconds to look like a real scan.
            let delay = SimDuration::from_millis(u64::from(host) * 100);
            ctx.send_frame_delayed(delay, stack::arp_frame(&request));
        }
        if scan.unicast_probes {
            // Targeted unicast probes to hosts already resolved.
            for (&ip, &mac) in &self.arp_table {
                let mut request = arp::Repr::request(self.config.mac, self.config.ip, ip);
                request.target_hardware_addr = mac;
                let frame = build_frame(
                    &iotlan_wire::ethernet::Repr {
                        src_addr: self.config.mac,
                        dst_addr: mac,
                        ethertype: EtherType::Arp,
                    },
                    &request.to_bytes(),
                );
                ctx.send_frame_delayed(SimDuration::from_secs(30), frame);
            }
        }
        let interval = Self::jittered(ctx, scan.sweep_interval_secs);
        ctx.set_timer(interval, T_ARP_SWEEP);
    }

    fn send_ndp_probes(&mut self, ctx: &mut Context) {
        if !self.config.ipv6 || !self.config.ndp_discovery {
            return;
        }
        let src_ip = ipv6::link_local_from_mac(self.config.mac);
        let count = self.config.ndp_probe_count;
        for i in 0..count {
            // Probe pseudo-random link-local targets: multicast NS carrying
            // our MAC in the source-lladdr option (the §5.1 leak).
            let target: std::net::Ipv6Addr =
                format!("fe80::{:x}:{:x}", (i >> 8) + 1, (i & 0xff) + 1)
                    .parse()
                    .unwrap();
            let repr = icmpv6::Repr {
                message: icmpv6::Message::NeighborSolicit {
                    target,
                    source_mac: Some(self.config.mac),
                },
            };
            let dst = ipv6::solicited_node(target);
            let delay = SimDuration::from_millis(u64::from(i) * 20);
            ctx.send_frame_delayed(
                delay,
                stack::icmpv6_frame(self.config.mac, src_ip, dst, &repr),
            );
        }
        let interval = Self::jittered(ctx, 3600);
        ctx.set_timer(interval, T_NDP);
    }

    fn send_tplink_poll(&mut self, ctx: &mut Context) {
        let Some(TplinkRole::Client { poll_interval_secs }) = self.config.tplink else {
            return;
        };
        let query = tplink::Message::get_sysinfo();
        let sport = self.stable_port;
        ctx.send_frame(stack::udp_broadcast(
            self.endpoint,
            sport,
            tplink::SHP_PORT,
            &query.to_udp_bytes(),
        ));
        let interval = Self::jittered(ctx, poll_interval_secs);
        ctx.set_timer(interval, T_TPLINK_POLL);
    }

    fn send_tuya_broadcast(&mut self, ctx: &mut Context) {
        let Some(tuya_config) = &self.config.tuya else {
            return;
        };
        let frame = tuya::Frame::discovery(
            &tuya_config.gw_id,
            &tuya_config.product_key,
            &self.config.ip.to_string(),
            "3.3",
        );
        let sport = self.stable_port;
        ctx.send_frame(stack::udp_broadcast(
            self.endpoint,
            sport,
            tuya_config.port,
            &frame.to_bytes(),
        ));
        let interval = Self::jittered(ctx, tuya_config.interval_secs);
        ctx.set_timer(interval, T_TUYA);
    }

    fn send_lifx_probe(&mut self, ctx: &mut Context) {
        let Some(secs) = self.config.lifx_probe_interval_secs else {
            return;
        };
        let source = u32::from_be_bytes([
            self.config.mac.0[2],
            self.config.mac.0[3],
            self.config.mac.0[4],
            self.config.mac.0[5],
        ]);
        let header = lifx::Header::get_service(source, 1);
        let sport = self.stable_port;
        ctx.send_frame(stack::udp_broadcast(
            self.endpoint,
            sport,
            lifx::LIFX_PORT,
            &header.to_bytes(),
        ));
        let interval = Self::jittered(ctx, secs);
        ctx.set_timer(interval, T_LIFX);
    }

    fn send_coap(&mut self, ctx: &mut Context) {
        let Some(coap_config) = &self.config.coap else {
            return;
        };
        let message = coap::Message::get(ctx.rng().gen_u16(), &coap_config.uri_path);
        let frame = if coap_config.multicast {
            stack::udp_multicast(
                self.endpoint,
                Ipv4Addr::new(224, 0, 1, 187),
                ctx_ephemeral_port(ctx),
                5683,
                &message.to_bytes(),
            )
        } else {
            stack::udp_broadcast(
                self.endpoint,
                ctx_ephemeral_port(ctx),
                5683,
                &message.to_bytes(),
            )
        };
        ctx.send_frame(frame);
        let interval = Self::jittered(ctx, coap_config.interval_secs);
        ctx.set_timer(interval, T_COAP);
    }

    fn open_client_connection(
        &mut self,
        ctx: &mut Context,
        peer_ip: Ipv4Addr,
        peer_port: u16,
        intent: ClientIntent,
    ) {
        let local_port = self.alloc_client_port();
        self.pending
            .insert((peer_ip, peer_port, local_port), intent);
        let syn = tcp::Repr::syn(local_port, peer_port, 0x1000);
        // We do not know the peer MAC a priori; consult the ARP table or
        // fall back to broadcast resolution first.
        let peer_mac = self.arp_table.get(&peer_ip).copied();
        match peer_mac {
            Some(mac) => {
                let frame =
                    stack::tcp_segment(self.endpoint, Endpoint { mac, ip: peer_ip }, &syn, &[]);
                ctx.send_frame(frame);
            }
            None => {
                // ARP first; retry the connection on the next timer tick.
                let request = arp::Repr::request(self.config.mac, self.config.ip, peer_ip);
                ctx.send_frame(stack::arp_frame(&request));
                self.pending.remove(&(peer_ip, peer_port, local_port));
            }
        }
    }

    fn tick_tls(&mut self, ctx: &mut Context, index: usize) {
        let Some(peer) = self.config.tls_peers.get(index).cloned() else {
            return;
        };
        self.open_client_connection(
            ctx,
            peer.peer_ip,
            peer.peer_port,
            ClientIntent::TlsHello {
                version: peer.version,
            },
        );
        let interval = Self::jittered(ctx, peer.interval_secs);
        ctx.set_timer(interval, T_TLS_BASE + index as u64);
    }

    fn tick_http(&mut self, ctx: &mut Context, index: usize) {
        let Some(poll) = self.config.http_polls.get(index).cloned() else {
            return;
        };
        self.open_client_connection(
            ctx,
            poll.peer_ip,
            poll.peer_port,
            ClientIntent::HttpGet {
                path: poll.path.clone(),
                user_agent: poll.user_agent.clone(),
            },
        );
        let interval = Self::jittered(ctx, poll.interval_secs);
        ctx.set_timer(interval, T_HTTP_BASE + index as u64);
    }

    fn tick_rtp(&mut self, ctx: &mut Context) {
        let Some(rtp_config) = &self.config.rtp else {
            return;
        };
        let peer_mac = self.arp_table.get(&rtp_config.peer_ip).copied();
        if let Some(mac) = peer_mac {
            // A burst of 5 RTP packets, 20 ms apart (audio frames).
            for i in 0u16..5 {
                let header = rtp::Header {
                    payload_type: 97,
                    sequence: i,
                    timestamp: u32::from(i) * 960,
                    ssrc: u32::from_be_bytes([
                        self.config.mac.0[2],
                        self.config.mac.0[3],
                        self.config.mac.0[4],
                        self.config.mac.0[5],
                    ]),
                    marker: i == 0,
                    csrc_count: 0,
                };
                let mut payload = header.to_bytes();
                payload.extend_from_slice(&[0xAD; 160]); // opaque audio
                let frame = stack::udp_unicast(
                    self.endpoint,
                    Endpoint {
                        mac,
                        ip: rtp_config.peer_ip,
                    },
                    rtp_config.port,
                    rtp_config.port,
                    &payload,
                );
                ctx.send_frame_delayed(SimDuration::from_millis(u64::from(i) * 20), frame);
            }
        } else {
            let request = arp::Repr::request(self.config.mac, self.config.ip, rtp_config.peer_ip);
            ctx.send_frame(stack::arp_frame(&request));
        }
        let interval = Self::jittered(ctx, rtp_config.interval_secs);
        ctx.set_timer(interval, T_RTP);
    }

    // ---- reactive behaviours -------------------------------------------

    fn handle_arp(&mut self, ctx: &mut Context, eth_dst: EthernetAddress, repr: arp::Repr) {
        match repr.operation {
            arp::Operation::Request if repr.target_protocol_addr == self.config.ip => {
                let is_broadcast = eth_dst.is_broadcast();
                if is_broadcast && !self.config.responds_broadcast_arp {
                    return; // 42% of devices ignore broadcast sweeps (§5.1)
                }
                let reply = arp::Repr::reply(
                    self.config.mac,
                    self.config.ip,
                    repr.sender_hardware_addr,
                    repr.sender_protocol_addr,
                );
                ctx.send_frame(stack::arp_frame(&reply));
                self.arp_table
                    .insert(repr.sender_protocol_addr, repr.sender_hardware_addr);
            }
            arp::Operation::Reply => {
                self.arp_table
                    .insert(repr.sender_protocol_addr, repr.sender_hardware_addr);
            }
            _ => {}
        }
    }

    fn handle_mdns(
        &mut self,
        ctx: &mut Context,
        src: Endpoint,
        frame: &Dissected<'_>,
        payload: &[u8],
    ) {
        // Only a device advertising services answers, and only queries,
        // which the header rejects before the shared parse is made.
        let Some(mdns) = &self.config.mdns else {
            return;
        };
        if mdns.advertise.is_empty() || !dns::is_query(payload) {
            return;
        }
        let Some(message) = frame.dns() else {
            return;
        };
        if !message.asks_for(|name| mdns.advertise.iter().any(|s| s.service_type == name)) {
            return;
        }
        let wants_unicast =
            mdns.unicast_response && message.questions.iter().any(|q| q.unicast_response);
        let bytes = self.mdns_answer();
        // Multicast response (the ~98% norm).
        ctx.send_frame_delayed(
            SimDuration::from_millis(20),
            stack::udp_multicast(
                self.endpoint,
                dns::MDNS_GROUP_V4,
                dns::MDNS_PORT,
                dns::MDNS_PORT,
                bytes,
            ),
        );
        if wants_unicast {
            ctx.send_frame_delayed(
                SimDuration::from_millis(20),
                stack::udp_unicast(self.endpoint, src, dns::MDNS_PORT, dns::MDNS_PORT, bytes),
            );
        }
        self.mdns_responses_sent += 1;
    }

    fn handle_ssdp(&mut self, ctx: &mut Context, src: Endpoint, sport: u16, frame: &Dissected<'_>) {
        let Some(ssdp_config) = &self.config.ssdp else {
            return;
        };
        if !ssdp_config.responds {
            return;
        }
        let Some(ssdp::Message::MSearch {
            search_target,
            max_wait,
            ..
        }) = frame.ssdp()
        else {
            return;
        };
        let ours = search_target == ssdp::targets::ALL
            || search_target == ssdp::targets::ROOT_DEVICE
            || ssdp_config
                .search_targets
                .iter()
                .any(|t| t == search_target)
            || search_target.contains("MediaRenderer")
            || search_target.contains("dial");
        if !ours {
            return;
        }
        let echoed = if search_target == ssdp::targets::ALL {
            ssdp::targets::ROOT_DEVICE
        } else {
            search_target
        };
        if !self.ssdp_replies.contains_key(echoed) {
            let response = ssdp::Message::response(
                echoed,
                &ssdp_config.uuid,
                ssdp_config.location.as_deref(),
                Some(&ssdp_banner(ssdp_config)),
            );
            self.ssdp_replies
                .insert(echoed.to_owned(), response.to_bytes());
        }
        // Scatter within the MX window, per spec.
        let scatter = ctx.rng().gen_range(0..=u64::from(*max_wait).max(1) * 1000);
        ctx.send_frame_delayed(
            SimDuration::from_millis(scatter),
            stack::udp_unicast(
                self.endpoint,
                src,
                ssdp::SSDP_PORT,
                sport,
                &self.ssdp_replies[echoed],
            ),
        );
        self.ssdp_responses_sent += 1;
    }

    fn handle_udp(
        &mut self,
        ctx: &mut Context,
        frame: &Dissected<'_>,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: &[u8],
    ) {
        let eth_src = frame.eth.src_addr;
        let src = Endpoint {
            mac: eth_src,
            ip: src_ip,
        };
        let to_us = dst_ip == self.config.ip;
        let is_multicast_or_bcast =
            iotlan_wire::ipv4::is_multicast(dst_ip) || dst_ip.octets()[3] == 255;
        match dport {
            dns::MDNS_PORT if is_multicast_or_bcast || to_us => {
                self.handle_mdns(ctx, src, frame, payload)
            }
            ssdp::SSDP_PORT if is_multicast_or_bcast || to_us => {
                self.handle_ssdp(ctx, src, sport, frame)
            }
            tplink::SHP_PORT => {
                let Some(role) = &self.config.tplink else {
                    return;
                };
                let Ok(message) = tplink::Message::from_udp_bytes(payload) else {
                    return;
                };
                // A platform client that hears a sysinfo response follows up
                // with an unauthenticated TCP control session (§5.1).
                if matches!(role, TplinkRole::Client { .. })
                    && sport == tplink::SHP_PORT
                    && message.sysinfo().is_some()
                {
                    self.arp_table.entry(src_ip).or_insert(eth_src);
                    self.open_client_connection(
                        ctx,
                        src_ip,
                        tplink::SHP_PORT,
                        ClientIntent::tplink(),
                    );
                }
                if message
                    .body
                    .get("system")
                    .and_then(|s| s.get("get_sysinfo"))
                    .is_some()
                {
                    if let Some(sysinfo) = self.tplink_sysinfo() {
                        ctx.send_frame_delayed(
                            SimDuration::from_millis(30),
                            stack::udp_unicast(
                                self.endpoint,
                                src,
                                tplink::SHP_PORT,
                                sport,
                                &sysinfo.to_udp_bytes(),
                            ),
                        );
                    }
                }
            }
            68 => { /* DHCP replies: static plan, nothing to update */ }
            _ if to_us => {
                if let Some(service) = self.find_open_udp(dport) {
                    if let Some(response) = service.service.respond(payload, None) {
                        ctx.send_frame(stack::udp_unicast(
                            self.endpoint,
                            src,
                            dport,
                            sport,
                            &response,
                        ));
                    }
                } else if self.config.scan_profile.responds_udp {
                    // ICMP port unreachable for the UDP scanner.
                    let reply = icmpv4::Repr {
                        message: icmpv4::Message::DstUnreachable {
                            code: icmpv4::UNREACHABLE_PORT,
                        },
                        payload_len: 0,
                    };
                    ctx.send_frame(stack::icmpv4_frame(self.endpoint, src, &reply, &[]));
                }
            }
            _ => {}
        }
    }

    fn handle_tcp(
        &mut self,
        ctx: &mut Context,
        eth_src: EthernetAddress,
        src_ip: Ipv4Addr,
        repr: tcp::Repr,
        payload: &[u8],
    ) {
        let src = Endpoint {
            mac: eth_src,
            ip: src_ip,
        };
        let flags = repr.flags;
        let is_syn = flags.contains(tcp::Flags::SYN) && !flags.contains(tcp::Flags::ACK);
        let is_syn_ack = flags.contains(tcp::Flags::SYN | tcp::Flags::ACK);
        let has_data = !payload.is_empty();

        if is_syn {
            if self.find_open_tcp(repr.dst_port).is_some() {
                let reply = tcp::Repr::syn_ack(
                    repr.dst_port,
                    repr.src_port,
                    0x2000,
                    repr.seq_number.wrapping_add(1),
                );
                ctx.send_frame(stack::tcp_segment(self.endpoint, src, &reply, &[]));
            } else if self.config.scan_profile.responds_tcp {
                let reply = tcp::Repr::rst_ack(
                    repr.dst_port,
                    repr.src_port,
                    repr.seq_number.wrapping_add(1),
                );
                ctx.send_frame(stack::tcp_segment(self.endpoint, src, &reply, &[]));
            }
            return;
        }

        if is_syn_ack {
            // One of our client connections came up.
            let key = (src_ip, repr.src_port, repr.dst_port);
            if let Some(intent) = self.pending.remove(&key) {
                let ack = repr.seq_number.wrapping_add(1);
                let request_payload: Vec<u8> = match intent {
                    ClientIntent::TlsHello { version } => {
                        let hello = Handshake::ClientHello {
                            version: if version == TlsVersion::Tls13 {
                                TlsVersion::Tls12
                            } else {
                                version
                            },
                            supported_versions: if version == TlsVersion::Tls13 {
                                vec![TlsVersion::Tls12, TlsVersion::Tls13]
                            } else {
                                vec![]
                            },
                            server_name: None,
                            cipher_suites: vec![0xc02f, 0x1301],
                        };
                        hello.into_record(TlsVersion::Tls12).to_bytes()
                    }
                    ClientIntent::HttpGet { path, user_agent } => {
                        let mut headers = iotlan_wire::http::Headers::new()
                            .with("Host", &format!("{src_ip}:{}", repr.src_port));
                        if let Some(ua) = user_agent {
                            headers.push("User-Agent", &ua);
                        }
                        iotlan_wire::http::Request::get(&path, headers).to_bytes()
                    }
                    ClientIntent::TplinkControl => {
                        tplink::Message::set_relay_state(true).to_tcp_bytes()
                    }
                };
                let data = tcp::Repr::data(
                    repr.dst_port,
                    repr.src_port,
                    repr.ack_number,
                    ack,
                    request_payload.len(),
                );
                ctx.send_frame(stack::tcp_segment(
                    self.endpoint,
                    src,
                    &data,
                    &request_payload,
                ));
            }
            return;
        }

        if has_data {
            // Data to one of our open services → service response.
            if let Some(service) = self.find_open_tcp(repr.dst_port) {
                let sysinfo = self.tplink_sysinfo();
                if let Some(response) = service.service.respond(payload, sysinfo.as_ref()) {
                    let reply = tcp::Repr::data(
                        repr.dst_port,
                        repr.src_port,
                        repr.ack_number,
                        repr.seq_number.wrapping_add(payload.len() as u32),
                        response.len(),
                    );
                    ctx.send_frame(stack::tcp_segment(self.endpoint, src, &reply, &response));
                }
            }
        }
    }

    fn handle_icmpv6(&mut self, ctx: &mut Context, eth_src: EthernetAddress, repr: icmpv6::Repr) {
        if !self.config.ipv6 {
            return;
        }
        let our_ll = ipv6::link_local_from_mac(self.config.mac);
        if let icmpv6::Message::NeighborSolicit { target, .. } = repr.message {
            if target == our_ll {
                let advert = icmpv6::Repr {
                    message: icmpv6::Message::NeighborAdvert {
                        target: our_ll,
                        target_mac: Some(self.config.mac),
                    },
                };
                // Reply unicast to the solicitor.
                let frame = stack::icmpv6_frame_to(
                    self.config.mac,
                    eth_src,
                    our_ll,
                    ipv6::link_local_from_mac(eth_src),
                    &advert,
                );
                ctx.send_frame(frame);
            }
        }
    }
}

/// The SERVER banner, rewritten to UPnP/1.1 unless the device advertises
/// the 1.0 legacy.
fn ssdp_banner(ssdp_config: &SsdpConfig) -> String {
    if ssdp_config.upnp_version_10 {
        ssdp_config.server_banner.clone()
    } else {
        ssdp_config.server_banner.replace("UPnP/1.0", "UPnP/1.1")
    }
}

/// Ephemeral source port drawn from the context RNG (devices randomize
/// source ports, which is why the paper's periodicity analysis keys on
/// (destination, protocol) rather than ports).
fn ctx_ephemeral_port(ctx: &mut Context) -> u16 {
    ctx.rng().gen_range(32768..=60999)
}

impl Node for Device {
    fn mac(&self) -> EthernetAddress {
        self.config.mac
    }

    /// What `on_frame` can act on: frames to the device's address, ARP
    /// replies (learned into the ARP table), mDNS queries for the service
    /// types it advertises, SSDP when it answers M-SEARCH, TP-Link SHP when
    /// it speaks it, and neighbour solicitations for its link-local address
    /// when it runs IPv6.
    fn interest(&self) -> Interest {
        let config = &self.config;
        let mut udp_ports = Vec::new();
        if config.ssdp.as_ref().is_some_and(|s| s.responds) {
            udp_ports.push(ssdp::SSDP_PORT);
        }
        if config.tplink.is_some() {
            udp_ports.push(tplink::SHP_PORT);
        }
        Interest {
            arp_replies: true,
            udp_ports,
            mdns_services: config
                .mdns
                .iter()
                .flat_map(|m| &m.advertise)
                .map(|s| s.service_type.clone())
                .collect(),
            ndp_target: config.ipv6.then(|| ipv6::link_local_from_mac(config.mac)),
            ..Interest::addressed_to(config.ip)
        }
    }

    fn on_start(&mut self, ctx: &mut Context) {
        iotlan_telemetry::counter!("devices.started").incr();
        if self.config.eapol {
            self.send_eapol(ctx);
            self.send_xid_probe(ctx);
        }
        self.send_dhcp_discover(ctx);
        if self.config.ipv6 {
            self.send_dhcpv6_solicit(ctx);
        }
        if self.config.igmp {
            self.send_igmp_joins(ctx);
        }
        // Stagger initial periodic behaviours so devices don't synchronize.
        let stagger = |ctx: &mut Context| SimDuration::from_millis(ctx.rng().gen_range(100..5000));
        if self
            .config
            .mdns
            .as_ref()
            .map(|m| !m.query.is_empty())
            .unwrap_or(false)
        {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_MDNS_QUERY);
        }
        if self
            .config
            .mdns
            .as_ref()
            .map(|m| !m.advertise.is_empty())
            .unwrap_or(false)
        {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_MDNS_ANNOUNCE);
        }
        if let Some(ssdp_config) = &self.config.ssdp {
            if !ssdp_config.search_targets.is_empty() {
                let delay = stagger(ctx);
                ctx.set_timer(delay, T_SSDP_SEARCH);
            }
            if ssdp_config.notify {
                let delay = stagger(ctx);
                ctx.set_timer(delay, T_SSDP_NOTIFY);
            }
        }
        if self.config.arp_scan.is_some() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_ARP_SWEEP);
        }
        if self.config.ipv6 && self.config.ndp_discovery {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_NDP);
        }
        if matches!(self.config.tplink, Some(TplinkRole::Client { .. })) {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_TPLINK_POLL);
        }
        if self.config.tuya.is_some() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_TUYA);
        }
        if self.config.lifx_probe_interval_secs.is_some() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_LIFX);
        }
        if self.config.coap.is_some() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_COAP);
        }
        for index in 0..self.config.tls_peers.len() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_TLS_BASE + index as u64);
        }
        for index in 0..self.config.http_polls.len() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_HTTP_BASE + index as u64);
        }
        if self.config.rtp.is_some() {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_RTP);
        }
        if self.config.pings_gateway {
            let delay = stagger(ctx);
            ctx.set_timer(delay, T_GW_PING);
        }
        // DHCP renewal keeps hostname leaks recurring in long captures.
        ctx.set_timer(SimDuration::from_hours(12), T_DHCP_RENEW);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        iotlan_telemetry::counter!("devices.timers_fired").incr();
        match token {
            T_MDNS_QUERY => self.send_mdns_queries(ctx),
            T_MDNS_ANNOUNCE => self.send_mdns_announce(ctx),
            T_SSDP_SEARCH => self.send_ssdp_search(ctx),
            T_SSDP_NOTIFY => self.send_ssdp_notify(ctx),
            T_ARP_SWEEP => self.send_arp_sweep(ctx),
            T_NDP => self.send_ndp_probes(ctx),
            T_TPLINK_POLL => self.send_tplink_poll(ctx),
            T_TUYA => self.send_tuya_broadcast(ctx),
            T_LIFX => self.send_lifx_probe(ctx),
            T_COAP => self.send_coap(ctx),
            T_GW_PING => self.send_gateway_ping(ctx),
            T_DHCP_RENEW => {
                self.send_dhcp_discover(ctx);
                ctx.set_timer(SimDuration::from_hours(12), T_DHCP_RENEW);
            }
            T_RTP => self.tick_rtp(ctx),
            t if (T_TLS_BASE..T_HTTP_BASE).contains(&t) => {
                self.tick_tls(ctx, (t - T_TLS_BASE) as usize)
            }
            t if (T_HTTP_BASE..T_RTP).contains(&t) => {
                self.tick_http(ctx, (t - T_HTTP_BASE) as usize)
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Context, frame: &Dissected<'_>) {
        let eth_src = frame.eth.src_addr;
        let eth_dst = frame.eth.dst_addr;
        match frame.content {
            Content::Arp(repr) => self.handle_arp(ctx, eth_dst, repr),
            Content::UdpV4 {
                src,
                dst,
                sport,
                dport,
                payload,
            } => self.handle_udp(ctx, frame, src, dst, sport, dport, payload),
            Content::TcpV4 {
                src,
                dst,
                repr,
                payload,
            } if dst == self.config.ip => self.handle_tcp(ctx, eth_src, src, repr, payload),
            Content::IcmpV4 {
                src,
                dst,
                repr:
                    icmpv4::Repr {
                        message: icmpv4::Message::EchoRequest { ident, seq },
                        ..
                    },
            } if dst == self.config.ip => {
                let reply = icmpv4::Repr {
                    message: icmpv4::Message::EchoReply { ident, seq },
                    payload_len: 0,
                };
                let frame = stack::icmpv4_frame(
                    self.endpoint,
                    Endpoint {
                        mac: eth_src,
                        ip: src,
                    },
                    &reply,
                    &[],
                );
                ctx.send_frame(frame);
            }
            Content::IcmpV6 { repr, .. } => self.handle_icmpv6(ctx, eth_src, repr),
            Content::OtherIpv4 { src, dst, .. } if dst == self.config.ip => {
                if self.config.scan_profile.responds_ip_proto {
                    let reply = icmpv4::Repr {
                        message: icmpv4::Message::DstUnreachable {
                            code: icmpv4::UNREACHABLE_PROTOCOL,
                        },
                        payload_len: 0,
                    };
                    let frame = stack::icmpv4_frame(
                        self.endpoint,
                        Endpoint {
                            mac: eth_src,
                            ip: src,
                        },
                        &reply,
                        &[],
                    );
                    ctx.send_frame(frame);
                }
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
    use crate::config::{Category, MdnsConfig, MdnsService, SsdpConfig};
    use crate::services::ServiceKind;
    use iotlan_netsim::router::Router;
    use iotlan_netsim::Network;

    fn hue_config() -> DeviceConfig {
        let mut config = DeviceConfig::base(
            "Philips Hue Hub",
            "Philips",
            "Hue Bridge 2.0",
            Category::HomeAutomation,
            EthernetAddress([0x00, 0x17, 0x88, 0x68, 0x5f, 0x61]),
            Ipv4Addr::new(192, 168, 10, 12),
        );
        config.igmp = true;
        config.mdns = Some(MdnsConfig {
            advertise: vec![MdnsService {
                service_type: "_hue._tcp.local".into(),
                instance: "Philips Hue - 685F61".into(),
                port: 443,
                txt: vec!["bridgeid=001788FFFE685F61".into()],
            }],
            query: vec![],
            query_interval_secs: 60,
            unicast_response: true,
        });
        config.ssdp = Some(SsdpConfig {
            search_targets: vec![],
            search_interval_secs: 0,
            notify: true,
            responds: true,
            uuid: "2f402f80-da50-11e1-9b23-001788685f61".into(),
            server_banner: "Linux/3.14.0 UPnP/1.0 IpBridge/1.56.0".into(),
            location: Some("http://192.168.10.12:80/description.xml".into()),
            upnp_version_10: true,
        });
        config
    }

    fn querier_config() -> DeviceConfig {
        let mut config = DeviceConfig::base(
            "Google Home Mini",
            "Google",
            "Home Mini",
            Category::VoiceAssistant,
            EthernetAddress([0x64, 0x16, 0x66, 0x01, 0x02, 0x03]),
            Ipv4Addr::new(192, 168, 10, 20),
        );
        config.igmp = true;
        config.mdns = Some(MdnsConfig {
            advertise: vec![],
            query: vec!["_hue._tcp.local".into()],
            query_interval_secs: 25,
            unicast_response: false,
        });
        config.ssdp = Some(SsdpConfig {
            search_targets: vec![ssdp::targets::DIAL.into()],
            search_interval_secs: 20,
            notify: false,
            responds: false,
            uuid: "x".into(),
            server_banner: "Chromecast".into(),
            location: None,
            upnp_version_10: false,
        });
        config
    }

    fn build_pair() -> (Network, iotlan_netsim::NodeId, iotlan_netsim::NodeId) {
        let mut network = Network::new(7);
        network.add_node(Box::new(Router::new()));
        let hue = network.add_node(Box::new(Device::new(hue_config())));
        let google = network.add_node(Box::new(Device::new(querier_config())));
        (network, hue, google)
    }

    #[test]
    fn mdns_query_gets_answered() {
        let (mut network, hue, _) = build_pair();
        network.run_for(SimDuration::from_secs(120));
        let device = network.node(hue).as_any().downcast_ref::<Device>().unwrap();
        assert!(device.mdns_responses_sent > 0, "Hue should answer queries");
        // The capture must contain an mDNS response bearing the MAC-derived
        // instance name.
        let found = network.capture.frames().any(|f| {
            stack::dissect(f.data()).is_some_and(|d| match d.content {
                Content::UdpV4 {
                    dport: 5353,
                    payload,
                    ..
                } => dns::Message::parse(payload).is_ok_and(|m| {
                    m.is_response && m.text_content().iter().any(|s| s.contains("685F61"))
                }),
                _ => false,
            })
        });
        assert!(
            found,
            "capture should contain the identifier-bearing answer"
        );
    }

    #[test]
    fn ssdp_search_and_response() {
        let (mut network, hue, _) = build_pair();
        // Make the Google device search for rootdevice so Hue answers.
        network.run_for(SimDuration::from_secs(5));
        // Inject an M-SEARCH for ssdp:all from a scanner endpoint.
        let scanner = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 0x7e]),
            ip: Ipv4Addr::new(192, 168, 10, 77),
        };
        let msearch = ssdp::Message::msearch(ssdp::targets::ALL, 2);
        network.inject_frame(stack::udp_multicast(
            scanner,
            ssdp::SSDP_GROUP_V4,
            50000,
            ssdp::SSDP_PORT,
            &msearch.to_bytes(),
        ));
        network.run_for(SimDuration::from_secs(10));
        let device = network.node(hue).as_any().downcast_ref::<Device>().unwrap();
        assert!(device.ssdp_responses_sent > 0);
        // Response is unicast back to the scanner and contains the UUID.
        let found = network.capture.frames().any(|f| {
            f.dst_mac() == scanner.mac
                && stack::dissect(f.data()).is_some_and(|d| match d.content {
                    Content::UdpV4 { payload, .. } => {
                        String::from_utf8_lossy(payload).contains("2f402f80-da50")
                    }
                    _ => false,
                })
        });
        assert!(found);
    }

    /// The UDP payloads `mac` sent to `port`, in capture order.
    fn udp_payloads_to(network: &Network, mac: EthernetAddress, port: u16) -> Vec<Vec<u8>> {
        network
            .capture
            .sent_by(mac)
            .iter()
            .filter_map(|f| match stack::dissect(f.data())?.content {
                Content::UdpV4 { dport, payload, .. } if dport == port => Some(payload.to_vec()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ssdp_replies_are_built_once_per_echoed_target() {
        const OWN: &str = "urn:schemas-upnp-org:device:Basic:1";
        const DIAL_LIKE: &str = "urn:example:service:dial-ish:2";
        let mut config = hue_config();
        let ssdp_config = config.ssdp.as_mut().unwrap();
        ssdp_config.search_targets = vec![OWN.into()];
        ssdp_config.upnp_version_10 = false;
        let mac = config.mac;
        let mut network = Network::new(13);
        let hue = network.add_node(Box::new(Device::new(config)));
        let scanner = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 0x7e]),
            ip: Ipv4Addr::new(192, 168, 10, 77),
        };
        let searches = [
            (ssdp::targets::ALL, ssdp::targets::ROOT_DEVICE),
            (ssdp::targets::ROOT_DEVICE, ssdp::targets::ROOT_DEVICE),
            (OWN, OWN),
            (ssdp::targets::DIAL, ssdp::targets::DIAL),
            (DIAL_LIKE, DIAL_LIKE),
        ];
        let mut expected = Vec::new();
        for round in 0..3 {
            for (i, &(target, echoed)) in searches.iter().enumerate() {
                let sport = 50000 + (round * searches.len() + i) as u16;
                let msearch = ssdp::Message::msearch(target, 1);
                network.inject_frame(stack::udp_multicast(
                    scanner,
                    ssdp::SSDP_GROUP_V4,
                    sport,
                    ssdp::SSDP_PORT,
                    &msearch.to_bytes(),
                ));
                network.run_for(SimDuration::from_secs(2));
                let fresh = ssdp::Message::response(
                    echoed,
                    "2f402f80-da50-11e1-9b23-001788685f61",
                    Some("http://192.168.10.12:80/description.xml"),
                    Some("Linux/3.14.0 UPnP/1.1 IpBridge/1.56.0"),
                );
                expected.push((sport, fresh.to_bytes()));
            }
        }
        for (sport, fresh) in expected {
            assert_eq!(
                udp_payloads_to(&network, mac, sport),
                [fresh],
                "port {sport}"
            );
        }
        let device = network.node(hue).as_any().downcast_ref::<Device>().unwrap();
        assert_eq!(device.ssdp_responses_sent, 15);
        let mut memo: Vec<&str> = device.ssdp_replies.keys().map(String::as_str).collect();
        memo.sort_unstable();
        let mut echoed: Vec<&str> = searches.iter().map(|&(_, echoed)| echoed).collect();
        echoed.sort_unstable();
        echoed.dedup();
        assert_eq!(memo, echoed);
    }

    #[test]
    fn dhcp_hostname_reaches_router() {
        let (mut network, _, _) = build_pair();
        network.run_for(SimDuration::from_secs(2));
        let router_id = network
            .node_by_mac(iotlan_netsim::router::GATEWAY_MAC)
            .unwrap();
        let router = network
            .node(router_id)
            .as_any()
            .downcast_ref::<Router>()
            .unwrap();
        let hue_mac = EthernetAddress([0x00, 0x17, 0x88, 0x68, 0x5f, 0x61]);
        assert_eq!(
            router
                .observations
                .hostnames
                .get(&hue_mac)
                .map(String::as_str),
            Some("Hue Bridge 2.0")
        );
    }

    #[test]
    fn arp_request_answered_respecting_broadcast_policy() {
        let mut config = hue_config();
        config.responds_broadcast_arp = false;
        let mut network = Network::new(9);
        network.add_node(Box::new(Device::new(config)));
        // Broadcast request: ignored.
        let request = arp::Repr::request(
            EthernetAddress([2, 0, 0, 0, 0, 0x99]),
            Ipv4Addr::new(192, 168, 10, 99),
            Ipv4Addr::new(192, 168, 10, 12),
        );
        network.inject_frame(stack::arp_frame(&request));
        network.run_for(SimDuration::from_secs(1));
        let hue_mac = EthernetAddress([0x00, 0x17, 0x88, 0x68, 0x5f, 0x61]);
        assert!(network.capture.sent_by(hue_mac).iter().all(|f| {
            !matches!(
                stack::dissect(f.data()).map(|d| d.content),
                Some(Content::Arp(arp::Repr {
                    operation: arp::Operation::Reply,
                    ..
                }))
            )
        }));
        // Unicast request: always answered.
        let mut unicast = request;
        unicast.target_hardware_addr = hue_mac;
        let frame = build_frame(
            &iotlan_wire::ethernet::Repr {
                src_addr: unicast.sender_hardware_addr,
                dst_addr: hue_mac,
                ethertype: EtherType::Arp,
            },
            &unicast.to_bytes(),
        );
        network.inject_frame(frame);
        network.run_for(SimDuration::from_secs(1));
        let replied = network.capture.sent_by(hue_mac).iter().any(|f| {
            matches!(
                stack::dissect(f.data()).map(|d| d.content),
                Some(Content::Arp(arp::Repr {
                    operation: arp::Operation::Reply,
                    ..
                }))
            )
        });
        assert!(replied);
    }

    #[test]
    fn tcp_scan_semantics() {
        let mut config = hue_config();
        config.open_tcp = vec![ServicePort::new(
            80,
            ServiceKind::Http {
                server_banner: Some("IpBridge".into()),
                index_body: "<html/>".into(),
                extra_paths: vec![],
            },
        )];
        config.scan_profile.responds_tcp = true;
        let mut network = Network::new(3);
        network.add_node(Box::new(Device::new(config)));
        let scanner = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 0x7e]),
            ip: Ipv4Addr::new(192, 168, 10, 77),
        };
        let target = Endpoint {
            mac: EthernetAddress([0x00, 0x17, 0x88, 0x68, 0x5f, 0x61]),
            ip: Ipv4Addr::new(192, 168, 10, 12),
        };
        // SYN to open port 80 → SYN-ACK; to closed 81 → RST.
        network.inject_frame(stack::tcp_segment(
            scanner,
            target,
            &tcp::Repr::syn(40001, 80, 1),
            &[],
        ));
        network.inject_frame(stack::tcp_segment(
            scanner,
            target,
            &tcp::Repr::syn(40002, 81, 1),
            &[],
        ));
        network.run_for(SimDuration::from_secs(1));
        let mut saw_syn_ack = false;
        let mut saw_rst = false;
        for f in network.capture.sent_by(target.mac) {
            if let Some(Content::TcpV4 { repr, .. }) = stack::dissect(f.data()).map(|d| d.content) {
                if repr.flags.contains(tcp::Flags::SYN | tcp::Flags::ACK) {
                    saw_syn_ack = true;
                }
                if repr.flags.contains(tcp::Flags::RST) {
                    saw_rst = true;
                }
            }
        }
        assert!(saw_syn_ack && saw_rst);
    }

    #[test]
    fn association_emits_xid_and_dhcpv6() {
        let mut config = hue_config();
        config.ipv6 = true;
        let mac = config.mac;
        let mut network = Network::new(4);
        network.add_node(Box::new(Device::new(config)));
        network.run_for(SimDuration::from_secs(2));
        let mut saw_xid = false;
        let mut saw_dhcpv6 = false;
        for frame in network.capture.sent_by(mac) {
            let view = iotlan_wire::ethernet::Frame::new_unchecked(frame.data());
            if let EtherType::Unknown(len) = view.ethertype() {
                if len < 0x600 {
                    let pdu =
                        iotlan_wire::llc::LlcFrame::parse(&view.payload()[..len as usize]).unwrap();
                    assert!(pdu.is_xid());
                    saw_xid = true;
                }
            }
            if let Some(Content::UdpV6 {
                dport: 547,
                payload,
                ..
            }) = stack::dissect(frame.data()).map(|d| d.content)
            {
                let solicit = iotlan_wire::dhcpv6::Repr::parse(payload).unwrap();
                assert_eq!(
                    solicit.message_type,
                    iotlan_wire::dhcpv6::MessageType::Solicit
                );
                // The DUID embeds the MAC — another persistent identifier.
                let duid = solicit
                    .option(iotlan_wire::dhcpv6::option_codes::CLIENT_ID)
                    .unwrap();
                assert!(duid.ends_with(mac.as_bytes()));
                saw_dhcpv6 = true;
            }
        }
        assert!(saw_xid, "XID probe missing");
        assert!(saw_dhcpv6, "DHCPv6 solicit missing");
    }

    #[test]
    fn gateway_keepalive_pings() {
        let config = hue_config();
        let mac = config.mac;
        let mut network = Network::new(5);
        network.add_node(Box::new(Router::new()));
        network.add_node(Box::new(Device::new(config)));
        // 900 s cadence ±10%: two pings within 35 minutes.
        network.run_for(SimDuration::from_mins(35));
        let pings = network
            .capture
            .sent_by(mac)
            .iter()
            .filter(|f| {
                matches!(
                    stack::dissect(f.data()).map(|d| d.content),
                    Some(Content::IcmpV4 {
                        repr: icmpv4::Repr {
                            message: icmpv4::Message::EchoRequest { .. },
                            ..
                        },
                        ..
                    })
                )
            })
            .count();
        assert!((2..=4).contains(&pings), "pings {pings}");
        // And the router answered.
        let replies = network
            .capture
            .sent_by(iotlan_netsim::router::GATEWAY_MAC)
            .iter()
            .filter(|f| {
                matches!(
                    stack::dissect(f.data()).map(|d| d.content),
                    Some(Content::IcmpV4 {
                        repr: icmpv4::Repr {
                            message: icmpv4::Message::EchoReply { .. },
                            ..
                        },
                        ..
                    })
                )
            })
            .count();
        assert!(replies >= 2, "replies {replies}");
    }

    #[test]
    fn deterministic_capture() {
        let run = || {
            let (mut network, _, _) = build_pair();
            network.run_for(SimDuration::from_secs(60));
            network.capture.to_pcap()
        };
        assert_eq!(run(), run());
    }
}
