//! The event-driven LAN medium: clock, event queue, node registry, frame
//! delivery and the capture tap.

use crate::capture::Capture;
use crate::fault::{FaultInjector, Verdict};
use crate::stack::{self, Content, Dissected};
use crate::time::{SimDuration, SimTime};
use iotlan_util::rng::Rng;
use iotlan_wire::ethernet::{self, EtherType, EthernetAddress, Frame};
use iotlan_wire::{arp, dns, icmpv6, ipv4, udp};
use std::any::Any;
use std::collections::{BinaryHeap, HashMap};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// Propagation delay of the simulated medium. Small and constant: the paper
/// analyzes cadences of seconds to days, so sub-millisecond jitter carries
/// no information.
pub const MEDIUM_DELAY: SimDuration = SimDuration(200);

/// A participant on the LAN (device, phone, honeypot, scanner, router).
pub trait Node {
    /// The node's hardware address. Must be unique within a network.
    fn mac(&self) -> EthernetAddress;

    /// Called once when the simulation starts (or when the node is added to
    /// a running network).
    fn on_start(&mut self, _ctx: &mut Context) {}

    /// What this node acts on among multicast/broadcast frames. Read once,
    /// when the node is added; the default is everything.
    fn interest(&self) -> Interest {
        Interest::everything()
    }

    /// Called for every frame delivered to this node: unicast frames
    /// addressed to its MAC plus the multicast/broadcast frames its
    /// [`Interest`] matches. The frame is dissected once per delivery and
    /// shared by every receiver; frames that fail dissection are never
    /// delivered.
    fn on_frame(&mut self, _ctx: &mut Context, _frame: &Dissected<'_>) {}

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context, _token: u64) {}

    /// Downcasting support, so experiment code can inspect node state after
    /// a run (e.g. read a honeypot's canary log).
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The multicast/broadcast frames a node acts on. The network skips a node
/// for every such frame its interest does not match, so a node must declare
/// every frame on which it could draw from the RNG, act, or change state
/// that later shows in its output. Unicast frames to the node's MAC are
/// always delivered.
#[derive(Debug, Clone)]
pub struct Interest {
    /// Every frame, for nodes whose handling changes at run time.
    pub everything: bool,
    /// Frames addressed to this IPv4 address: the target of an ARP request,
    /// or the IPv4 destination.
    pub ipv4: Option<Ipv4Addr>,
    /// Every ARP reply, for nodes that learn MACs from them.
    pub arp_replies: bool,
    /// UDP/IPv4 datagrams to these destination ports.
    pub udp_ports: Vec<u16>,
    /// Every mDNS query: UDP/IPv4 to port 5353 that passes
    /// [`dns::is_query`].
    pub mdns_queries: bool,
    /// mDNS queries that ask for one of these service types, or for the
    /// DNS-SD meta-query ([`dns::Message::asks_for`]): what an advertiser
    /// answers.
    pub mdns_services: Vec<String>,
    /// Neighbour solicitations for this IPv6 address.
    pub ndp_target: Option<Ipv6Addr>,
}

impl Interest {
    /// Every frame.
    pub fn everything() -> Interest {
        Interest {
            everything: true,
            ipv4: None,
            arp_replies: false,
            udp_ports: Vec::new(),
            mdns_queries: false,
            mdns_services: Vec::new(),
            ndp_target: None,
        }
    }

    /// Frames addressed to `ip`, and nothing else until more is declared.
    pub fn addressed_to(ip: Ipv4Addr) -> Interest {
        Interest {
            everything: false,
            ipv4: Some(ip),
            ..Interest::everything()
        }
    }

    /// Whether a node with this interest acts on `frame`.
    pub fn matches(&self, frame: &Dissected<'_>) -> bool {
        if self.everything {
            return true;
        }
        let to_us = |dst: Ipv4Addr| self.ipv4 == Some(dst);
        match frame.content {
            Content::Arp(repr) => {
                to_us(repr.target_protocol_addr)
                    || (self.arp_replies && repr.operation == arp::Operation::Reply)
            }
            Content::UdpV4 {
                dst,
                dport,
                payload,
                ..
            } => {
                to_us(dst)
                    || self.udp_ports.contains(&dport)
                    || (dport == dns::MDNS_PORT
                        && dns::is_query(payload)
                        && (self.mdns_queries || self.asks_for_a_service(frame)))
            }
            Content::TcpV4 { dst, .. }
            | Content::IcmpV4 { dst, .. }
            | Content::Igmp { dst, .. }
            | Content::OtherIpv4 { dst, .. } => to_us(dst),
            Content::IcmpV6 { repr, .. } => {
                neighbour_solicit_target(&repr).is_some_and(|t| self.ndp_target == Some(t))
            }
            Content::UdpV6 { .. } | Content::OtherEther => false,
        }
    }

    /// Whether the frame's mDNS message asks for one of `mdns_services`.
    fn asks_for_a_service(&self, frame: &Dissected<'_>) -> bool {
        !self.mdns_services.is_empty()
            && frame
                .dns()
                .is_some_and(|m| m.asks_for(|name| self.mdns_services.iter().any(|s| s == name)))
    }
}

/// The target of a neighbour solicitation.
fn neighbour_solicit_target(repr: &icmpv6::Repr) -> Option<Ipv6Addr> {
    match repr.message {
        icmpv6::Message::NeighborSolicit { target, .. } => Some(target),
        _ => None,
    }
}

/// The nodes' interests filed by what they name, so multicast delivery
/// looks up the few nodes a frame can concern instead of testing every
/// node. [`Interest::matches`] stays the one definition of who acts: the
/// index only narrows the ids to test.
#[derive(Default)]
struct Subscribers {
    everything: Vec<NodeId>,
    by_ipv4: Filed<Ipv4Addr>,
    by_udp_port: Filed<u16>,
    arp_replies: Vec<NodeId>,
    mdns_queries: Vec<NodeId>,
    /// Every node with an `mdns_services` entry: each answers the DNS-SD
    /// meta-query.
    mdns_advertisers: Vec<NodeId>,
    /// Advertisers by [`service_key`] of each service type they declare.
    by_mdns_service: Filed<u64>,
    by_ndp_target: Filed<Ipv6Addr>,
}

/// Node ids filed under keys, as `(key, id)` pairs kept sorted: filing a
/// node allocates only when the one list grows, and a lookup is a binary
/// search.
struct Filed<K>(Vec<(K, NodeId)>);

impl<K> Default for Filed<K> {
    fn default() -> Self {
        Filed(Vec::new())
    }
}

impl<K: Ord + Copy> Filed<K> {
    /// File `id` under `key`, after the ids already there.
    fn file(&mut self, key: K, id: NodeId) {
        let at = self.0.partition_point(|&entry| entry <= (key, id));
        self.0.insert(at, (key, id));
    }

    /// The ids filed under `key`.
    fn ids(&self, key: K) -> impl Iterator<Item = NodeId> + '_ {
        let start = self.0.partition_point(|&(k, _)| k < key);
        self.0[start..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, id)| id)
    }

    fn contains(&self, key: K) -> bool {
        self.ids(key).next().is_some()
    }
}

/// The index's key for an mDNS service type: its 64-bit FNV-1a hash. Two
/// names that share a key only add candidates, which
/// [`Interest::matches`] then turns down.
fn service_key(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Subscribers {
    /// File node `id`'s interest. Ids arrive in ascending order.
    fn add(&mut self, id: NodeId, interest: &Interest) {
        if interest.everything {
            self.everything.push(id);
            return;
        }
        if let Some(ip) = interest.ipv4 {
            self.by_ipv4.file(ip, id);
        }
        for &port in &interest.udp_ports {
            self.by_udp_port.file(port, id);
        }
        if interest.arp_replies {
            self.arp_replies.push(id);
        }
        if interest.mdns_queries {
            self.mdns_queries.push(id);
        }
        if !interest.mdns_services.is_empty() {
            self.mdns_advertisers.push(id);
        }
        for service in &interest.mdns_services {
            self.by_mdns_service.file(service_key(service), id);
        }
        if let Some(target) = interest.ndp_target {
            self.by_ndp_target.file(target, id);
        }
    }

    /// Whether any node could take the multicast frame `frame`, read from
    /// the raw header fields the index keys on: the EtherType, the IPv4
    /// header length, protocol and destination, the UDP destination port
    /// and the DNS QR bit. A `false` means [`candidates`] would name no
    /// node whose interest matches, so the frame need not be dissected.
    /// Anything the check cannot read counts as taken: frames other than
    /// IPv4 with a 20-byte header, and frames cut short of a field.
    ///
    /// [`candidates`]: Subscribers::candidates
    fn might_take(&self, frame: &[u8]) -> bool {
        const IP: usize = ethernet::HEADER_LEN;
        const UDP: usize = IP + ipv4::HEADER_LEN;
        const DNS: usize = UDP + udp::HEADER_LEN;
        if !self.everything.is_empty() {
            return true;
        }
        // EtherType IPv4, then version 4 with IHL 5 (no options).
        let Some(ip) = frame.get(IP..UDP) else {
            return true;
        };
        if frame[12..IP] != u16::from(EtherType::Ipv4).to_be_bytes() || ip[0] != 0x45 {
            return true;
        }
        let dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
        if self.by_ipv4.contains(dst) {
            return true;
        }
        // Beyond the address, only UDP is filed.
        if ipv4::Protocol::from(ip[9]) != ipv4::Protocol::Udp {
            return false;
        }
        let Some(port) = frame.get(UDP + 2..UDP + 4) else {
            return true;
        };
        let dport = u16::from_be_bytes([port[0], port[1]]);
        if self.by_udp_port.contains(dport) {
            return true;
        }
        if dport != dns::MDNS_PORT
            || (self.mdns_queries.is_empty() && self.mdns_advertisers.is_empty())
        {
            return false;
        }
        // Only queries are filed: a set QR bit is a response.
        frame.get(DNS + 2).is_none_or(|flags| flags & 0x80 == 0)
    }

    /// Fill `out` with the ids whose interest can match `frame`: a superset
    /// of those [`Interest::matches`] accepts, in ascending order without
    /// repeats. An mDNS query's questions are looked up by name through
    /// the frame's shared parse.
    fn candidates(&self, frame: &Dissected<'_>, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.everything);
        let addressed_to = |dst: Ipv4Addr, out: &mut Vec<NodeId>| out.extend(self.by_ipv4.ids(dst));
        match frame.content {
            Content::Arp(repr) => {
                addressed_to(repr.target_protocol_addr, out);
                if repr.operation == arp::Operation::Reply {
                    out.extend_from_slice(&self.arp_replies);
                }
            }
            Content::UdpV4 {
                dst,
                dport,
                payload,
                ..
            } => {
                addressed_to(dst, out);
                out.extend(self.by_udp_port.ids(dport));
                if dport == dns::MDNS_PORT && dns::is_query(payload) {
                    out.extend_from_slice(&self.mdns_queries);
                    self.mdns_askers(frame, out);
                }
            }
            Content::TcpV4 { dst, .. }
            | Content::IcmpV4 { dst, .. }
            | Content::Igmp { dst, .. }
            | Content::OtherIpv4 { dst, .. } => addressed_to(dst, out),
            Content::IcmpV6 { repr, .. } => {
                if let Some(target) = neighbour_solicit_target(&repr) {
                    out.extend(self.by_ndp_target.ids(target));
                }
            }
            Content::UdpV6 { .. } | Content::OtherEther => {}
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Append the advertisers of the services an mDNS query asks for, or
    /// every advertiser if it asks the DNS-SD meta-query.
    fn mdns_askers(&self, frame: &Dissected<'_>, out: &mut Vec<NodeId>) {
        if self.mdns_advertisers.is_empty() {
            return;
        }
        let Some(message) = frame.dns() else {
            return;
        };
        for question in &message.questions {
            if question.name == dns::SERVICES_META_QUERY {
                out.extend_from_slice(&self.mdns_advertisers);
                return;
            }
            out.extend(self.by_mdns_service.ids(service_key(&question.name)));
        }
    }
}

/// Deferred effects a node requests during a callback.
enum Action {
    Send { frame: Vec<u8>, delay: SimDuration },
    Timer { delay: SimDuration, token: u64 },
}

/// The per-callback handle a node uses to act on the world.
pub struct Context<'a> {
    now: SimTime,
    actions: &'a mut Vec<(NodeId, Action)>,
    node_id: NodeId,
    rng: &'a mut Rng,
}

impl<'a> Context<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transmit a complete Ethernet frame onto the medium.
    pub fn send_frame(&mut self, frame: Vec<u8>) {
        self.send_frame_delayed(SimDuration::ZERO, frame);
    }

    /// Transmit after `delay` — e.g. the 0..MX response scatter of SSDP.
    pub fn send_frame_delayed(&mut self, delay: SimDuration, frame: Vec<u8>) {
        self.actions
            .push((self.node_id, Action::Send { frame, delay }));
    }

    /// Arrange for `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions
            .push((self.node_id, Action::Timer { delay, token }));
    }

    /// The network's deterministic RNG (shared; draws interleave with other
    /// nodes' draws in event order, which is itself deterministic).
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }
}

/// A queued event.
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    Start(NodeId),
    Deliver { frame: Vec<u8> },
    Timer { node: NodeId, token: u64 },
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, with the
        // sequence number as a deterministic tiebreak.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The simulated LAN.
pub struct Network {
    nodes: Vec<Box<dyn Node>>,
    /// Each node's MAC and interest, parallel to `nodes`, read once at
    /// `add_node`: multicast delivery skips the sender by MAC and tests
    /// each candidate the `subscribers` index names against its interest,
    /// with no virtual call.
    macs: Vec<EthernetAddress>,
    interests: Vec<Interest>,
    subscribers: Subscribers,
    /// The candidate ids of the frame being delivered, reused across frames.
    candidates: Vec<NodeId>,
    /// The actions of the callback being dispatched, reused across
    /// dispatches.
    actions: Vec<(NodeId, Action)>,
    by_mac: HashMap<EthernetAddress, NodeId>,
    queue: BinaryHeap<Event>,
    now: SimTime,
    seq: u64,
    rng: Rng,
    /// The promiscuous AP capture (the paper's tcpdump vantage point).
    pub capture: Capture,
    /// Medium fault injection.
    pub faults: FaultInjector,
    frames_sent: u64,
    frames_delivered: u64,
}

impl Network {
    /// Create an empty network with a deterministic seed.
    pub fn new(seed: u64) -> Network {
        Network {
            nodes: Vec::new(),
            macs: Vec::new(),
            interests: Vec::new(),
            subscribers: Subscribers::default(),
            candidates: Vec::new(),
            actions: Vec::new(),
            by_mac: HashMap::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: Rng::seed_from_u64(seed),
            capture: Capture::new(),
            faults: FaultInjector::none(),
            frames_sent: 0,
            frames_delivered: 0,
        }
    }

    /// Register a node. Its `on_start` fires at the current time. Panics on
    /// duplicate MACs: the builder controls addresses, so a duplicate is a
    /// construction bug, not runtime input.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = self.nodes.len();
        let mac = node.mac();
        assert!(
            self.by_mac.insert(mac, id).is_none(),
            "duplicate MAC {mac} in network"
        );
        let interest = node.interest();
        self.subscribers.add(id, &interest);
        self.macs.push(mac);
        self.interests.push(interest);
        self.nodes.push(node);
        self.push_event(self.now, EventKind::Start(id));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total frames transmitted (pre-fault).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total frames handed to a node's `on_frame`: one per unicast
    /// delivery and one per node a multicast frame reaches.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// Look up a node id by MAC.
    pub fn node_by_mac(&self, mac: EthernetAddress) -> Option<NodeId> {
        self.by_mac.get(&mac).copied()
    }

    /// Immutable access for post-run inspection (downcast via `as_any`).
    pub fn node(&self, id: NodeId) -> &dyn Node {
        self.nodes[id].as_ref()
    }

    /// Mutable access (downcast via `as_any_mut`).
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node {
        self.nodes[id].as_mut()
    }

    /// Transmit a frame onto the medium from outside any node — used by
    /// test harnesses and by scanners that synthesize raw probes.
    pub fn inject_frame(&mut self, frame: Vec<u8>) {
        self.apply_actions(std::iter::once((
            usize::MAX,
            Action::Send {
                frame,
                delay: SimDuration::ZERO,
            },
        )));
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Run the simulation until `deadline` (inclusive). Events scheduled
    /// beyond the deadline stay queued for a later `run_until`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(event) = self.queue.peek() {
            if event.time > deadline {
                break;
            }
            let event = self.queue.pop().unwrap();
            self.now = event.time;
            match event.kind {
                EventKind::Start(id) => self.dispatch(id, |node, ctx| node.on_start(ctx)),
                EventKind::Timer { node, token } => {
                    self.dispatch(node, |n, ctx| n.on_timer(ctx, token))
                }
                EventKind::Deliver { frame } => self.deliver(frame),
            }
        }
        self.now = deadline;
    }

    /// Run for `span` beyond the current time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Context)) {
        let mut actions = std::mem::take(&mut self.actions);
        {
            let node = self.nodes[id].as_mut();
            let mut ctx = Context {
                now: self.now,
                actions: &mut actions,
                node_id: id,
                rng: &mut self.rng,
            };
            f(node, &mut ctx);
        }
        self.apply_actions(actions.drain(..));
        self.actions = actions;
    }

    fn apply_actions(&mut self, actions: impl Iterator<Item = (NodeId, Action)>) {
        for (node_id, action) in actions {
            match action {
                Action::Send { frame, delay } => {
                    // Frames below the Ethernet minimum header never hit the
                    // medium; treat as a node bug.
                    if Frame::new_checked(&frame[..]).is_err() {
                        continue;
                    }
                    self.frames_sent += 1;
                    iotlan_telemetry::counter!("netsim.frames_sent").incr();
                    iotlan_telemetry::histogram!("netsim.frame_bytes").observe(frame.len() as u64);
                    // The AP tap traces the frame as transmitted, including
                    // ones the medium then drops (smoltcp convention).
                    let tx_time = self.now + delay;
                    self.capture.record(tx_time, &frame);
                    // Borrow-or-own: on the clean path the sender's buffer
                    // is moved into the delivery event unchanged; only a
                    // rewritten frame costs a fresh allocation.
                    let delivered = match self.faults.apply(&frame) {
                        Verdict::Deliver => Some(frame),
                        Verdict::DeliverOwned(data) => Some(data),
                        Verdict::Drop => {
                            iotlan_telemetry::counter!("netsim.frames_dropped_fault").incr();
                            None
                        }
                    };
                    if let Some(data) = delivered {
                        self.seq += 1;
                        self.queue.push(Event {
                            time: tx_time + MEDIUM_DELAY,
                            seq: self.seq,
                            kind: EventKind::Deliver { frame: data },
                        });
                    }
                }
                Action::Timer { delay, token } => {
                    iotlan_telemetry::counter!("netsim.timers_set").incr();
                    let time = self.now + delay;
                    self.push_event(
                        time,
                        EventKind::Timer {
                            node: node_id,
                            token,
                        },
                    );
                }
            }
        }
    }

    fn deliver(&mut self, frame: Vec<u8>) {
        // A multicast frame that no node's interest can take is dropped
        // before the costlier dissection: the index reads the raw header
        // fields it keys on.
        let multicast = frame.first().is_some_and(|octet| octet & 0x01 != 0);
        if multicast && !self.subscribers.might_take(&frame) {
            iotlan_telemetry::histogram!("netsim.multicast_fanout").observe(0);
            return;
        }
        // Dissect once for every receiver. A frame that fails validation at
        // any layer is undeliverable: every node's stack would drop it.
        let Some(frame) = stack::dissect(&frame) else {
            return;
        };
        let src = frame.eth.src_addr;
        if multicast {
            // Broadcast medium: everyone but the sender hears it, and each
            // node whose interest matches handles it, in ascending id order
            // so RNG draws interleave as if every node had been called. The
            // index names the nodes the frame can concern; the rest would
            // not match.
            let mut candidates = std::mem::take(&mut self.candidates);
            self.subscribers.candidates(&frame, &mut candidates);
            let mut fanout = 0u64;
            for &id in &candidates {
                if self.macs[id] == src || !self.interests[id].matches(&frame) {
                    continue;
                }
                fanout += 1;
                self.dispatch(id, |node, ctx| node.on_frame(ctx, &frame));
            }
            self.candidates = candidates;
            self.frames_delivered += fanout;
            iotlan_telemetry::counter!("netsim.frames_delivered").add(fanout);
            iotlan_telemetry::histogram!("netsim.multicast_fanout").observe(fanout);
        } else if let Some(&id) = self.by_mac.get(&frame.eth.dst_addr) {
            self.frames_delivered += 1;
            iotlan_telemetry::counter!("netsim.frames_delivered").incr();
            self.dispatch(id, |node, ctx| node.on_frame(ctx, &frame));
        } else {
            // Unicast to an unknown MAC: silently lost, like a real switch
            // port with no station — but the loss is counted.
            iotlan_telemetry::counter!("netsim.unicast_unrouted").incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Endpoint;
    use iotlan_util::check::Gen;
    use iotlan_wire::ethernet::{build_frame, Repr};
    use iotlan_wire::{igmp, ipv6, tcp};

    /// A node that broadcasts one frame at start and counts receptions.
    struct Chatter {
        mac: EthernetAddress,
        heard: Vec<Vec<u8>>,
        announce: bool,
        interest: Interest,
    }

    impl Chatter {
        fn new(last: u8, announce: bool) -> Chatter {
            Chatter {
                mac: EthernetAddress([2, 0, 0, 0, 0, last]),
                heard: Vec::new(),
                announce,
                interest: Interest::everything(),
            }
        }

        /// A silent node at 192.168.10.`last` that acts only on DHCP
        /// requests (UDP port 67) and on what is addressed to it.
        fn dhcp_server(last: u8) -> Chatter {
            Chatter {
                interest: Interest {
                    udp_ports: vec![67],
                    ..Interest::addressed_to(Ipv4Addr::new(192, 168, 10, last))
                },
                ..Chatter::new(last, false)
            }
        }
    }

    fn heard(network: &Network, id: NodeId) -> usize {
        network
            .node(id)
            .as_any()
            .downcast_ref::<Chatter>()
            .unwrap()
            .heard
            .len()
    }

    impl Node for Chatter {
        fn mac(&self) -> EthernetAddress {
            self.mac
        }

        fn interest(&self) -> Interest {
            self.interest.clone()
        }

        fn on_start(&mut self, ctx: &mut Context) {
            if self.announce {
                let frame = build_frame(
                    &Repr {
                        src_addr: self.mac,
                        dst_addr: EthernetAddress::BROADCAST,
                        ethertype: EtherType::Unknown(0x1234),
                    },
                    b"hello lan",
                );
                ctx.send_frame(frame);
            }
        }

        fn on_frame(&mut self, _ctx: &mut Context, frame: &Dissected<'_>) {
            self.heard.push(frame.frame.to_vec());
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A node that echoes unicast frames back to their sender.
    struct Echoer {
        mac: EthernetAddress,
    }

    impl Node for Echoer {
        fn mac(&self) -> EthernetAddress {
            self.mac
        }

        fn on_frame(&mut self, ctx: &mut Context, frame: &Dissected<'_>) {
            let view = Frame::new_unchecked(frame.frame);
            if view.dst_addr() == self.mac {
                let reply = build_frame(
                    &Repr {
                        src_addr: self.mac,
                        dst_addr: view.src_addr(),
                        ethertype: view.ethertype(),
                    },
                    view.payload(),
                );
                ctx.send_frame(reply);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut network = Network::new(1);
        let a = network.add_node(Box::new(Chatter::new(1, true)));
        let b = network.add_node(Box::new(Chatter::new(2, false)));
        let c = network.add_node(Box::new(Chatter::new(3, false)));
        network.run_for(SimDuration::from_secs(1));
        assert_eq!(heard(&network, a), 0);
        assert_eq!(heard(&network, b), 1);
        assert_eq!(heard(&network, c), 1);
        assert_eq!(network.capture.len(), 1);
    }

    #[test]
    fn broadcast_skips_a_node_whose_interest_does_not_match() {
        let mut network = Network::new(1);
        network.add_node(Box::new(Chatter::new(1, true)));
        let narrow = network.add_node(Box::new(Chatter::dhcp_server(2)));
        let wide = network.add_node(Box::new(Chatter::new(3, false)));
        network.run_for(SimDuration::from_secs(1));
        assert_eq!(heard(&network, narrow), 0);
        assert_eq!(heard(&network, wide), 1);
        assert_eq!(network.capture.len(), 1);
    }

    #[test]
    fn broadcast_reaches_a_matching_interest_but_not_its_sender() {
        let mut network = Network::new(1);
        let sender = network.add_node(Box::new(Chatter::dhcp_server(1)));
        let narrow = network.add_node(Box::new(Chatter::dhcp_server(2)));
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: Ipv4Addr::UNSPECIFIED,
        };
        network.inject_frame(stack::udp_broadcast(src, 68, 67, b"discover"));
        network.run_for(SimDuration::from_secs(1));
        assert_eq!(heard(&network, sender), 0);
        assert_eq!(heard(&network, narrow), 1);
    }

    /// An NDP neighbour solicitation for `target`, to its solicited-node
    /// group.
    fn neighbour_solicit(src_mac: EthernetAddress, target: Ipv6Addr) -> Vec<u8> {
        let repr = icmpv6::Repr {
            message: icmpv6::Message::NeighborSolicit {
                target,
                source_mac: Some(src_mac),
            },
        };
        let src_ip = ipv6::link_local_from_mac(src_mac);
        stack::icmpv6_frame(src_mac, src_ip, ipv6::solicited_node(target), &repr)
    }

    /// An mDNS query asking for each of `names`.
    fn mdns_query(names: &[&str]) -> Vec<u8> {
        let questions: Vec<_> = names.iter().map(|&n| (n, dns::RecordType::Ptr)).collect();
        dns::Message::mdns_query(&questions).to_bytes()
    }

    #[test]
    fn interest_matches_what_it_declares() {
        let me = Ipv4Addr::new(192, 168, 10, 2);
        let my_ll = ipv6::link_local_from_mac(EthernetAddress([2, 0, 0, 0, 0, 2]));
        let peer = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: Ipv4Addr::new(192, 168, 10, 1),
        };
        let response = dns::Message::mdns_response(Vec::new()).to_bytes();
        let mdns =
            |payload: &[u8]| stack::udp_multicast(peer, dns::MDNS_GROUP_V4, 5353, 5353, payload);
        let other = Ipv4Addr::new(192, 168, 10, 9);
        let request_for_me = stack::arp_frame(&arp::Repr::request(peer.mac, peer.ip, me));
        let request_for_other = stack::arp_frame(&arp::Repr::request(peer.mac, peer.ip, other));
        // A reply to another host, broadcast (a gratuitous ARP).
        let reply = arp::Repr::reply(peer.mac, peer.ip, EthernetAddress::BROADCAST, other);
        let reply = stack::arp_frame(&reply);
        let frames = [
            (mdns(&mdns_query(&["_hue._tcp.local"])), "hue query"),
            (mdns(&mdns_query(&["_airplay._tcp.local"])), "airplay query"),
            (mdns(&mdns_query(&[dns::SERVICES_META_QUERY])), "meta query"),
            (mdns(&response), "mdns response"),
            (request_for_me, "arp request for me"),
            (request_for_other, "arp request for another"),
            (reply, "arp reply"),
            (neighbour_solicit(peer.mac, my_ll), "ns for me"),
            (
                neighbour_solicit(peer.mac, "fe80::9".parse().unwrap()),
                "ns for another",
            ),
        ];
        let heard_by = |interest: &Interest| -> Vec<&str> {
            frames
                .iter()
                .filter(|(frame, _)| interest.matches(&stack::dissect(frame).unwrap()))
                .map(|&(_, name)| name)
                .collect()
        };
        assert_eq!(heard_by(&Interest::everything()).len(), frames.len());
        assert_eq!(
            heard_by(&Interest::addressed_to(me)),
            ["arp request for me"]
        );
        let listener = Interest {
            arp_replies: true,
            mdns_queries: true,
            ..Interest::addressed_to(me)
        };
        assert_eq!(
            heard_by(&listener),
            [
                "hue query",
                "airplay query",
                "meta query",
                "arp request for me",
                "arp reply"
            ]
        );
        let advertiser = Interest {
            mdns_services: vec!["_hue._tcp.local".into()],
            ndp_target: Some(my_ll),
            ..Interest::addressed_to(me)
        };
        assert_eq!(
            heard_by(&advertiser),
            ["hue query", "meta query", "arp request for me", "ns for me"]
        );
    }

    /// A few addresses, ports, service names and NDP targets, so random
    /// interests and frames collide.
    const IPS: [Ipv4Addr; 5] = [
        Ipv4Addr::new(192, 168, 10, 1),
        Ipv4Addr::new(192, 168, 10, 2),
        Ipv4Addr::new(192, 168, 10, 3),
        dns::MDNS_GROUP_V4,
        Ipv4Addr::BROADCAST,
    ];
    const PORTS: [u16; 5] = [67, 1900, dns::MDNS_PORT, 9999, 20002];
    /// Service types interests advertise; queries also ask the meta-query
    /// and a type nobody advertises.
    const SERVICES: [&str; 3] = [
        "_hue._tcp.local",
        "_googlecast._tcp.local",
        "_hap._tcp.local",
    ];
    const TARGETS: [Ipv6Addr; 3] = [
        Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1),
        Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 2),
        Ipv6Addr::new(0xfe80, 0, 0, 0, 0x1ff, 0xfe00, 0, 3),
    ];

    fn pick<T: Copy>(g: &mut Gen, items: &[T]) -> T {
        items[g.int_in(0..items.len())]
    }

    fn random_interest(g: &mut Gen) -> Interest {
        Interest {
            everything: g.int_in(0..8u8) == 0,
            ipv4: g.option(|g| pick(g, &IPS)),
            arp_replies: g.bool(),
            udp_ports: g.vec_of(0, 3, |g| pick(g, &PORTS)),
            mdns_queries: g.int_in(0..4u8) == 0,
            mdns_services: g.vec_of(0, 2, |g| pick(g, &SERVICES).to_string()),
            ndp_target: g.option(|g| pick(g, &TARGETS)),
        }
    }

    /// A frame of every content kind the index files, sometimes with
    /// flipped bytes or cut short.
    fn random_frame(g: &mut Gen) -> Vec<u8> {
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, g.u8()]),
            ip: pick(g, &IPS),
        };
        let dst = Endpoint {
            mac: EthernetAddress::BROADCAST,
            ip: pick(g, &IPS),
        };
        let port = pick(g, &PORTS);
        let payload = match g.int_in(0..3u8) {
            0 => {
                let names = g.vec_of(1, 3, |g| match g.int_in(0..5u8) {
                    0 => dns::SERVICES_META_QUERY,
                    1 => "_nobody._tcp.local",
                    _ => pick(g, &SERVICES),
                });
                mdns_query(&names)
            }
            1 => dns::Message::mdns_response(Vec::new()).to_bytes(),
            _ => g.bytes(64),
        };
        let mut frame = match g.int_in(0..9u8) {
            0 => stack::arp_frame(&arp::Repr::request(src.mac, src.ip, dst.ip)),
            1 => stack::arp_frame(&arp::Repr::reply(src.mac, src.ip, dst.mac, dst.ip)),
            2 => stack::udp_unicast(src, dst, g.u16(), port, &payload),
            3 => with_ip_options(stack::udp_unicast(src, dst, g.u16(), port, &payload)),
            4 => stack::tcp_segment(src, dst, &tcp::Repr::syn(g.u16(), port, 1), &[]),
            5 => {
                let repr = igmp::Repr {
                    message: igmp::Message::MembershipReportV2 { group: dst.ip },
                };
                stack::igmp_frame(src, dst.ip, &repr)
            }
            6 => {
                let target = if g.bool() {
                    pick(g, &TARGETS)
                } else {
                    ipv6::link_local_from_mac(EthernetAddress([2, 0, 0, 0, 0, g.u8()]))
                };
                neighbour_solicit(src.mac, target)
            }
            7 => {
                let src_ip = ipv6::link_local_from_mac(src.mac);
                let group = "ff02::1:2".parse().unwrap();
                stack::udp_multicast_v6(src.mac, src_ip, group, 546, port, &payload)
            }
            _ => build_frame(
                &Repr {
                    src_addr: src.mac,
                    dst_addr: EthernetAddress::BROADCAST,
                    ethertype: EtherType::Unknown(0x88b5),
                },
                &payload,
            ),
        };
        if g.int_in(0..4u8) == 0 && !frame.is_empty() {
            for _ in 0..g.int_in(1..4usize) {
                let at = g.int_in(0..frame.len());
                frame[at] ^= g.u8();
            }
        }
        if g.int_in(0..4u8) == 0 {
            frame.truncate(g.int_in(0..=frame.len()));
        }
        frame
    }

    /// `frame` (Ethernet/IPv4) with four bytes of IPv4 options (IHL 6),
    /// still valid: the transport checksum does not cover the IP header.
    fn with_ip_options(mut frame: Vec<u8>) -> Vec<u8> {
        let options = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
        frame.splice(options..options, [1, 1, 1, 0]);
        frame[ethernet::HEADER_LEN] = 0x46;
        let mut packet = ipv4::Packet::new_unchecked(&mut frame[ethernet::HEADER_LEN..]);
        let total_len = packet.total_len() + 4;
        packet.set_total_len(total_len);
        packet.fill_checksum();
        frame
    }

    /// An index over `1..=40` random interests.
    fn random_index(g: &mut Gen) -> (Vec<Interest>, Subscribers) {
        index_of(g.vec_of(1, 40, random_interest))
    }

    fn index_of(interests: Vec<Interest>) -> (Vec<Interest>, Subscribers) {
        let mut subscribers = Subscribers::default();
        for (id, interest) in interests.iter().enumerate() {
            subscribers.add(id, interest);
        }
        (interests, subscribers)
    }

    iotlan_util::props! {
        /// The subscriber index names every node whose interest matches a
        /// frame, in ascending order without repeats.
        fn subscriber_candidates_cover_every_match(g) {
            let (interests, subscribers) = random_index(g);
            let mut candidates = Vec::new();
            for _ in 0..32 {
                let bytes = random_frame(g);
                let Some(frame) = stack::dissect(&bytes) else {
                    continue;
                };
                subscribers.candidates(&frame, &mut candidates);
                assert!(
                    candidates.windows(2).all(|w| w[0] < w[1]),
                    "not ascending and distinct: {candidates:?}"
                );
                for (id, interest) in interests.iter().enumerate() {
                    if interest.matches(&frame) {
                        assert!(
                            candidates.binary_search(&id).is_ok(),
                            "node {id} ({interest:?}) matches {:?} but is no candidate",
                            frame.content
                        );
                    }
                }
            }
        }

        /// A frame the raw pre-check turns away either fails dissection or
        /// has no candidate, so skipping its dissection skips no delivery.
        fn rejected_frames_have_no_candidate(g) {
            // No node takes everything, or the pre-check never rejects.
            let (interests, subscribers) = index_of(g.vec_of(1, 40, |g| Interest {
                everything: false,
                ..random_interest(g)
            }));
            let mut candidates = Vec::new();
            for _ in 0..32 {
                let bytes = random_frame(g);
                if subscribers.might_take(&bytes) {
                    continue;
                }
                let Some(frame) = stack::dissect(&bytes) else {
                    continue;
                };
                subscribers.candidates(&frame, &mut candidates);
                assert!(
                    candidates.is_empty(),
                    "pre-check rejects {:?}, which has candidates {candidates:?}",
                    frame.content
                );
                assert!(interests.iter().all(|interest| !interest.matches(&frame)));
            }
        }
    }

    #[test]
    fn pre_check_reads_options_and_short_frames_as_taken() {
        let subscribers = Subscribers::default();
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: IPS[0],
        };
        let response = dns::Message::mdns_response(Vec::new()).to_bytes();
        let frame = stack::udp_multicast(src, dns::MDNS_GROUP_V4, 5353, 5353, &response);
        assert!(!subscribers.might_take(&frame));
        assert!(subscribers.might_take(&with_ip_options(frame.clone())));
        for len in 0..ethernet::HEADER_LEN + ipv4::HEADER_LEN {
            assert!(subscribers.might_take(&frame[..len]), "cut to {len}");
        }
        assert!(subscribers.might_take(&neighbour_solicit(src.mac, TARGETS[0])));
    }

    #[test]
    fn unicast_delivered_and_echoed() {
        let mut network = Network::new(1);
        let sender = network.add_node(Box::new(Chatter::new(1, false)));
        let echo_mac = EthernetAddress([2, 0, 0, 0, 0, 9]);
        network.add_node(Box::new(Echoer { mac: echo_mac }));
        network.run_for(SimDuration::from_millis(1));

        // Inject a unicast from the sender by dispatching through a timer:
        // simpler — build and push via a dedicated node method is overkill;
        // instead send directly using the public API of a fresh network run.
        let frame = build_frame(
            &Repr {
                src_addr: EthernetAddress([2, 0, 0, 0, 0, 1]),
                dst_addr: echo_mac,
                ethertype: EtherType::Unknown(0x1234),
            },
            b"ping",
        );
        network.inject_frame(frame);
        network.run_for(SimDuration::from_secs(1));
        // Capture: injected frame + echo reply.
        assert_eq!(network.capture.len(), 2);
        let heard = network
            .node(sender)
            .as_any()
            .downcast_ref::<Chatter>()
            .unwrap();
        assert_eq!(heard.heard.len(), 1);
        assert_eq!(Frame::new_unchecked(&heard.heard[0][..]).payload(), b"ping");
    }

    #[test]
    fn unicast_to_unknown_mac_lost() {
        let mut network = Network::new(1);
        network.add_node(Box::new(Chatter::new(1, false)));
        let frame = build_frame(
            &Repr {
                src_addr: EthernetAddress([2, 0, 0, 0, 0, 1]),
                dst_addr: EthernetAddress([2, 0, 0, 0, 0, 99]),
                ethertype: EtherType::Ipv4,
            },
            b"void",
        );
        network.inject_frame(frame);
        network.run_for(SimDuration::from_secs(1));
        assert_eq!(network.capture.len(), 1); // traced but undelivered
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            mac: EthernetAddress,
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn mac(&self) -> EthernetAddress {
                self.mac
            }
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_secs(3), 3);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(2), 2);
            }
            fn on_timer(&mut self, _ctx: &mut Context, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut network = Network::new(1);
        let id = network.add_node(Box::new(TimerNode {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            fired: vec![],
        }));
        network.run_for(SimDuration::from_secs(10));
        let node = network
            .node(id)
            .as_any()
            .downcast_ref::<TimerNode>()
            .unwrap();
        assert_eq!(node.fired, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut network = Network::new(seed);
            network.add_node(Box::new(Chatter::new(1, true)));
            network.add_node(Box::new(Chatter::new(2, true)));
            network.run_for(SimDuration::from_secs(1));
            network.capture.to_pcap()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn faults_drop_frames() {
        let mut network = Network::new(1);
        network.faults = FaultInjector::new(1.0, 0.0, None, 0);
        network.add_node(Box::new(Chatter::new(1, true)));
        let listener = network.add_node(Box::new(Chatter::new(2, false)));
        network.run_for(SimDuration::from_secs(1));
        // Traced at the AP but never delivered.
        assert_eq!(network.capture.len(), 1);
        let node = network
            .node(listener)
            .as_any()
            .downcast_ref::<Chatter>()
            .unwrap();
        assert!(node.heard.is_empty());
        assert_eq!(network.faults.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate MAC")]
    fn duplicate_mac_panics() {
        let mut network = Network::new(1);
        network.add_node(Box::new(Chatter::new(1, false)));
        network.add_node(Box::new(Chatter::new(1, false)));
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        struct Late {
            mac: EthernetAddress,
            fired: bool,
        }
        impl Node for Late {
            fn mac(&self) -> EthernetAddress {
                self.mac
            }
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_secs(100), 0);
            }
            fn on_timer(&mut self, _ctx: &mut Context, _token: u64) {
                self.fired = true;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut network = Network::new(1);
        let id = network.add_node(Box::new(Late {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            fired: false,
        }));
        network.run_until(SimTime::from_secs(50));
        assert!(
            !network
                .node(id)
                .as_any()
                .downcast_ref::<Late>()
                .unwrap()
                .fired
        );
        network.run_until(SimTime::from_secs(150));
        assert!(
            network
                .node(id)
                .as_any()
                .downcast_ref::<Late>()
                .unwrap()
                .fired
        );
    }
}
