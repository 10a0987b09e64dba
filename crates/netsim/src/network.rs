//! The event-driven LAN medium: clock, event queue, node registry, frame
//! delivery and the capture tap.

use crate::capture::Capture;
use crate::fault::{FaultInjector, Verdict};
use crate::stack::{self, Content, Dissected};
use crate::time::{SimDuration, SimTime};
use iotlan_util::rng::Rng;
use iotlan_wire::ethernet::{EthernetAddress, Frame};
use iotlan_wire::{arp, dns};
use std::any::Any;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;

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
    /// mDNS queries: UDP/IPv4 to port 5353 that passes [`dns::is_query`].
    pub mdns_queries: bool,
    /// ICMPv6 (neighbour discovery).
    pub icmpv6: bool,
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
            icmpv6: false,
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
                    || (self.mdns_queries && dport == dns::MDNS_PORT && dns::is_query(payload))
            }
            Content::TcpV4 { dst, .. }
            | Content::IcmpV4 { dst, .. }
            | Content::Igmp { dst, .. }
            | Content::OtherIpv4 { dst, .. } => to_us(dst),
            Content::IcmpV6 { .. } => self.icmpv6,
            Content::UdpV6 { .. } | Content::OtherEther => false,
        }
    }
}

/// The nodes' interests filed by what they name, so multicast delivery
/// looks up the few nodes a frame can concern instead of testing every
/// node. [`Interest::matches`] stays the one definition of who acts: the
/// index only narrows the ids to test.
#[derive(Default)]
struct Subscribers {
    everything: Vec<NodeId>,
    by_ipv4: HashMap<Ipv4Addr, Vec<NodeId>>,
    by_udp_port: HashMap<u16, Vec<NodeId>>,
    arp_replies: Vec<NodeId>,
    mdns_queries: Vec<NodeId>,
    icmpv6: Vec<NodeId>,
}

impl Subscribers {
    /// File node `id`'s interest. Ids arrive in ascending order.
    fn add(&mut self, id: NodeId, interest: &Interest) {
        if interest.everything {
            self.everything.push(id);
            return;
        }
        if let Some(ip) = interest.ipv4 {
            self.by_ipv4.entry(ip).or_default().push(id);
        }
        for &port in &interest.udp_ports {
            self.by_udp_port.entry(port).or_default().push(id);
        }
        if interest.arp_replies {
            self.arp_replies.push(id);
        }
        if interest.mdns_queries {
            self.mdns_queries.push(id);
        }
        if interest.icmpv6 {
            self.icmpv6.push(id);
        }
    }

    /// Fill `out` with the ids whose interest can match a frame with this
    /// content: a superset of those [`Interest::matches`] accepts, in
    /// ascending order without repeats.
    fn candidates(&self, content: &Content<'_>, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.everything);
        let addressed_to = |dst: Ipv4Addr, out: &mut Vec<NodeId>| {
            if let Some(ids) = self.by_ipv4.get(&dst) {
                out.extend_from_slice(ids);
            }
        };
        match *content {
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
                if let Some(ids) = self.by_udp_port.get(&dport) {
                    out.extend_from_slice(ids);
                }
                if dport == dns::MDNS_PORT && dns::is_query(payload) {
                    out.extend_from_slice(&self.mdns_queries);
                }
            }
            Content::TcpV4 { dst, .. }
            | Content::IcmpV4 { dst, .. }
            | Content::Igmp { dst, .. }
            | Content::OtherIpv4 { dst, .. } => addressed_to(dst, out),
            Content::IcmpV6 { .. } => out.extend_from_slice(&self.icmpv6),
            Content::UdpV6 { .. } | Content::OtherEther => {}
        }
        out.sort_unstable();
        out.dedup();
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
            by_mac: HashMap::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: Rng::seed_from_u64(seed),
            capture: Capture::new(),
            faults: FaultInjector::none(),
            frames_sent: 0,
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
        self.apply_actions(vec![(
            usize::MAX,
            Action::Send {
                frame,
                delay: SimDuration::ZERO,
            },
        )]);
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
    ///
    /// While the loop dispatches, the simulated clock is published to
    /// telemetry on this thread (`iotlan_telemetry::clock`) so spans and
    /// events recorded from node callbacks carry the simulated stamp; the
    /// clock is retracted before returning, so a pool worker that ran one
    /// lab cannot leak a stale stamp into unrelated work.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(event) = self.queue.peek() {
            if event.time > deadline {
                break;
            }
            let event = self.queue.pop().unwrap();
            self.now = event.time;
            iotlan_telemetry::clock::set_sim_micros(self.now.as_micros());
            match event.kind {
                EventKind::Start(id) => self.dispatch(id, |node, ctx| node.on_start(ctx)),
                EventKind::Timer { node, token } => {
                    self.dispatch(node, |n, ctx| n.on_timer(ctx, token))
                }
                EventKind::Deliver { frame } => self.deliver(frame),
            }
        }
        self.now = deadline;
        iotlan_telemetry::clock::clear_sim();
    }

    /// Run for `span` beyond the current time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Context)) {
        let mut actions = Vec::new();
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
        self.apply_actions(actions);
    }

    fn apply_actions(&mut self, actions: Vec<(NodeId, Action)>) {
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
        // Dissect once for every receiver. A frame that fails validation at
        // any layer is undeliverable: every node's stack would drop it.
        let Some(frame) = stack::dissect(&frame) else {
            return;
        };
        let dst = frame.eth.dst_addr;
        let src = frame.eth.src_addr;
        if dst.is_multicast() {
            // Broadcast medium: everyone but the sender hears it, and each
            // node whose interest matches handles it, in ascending id order
            // so RNG draws interleave as if every node had been called. The
            // index names the nodes the frame can concern; the rest would
            // not match.
            let mut candidates = std::mem::take(&mut self.candidates);
            self.subscribers.candidates(&frame.content, &mut candidates);
            let mut fanout = 0u64;
            for &id in &candidates {
                if self.macs[id] == src || !self.interests[id].matches(&frame) {
                    continue;
                }
                fanout += 1;
                self.dispatch(id, |node, ctx| node.on_frame(ctx, &frame));
            }
            self.candidates = candidates;
            iotlan_telemetry::counter!("netsim.frames_delivered").add(fanout);
            iotlan_telemetry::histogram!("netsim.multicast_fanout").observe(fanout);
        } else if let Some(&id) = self.by_mac.get(&dst) {
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
    use iotlan_wire::ethernet::{build_frame, EtherType, Repr};
    use iotlan_wire::{icmpv6, igmp, ipv6, tcp};

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

    #[test]
    fn interest_matches_what_it_declares() {
        let me = Ipv4Addr::new(192, 168, 10, 2);
        let peer = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: Ipv4Addr::new(192, 168, 10, 1),
        };
        let query = dns::Message::mdns_query(&[("_hue._tcp.local", dns::RecordType::Ptr)]);
        let response = dns::Message::mdns_response(Vec::new());
        let mdns = |message: &dns::Message| {
            stack::udp_multicast(peer, dns::MDNS_GROUP_V4, 5353, 5353, &message.to_bytes())
        };
        let other = Ipv4Addr::new(192, 168, 10, 9);
        let request_for_me = stack::arp_frame(&arp::Repr::request(peer.mac, peer.ip, me));
        let request_for_other = stack::arp_frame(&arp::Repr::request(peer.mac, peer.ip, other));
        // A reply to another host, broadcast (a gratuitous ARP).
        let reply = arp::Repr::reply(peer.mac, peer.ip, EthernetAddress::BROADCAST, other);
        let reply = stack::arp_frame(&reply);
        let frames = [
            (mdns(&query), "mdns query"),
            (mdns(&response), "mdns response"),
            (request_for_me, "arp request for me"),
            (request_for_other, "arp request for another"),
            (reply, "arp reply"),
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
        let advertiser = Interest {
            arp_replies: true,
            mdns_queries: true,
            ..Interest::addressed_to(me)
        };
        assert_eq!(
            heard_by(&advertiser),
            ["mdns query", "arp request for me", "arp reply"]
        );
    }

    /// A few addresses and ports, so random interests and frames collide.
    const IPS: [Ipv4Addr; 5] = [
        Ipv4Addr::new(192, 168, 10, 1),
        Ipv4Addr::new(192, 168, 10, 2),
        Ipv4Addr::new(192, 168, 10, 3),
        dns::MDNS_GROUP_V4,
        Ipv4Addr::BROADCAST,
    ];
    const PORTS: [u16; 5] = [67, 1900, dns::MDNS_PORT, 9999, 20002];

    fn random_interest(g: &mut Gen) -> Interest {
        Interest {
            everything: g.int_in(0..8u8) == 0,
            ipv4: g.option(|g| IPS[g.int_in(0..IPS.len())]),
            arp_replies: g.bool(),
            udp_ports: g.vec_of(0, 3, |g| PORTS[g.int_in(0..PORTS.len())]),
            mdns_queries: g.bool(),
            icmpv6: g.bool(),
        }
    }

    /// A frame of every content kind the index files, sometimes with
    /// flipped bytes or cut short.
    fn random_frame(g: &mut Gen) -> Vec<u8> {
        let pick_ip = |g: &mut Gen| IPS[g.int_in(0..IPS.len())];
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, g.u8()]),
            ip: pick_ip(g),
        };
        let dst = Endpoint {
            mac: EthernetAddress::BROADCAST,
            ip: pick_ip(g),
        };
        let port = PORTS[g.int_in(0..PORTS.len())];
        let payload = match g.int_in(0..3u8) {
            0 => dns::Message::mdns_query(&[("_hue._tcp.local", dns::RecordType::Ptr)]).to_bytes(),
            1 => dns::Message::mdns_response(Vec::new()).to_bytes(),
            _ => g.bytes(64),
        };
        let mut frame = match g.int_in(0..8u8) {
            0 => stack::arp_frame(&arp::Repr::request(src.mac, src.ip, dst.ip)),
            1 => stack::arp_frame(&arp::Repr::reply(src.mac, src.ip, dst.mac, dst.ip)),
            2 => stack::udp_unicast(src, dst, g.u16(), port, &payload),
            3 => stack::tcp_segment(src, dst, &tcp::Repr::syn(g.u16(), port, 1), &[]),
            4 => {
                let repr = igmp::Repr {
                    message: igmp::Message::MembershipReportV2 { group: dst.ip },
                };
                stack::igmp_frame(src, dst.ip, &repr)
            }
            5 => {
                let target = ipv6::link_local_from_mac(dst.mac);
                let repr = icmpv6::Repr {
                    message: icmpv6::Message::NeighborSolicit {
                        target,
                        source_mac: Some(src.mac),
                    },
                };
                let src_ip = ipv6::link_local_from_mac(src.mac);
                stack::icmpv6_frame(src.mac, src_ip, ipv6::solicited_node(target), &repr)
            }
            6 => {
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

    iotlan_util::props! {
        /// The subscriber index names every node whose interest matches a
        /// frame, in ascending order without repeats.
        fn subscriber_candidates_cover_every_match(g) {
            let interests = g.vec_of(1, 40, random_interest);
            let mut subscribers = Subscribers::default();
            for (id, interest) in interests.iter().enumerate() {
                subscribers.add(id, interest);
            }
            let mut candidates = Vec::new();
            for _ in 0..32 {
                let bytes = random_frame(g);
                let Some(frame) = stack::dissect(&bytes) else {
                    continue;
                };
                subscribers.candidates(&frame.content, &mut candidates);
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
