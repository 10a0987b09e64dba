//! A declared interest skips only deliveries that change nothing.
//!
//! The network skips a node for every multicast/broadcast frame that its
//! `Node::interest` does not match. This suite builds the full LAN twice
//! from the parts `Lab::new` uses (the router, the 93 catalog devices and
//! the honeypot) plus a phone running every discovery behaviour. Both
//! builds run a `LabConfig::fast()`-length idle capture. Along the way
//! they receive valid UDP frames to every discovery port, plus broadcast
//! ARP requests, gratuitous ARP replies and NDP neighbour solicitations
//! for LAN addresses. The injected mDNS queries ask for the service types
//! the catalog advertises and queries, the DNS-SD meta-query among them,
//! and for one nobody advertises, so the interests' by-name filter is
//! reached.
//!
//! In the second build every node is wrapped in [`Audit`]. It declares
//! every frame, so the network calls every node on every frame as it did
//! before interests existed. On each frame the node's own interest would
//! skip, `Audit` asserts that the node drew nothing from the RNG. Sends,
//! timers and state that later shows in the output are caught by comparing
//! the two captures byte for byte.

mod lan;

use iotlan::devices::{build_testbed, Device};
use iotlan::honeypot::Honeypot;
use iotlan::netsim::router::Router;
use iotlan::netsim::stack::{self, Content, Dissected, Endpoint};
use iotlan::netsim::{Capture, Context, Interest, Network, Node, SimDuration};
use iotlan::util::check::Gen;
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::wire::{arp, dns, icmpv6, ipv6};
use iotlan::LabConfig;
use lan::{discovery_phone, endpoints, pick, service_types, udp_frame};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const HONEYPOT_MAC: EthernetAddress = EthernetAddress([0x02, 0xca, 0x4a, 0x00, 0x00, 0x03]);
const HONEYPOT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 200);

/// Injected UDP frames per simulated ten seconds.
const UDP_PER_SLICE: usize = 40;
/// Injected ARP/NDP frames per simulated ten seconds.
const NEIGHBOUR_PER_SLICE: usize = 10;

/// A broadcast ARP request, a gratuitous (broadcast) ARP reply, or an NDP
/// neighbour solicitation for an endpoint's link-local address.
fn neighbour_frame(g: &mut Gen, endpoints: &[Endpoint]) -> Vec<u8> {
    let src = pick(g, endpoints);
    let target = pick(g, endpoints);
    match g.int_in(0..3u8) {
        0 => stack::arp_frame(&arp::Repr::request(src.mac, src.ip, target.ip)),
        1 => stack::arp_frame(&arp::Repr::reply(
            src.mac,
            src.ip,
            EthernetAddress::BROADCAST,
            target.ip,
        )),
        _ => {
            let target = ipv6::link_local_from_mac(target.mac);
            let solicit = icmpv6::Repr {
                message: icmpv6::Message::NeighborSolicit {
                    target,
                    source_mac: Some(src.mac),
                },
            };
            stack::icmpv6_frame(
                src.mac,
                ipv6::link_local_from_mac(src.mac),
                ipv6::solicited_node(target),
                &solicit,
            )
        }
    }
}

/// Deliveries the interests would skip: all of them, and the mDNS queries
/// an advertiser skips by name.
#[derive(Default)]
struct Skipped {
    all: Cell<u64>,
    queries_by_name: Cell<u64>,
}

/// Hears every frame and checks that the frames its inner node's interest
/// would skip leave the shared RNG untouched.
struct Audit {
    inner: Box<dyn Node>,
    interest: Interest,
    skipped: Rc<Skipped>,
}

impl Node for Audit {
    fn mac(&self) -> EthernetAddress {
        self.inner.mac()
    }

    fn interest(&self) -> Interest {
        Interest::everything()
    }

    fn on_start(&mut self, ctx: &mut Context) {
        self.inner.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        self.inner.on_timer(ctx, token);
    }

    fn on_frame(&mut self, ctx: &mut Context, frame: &Dissected<'_>) {
        if self.interest.matches(frame) {
            self.inner.on_frame(ctx, frame);
            return;
        }
        self.skipped.all.set(self.skipped.all.get() + 1);
        if let Content::UdpV4 {
            dport: dns::MDNS_PORT,
            payload,
            ..
        } = frame.content
        {
            if dns::is_query(payload) && !self.interest.mdns_services.is_empty() {
                let count = &self.skipped.queries_by_name;
                count.set(count.get() + 1);
            }
        }
        let before = ctx.rng().clone();
        self.inner.on_frame(ctx, frame);
        assert!(
            *ctx.rng() == before,
            "node {} drew from the RNG on a frame its interest skips: {:?}",
            self.inner.mac(),
            frame.content
        );
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Build the LAN with every node passed through `wrap`, run it for the
/// `fast` idle duration while injecting generated frames, and return the
/// capture.
fn run(wrap: impl Fn(Box<dyn Node>) -> Box<dyn Node>) -> Capture {
    let config = LabConfig::fast();
    let catalog = build_testbed();
    let mut network = Network::new(config.seed);
    network.add_node(wrap(Box::new(Router::new())));
    for device in &catalog.devices {
        network.add_node(wrap(Box::new(Device::new(device.clone()))));
    }
    network.add_node(wrap(Box::new(Honeypot::new(HONEYPOT_MAC, HONEYPOT_IP))));
    network.add_node(wrap(Box::new(discovery_phone())));

    let endpoints = endpoints(&catalog);
    let services = service_types(&catalog);
    let mut g = Gen::seeded(config.seed);
    for _ in 0..config.idle_duration.as_secs() / 10 {
        for _ in 0..UDP_PER_SLICE {
            network.inject_frame(udp_frame(&mut g, &endpoints, &services));
        }
        for _ in 0..NEIGHBOUR_PER_SLICE {
            network.inject_frame(neighbour_frame(&mut g, &endpoints));
        }
        network.run_for(SimDuration::from_secs(10));
    }
    network.capture
}

#[test]
fn skipped_deliveries_change_nothing() {
    let filtered = run(|node| node);
    let skipped = Rc::new(Skipped::default());
    let audited = run(|inner| {
        let interest = inner.interest();
        Box::new(Audit {
            inner,
            interest,
            skipped: Rc::clone(&skipped),
        })
    });
    assert!(
        skipped.all.get() > 0,
        "the audit build must see deliveries the interests skip"
    );
    assert!(
        skipped.queries_by_name.get() > 0,
        "the audit build must see mDNS queries an advertiser skips by name"
    );
    if let Some((index, (a, b))) = filtered
        .frames()
        .zip(audited.frames())
        .enumerate()
        .find(|(_, (a, b))| a.time != b.time || a.data() != b.data())
    {
        let head = |data: &[u8]| data[..data.len().min(42)].to_vec();
        panic!(
            "captures diverge at frame {index}: {:?} {:02x?} with interests, \
             {:?} {:02x?} with every node hearing every frame",
            a.time,
            head(a.data()),
            b.time,
            head(b.data())
        );
    }
    assert_eq!(filtered.len(), audited.len(), "capture lengths differ");
    assert!(filtered.to_pcap() == audited.to_pcap());
}
