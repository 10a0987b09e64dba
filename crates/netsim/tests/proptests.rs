//! Property tests for the simulator: determinism, capture/delivery
//! invariants, and fault-injection accounting.

use iotlan_netsim::stack::{self, Dissected, Endpoint};
use iotlan_netsim::{Context, FaultInjector, Network, Node, SimDuration};
use iotlan_util::props;
use iotlan_wire::ethernet::EthernetAddress;
use std::any::Any;
use std::net::Ipv4Addr;

/// A node that broadcasts `count` datagrams at `interval` and counts what
/// it hears.
struct Beacon {
    mac: EthernetAddress,
    ip: Ipv4Addr,
    count: u32,
    interval_ms: u64,
    heard: u64,
}

impl Node for Beacon {
    fn mac(&self) -> EthernetAddress {
        self.mac
    }

    fn on_start(&mut self, ctx: &mut Context) {
        for i in 0..self.count {
            let src = Endpoint {
                mac: self.mac,
                ip: self.ip,
            };
            ctx.send_frame_delayed(
                SimDuration::from_millis(u64::from(i) * self.interval_ms),
                stack::udp_broadcast(src, 5000, 5001, &i.to_be_bytes()),
            );
        }
    }

    fn on_frame(&mut self, _ctx: &mut Context, _frame: &Dissected<'_>) {
        self.heard += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn build(seed: u64, nodes: u8, count: u32, interval_ms: u64) -> Network {
    let mut network = Network::new(seed);
    for n in 0..nodes {
        network.add_node(Box::new(Beacon {
            mac: EthernetAddress([2, 0, 0, 0, 1, n + 1]),
            ip: Ipv4Addr::new(192, 168, 10, n + 1),
            count,
            interval_ms,
            heard: 0,
        }));
    }
    network
}

props! {
    /// Two runs with the same seed produce byte-identical captures;
    /// a different seed may differ but never crashes.
    fn deterministic_capture(g) {
        let seed = g.u64();
        let nodes = g.int_in(2u8..6);
        let count = g.int_in(1u32..10);
        let run = |seed| {
            let mut network = build(seed, nodes, count, 50);
            network.run_for(SimDuration::from_secs(5));
            network.capture.to_pcap()
        };
        assert_eq!(run(seed), run(seed));
    }

    /// Without faults: every broadcast is heard by every *other* node, and
    /// the capture records exactly the transmitted frames.
    fn broadcast_conservation(g) {
        let nodes = g.int_in(2u8..6);
        let count = g.int_in(1u32..8);
        let mut network = build(1, nodes, count, 10);
        network.run_for(SimDuration::from_secs(2));
        let transmitted = u64::from(nodes) * u64::from(count);
        assert_eq!(network.frames_sent(), transmitted);
        assert_eq!(network.capture.len() as u64, transmitted);
        let mut total_heard = 0;
        for id in 0..network.node_count() {
            let beacon = network.node(id).as_any().downcast_ref::<Beacon>().unwrap();
            total_heard += beacon.heard;
        }
        // Each frame is heard by (nodes - 1) receivers.
        assert_eq!(total_heard, transmitted * (u64::from(nodes) - 1));
    }

    /// With drop probability p, delivered ≤ transmitted, and the injector's
    /// accounting matches the delivery deficit exactly.
    fn fault_accounting(g) {
        let seed = g.u64();
        let drop_pct = g.int_in(0u32..=100);
        let drop = f64::from(drop_pct) / 100.0;
        let mut network = build(3, 3, 6, 10);
        network.faults = FaultInjector::new(drop, 0.0, None, seed);
        network.run_for(SimDuration::from_secs(2));
        let transmitted = network.frames_sent();
        let dropped = network.faults.dropped();
        let mut total_heard = 0;
        for id in 0..network.node_count() {
            let beacon = network.node(id).as_any().downcast_ref::<Beacon>().unwrap();
            total_heard += beacon.heard;
        }
        assert_eq!(total_heard, (transmitted - dropped) * 2);
        // Captures record pre-drop transmissions.
        assert_eq!(network.capture.len() as u64, transmitted);
    }

    /// Corruption never changes frame counts, only contents; receivers
    /// must tolerate every corrupted frame without panicking.
    fn corruption_tolerated(g) {
        let seed = g.u64();
        let mut network = build(5, 4, 5, 10);
        network.faults = FaultInjector::new(0.0, 1.0, None, seed);
        network.run_for(SimDuration::from_secs(2));
        assert_eq!(network.capture.len() as u64, network.frames_sent());
    }
}
