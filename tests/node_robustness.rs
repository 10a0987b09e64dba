//! No node panics on any frame the medium can deliver.
//!
//! Every property injects frames into one LAN that holds every node kind
//! at once: the router, all 93 catalog devices, the honeypot, and a phone
//! whose one app (every discovery behaviour) stays in its test window for
//! the whole run. The frames are arbitrary bytes, truncated or flipped real
//! frames, and well-formed Ethernet/IPv4/UDP frames that carry arbitrary
//! payloads to the discovery and DHCP ports the node handlers parse, and
//! M-SEARCHes that every SSDP responder accepts, each for a target of its
//! own, so every reply memo keeps growing. After the injection the network
//! must keep running: devices keep sending their periodic traffic.

mod lan;

use iotlan::netsim::stack;
use iotlan::netsim::SimDuration;
use iotlan::util::props;
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::wire::ssdp;
use iotlan::{Lab, LabConfig};
use lan::{discovery_phone, endpoints, pick, service_types, udp_frame};

/// The full LAN, ten simulated seconds in: every device has sent its
/// start-up traffic and scheduled its periodic behaviours.
fn full_lan() -> Lab {
    let mut lab = Lab::new(LabConfig {
        seed: 77,
        idle_duration: SimDuration::from_secs(10),
        interactions: 0,
        with_honeypot: true,
    });
    lab.network.add_node(Box::new(discovery_phone()));
    lab.run_idle();
    lab
}

/// Inject `frames`, then run on: nothing may panic, and the devices must
/// keep transmitting.
fn survives(mut lab: Lab, frames: Vec<Vec<u8>>) {
    for frame in frames {
        lab.network.inject_frame(frame);
    }
    let sent = lab.network.frames_sent();
    lab.network.run_for(SimDuration::from_secs(10));
    assert!(
        lab.network.frames_sent() > sent,
        "the LAN went quiet after the injected frames"
    );
}

props! {
    /// Arbitrary bytes, mostly addressed so that some node receives them.
    fn arbitrary_bytes_never_panic(g) {
        let lab = full_lan();
        let endpoints = endpoints(&lab.catalog);
        let frames = g.vec_of(1, 40, |g| {
            let mut frame = g.bytes(1514);
            if frame.len() >= 6 && g.int_in(0..3u8) > 0 {
                let dst = if g.bool() {
                    EthernetAddress::BROADCAST
                } else {
                    pick(g, &endpoints).mac
                };
                frame[..6].copy_from_slice(&dst.0);
            }
            frame
        });
        survives(lab, frames);
    }

    /// Real frames from the LAN's own capture, cut short and flipped.
    fn truncated_real_frames_never_panic(g) {
        let lab = full_lan();
        let real: Vec<Vec<u8>> = lab.network.capture.frames().map(|f| f.data().to_vec()).collect();
        let frames = g.vec_of(1, 40, |g| {
            let mut frame = real[g.int_in(0..real.len())].clone();
            frame.truncate(g.int_in(0..=frame.len()));
            if !frame.is_empty() && g.bool() {
                let at = g.int_in(0..frame.len());
                frame[at] ^= g.int_in(1..=255u8);
            }
            frame
        });
        survives(lab, frames);
    }

    /// Valid UDP frames whose payloads every discovery handler must parse.
    fn valid_udp_with_arbitrary_payloads_never_panics(g) {
        let lab = full_lan();
        let endpoints = endpoints(&lab.catalog);
        let services = service_types(&lab.catalog);
        let frames = g.vec_of(1, 40, |g| udp_frame(g, &endpoints, &services));
        survives(lab, frames);
    }

    /// M-SEARCHes for many distinct targets that the responders accept
    /// (`ssdp:all`, and any target naming `dial` or `MediaRenderer`),
    /// multicast or unicast, with any MX.
    fn hostile_msearches_never_panic(g) {
        let lab = full_lan();
        let endpoints = endpoints(&lab.catalog);
        let frames = g.vec_of(1, 300, |g| {
            let junk = g.string_of("abcXYZ019:-._/ %é✓", 0, 120);
            let target = match g.int_in(0..4u8) {
                0 => ssdp::targets::ALL.to_string(),
                1 => format!("urn:{junk}:service:dial:{}", g.u32()),
                2 => format!("urn:schemas-upnp-org:device:MediaRenderer:{junk}"),
                _ => format!("{junk}dial{}", g.u64()),
            };
            let msearch = ssdp::Message::msearch(&target, g.u8()).to_bytes();
            let src = pick(g, &endpoints);
            if g.bool() {
                stack::udp_multicast(src, ssdp::SSDP_GROUP_V4, g.u16(), ssdp::SSDP_PORT, &msearch)
            } else {
                let dst = pick(g, &endpoints);
                stack::udp_unicast(src, dst, g.u16(), ssdp::SSDP_PORT, &msearch)
            }
        });
        survives(lab, frames);
    }
}
