//! Allocation-regression test for the zero-copy frame pipeline.
//!
//! Installs `iotlan_util::alloc::CountingAllocator` as this binary's global
//! allocator and pins the exact allocation cost of the hot path: building a
//! frame through the single-allocation composers plus recording it into a
//! reserved capture arena must cost **one** allocation per frame — the
//! frame buffer itself. Before the compose/arena rework the same loop cost
//! five (udp + ipv4 + ethernet builder buffers, plus the capture's
//! per-frame copy and its growth), so this test is what keeps the win from
//! silently rotting.
//!
//! This file deliberately holds a single `#[test]`: the counter is
//! process-global, and a concurrent allocating test would pollute the
//! exact counts.

use iotlan_netsim::stack::{self, Endpoint};
use iotlan_netsim::{Capture, SimTime};
use iotlan_util::alloc::{count_allocations, CountingAllocator};
use iotlan_wire::ethernet::EthernetAddress;
use std::net::Ipv4Addr;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn endpoint(last: u8) -> Endpoint {
    Endpoint {
        mac: EthernetAddress([2, 0, 0, 0, 0, last]),
        ip: Ipv4Addr::new(192, 168, 10, last),
    }
}

#[test]
fn frame_build_and_record_is_one_allocation() {
    const FRAMES: usize = 256;
    let src = endpoint(1);
    let dst = endpoint(2);
    let payload = [0x5au8; 64];

    // Size one frame so each pass below can pre-size its arena and
    // record() stays within capacity for the whole loop (steady-state
    // windowed captures run the same way: capacity is retained across
    // drains).
    let sample = stack::udp_unicast(src, dst, 5000, 9999, &payload);
    let frame_len = sample.len();
    drop(sample);

    // Telemetry metric handles register themselves (one leaked box plus a
    // registry node) on first use; take that one-time cost here so the
    // counted region below measures only the steady-state hot path, which
    // records metrics without allocating.
    let mut warmup = Capture::new();
    warmup.record(SimTime::ZERO, &payload);
    drop(warmup);

    // The allocation counter is process-global and the libtest harness
    // thread runs (and occasionally allocates) concurrently with the test
    // body, so a single pass can pick up a couple of stray events. A real
    // per-frame regression costs +FRAMES in *every* pass; harness noise is
    // transient — so measure several passes and pin the minimum.
    let allocations = (0..3)
        .map(|_| {
            let mut capture = Capture::new();
            capture.reserve(FRAMES, FRAMES * frame_len);
            let (allocations, ()) = count_allocations(|| {
                for i in 0..FRAMES {
                    let frame = stack::udp_unicast(src, dst, 5000, 9999, &payload);
                    capture.record(SimTime::from_secs(i as u64), &frame);
                }
            });
            assert_eq!(capture.len(), FRAMES);
            assert_eq!(capture.arena_bytes(), FRAMES * frame_len);
            allocations
        })
        .min()
        .unwrap();

    assert_eq!(
        allocations, FRAMES as u64,
        "build+record must cost exactly one allocation per frame \
         (the composed frame buffer); record-into-arena is amortized free"
    );

    // The other composed paths share the same budget: one allocation each.
    let (tcp_allocs, frame) = count_allocations(|| {
        stack::tcp_segment(src, dst, &iotlan_wire::tcp::Repr::syn(40000, 80, 1), &[])
    });
    assert_eq!(tcp_allocs, 1, "tcp_segment is one allocation");
    drop(frame);

    let (arp_allocs, frame) = count_allocations(|| {
        stack::arp_frame(&iotlan_wire::arp::Repr::request(src.mac, src.ip, dst.ip))
    });
    assert_eq!(arp_allocs, 1, "arp_frame is one allocation");
    drop(frame);
}
