//! Robustness integration tests: the pipeline under adverse conditions —
//! fault injection on the medium, corrupted captures, and hostile inputs.

use iotlan::classify::FlowTable;
use iotlan::netsim::{FaultInjector, SimDuration};
use iotlan::{experiments, Lab, LabConfig};

/// The smoltcp-style fault injection: 15% drop + 15% corrupt. Devices,
/// capture, flow assembly and classification must all survive; corrupted
/// frames become unclassified, never panics.
#[test]
fn pipeline_survives_faulty_medium() {
    let mut lab = Lab::new(LabConfig {
        seed: 51,
        idle_duration: SimDuration::from_mins(6),
        interactions: 10,
        with_honeypot: true,
    });
    lab.network.faults = FaultInjector::new(0.15, 0.15, None, 7);
    lab.run_idle();
    lab.run_interactions(SimDuration::from_secs(30));
    assert!(lab.network.faults.dropped() > 0, "faults must fire");
    assert!(lab.network.faults.corrupted() > 0);

    // The whole analysis stack still runs.
    let table = lab.flow_table();
    assert!(!table.is_empty());
    let labeled = table
        .labels()
        .iter()
        .filter(|labels| labels.paper != "UNKNOWN")
        .count();
    assert!(labeled > table.len() / 2, "{labeled}/{}", table.len());
    let _ = experiments::fig1_device_graph(&lab);
    let _ = experiments::table1_exposure(&lab);
    let _ = experiments::appd1_periodicity(&lab);
}

/// Heavy loss: devices keep functioning (retrying discovery), the capture
/// still records transmissions (the AP sees pre-drop frames).
#[test]
fn heavy_loss_does_not_wedge_devices() {
    let mut lab = Lab::new(LabConfig {
        seed: 52,
        idle_duration: SimDuration::from_mins(4),
        interactions: 0,
        with_honeypot: false,
    });
    lab.network.faults = FaultInjector::new(0.6, 0.0, None, 3);
    lab.run_idle();
    // Frames were sent even though most were dropped in flight.
    assert!(lab.network.frames_sent() > 300);
    assert_eq!(lab.network.capture.len() as u64, lab.network.frames_sent());
}

/// A capture whose bytes are randomly mangled after the fact (disk
/// corruption / hostile pcap) parses without panicking.
#[test]
fn mangled_capture_never_panics() {
    let mut lab = Lab::new(LabConfig {
        seed: 53,
        idle_duration: SimDuration::from_mins(2),
        interactions: 0,
        with_honeypot: false,
    });
    lab.run_idle();
    let mut frames: Vec<Vec<u8>> = lab
        .network
        .capture
        .frames()
        .map(|f| f.data().to_vec())
        .collect();
    // Deterministic mangling: flip a byte in every 3rd frame, truncate
    // every 5th.
    for (index, frame) in frames.iter_mut().enumerate() {
        if index % 3 == 0 && !frame.is_empty() {
            let position = (index * 7919) % frame.len();
            frame[position] ^= 0xff;
        }
        if index % 5 == 0 {
            let keep = frame.len() / 2;
            frame.truncate(keep);
        }
    }
    let mut table = FlowTable::default();
    for (index, frame) in frames.iter().enumerate() {
        table.add_frame(iotlan::netsim::SimTime::from_secs(index as u64), frame);
    }
    // Labelling whatever survived must not panic.
    assert_eq!(table.labels().len(), table.len());
}

/// Size-limited medium (tiny MTU fault): oversized frames dropped, small
/// control traffic still flows.
#[test]
fn size_limit_partitions_traffic() {
    let mut lab = Lab::new(LabConfig {
        seed: 54,
        idle_duration: SimDuration::from_mins(3),
        interactions: 0,
        with_honeypot: false,
    });
    lab.network.faults = FaultInjector::new(0.0, 0.0, Some(120), 1);
    lab.run_idle();
    // ARP (42+14 bytes) passes; large mDNS answers are dropped, so devices
    // never hear each other's announcements — but nothing crashes and the
    // capture still shows the transmissions.
    assert!(lab.network.faults.dropped() > 0);
    let table = lab.flow_table();
    assert!(table.flows.iter().any(|f| {
        matches!(
            f.key.transport,
            iotlan::classify::flow::Transport::L2(0x0806)
        )
    }));
}
