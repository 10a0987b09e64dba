//! Observability end-to-end: run every instrumented pipeline stage once
//! and write its run manifest — plus the merged trace, the flamegraph and
//! the collapsed stacks — under `target/manifests/`.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! Everything written here is deterministic (the manifests' host sections
//! and wall-clock stamps are confined to the non-deterministic views), so
//! two runs at any `IOTLAN_THREADS` produce byte-identical files — the
//! contract `tests/telemetry_determinism.rs` pins.

use iotlan::netsim::SimDuration;
use iotlan::scan::scan_catalog;
use iotlan::stream::engine::stream_capture;
use iotlan::telemetry::{self, FlameMetric};
use iotlan::{Lab, LabConfig};
use std::fs;
use std::path::Path;

fn main() {
    telemetry::reset_all();
    let out_dir = Path::new("target/manifests");
    fs::create_dir_all(out_dir).expect("create target/manifests");

    // 1. The instrumented lab: idle capture + scripted interactions.
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));

    // 2. Active scan campaign over the same catalog.
    let scan = scan_catalog(&lab.catalog);
    scan.campaign_manifest()
        .write_to(out_dir.join("scan_campaign.json"))
        .expect("write scan manifest");

    // 3. Honeypot campaign: whatever scanned the decoy during the run.
    if let Some(honeypot) = lab.honeypot() {
        honeypot
            .campaign_manifest()
            .write_to(out_dir.join("honeypot_campaign.json"))
            .expect("write honeypot manifest");
    }

    // 4. One streaming pass over the lab's capture.
    let report = stream_capture(&lab.network.capture, &lab.catalog);
    report
        .manifest(&lab.catalog)
        .write_to(out_dir.join("stream_pass.json"))
        .expect("write stream manifest");

    // 5. The lab's own manifest (phases, frame counts, pcap digest).
    let lab_manifest = lab.finish_manifest();
    lab_manifest
        .write_to(out_dir.join("lab.json"))
        .expect("write lab manifest");

    // 6. Trace, flamegraph, collapsed stacks — all from the same records.
    let records = telemetry::take_records();
    let flame = telemetry::build_flame(&records);
    fs::write(
        out_dir.join("trace.json"),
        format!("{}\n", telemetry::trace_json(&records, true).pretty()),
    )
    .expect("write trace");
    fs::write(
        out_dir.join("flame.json"),
        format!("{}\n", telemetry::flame_json(&flame, true).pretty()),
    )
    .expect("write flamegraph");
    // Calls, not sim time: the spans bracket lab phases, the stream pass's
    // finish and the scan campaign, which run outside the simulated clock
    // (it is only published inside the event loop), so call counts are the
    // metric every frame actually carries.
    fs::write(
        out_dir.join("flame.collapsed"),
        telemetry::collapsed_stacks(&flame, FlameMetric::Calls),
    )
    .expect("write collapsed stacks");

    println!(
        "observability: {} trace records, {} phases in lab manifest, wrote {}",
        records.len(),
        lab_manifest.phases().len(),
        out_dir.display()
    );
    for phase in lab_manifest.phases() {
        match phase.sim_micros {
            Some(sim) => println!("  phase {:<24} sim {:>12} us", phase.name, sim),
            None => println!("  phase {:<24} sim            -", phase.name),
        }
    }
}
