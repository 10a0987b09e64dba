//! Observability end-to-end: run every instrumented pipeline stage once
//! and write its run manifest under `target/manifests/`.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! Each file is a manifest's full view: the deterministic facts plus the
//! `"host"` section and each phase's `wall_nanos`, which vary from run to
//! run. Only the manifests' deterministic views
//! (`Manifest::deterministic_json`) are byte-identical across runs and
//! `IOTLAN_THREADS` settings — the contract
//! `tests/telemetry_determinism.rs` pins.

use iotlan::netsim::SimDuration;
use iotlan::scan::scan_catalog;
use iotlan::stream::engine::stream_capture;
use iotlan::telemetry;
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

    println!(
        "observability: {} phases in lab manifest, wrote {}",
        lab_manifest.phases().len(),
        out_dir.display()
    );
    for phase in lab_manifest.phases() {
        println!("  phase {:<24} sim {:>12} us", phase.name, phase.sim_micros);
    }
}
