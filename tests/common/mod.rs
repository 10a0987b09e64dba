//! The small pipeline run shared by the determinism and golden-digest
//! suites.

use iotlan::experiments;
use iotlan::netsim::SimDuration;
use iotlan::{Lab, LabConfig};

/// Build a two-minute lab from `seed`, run ten interactions, and return the
/// capture's pcap image plus the rendered reports concatenated: figures,
/// discovery stats, payload examples.
pub fn run(seed: u64) -> (Vec<u8>, String) {
    let mut lab = Lab::new(LabConfig {
        seed,
        idle_duration: SimDuration::from_mins(2),
        interactions: 10,
        with_honeypot: true,
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));
    let pcap = lab.network.capture.to_pcap();

    let mut report = String::new();
    report.push_str(&experiments::fig1_device_graph(&lab).render());
    report.push_str(&experiments::fig2_prevalence(&lab, None).render());
    report.push_str(&experiments::fig3_crossval(&lab).render());
    report.push_str(&experiments::sec51_discovery_stats(&lab).render());
    for example in experiments::table5_payloads(&lab) {
        report.push_str(&example.rendered);
    }
    (pcap, report)
}
