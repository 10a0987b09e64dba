//! Quickstart: assemble the 93-device testbed, capture traffic at the AP,
//! classify it, and export a Wireshark-compatible pcap.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use iotlan::netsim::SimDuration;
use iotlan::{Lab, LabConfig};
use std::collections::BTreeMap;

fn main() {
    // 1. Build the lab: router + 93 devices (Table 3) + honeypot.
    let mut lab = Lab::new(LabConfig {
        seed: 42,
        idle_duration: SimDuration::from_mins(15),
        interactions: 50,
        with_honeypot: true,
    });
    println!(
        "testbed: {} devices, {} unique models",
        lab.catalog.devices.len(),
        lab.catalog.unique_models()
    );

    // 2. Run the idle capture and some scripted interactions.
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(2));
    println!(
        "captured {} frames over {}",
        lab.network.capture.len(),
        lab.network.now()
    );

    // 3. Assemble flows and classify with the paper's pipeline
    //    (nDPI model + manual rules).
    let table = lab.flow_table();
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for (flow, labels) in table.flows.iter().zip(table.labels()) {
        *counts.entry(labels.paper).or_insert(0) += flow.packets;
    }
    println!("\ntop protocols by packets:");
    let mut rows: Vec<_> = counts.into_iter().collect();
    rows.sort_by_key(|(_, packets)| std::cmp::Reverse(*packets));
    for (protocol, packets) in rows.iter().take(12) {
        println!("  {protocol:<14} {packets}");
    }

    // 4. Who scanned the honeypot?
    if let Some(honeypot) = lab.honeypot() {
        println!("\nhoneypot interactions: {}", honeypot.interactions.len());
        for protocol in [
            iotlan::honeypot::HoneypotProtocol::Ssdp,
            iotlan::honeypot::HoneypotProtocol::Mdns,
        ] {
            let scanners = honeypot.scanners(protocol);
            println!("  {protocol:?} scanners: {}", scanners.len());
        }
    }

    // 5. Export the capture for Wireshark.
    let pcap = lab.network.capture.to_pcap();
    let path = std::env::temp_dir().join("iotlan_quickstart.pcap");
    std::fs::write(&path, pcap).expect("write pcap");
    println!("\npcap written to {}", path.display());

    // Per-MAC split, like the paper's per-device capture files.
    let echo = lab.catalog.find("Amazon Echo Spot").unwrap();
    let echo_pcap = lab.network.capture.to_pcap_for_mac(echo.mac);
    let echo_path = std::env::temp_dir().join("iotlan_echo_spot.pcap");
    std::fs::write(&echo_path, echo_pcap).expect("write pcap");
    println!("Echo Spot per-device pcap: {}", echo_path.display());
}
