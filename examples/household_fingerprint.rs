//! Household fingerprinting (§6.3): generate the crowdsourced-style
//! dataset, run the Table 2 entropy analysis, then play the adversary —
//! re-identify a household from nothing but its mDNS/SSDP identifiers.
//!
//! ```sh
//! cargo run --release --example household_fingerprint
//! ```

use iotlan::inspector::{dataset, entropy, ident};
use std::collections::BTreeSet;

/// The adversary's view of one household: the set of identifier values
/// extracted from its discovery traffic.
fn fingerprint(household: &dataset::Household) -> BTreeSet<String> {
    let mut values = BTreeSet::new();
    for device in &household.devices {
        let text = format!(
            "{} {}",
            device.mdns_responses.join(" "),
            device.ssdp_responses.join(" ")
        );
        for name in ident::extract_names(&text) {
            values.insert(format!("n:{name}"));
        }
        for uuid in ident::extract_uuids(&text) {
            values.insert(format!("u:{uuid}"));
        }
        for mac in ident::extract_macs_with_oui(&text, &device.oui) {
            values.insert(format!("m:{mac}"));
        }
    }
    values
}

fn main() {
    // 1. Generate the dataset (3,893 households, ~13.5k devices).
    let data = dataset::generate(&dataset::GeneratorConfig::default());
    println!(
        "dataset: {} households, {} devices, {} products, {} vendors",
        data.households.len(),
        data.device_count(),
        data.distinct_products(),
        data.distinct_vendors()
    );

    // 2. The Table 2 analysis.
    let table = entropy::analyze(&data);
    println!("\n{}", table.render());

    // 3. The attack: snapshot every household's fingerprint "today"…
    let fingerprints: Vec<BTreeSet<String>> = data.households.iter().map(fingerprint).collect();

    // …then pick a target household with identifiers and re-identify it
    // among all 3,893 from its fingerprint alone.
    let (target_index, target_fp) = fingerprints
        .iter()
        .enumerate()
        .find(|(_, fp)| fp.len() >= 2)
        .expect("some household exposes identifiers");
    let matches: Vec<usize> = fingerprints
        .iter()
        .enumerate()
        .filter(|(_, fp)| *fp == target_fp)
        .map(|(i, _)| i)
        .collect();
    println!(
        "adversary re-identification: household #{target_index} \
         (fingerprint of {} identifiers) matches {} household(s) -> {}",
        target_fp.len(),
        matches.len(),
        if matches == vec![target_index] {
            "UNIQUELY identified"
        } else {
            "ambiguous"
        }
    );

    // 4. How much of the population is uniquely pinned down?
    let mut counts = std::collections::BTreeMap::new();
    for fp in &fingerprints {
        if !fp.is_empty() {
            *counts.entry(fp.clone()).or_insert(0usize) += 1;
        }
    }
    let exposed = fingerprints.iter().filter(|fp| !fp.is_empty()).count();
    let unique = fingerprints
        .iter()
        .filter(|fp| !fp.is_empty() && counts[*fp] == 1)
        .count();
    println!(
        "{unique}/{exposed} identifier-exposing households are uniquely \
         fingerprintable ({:.1}%) — the paper reports 94–96% for UUID/MAC rows",
        100.0 * unique as f64 / exposed.max(1) as f64
    );
}
