//! §7 mitigations, quantified: what actually happens to the attack surface
//! when the paper's proposed defenses are applied.
//!
//! 1. **iOS-style local-network consent** — deny the multicast side
//!    channel to unconsented apps: the PoC scanner goes blind.
//! 2. **Identifier minimization** — strip UUIDs/MACs from discovery
//!    payloads: household uniqueness collapses (see also
//!    `ablation_id_minimization`).
//! 3. **Hostname randomization** (the GE Microwave scheme): DHCP-level
//!    tracking breaks.
//!
//! ```sh
//! cargo run --release --example mitigations
//! ```

use iotlan::apps::android::{evaluate_access, poc_permissions};
use iotlan::apps::{AndroidApi, Permission};
use iotlan::devices::config::HostnameScheme;
use iotlan::inspector::{dataset, entropy};

fn main() {
    // ---- 1. Local-network consent (the iOS model, §2.1/§7) -------------
    println!("== mitigation 1: runtime consent for local-network access ==");
    let unconsented = poc_permissions();
    let consented = {
        let mut p = poc_permissions();
        p.push(Permission::NearbyWifiDevices);
        p
    };
    for (label, permissions, gate_side_channels) in [
        ("Android today (side channel open)", &unconsented, false),
        ("iOS-style consent gate, user declined", &unconsented, true),
        ("consent granted", &consented, false),
    ] {
        let mdns = match (
            evaluate_access(AndroidApi::NsdDiscoverMdns, permissions),
            gate_side_channels,
        ) {
            (_, true) => "BLOCKED (no consent)".to_string(),
            (outcome, false) => format!("{outcome:?}"),
        };
        println!("  {label:<42} mDNS scan: {mdns}");
    }

    // ---- 2. Identifier minimization ------------------------------------
    println!("\n== mitigation 2: strip UUIDs/MACs from discovery payloads ==");
    let baseline = dataset::generate(&dataset::GeneratorConfig::default());
    let mut minimized = baseline.clone();
    minimized.strip_identifiers(true, true);
    for (label, data) in [("as deployed", &baseline), ("minimized", &minimized)] {
        let table = entropy::analyze(data);
        let mut households = 0usize;
        let mut unique = 0.0f64;
        for row in &table.rows {
            if row.class.count() > 0 {
                households += row.households;
                unique += row.unique_fraction * row.households as f64;
            }
        }
        println!(
            "  {label:<12} identifier-exposing households: {households:>5}, \
             uniquely fingerprintable: {:>5.1}%",
            if households == 0 {
                0.0
            } else {
                100.0 * unique / households as f64
            }
        );
    }

    // ---- 3. Hostname randomization --------------------------------------
    println!("\n== mitigation 3: randomized DHCP hostnames (GE Microwave) ==");
    let catalog = iotlan::devices::build_testbed();
    let mut trackable = 0;
    let mut randomized = 0;
    for device in &catalog.devices {
        match device.hostname {
            HostnameScheme::Randomized(_) | HostnameScheme::None => randomized += 1,
            _ => trackable += 1,
        }
    }
    println!(
        "  testbed today: {trackable}/93 devices emit a stable DHCP hostname, \
         {randomized} randomize or omit it"
    );
    println!(
        "  with the GE scheme fleet-wide: 0 stable DHCP trackers \
         (each renewal yields a fresh name — see ablation_hostname_scheme)"
    );
}
