//! The §6.2 SDK case studies, end to end: run the named apps (Lucky Time
//! with innosdk, CNN with AppDynamics, Simple Speedcheck with Umlaut
//! insightCore, plus the IoT companions) on the instrumented phone against
//! the live testbed, and print what each harvested and exfiltrated — and
//! which Android permission side channels made it possible.
//!
//! ```sh
//! cargo run --release --example spyware_sdk
//! ```

use iotlan::apps::{named_apps, AppCensusReport};
use iotlan::netsim::SimDuration;
use iotlan::{Lab, LabConfig};

fn main() {
    let mut lab = Lab::new(LabConfig {
        seed: 7,
        idle_duration: SimDuration::from_secs(30),
        interactions: 0,
        with_honeypot: false,
    });
    lab.run_idle();

    let apps = named_apps();
    let names: Vec<String> = apps.iter().map(|a| a.package.clone()).collect();
    lab.deploy_phone(apps);
    let runs = lab.run_app_tests(names.len());

    println!("== per-app instrumentation (AppCensus-style) ==\n");
    for run in &runs {
        println!("app: {}", run.package);
        println!("  LAN protocols: {:?}", {
            let mut p = run.protocols_used.clone();
            p.sort();
            p.dedup();
            p
        });
        for (api, outcome) in &run.api_accesses {
            println!("  api {:?} -> {:?}", api, outcome);
        }
        if run.harvested.is_empty() {
            println!("  harvested: (nothing)");
        }
        for item in run.harvested.iter().take(6) {
            println!(
                "  harvested [{:?}] {} (via {})",
                item.data, item.value, item.source_protocol
            );
        }
        if run.harvested.len() > 6 {
            println!("  … {} more items", run.harvested.len() - 6);
        }
        for record in &run.exfil {
            println!(
                "  exfil {:?} -> {} ({} values{})",
                record.direction,
                record.endpoint,
                record.values.len(),
                record.sdk.map(|s| format!(", via {s}")).unwrap_or_default()
            );
        }
        println!();
    }

    let report = AppCensusReport::from_runs(&runs);
    println!("== aggregate ==");
    println!(
        "side-channel apps (no dangerous permission, LAN data anyway): {}",
        report.side_channel_apps
    );
    println!("cloud endpoints receiving LAN data:");
    for endpoint in &report.endpoints {
        println!("  {endpoint}");
    }
}
