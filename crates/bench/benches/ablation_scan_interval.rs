//! Ablation (DESIGN.md §5.2): discovery cadence vs what a LAN observer
//! learns. Google's 20-second SSDP vs Echo's 2–3-hour cadence (§5.1
//! "Discovery Intervals"): higher frequency → faster, finer-grained
//! knowledge of who is home.

use iotlan_core::devices::{build_testbed, Device};
use iotlan_core::netsim::router::Router;
use iotlan_core::netsim::{Network, SimDuration};
use iotlan_util::bench::Criterion;

/// Count discovery frames emitted by one device in a window under a given
/// SSDP search interval.
fn frames_for_interval(interval_secs: u64, window: SimDuration) -> u64 {
    let catalog = build_testbed();
    let mut config = catalog.find("Google Nest Hub").unwrap().clone();
    if let Some(ssdp) = &mut config.ssdp {
        ssdp.search_interval_secs = interval_secs;
    }
    let mac = config.mac;
    let mut network = Network::new(1);
    network.add_node(Box::new(Router::new()));
    network.add_node(Box::new(Device::new(config)));
    network.run_for(window);
    network.capture.sent_by(mac).len() as u64
}

fn bench(c: &mut Criterion) {
    println!("== Ablation: discovery cadence vs observer information ==");
    let window = SimDuration::from_mins(30);
    for interval in [20u64, 120, 600, 9000] {
        let frames = frames_for_interval(interval, window);
        println!(
            "SSDP interval {interval:>5}s -> {frames:>5} frames in 30 min \
             (observation granularity {:.1}/min)",
            frames as f64 / 30.0
        );
    }
    c.bench_function("ablation/scan_interval_sim", |b| {
        b.iter(|| frames_for_interval(120, SimDuration::from_mins(5)))
    });
}

iotlan_util::bench_main!(bench);
