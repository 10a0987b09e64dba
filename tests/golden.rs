//! Golden digests: "same behaviour" checked across commits, not only
//! between two runs of one build.
//!
//! `tests/golden.txt` pins the `fnv1a64` digest of each artifact below.
//! A refactor that is meant to leave behaviour alone must leave every
//! digest alone. A change that is meant to alter behaviour re-blesses by
//! editing the file with the digests this test prints, and says why in
//! the change log.

mod common;

use iotlan::inspector::dataset::{generate, GeneratorConfig};
use iotlan::inspector::entropy;
use iotlan::netsim::SimDuration;
use iotlan::telemetry::fnv1a64;
use iotlan::{Lab, LabConfig};

const GOLDEN: &str = include_str!("golden.txt");

/// The `LabConfig::fast()` capture from `seed`: the idle run plus the
/// scripted interactions over one simulated minute.
fn fast_capture(seed: u64) -> Vec<u8> {
    let mut lab = Lab::new(LabConfig {
        seed,
        ..LabConfig::fast()
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));
    lab.network.capture.to_pcap()
}

/// Table 2 rendered over a 400-household synthetic Inspector dataset.
fn table2_render() -> String {
    let dataset = generate(&GeneratorConfig {
        seed: 0xc0ffee,
        households: 400,
    });
    entropy::analyze(&dataset).render()
}

#[test]
fn artifacts_match_the_golden_digests() {
    let (small_pcap, small_report) = common::run(1312);
    let artifacts: [(&str, Vec<u8>); 5] = [
        ("fast_seed1.pcap", fast_capture(1)),
        ("fast_seed42.pcap", fast_capture(42)),
        ("small_seed1312.pcap", small_pcap),
        ("small_seed1312.report", small_report.into_bytes()),
        ("table2_households400.render", table2_render().into_bytes()),
    ];
    let pinned: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .filter_map(|line| line.split_once(' '))
        .collect();
    let mut mismatches = Vec::new();
    for (name, bytes) in &artifacts {
        let digest = format!("{:016x}", fnv1a64(bytes));
        match pinned.iter().find(|(pinned_name, _)| pinned_name == name) {
            Some((_, expected)) if expected.trim() == digest => {}
            Some((_, expected)) => {
                mismatches.push(format!("{name}: pinned {}, now {digest}", expected.trim()))
            }
            None => mismatches.push(format!("{name}: not pinned, now {digest}")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden digests changed:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        pinned.len(),
        artifacts.len(),
        "golden.txt pins {} artifacts, the test computes {}",
        pinned.len(),
        artifacts.len()
    );
}
