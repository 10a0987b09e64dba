//! Golden digests: "same behaviour" checked across commits, not only
//! between two runs of one build.
//!
//! `tests/golden.txt` pins the `fnv1a64` digest of each artifact below.
//! A refactor that is meant to leave behaviour alone must leave every
//! digest alone. A change that is meant to alter behaviour re-blesses by
//! editing the file with the digests this test prints, and says why in
//! the change log.

mod common;

use iotlan::analysis::periodicity::PeriodicityReport;
use iotlan::analysis::responses;
use iotlan::apps::{build_population, AppCensusReport};
use iotlan::experiments;
use iotlan::inspector::dataset::{generate, GeneratorConfig};
use iotlan::inspector::entropy;
use iotlan::netsim::SimDuration;
use iotlan::stream::engine::stream_capture;
use iotlan::telemetry::fnv1a64;
use iotlan::{Lab, LabConfig};
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = include_str!("golden.txt");

/// Apps the seed-42 lab runs on the phone: the Fig. 2 bench's slice.
const APP_COUNT: usize = 160;

/// A `LabConfig::fast()` lab from `seed` after the idle run and the
/// scripted interactions over one simulated minute.
fn fast_lab(seed: u64) -> Lab {
    let mut lab = Lab::new(LabConfig {
        seed,
        ..LabConfig::fast()
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));
    lab
}

/// Every App. D.1 group's verdict, one line each, with the period rounded
/// so that a last-bit change in the detector is not a new verdict.
fn periodicity_verdicts(report: &PeriodicityReport) -> String {
    let mut out = String::new();
    for group in &report.groups {
        let _ = writeln!(
            out,
            "{} {} {} events={} decidable={} periodic={} period={}",
            group.key.src_mac,
            group.key.destination,
            group.key.protocol,
            group.events.len(),
            group.decidable,
            group.periodic,
            group
                .period_secs
                .map_or_else(|| "-".to_string(), |p| format!("{p:.3}")),
        );
    }
    out
}

/// The seed-42 regeneration the way the time-to-paper benchmark runs its
/// canary: the `fast` capture, then the first [`APP_COUNT`] apps, then
/// every `core::experiments` render and the stream report's renders. The
/// renders match the benchmark's, so equal artifacts carry the digests of
/// its ledger too.
fn fast_seed42_artifacts() -> Vec<(&'static str, Vec<u8>)> {
    let mut lab = fast_lab(42);
    let mut artifacts = vec![("fast_seed42.pcap", lab.network.capture.to_pcap())];
    let apps: Vec<_> = build_population().into_iter().take(APP_COUNT).collect();
    lab.deploy_phone(apps);
    let runs = lab.run_app_tests(APP_COUNT);
    // Whole runs: §6 renders only counts, so this pins every harvested
    // and exfiltrated value too.
    artifacts.push(("fast_seed42.runs", format!("{runs:?}").into_bytes()));
    let census = AppCensusReport::from_runs(&runs);
    let flows = lab.flow_table();
    let stream = stream_capture(&lab.network.capture, &lab.catalog);

    let mut table5 = String::new();
    for example in experiments::table5_payloads(&lab) {
        let _ = writeln!(table5, "{}\t{}", example.protocol, example.rendered);
    }
    let mut sec52 = String::new();
    for (device, findings) in experiments::sec52_vulnerabilities(&lab.catalog) {
        for f in findings {
            let _ = writeln!(
                sec52,
                "{device}\t{}\t{:?}\t{:?}\t{:?}\t{}",
                f.plugin, f.severity, f.cve, f.port, f.description
            );
        }
    }
    let appd1 = experiments::appd1_periodicity(&lab);
    let renders = [
        ("fast_seed42_apps.pcap", lab.network.capture.to_pcap()),
        (
            "fast_seed42.fig1",
            experiments::fig1_device_graph(&lab).render().into_bytes(),
        ),
        (
            "fast_seed42.fig2",
            experiments::fig2_prevalence(&lab, Some(&census))
                .render()
                .into_bytes(),
        ),
        (
            "fast_seed42.fig3",
            experiments::fig3_crossval(&lab).render().into_bytes(),
        ),
        (
            "fast_seed42.fig4",
            experiments::fig4_vendor_clusters(&lab)
                .render()
                .into_bytes(),
        ),
        (
            "fast_seed42.table1",
            experiments::table1_exposure(&lab).render().into_bytes(),
        ),
        (
            "fast_seed42.table2",
            experiments::table2_entropy(42).render().into_bytes(),
        ),
        (
            "fast_seed42.table3",
            experiments::table3_inventory(&lab.catalog).into_bytes(),
        ),
        (
            "fast_seed42.table4",
            responses::render(&experiments::table4_responses(&lab)).into_bytes(),
        ),
        ("fast_seed42.table5", table5.into_bytes()),
        (
            "fast_seed42.sec42",
            experiments::sec42_active_scans(&lab.catalog)
                .render()
                .into_bytes(),
        ),
        (
            "fast_seed42.sec51",
            experiments::sec51_discovery_stats(&lab)
                .render()
                .into_bytes(),
        ),
        ("fast_seed42.sec52", sec52.into_bytes()),
        (
            "fast_seed42.sec6",
            experiments::sec6_exfiltration(&census).into_bytes(),
        ),
        (
            "fast_seed42.appd1",
            (appd1.render() + &periodicity_verdicts(&appd1.report)).into_bytes(),
        ),
        (
            "fast_seed42.stream_graph",
            stream.graph(&lab.catalog).render().into_bytes(),
        ),
        (
            "fast_seed42.stream_prevalence",
            stream.prevalence(&lab.catalog).render().into_bytes(),
        ),
        (
            "fast_seed42.stream_table4",
            responses::render(&stream.discovery_response_rows(&lab.catalog)).into_bytes(),
        ),
    ];
    assert!(
        Rc::ptr_eq(&flows, &lab.flow_table()),
        "every artifact of the regeneration shares one flow table"
    );
    artifacts.extend(renders);
    artifacts
}

/// A 400-household synthetic Inspector dataset, whole (its `Debug` form,
/// so every device's OUI, payloads, vendor and category are pinned, not
/// only what Table 2 renders), and Table 2 rendered over it.
fn table2_artifacts() -> [(&'static str, Vec<u8>); 2] {
    let dataset = generate(&GeneratorConfig {
        seed: 0xc0ffee,
        households: 400,
    });
    [
        ("households400.dataset", format!("{dataset:?}").into_bytes()),
        (
            "table2_households400.render",
            entropy::analyze(&dataset).render().into_bytes(),
        ),
    ]
}

#[test]
fn artifacts_match_the_golden_digests() {
    let (small_pcap, small_report) = common::run(1312);
    let mut artifacts = vec![("fast_seed1.pcap", fast_lab(1).network.capture.to_pcap())];
    artifacts.extend(fast_seed42_artifacts());
    artifacts.extend([
        ("small_seed1312.pcap", small_pcap),
        ("small_seed1312.report", small_report.into_bytes()),
    ]);
    artifacts.extend(table2_artifacts());
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
