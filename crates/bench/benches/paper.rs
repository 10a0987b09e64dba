//! Every table and figure of the paper from one bench lab.
//!
//! Builds [`bench_lab`] once, prints each artifact's paper-vs-measured
//! block, and measures the computation behind it under its own harness id
//! (`fig1/build_graph`, …, `appd1/periodicity_analysis`). A substring
//! filter such as `-- fig1` only selects which ids are measured: every
//! block is still regenerated and printed.
//!
//! Order matters for the numbers. The lab-only artifacts run first, because
//! Fig. 2's app slice adds the phone's traffic to the capture. §6 runs last
//! on its own 10-minute lab, built after the bench lab is dropped.

use iotlan_bench::bench_lab;
use iotlan_core::analysis::{exposure, graph, payloads, periodicity, prevalence, responses};
use iotlan_core::apps::{build_population, AppCensusReport, Phone};
use iotlan_core::classify::crossval;
use iotlan_core::devices::build_testbed;
use iotlan_core::inspector::{dataset, entropy};
use iotlan_core::netsim::SimDuration;
use iotlan_core::scan::{portscan, service};
use iotlan_core::{experiments, Lab, LabConfig};
use iotlan_util::bench::Criterion;

fn bench(c: &mut Criterion) {
    let mut lab = bench_lab();
    lab_artifacts(c, &lab);
    fig2(c, &mut lab);
    drop(lab);
    table2(c);
    sec6(c);
}

/// Fig. 1/3/4, Tables 1/3/4/5, §4.2, §5.1, §5.2 and App. D.1: everything
/// read off the bench lab's capture and catalog alone.
fn lab_artifacts(c: &mut Criterion, lab: &Lab) {
    let catalog = &lab.catalog;
    let table = lab.flow_table();

    // Figure 1: the device-to-device transport graph (unicast TCP/UDP
    // edges among the 93 devices; paper: 43/93 devices have a local peer).
    println!("{}", experiments::fig1_device_graph(lab).render());
    c.bench_function("fig1/build_graph", |b| {
        b.iter(|| graph::build_graph(&table, catalog))
    });

    // Figure 3 / Appendix C.2: nDPI-vs-tshark cross-validation heatmap.
    println!("{}", experiments::fig3_crossval(lab).render());
    c.bench_function("fig3/cross_validate", |b| {
        b.iter(|| crossval::cross_validate(&table))
    });

    // Figure 4: the Google/Amazon/Apple intra-vendor clusters.
    println!("{}", experiments::fig4_vendor_clusters(lab).render());
    let device_graph = graph::build_graph(&table, catalog);
    c.bench_function("fig4/vendor_cluster_extraction", |b| {
        b.iter(|| {
            (
                device_graph.vendor_cluster(catalog, "Google"),
                device_graph.vendor_cluster(catalog, "Amazon"),
                device_graph.vendor_cluster(catalog, "Apple"),
            )
        })
    });

    // Table 1: information exposure per discovery protocol.
    println!("== Table 1 — information exposure per discovery protocol ==");
    println!("{}", experiments::table1_exposure(lab).render());
    c.bench_function("table1/exposure_matrix", |b| {
        b.iter(|| exposure::exposure_matrix(&table))
    });

    // Table 3: the 93-device testbed inventory (the lab's catalog is
    // `build_testbed()`).
    println!("{}", experiments::table3_inventory(catalog));
    c.bench_function("table3/build_testbed", |b| b.iter(build_testbed));

    // Table 4: discovery protocols and responses per device category.
    println!("== Table 4 — discovery protocols and responses ==");
    println!("paper: Echo 3.65 disc / 1.82 resp / 9.47 devices; Google 4.0/3.0/5.14");
    println!("{}", responses::render(&experiments::table4_responses(lab)));
    c.bench_function("table4/discovery_responses", |b| {
        b.iter(|| responses::discovery_responses(&table, catalog))
    });

    // Table 5: identifier-bearing payload examples from the capture.
    println!("== Table 5 — payload examples ==");
    for example in &experiments::table5_payloads(lab) {
        println!("--- {} ---\n{}", example.protocol, example.rendered);
    }
    c.bench_function("table5/payload_extraction", |b| {
        b.iter(|| payloads::payload_examples(&table))
    });

    // §4.2: the nmap-style sweeps (TCP 1–65535, UDP 1–1024, IP-protocol),
    // plus the §3.5 service-identification error rate.
    println!("{}", experiments::sec42_active_scans(catalog).render());
    let ports: Vec<_> = catalog.devices.iter().flat_map(|d| &d.open_tcp).collect();
    let mislabeled = ports
        .iter()
        .filter(|p| service::was_mislabeled(&service::identify(p.port, false, &p.service)))
        .count();
    let total = ports.len();
    println!(
        "nmap port-table service inference: {mislabeled}/{total} open TCP services mislabeled ({:.0}%)",
        100.0 * mislabeled as f64 / total.max(1) as f64
    );
    c.bench_function("sec42/full_catalog_scan", |b| {
        b.iter(|| portscan::scan_catalog(catalog))
    });

    // §5.1: discovery-protocol usage and DHCP identifier-exposure statistics.
    println!("{}", experiments::sec51_discovery_stats(lab).render());
    c.bench_function("sec51/discovery_stats", |b| {
        b.iter(|| experiments::sec51_discovery_stats(lab))
    });

    // §5.2: the Nessus-style vulnerability findings.
    let findings = experiments::sec52_vulnerabilities(catalog);
    println!(
        "== §5.2 — vulnerability findings ({} devices affected) ==",
        findings.len()
    );
    for (device, device_findings) in findings.iter().take(12) {
        for finding in device_findings {
            println!(
                "{device}: [{:?}] {} {}",
                finding.severity,
                finding.cve.unwrap_or("-"),
                finding.description
            );
        }
    }
    println!("(truncated; {} devices total)", findings.len());
    c.bench_function("sec52/vuln_scan", |b| {
        b.iter(|| experiments::sec52_vulnerabilities(catalog))
    });

    // Appendix D.1: DFT+autocorrelation periodicity of discovery traffic.
    println!("{}", experiments::appd1_periodicity(lab).render());
    c.bench_function("appd1/periodicity_analysis", |b| {
        b.iter(|| periodicity::analyze_periodicity(&table))
    });
}

/// Figure 2: protocol prevalence across passive capture, active scans and
/// the 2,335-app dataset. A 160-app slice runs on the bench lab's phone for
/// the green "apps" series; the rates are then scaled to the full
/// population, whose per-app protocol usage is deterministic.
fn fig2(c: &mut Criterion, lab: &mut Lab) {
    let population = build_population();
    let slice: Vec<_> = population.iter().take(160).cloned().collect();
    lab.deploy_phone(slice.clone());
    let runs = lab.run_app_tests(slice.len());
    let mut report = AppCensusReport::from_runs(&runs);
    let mut usage = std::collections::BTreeMap::new();
    for app in &population {
        for (protocol, used) in [
            ("mDNS", app.uses_mdns()),
            ("SSDP", app.uses_ssdp()),
            ("NETBIOS", app.uses_netbios()),
            ("TLS", app.uses_tls()),
        ] {
            if used {
                *usage.entry(protocol).or_insert(0) += 1;
            }
        }
    }
    report.total_apps = population.len();
    report.protocol_usage = usage;
    println!(
        "{}",
        experiments::fig2_prevalence(lab, Some(&report)).render()
    );
    let table = lab.flow_table();
    c.bench_function("fig2/passive_prevalence", |b| {
        b.iter(|| prevalence::passive_prevalence(&table, &lab.catalog))
    });
}

/// Table 2: household fingerprintability entropy over the synthetic IoT
/// Inspector crowd, generated and analysed in one pass per household as
/// `experiments::table2_entropy` runs it.
fn table2(c: &mut Criterion) {
    println!("{}", experiments::table2_entropy(0x1077_1a6).render());
    let config = dataset::GeneratorConfig::default();
    c.bench_function("table2/entropy_analysis", |b| {
        b.iter(|| entropy::analyze_generated(&config))
    });
}

/// §6.1/§6.2: app/SDK exfiltration of LAN-harvested identifiers. The full
/// 2,335-app population (§3.2) runs on the instrumented phone against a lab
/// with a shorter idle lead-in, so every rate is measured from wire traffic
/// and taint-tracked exfiltration records, not from the generator's
/// configuration.
fn sec6(c: &mut Criterion) {
    let mut lab = Lab::new(LabConfig {
        seed: 42,
        idle_duration: SimDuration::from_mins(10),
        interactions: 0,
        with_honeypot: true,
    });
    lab.run_idle();
    let population = build_population();
    let count = population.len();
    let phone_id = lab.deploy_phone(population);
    // 1-second windows: device responses arrive within ~250 ms.
    lab.network
        .node_mut(phone_id)
        .as_any_mut()
        .downcast_mut::<Phone>()
        .unwrap()
        .set_window(SimDuration::from_secs(1));
    let runs = lab.run_app_tests(count);
    assert_eq!(runs.len(), count, "all apps must complete");
    let report = AppCensusReport::from_runs(&runs);
    println!("{}", experiments::sec6_exfiltration(&report));
    println!("side-channel apps: {}", report.side_channel_apps);
    println!("endpoints observed:");
    for endpoint in report.endpoints.iter().take(12) {
        println!("  {endpoint}");
    }
    c.bench_function("sec6/report_aggregation_2335_apps", |b| {
        b.iter(|| AppCensusReport::from_runs(&runs))
    });
}

iotlan_util::bench_main!(bench);
