//! End-to-end integration: the full pipeline from packet generation through
//! capture, flow assembly, classification, and every analysis stage.

use iotlan::classify::FlowTable;
use iotlan::netsim::SimDuration;
use iotlan::{experiments, Lab, LabConfig};

// Paper-scale: minutes of simulated traffic through every analysis stage
// and a pcap round trip, over one lab. Run explicitly via
// `scripts/verify.sh` (`cargo test -- --ignored`); too slow for the default
// tier-1 wall-clock budget.
#[test]
#[ignore = "paper-scale; run via scripts/verify.sh"]
fn full_pipeline_produces_all_artifacts() {
    let mut lab = Lab::new(LabConfig {
        seed: 1234,
        idle_duration: SimDuration::from_mins(8),
        interactions: 30,
        with_honeypot: true,
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));

    // Figure 1.
    let fig1 = experiments::fig1_device_graph(&lab);
    assert!(fig1.connected_devices >= 15);
    assert!(!fig1.graph.edges.is_empty());

    // Figure 2: the protocol ordering must match the paper's ranking —
    // ARP/DHCP near-universal, mDNS > SSDP > TuyaLP.
    let fig2 = experiments::fig2_prevalence(&lab, None);
    let p = &fig2.prevalence;
    assert!(p.passive_rate("DHCP") > 0.9);
    assert!(p.passive_rate("ARP") > 0.5);
    assert!(p.passive_rate("mDNS") > p.passive_rate("SSDP"));
    assert!(p.passive_rate("SSDP") > p.passive_rate("TuyaLP"));
    assert!(p.passive_rate("TuyaLP") >= 4.0 / 93.0);

    // Figure 3: the tools disagree mostly on SSDP.
    let fig3 = experiments::fig3_crossval(&lab);
    assert!(fig3.crossval.ssdp_share > 0.8);
    assert!(fig3.crossval.agreement.ndpi_labeled > fig3.crossval.agreement.tshark_labeled);

    // Figure 4: vendor clusters exist and are vendor-pure.
    let fig4 = experiments::fig4_vendor_clusters(&lab);
    for (cluster, vendor_devices) in [
        (&fig4.google, lab.catalog.by_vendor("Google")),
        (&fig4.amazon, lab.catalog.by_vendor("Amazon")),
    ] {
        assert!(!cluster.edges.is_empty());
        let names: std::collections::BTreeSet<&str> =
            vendor_devices.iter().map(|d| d.name.as_str()).collect();
        for (a, b) in cluster.edges.keys() {
            assert!(names.contains(a.as_str()) && names.contains(b.as_str()));
        }
    }

    // Table 1: the signature exposures of the paper.
    use iotlan::analysis::exposure::ExposureType;
    let table1 = experiments::table1_exposure(&lab);
    assert!(table1.exposes("TPLINK_SHP", ExposureType::Geolocation));
    assert!(table1.exposes("TuyaLP", ExposureType::GwId));
    assert!(table1.exposes("mDNS", ExposureType::Mac));
    assert!(table1.exposes("DHCP", ExposureType::Mac));
    assert!(table1.exposes("SSDP", ExposureType::Uuid));

    // Table 4: Echo devices hear from more devices than anyone (9.47 in
    // the paper: the ssdp:all + unicast-ARP pattern).
    let table4 = experiments::table4_responses(&lab);
    let echo = table4.iter().find(|r| r.category == "Amazon Echo");
    assert!(echo.is_some(), "{table4:?}");
    assert!(echo.unwrap().mean_devices_responded >= 1.0);

    // Table 5: payload examples include the proprietary leaks.
    let table5 = experiments::table5_payloads(&lab);
    let protocols: Vec<&str> = table5.iter().map(|e| e.protocol.as_str()).collect();
    assert!(protocols.contains(&"SSDP"));
    assert!(protocols.contains(&"TPLINK_SHP"));
    assert!(protocols.contains(&"TuyaLP"));

    // Appendix D.1: discovery traffic is overwhelmingly periodic.
    let appd1 = experiments::appd1_periodicity(&lab);
    assert!(
        appd1.report.discovery_periodic_fraction() > 0.5,
        "{}",
        appd1.report.discovery_periodic_fraction()
    );
    assert!(appd1.report.periodic_group_count() > 50);

    // pcap export/import must be byte-faithful.
    let image = lab.network.capture.to_pcap();
    let packets = iotlan::wire::pcap::read_pcap(&image).unwrap();
    assert_eq!(packets.len(), lab.network.capture.len());
    // Reassembling flows from the re-imported packets gives the same table.
    let mut reimported = FlowTable::default();
    for packet in &packets {
        let time = iotlan::netsim::SimTime(
            u64::from(packet.ts_sec) * 1_000_000 + u64::from(packet.ts_usec),
        );
        reimported.add_frame(time, &packet.data);
    }
    let original = lab.flow_table();
    assert_eq!(original.len(), reimported.len());
    assert_eq!(original.total_packets(), reimported.total_packets());
}

#[test]
fn determinism_across_runs() {
    let fingerprint = |seed: u64| {
        let mut lab = Lab::new(LabConfig {
            seed,
            idle_duration: SimDuration::from_mins(4),
            interactions: 10,
            with_honeypot: true,
        });
        lab.run_idle();
        lab.run_interactions(SimDuration::from_secs(30));
        let table = lab.flow_table();
        (
            lab.network.capture.len(),
            table.len(),
            table.total_packets(),
        )
    };
    assert_eq!(fingerprint(77), fingerprint(77));
    assert_ne!(fingerprint(77), fingerprint(78));
}

#[test]
#[ignore = "paper-scale convergence; run via scripts/verify.sh"]
fn five_day_statistics_converge_early() {
    // The §4.1 percentages are rates over devices; a 20-minute capture and
    // a 40-minute capture must broadly agree (the paper's 5 days buys the
    // rare events, not the common rates).
    let rates = |mins: u64| {
        let mut lab = Lab::new(LabConfig {
            seed: 5,
            idle_duration: SimDuration::from_mins(mins),
            interactions: 0,
            with_honeypot: false,
        });
        lab.run_idle();
        let fig2 = experiments::fig2_prevalence(&lab, None);
        (
            fig2.prevalence.passive_rate("mDNS"),
            fig2.prevalence.passive_rate("SSDP"),
        )
    };
    let (mdns_20, ssdp_20) = rates(20);
    let (mdns_40, ssdp_40) = rates(40);
    assert!((mdns_20 - mdns_40).abs() < 0.10, "{mdns_20} vs {mdns_40}");
    assert!((ssdp_20 - ssdp_40).abs() < 0.10, "{ssdp_20} vs {ssdp_40}");
}
