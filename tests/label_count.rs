//! Labelling work per regeneration: every flow table labels its flows
//! once, however many artifacts read the labels.
//!
//! The `classify.flows_labelled` counter grows by a table's flow count
//! each time a table fills its label memo. Counters are process-global,
//! so this check has a test binary of its own.

use iotlan::apps::{build_population, AppCensusReport};
use iotlan::experiments;
use iotlan::netsim::SimDuration;
use iotlan::stream::engine::stream_capture;
use iotlan::{telemetry, Lab, LabConfig};

/// Apps the phone runs: the Fig. 2 bench's slice, as in the time-to-paper
/// benchmark's `fast` workload.
const APP_COUNT: usize = 160;

/// The `fast` seed-1 regeneration's flow-fed stages, in the benchmark's
/// order: the stream pass, then every artifact that reads a flow table.
/// One stream table and one batch table are labelled, each once.
#[test]
fn one_fast_regeneration_labels_each_table_once() {
    let _guard = telemetry::test_guard();
    telemetry::reset_all();
    let mut lab = Lab::new(LabConfig {
        seed: 1,
        ..LabConfig::fast()
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));
    let apps: Vec<_> = build_population().into_iter().take(APP_COUNT).collect();
    lab.deploy_phone(apps);
    let runs = lab.run_app_tests(APP_COUNT);
    let census = AppCensusReport::from_runs(&runs);
    let labelled = || telemetry::metrics::counter("classify.flows_labelled").get();
    assert_eq!(labelled(), 0, "the simulation labelled flows");

    let stream = stream_capture(&lab.network.capture, &lab.catalog);
    assert_eq!(labelled(), stream.table.len() as u64);
    let _ = stream.prevalence(&lab.catalog);
    experiments::fig1_device_graph(&lab);
    experiments::fig2_prevalence(&lab, Some(&census));
    experiments::fig3_crossval(&lab);
    experiments::fig4_vendor_clusters(&lab);
    experiments::table1_exposure(&lab);
    experiments::table4_responses(&lab);
    experiments::table5_payloads(&lab);
    experiments::sec51_discovery_stats(&lab);
    experiments::appd1_periodicity(&lab);

    let batch = lab.flow_table().len() as u64;
    assert_eq!(stream.table.len() as u64, batch);
    assert_eq!(labelled(), stream.table.len() as u64 + batch);
    assert_eq!(labelled(), 4_146, "flows labelled on seed 1");

    // The count reaches run manifests with the other metrics.
    let manifest = lab.finish_manifest().deterministic_json().pretty();
    assert!(
        manifest.contains("\"classify.flows_labelled\": 4146"),
        "{manifest}"
    );
}
