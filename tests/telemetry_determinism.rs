//! The observability determinism contract (acceptance gate for the
//! telemetry layer): metric snapshots and run manifests — in their
//! deterministic views — are **byte-identical** across `IOTLAN_THREADS`
//! settings and across repeated same-seed runs.
//!
//! This is what makes the telemetry trustworthy as a debugging instrument:
//! if a parallel run's manifest differed from the serial run's, "diff the
//! manifests" could never distinguish a real behavioural divergence from
//! scheduling noise. Host-volatile facts (wall clocks, worker busy time,
//! allocation counts) are confined to the manifests' `"host"` section and
//! phase `wall_nanos`, which are deliberately NOT compared here.
//!
//! Telemetry state is process-global, so every test serializes on
//! `telemetry::test_guard()`.

use iotlan::inspector::dataset::{generate, GeneratorConfig};
use iotlan::inspector::entropy;
use iotlan::netsim::SimDuration;
use iotlan::scan::scan_catalog;
use iotlan::stream::engine::stream_capture;
use iotlan::util::pool;
use iotlan::{telemetry, Lab, LabConfig};

fn lab_config() -> LabConfig {
    LabConfig {
        seed: 1312,
        idle_duration: SimDuration::from_mins(2),
        interactions: 10,
        with_honeypot: true,
    }
}

/// Every deterministic artifact the instrumented pipeline emits, rendered
/// to comparable strings. One call runs the whole stack: lab phases,
/// active scan, honeypot campaign, streaming pass and the pool-fanned
/// Table 2 entropy analysis.
#[derive(Debug, PartialEq, Eq)]
struct Artifacts {
    metrics: String,
    lab_manifest: String,
    stream_manifest: String,
    scan_manifest: String,
    honeypot_manifest: String,
    table2: String,
}

fn pipeline_artifacts() -> Artifacts {
    telemetry::reset_all();

    let mut lab = Lab::new(lab_config());
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));

    let scan = scan_catalog(&lab.catalog);
    let scan_manifest = scan.campaign_manifest().deterministic_json().pretty();
    let honeypot_manifest = lab
        .honeypot()
        .expect("config deploys the honeypot")
        .campaign_manifest()
        .deterministic_json()
        .pretty();

    let report = stream_capture(&lab.network.capture, &lab.catalog);
    let stream_manifest = report.manifest(&lab.catalog).deterministic_json().pretty();

    let dataset = generate(&GeneratorConfig {
        seed: 0xc0ffee,
        households: 100,
    });
    let table2 = entropy::analyze(&dataset).render();

    let lab_manifest = lab.finish_manifest().deterministic_json().pretty();

    let metrics = telemetry::snapshot().pretty();

    Artifacts {
        metrics,
        lab_manifest,
        stream_manifest,
        scan_manifest,
        honeypot_manifest,
        table2,
    }
}

#[test]
fn artifacts_byte_identical_across_thread_counts() {
    let _guard = telemetry::test_guard();
    let reference = pool::with_threads(1, pipeline_artifacts);
    for threads in [2usize, 8] {
        let parallel = pool::with_threads(threads, pipeline_artifacts);
        assert_eq!(
            reference.metrics, parallel.metrics,
            "metric snapshot diverged at {threads} threads"
        );
        assert_eq!(
            reference, parallel,
            "some artifact diverged at {threads} threads"
        );
    }
}

#[test]
fn artifacts_byte_identical_across_repeated_runs() {
    let _guard = telemetry::test_guard();
    let first = pool::with_threads(2, pipeline_artifacts);
    let second = pool::with_threads(2, pipeline_artifacts);
    assert_eq!(first, second, "same-seed artifacts diverged run-to-run");
}

#[test]
fn artifacts_carry_the_instrumentation() {
    let _guard = telemetry::test_guard();
    let artifacts = pool::with_threads(2, pipeline_artifacts);

    // The metric snapshot covers every instrumented layer.
    for metric in [
        "netsim.frames_sent",
        "netsim.frames_delivered",
        "devices.mdns_queries",
        "stream.packets",
        "stream.flow_keys_created",
        "classify.flows_labelled",
        "scan.devices_scanned",
        "honeypot.interactions",
    ] {
        assert!(
            artifacts.metrics.contains(metric),
            "metrics snapshot is missing {metric}:\n{}",
            artifacts.metrics
        );
    }

    // Manifests carry their kinds, phases and content digests.
    assert!(artifacts.lab_manifest.contains("\"kind\": \"lab\""));
    for phase in ["\"build\"", "\"idle\"", "\"interactions\""] {
        assert!(artifacts.lab_manifest.contains(phase), "no {phase} phase");
    }
    assert!(artifacts.lab_manifest.contains("capture.pcap"));
    assert!(artifacts
        .stream_manifest
        .contains("\"kind\": \"stream_pass\""));
    assert!(artifacts
        .scan_manifest
        .contains("\"kind\": \"scan_campaign\""));
    assert!(artifacts
        .honeypot_manifest
        .contains("\"kind\": \"honeypot_campaign\""));

    // And none of the deterministic views leak host-volatile facts.
    for rendered in [
        &artifacts.lab_manifest,
        &artifacts.stream_manifest,
        &artifacts.scan_manifest,
        &artifacts.honeypot_manifest,
    ] {
        assert!(!rendered.contains("\"host\""), "host section leaked");
        assert!(!rendered.contains("wall_nanos"), "wall stamps leaked");
    }
}
