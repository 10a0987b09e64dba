//! Serial/parallel equivalence: every parallelized pipeline stage must be
//! a pure function of its inputs, never of the worker count.
//!
//! Each test computes the same artifact under `IOTLAN_THREADS` pinned to
//! 1 (the serial reference), 2 and 8, and asserts *byte* identity — full
//! datasets, rendered reports, pcap images. Any scheduling leak
//! (unordered reduction, chunking that moves with thread count, a worker
//! drawing from a shared RNG) fails these before it can corrupt a
//! paper-vs-measured comparison.

use iotlan::analysis::periodicity;
use iotlan::classify::{crossval, FlowTable};
use iotlan::inspector::{dataset, entropy};
use iotlan::netsim::SimDuration;
use iotlan::{experiments, Lab, LabConfig};
use iotlan_util::pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `build` once per thread count and assert all results equal the
/// serial (1-thread) reference.
fn assert_thread_count_invariant<R: PartialEq + std::fmt::Debug>(
    what: &str,
    build: impl Fn() -> R,
) {
    let reference = pool::with_threads(THREAD_COUNTS[0], &build);
    for threads in &THREAD_COUNTS[1..] {
        let result = pool::with_threads(*threads, &build);
        assert!(
            result == reference,
            "{what}: IOTLAN_THREADS={threads} diverged from the serial reference"
        );
    }
}

#[test]
fn dataset_generation_is_thread_count_invariant() {
    assert_thread_count_invariant("inspector::dataset::generate", || {
        dataset::generate(&dataset::GeneratorConfig {
            seed: 0xd5,
            households: 600,
        })
    });
}

#[test]
fn entropy_reports_are_thread_count_invariant() {
    let data = dataset::generate(&dataset::GeneratorConfig {
        seed: 0xe7,
        households: 500,
    });
    assert_thread_count_invariant("inspector::entropy::analyze", || {
        entropy::analyze(&data).render()
    });
}

#[test]
fn crossval_is_thread_count_invariant() {
    let mut lab = Lab::new(LabConfig {
        seed: 77,
        idle_duration: SimDuration::from_mins(3),
        interactions: 0,
        with_honeypot: false,
    });
    lab.run_idle();
    let table = lab.flow_table();
    assert_thread_count_invariant("classify::cross_validate", || {
        let cv = crossval::cross_validate(&table);
        format!(
            "{}\n{:?}\n{}",
            cv.matrix.render(),
            cv.agreement,
            cv.ssdp_share
        )
    });
}

#[test]
fn flow_labels_are_thread_count_invariant() {
    let mut lab = Lab::new(LabConfig {
        seed: 77,
        idle_duration: SimDuration::from_mins(3),
        interactions: 0,
        with_honeypot: false,
    });
    lab.run_idle();
    // A fresh table per thread count: a table labels its flows only once.
    let labels_at = |threads: usize| {
        pool::with_threads(threads, || {
            FlowTable::from_capture(&lab.network.capture)
                .labels()
                .to_vec()
        })
    };
    let serial = labels_at(1);
    assert_eq!(serial.len(), lab.flow_table().len());
    assert!(
        labels_at(4) == serial,
        "FlowTable::labels: IOTLAN_THREADS=4 diverged from the serial reference"
    );
}

#[test]
fn periodicity_is_thread_count_invariant() {
    let mut lab = Lab::new(LabConfig {
        seed: 77,
        idle_duration: SimDuration::from_mins(3),
        interactions: 0,
        with_honeypot: false,
    });
    lab.run_idle();
    // The whole report (every group's key, events and verdict), over a
    // fresh table per thread count so that the labels are redone too.
    let report_at = |threads: usize| {
        pool::with_threads(threads, || {
            let table = FlowTable::from_capture(&lab.network.capture);
            format!("{:?}", periodicity::analyze_periodicity(&table))
        })
    };
    let serial = report_at(1);
    assert!(serial.contains("periodic: true"));
    assert!(
        report_at(4) == serial,
        "analysis::periodicity::analyze_periodicity: IOTLAN_THREADS=4 diverged from the serial reference"
    );
}

#[test]
#[ignore = "runs the full report stack at three thread counts; run via scripts/verify.sh"]
fn full_report_pipeline_is_thread_count_invariant() {
    // The determinism suite's report stack, compared across worker counts
    // rather than across runs: dataset-backed Table 2 plus the
    // capture-backed figure set.
    assert_thread_count_invariant("experiments report stack", || {
        let mut lab = Lab::new(LabConfig {
            seed: 424,
            idle_duration: SimDuration::from_mins(2),
            interactions: 10,
            with_honeypot: true,
        });
        lab.run_idle();
        lab.run_interactions(SimDuration::from_mins(1));
        let mut report = String::new();
        report.push_str(&experiments::fig3_crossval(&lab).render());
        report.push_str(&experiments::table2_entropy(424).render());
        (lab.network.capture.to_pcap(), report)
    });
}
