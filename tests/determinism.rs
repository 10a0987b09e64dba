//! Regression: the whole pipeline is a pure function of the Lab seed.
//!
//! Two labs built from the same `LabConfig` must produce a byte-identical
//! pcap image AND identical rendered reports — any hidden nondeterminism
//! (map iteration order, time-of-day, an unseeded RNG draw) shows up here
//! before it can corrupt a paper-vs-measured comparison.

mod common;

use common::run;

#[test]
fn same_seed_same_pcap_and_report() {
    // The same-seed-twice check must hold at every worker count: the
    // parallel stages (dataset generation, crossval, entropy) promise
    // bit-identical artifacts whether one thread runs them or eight.
    for threads in [1usize, 2, 8] {
        let (pcap_a, report_a) = iotlan_util::pool::with_threads(threads, || run(1312));
        let (pcap_b, report_b) = iotlan_util::pool::with_threads(threads, || run(1312));
        assert_eq!(
            pcap_a, pcap_b,
            "pcap images diverged for identical seeds (threads={threads})"
        );
        assert_eq!(
            report_a, report_b,
            "reports diverged for identical seeds (threads={threads})"
        );
        assert!(!pcap_a.is_empty() && !report_a.is_empty());
    }
}

#[test]
fn different_seed_different_capture() {
    let (pcap_a, _) = run(1312);
    let (pcap_b, _) = run(1313);
    assert_ne!(
        pcap_a, pcap_b,
        "different seeds produced identical captures"
    );
}
