//! Shared setup for the bench targets.
//!
//! The `paper` target regenerates every table and figure from one
//! [`bench_lab`]: it prints each paper-vs-measured block once and then
//! measures the computation behind it, under one harness id per artifact,
//! with the in-tree `iotlan_util::bench` harness. A substring filter
//! (`-- fig1`) selects which ids are measured; every block is still
//! regenerated. Targets declare their entry point with
//! `iotlan_util::bench_main!(bench);`, which wires up command-line
//! configuration (`--quick`, `--sample-size N`, substring filters).
//!
//! The `perf_*` targets also print trajectory lines for
//! `scripts/bench_perf.sh` through [`emit_line`], from the medians
//! `bench_function` returns or from their own timed reps, whose lines carry
//! `reps` and the `min`/`max` spread.

use iotlan_core::netsim::SimDuration;
use iotlan_core::{Lab, LabConfig};
use iotlan_util::json;

/// The idle-capture scale used by the `paper` and ablation benches: long
/// enough for every periodic behaviour except the daily ARP sweep to fire
/// many times, short enough to keep bench turnaround reasonable.
pub fn bench_lab() -> Lab {
    let mut lab = Lab::new(LabConfig {
        seed: 42,
        idle_duration: SimDuration::from_hours(2),
        interactions: 200,
        with_honeypot: true,
    });
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(10));
    lab
}

/// Print one machine-readable trajectory line,
/// `{"type":kind,"id":id,…fields,"cores":N}`. `cores` is the host's
/// available parallelism, so a rate measured on a small host reads as such.
pub fn emit_line<'a>(
    kind: &str,
    id: &str,
    fields: impl IntoIterator<Item = (&'a str, json::Value)>,
) {
    let mut line = json::Map::new();
    line.insert("type".into(), json::Value::from(kind));
    line.insert("id".into(), json::Value::from(id));
    for (key, value) in fields {
        line.insert(key.into(), value);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    line.insert("cores".into(), json::Value::from(cores));
    println!("{}", json::Value::Object(line));
}

/// `count` events per second, given the nanoseconds they took.
pub fn per_sec(count: f64, elapsed_ns: f64) -> f64 {
    count / (elapsed_ns / 1e9).max(1e-9)
}
