//! Performance: simulator throughput (simulated seconds per wall second).
//!
//! Besides the `{"type":"bench",…}` medians, emits a
//! `{"type":"throughput",…}` JSON line with the end-to-end frame rate at
//! the AP tap — frames recorded per wall second across build, fault
//! verdict, capture and delivery — for the trajectory recorded by
//! `scripts/bench_perf.sh`.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::netsim::SimDuration;
use iotlan_core::{Lab, LabConfig};
use iotlan_util::bench::Criterion;
use iotlan_util::json;
use std::time::Instant;

fn warm_lab() -> Lab {
    let mut lab = Lab::new(LabConfig {
        seed: 42,
        idle_duration: SimDuration::from_secs(10),
        interactions: 0,
        with_honeypot: false,
    });
    lab.run_idle(); // warm-up: DHCP joins etc.
    lab
}

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    c.bench_function("netsim/testbed_minute", |b| {
        b.iter_with_setup(warm_lab, |mut lab| {
            lab.network.run_for(SimDuration::from_mins(1));
            lab
        })
    });

    // Machine-readable throughput line: frames through the AP tap per wall
    // second over a longer idle stretch.
    let span = SimDuration::from_mins(if quick { 2 } else { 10 });
    let mut lab = warm_lab();
    let before = lab.network.capture.len();
    let start = Instant::now();
    lab.network.run_for(span);
    let elapsed = start.elapsed().as_nanos() as f64;
    let frames = lab.network.capture.len() - before;
    emit_line(
        "throughput",
        "testbed_idle_frames",
        [
            ("frames", json::Value::from(frames)),
            (
                "frames_per_sec",
                json::Value::from(per_sec(frames as f64, elapsed)),
            ),
            (
                "sim_secs_per_wall_sec",
                json::Value::from(per_sec(span.as_secs_f64(), elapsed)),
            ),
        ],
    );
}

iotlan_util::bench_main!(bench);
