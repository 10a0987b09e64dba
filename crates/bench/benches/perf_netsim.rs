//! Performance: simulator throughput (simulated seconds per wall second).
//!
//! Besides the `{"type":"bench",…}` medians, emits a
//! `{"type":"throughput",…}` JSON line with the end-to-end frame rate at
//! the AP tap — frames recorded per wall second across build, fault
//! verdict, capture and delivery — for the trajectory recorded by
//! `scripts/bench_perf.sh`. The idle stretch is timed on `reps` fresh warm
//! labs: `frames_per_sec` and `sim_secs_per_wall_sec` are the medians, and
//! `min`/`max` bound `frames_per_sec`. An `app_phase` line times the app
//! tests the same way: `run_app_tests` over the first `apps` population
//! apps (40 with `--quick`, 160 otherwise) on a fresh warm lab per rep,
//! the phone's harvest included. Both lines carry `deliveries`, the frames
//! one stretch handed to a node's `on_frame`: unlike the rates, that count
//! depends only on the code, so it compares across hosts.

use iotlan_bench::{emit_line, per_sec};
use iotlan_core::apps::build_population;
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

/// What one stretch did: the frames it recorded at the AP tap and the
/// frames it delivered to nodes. Every rep does the same.
struct Work {
    frames: usize,
    deliveries: u64,
}

/// Run `stretch` once on each of `reps` fresh warm labs. `stretch` returns
/// the wall nanoseconds of the part it times; the result is one stretch's
/// work and the times, sorted.
fn timed_reps(reps: usize, mut stretch: impl FnMut(&mut Lab) -> f64) -> (Work, Vec<f64>) {
    let mut work = Work {
        frames: 0,
        deliveries: 0,
    };
    let mut elapsed: Vec<f64> = (0..reps)
        .map(|_| {
            let mut lab = warm_lab();
            let frames = lab.network.capture.len();
            let deliveries = lab.network.frames_delivered();
            let elapsed = stretch(&mut lab);
            work = Work {
                frames: lab.network.capture.len() - frames,
                deliveries: lab.network.frames_delivered() - deliveries,
            };
            elapsed
        })
        .collect();
    elapsed.sort_by(f64::total_cmp);
    (work, elapsed)
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
    // second over a longer idle stretch, once per fresh warm lab.
    let span = SimDuration::from_mins(if quick { 2 } else { 10 });
    let reps = if quick { 3 } else { 9 };
    let (work, elapsed) = timed_reps(reps, |lab| {
        let start = Instant::now();
        lab.network.run_for(span);
        start.elapsed().as_nanos() as f64
    });
    let median = elapsed[reps / 2];
    let frame_rate = |elapsed: f64| json::Value::from(per_sec(work.frames as f64, elapsed));
    emit_line(
        "throughput",
        "testbed_idle_frames",
        [
            ("frames", json::Value::from(work.frames)),
            ("deliveries", json::Value::from(work.deliveries)),
            ("frames_per_sec", frame_rate(median)),
            (
                "sim_secs_per_wall_sec",
                json::Value::from(per_sec(span.as_secs_f64(), median)),
            ),
            ("reps", json::Value::from(reps)),
            ("min", frame_rate(elapsed[reps - 1])),
            ("max", frame_rate(elapsed[0])),
        ],
    );

    // The app phase: the whole `run_app_tests` call, every app's test
    // window plus the tail it waits out.
    let apps = if quick { 40 } else { 160 };
    let (work, elapsed) = timed_reps(reps, |lab| {
        lab.deploy_phone(build_population().into_iter().take(apps).collect());
        let start = Instant::now();
        lab.run_app_tests(apps);
        start.elapsed().as_nanos() as f64
    });
    let frame_rate = |elapsed: f64| json::Value::from(per_sec(work.frames as f64, elapsed));
    emit_line(
        "throughput",
        "app_phase",
        [
            ("apps", json::Value::from(apps)),
            ("frames", json::Value::from(work.frames)),
            ("deliveries", json::Value::from(work.deliveries)),
            ("frames_per_sec", frame_rate(elapsed[reps / 2])),
            ("reps", json::Value::from(reps)),
            ("min", frame_rate(elapsed[reps - 1])),
            ("max", frame_rate(elapsed[0])),
        ],
    );
}

iotlan_util::bench_main!(bench);
