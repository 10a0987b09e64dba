//! Time-to-paper benchmark for the iotlan workspace.
//!
//! One *regeneration* goes from a seed to every artifact of the paper. It
//! builds the lab, runs the idle capture, the scripted interactions and the
//! app tests, and streams the capture through the bounded-memory engine.
//! Then it computes Figs. 1–4, Tables 1–5, §4.2, §5.1, §5.2, §6 and
//! App. D.1. A run repeats the regeneration of one seed for `--seconds`
//! and reports medians: time to paper is the sum over stages of each
//! stage's median.
//!
//! ```sh
//! cargo run --release --offline --manifest-path ttpbench/Cargo.toml -- \
//!     --workload fast --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with the program's telemetry
//! switched off. `--trace 1` switches it on and reports per-layer times and
//! counts instead. The layer times are taken here,
//! around each call into the library, so they need no instrumentation
//! inside it. The layers inside the simulation (event loop, multicast
//! fan-out, per-node handlers) are reported as counts only; the receive
//! side of the wire layer is timed on its own, outside the regeneration,
//! by parsing the capture the way a receiving node does.
//!
//! Every stage time is rescaled to a reference host speed. Shared hosts
//! swing between fast and slow phases, so an untimed speed probe runs
//! between stages and each stage is scaled by the probe's speed at its two
//! ends. Every run also prints the unscaled time to paper
//! (`paper_wall_ms`) and its ratio to the rescaled one (`host_slowdown`)
//! above the result line. A change that slows the probe itself, such as
//! threads left spinning between stages, lowers the rescaled times; it
//! shows there as a `host_slowdown` that rises while `paper_wall_ms` does
//! not fall.
//!
//! The binary installs the counting allocator of `util::alloc` in every
//! run, so every figure includes its one relaxed atomic add per
//! allocation.
//!
//! Outputs are checked three ways. Every repetition must reproduce the
//! artifact digests of the first. The streaming report must equal the batch
//! analyses. A canary regeneration (seed 42, one pool thread) must match
//! the digests pinned in `ledger.txt`; `--bless` rewrites that ledger.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use iotlan_core::analysis::periodicity::PeriodicityReport;
use iotlan_core::analysis::responses;
use iotlan_core::apps::{build_population, AppCensusReport, AppConfig};
use iotlan_core::experiments;
use iotlan_core::inspector::dataset;
use iotlan_core::netsim::stack::{self, Content};
use iotlan_core::netsim::{Capture, SimDuration};
use iotlan_core::stream::engine::stream_capture;
use iotlan_core::telemetry::{self, fnv1a64, metrics};
use iotlan_core::util::{alloc, pool};
use iotlan_core::wire::{dns, ssdp};
use iotlan_core::{Lab, LabConfig};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed of the canary regeneration whose digests `ledger.txt` pins.
const CANARY_SEED: u64 = 42;
/// Repetitions measured even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Stand-alone set-ups timed for `setup_s`.
const SETUP_REPS: usize = 31;
/// Simulated span of the scripted interactions, as in
/// `examples/observability.rs` and the `perf_stream` bench.
const INTERACTION_SPAN_SECS: u64 = 60;
/// Simulated seconds per timed slice of the idle capture.
const IDLE_SLICE_SECS: u64 = 30;
/// Apps run on the phone: the slice the Fig. 2 bench runs.
const APP_COUNT: usize = 160;
/// `workload artifact digest` lines; see [`bless`].
const LEDGER: &str = include_str!("../ledger.txt");

/// One regeneration's lab configuration, taken from a configuration the
/// repository already runs. Every workload computes every artifact; they
/// differ in capture length, so in how the time splits between the
/// simulation and the analyses.
struct Workload {
    name: &'static str,
    config: fn() -> LabConfig,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fast",
        config: LabConfig::fast,
    },
    Workload {
        name: "perf_stream",
        config: perf_stream_config,
    },
];

/// The `perf_stream` bench's full capture: 20 min idle, 200 interactions.
fn perf_stream_config() -> LabConfig {
    LabConfig {
        idle_duration: SimDuration::from_mins(20),
        interactions: 200,
        ..LabConfig::fast()
    }
}

/// Consecutive timed stages: each [`Layers::mark`] closes the stage that
/// began at the previous mark.
/// Iterations of the speed probe's floating-point loop.
const PROBE_ITERATIONS: u32 = 250_000;
/// The probe's duration on an otherwise idle core of the reference host
/// (2-core Xeon VM): the speed every stage time is rescaled to.
const PROBE_REFERENCE_SECS: f64 = 2.4e-3;

/// Time a fixed floating-point loop. On a shared host, phases of a few to
/// tens of seconds slow this loop and a regeneration alike, by up to 1.5x;
/// rescaling each stage by the probe's speed at its two ends cancels most
/// of that swing.
fn probe() -> f64 {
    let started = Instant::now();
    let mut acc = 0f64;
    for k in 0..PROBE_ITERATIONS {
        acc += (f64::from(k) * 1e-3).sin();
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// One timed stage: its wall time and that time rescaled to the reference
/// host speed.
struct Stage {
    name: &'static str,
    wall: f64,
    scaled: f64,
}

/// Consecutive stages: each [`Layers::mark`] closes the stage that began
/// at the previous mark. The probes between stages are not timed.
struct Layers {
    last: Instant,
    last_probe: f64,
    stages: Vec<Stage>,
}

impl Layers {
    fn start() -> Layers {
        let last_probe = probe();
        Layers {
            last: Instant::now(),
            last_probe,
            stages: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        let wall = self.last.elapsed().as_secs_f64();
        let probe = probe();
        let scale = 2.0 * PROBE_REFERENCE_SECS / (self.last_probe + probe);
        self.stages.push(Stage {
            name,
            wall,
            scaled: wall * scale,
        });
        self.last_probe = probe;
        self.last = Instant::now();
    }

    fn total(&self) -> f64 {
        self.stages.iter().map(|stage| stage.scaled).sum()
    }

    fn total_wall(&self) -> f64 {
        self.stages.iter().map(|stage| stage.wall).sum()
    }
}

/// One measured regeneration.
struct Regeneration {
    layers: Layers,
    allocations: u64,
    /// `(name, value)` work counts, read after the last artifact.
    counts: Vec<(&'static str, f64)>,
    /// `(artifact, fnv1a64)` in a fixed order.
    digests: Vec<(&'static str, u64)>,
    /// Failed output checks.
    problems: Vec<String>,
}

impl Regeneration {
    fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(count, _)| *count == name)
            .map_or(0.0, |(_, value)| *value)
    }
}

/// Every group's verdict, one line each; the period is rounded so that a
/// last-bit change in the detector does not count as a new verdict.
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

/// Set-up: everything built from the seed before simulation starts.
fn set_up(workload: &Workload, seed: u64) -> (Lab, Vec<AppConfig>) {
    let lab = Lab::new(LabConfig {
        seed,
        ..(workload.config)()
    });
    let apps = build_population().into_iter().take(APP_COUNT).collect();
    (lab, apps)
}

/// Parse the capture the way each receiving node parses a delivered
/// frame: `stack::dissect`, then the mDNS or SSDP payload as the device
/// handlers do. Returns the seconds spent dissecting, the seconds spent
/// parsing payloads, the payload count, and the payloads that failed.
fn time_wire(capture: &Capture) -> (f64, f64, usize, usize) {
    let started = Instant::now();
    let mut payloads = Vec::new();
    for frame in capture.frames() {
        if let Some(dissected) = stack::dissect(frame.data()) {
            if let Content::UdpV4 { dport, payload, .. } | Content::UdpV6 { dport, payload, .. } =
                dissected.content
            {
                if dport == dns::MDNS_PORT || dport == ssdp::SSDP_PORT {
                    payloads.push((dport, payload));
                }
            }
        }
    }
    let dissect_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut malformed = 0;
    for (dport, payload) in &payloads {
        let parsed = if *dport == dns::MDNS_PORT {
            std::hint::black_box(dns::Message::parse(payload)).is_ok()
        } else {
            std::hint::black_box(ssdp::Message::parse(payload)).is_ok()
        };
        malformed += usize::from(!parsed);
    }
    (dissect_secs, started.elapsed().as_secs_f64(), payloads.len(), malformed)
}

fn regenerate(workload: &Workload, seed: u64) -> Regeneration {
    let allocations_before = alloc::allocation_count();
    let mut layers = Layers::start();
    let (mut lab, apps) = set_up(workload, seed);
    layers.mark("setup");

    // The idle capture runs in slices, each timed on its own. The event
    // loop carries pending events across calls, so the slices replay the
    // exact event sequence of one `Lab::run_idle`.
    let mut idle_left = (workload.config)().idle_duration.as_secs();
    while idle_left > 0 {
        let slice = idle_left.min(IDLE_SLICE_SECS);
        lab.network.run_for(SimDuration::from_secs(slice));
        idle_left -= slice;
        layers.mark("sim_idle");
    }
    lab.run_interactions(SimDuration::from_secs(INTERACTION_SPAN_SECS));
    layers.mark("sim_interactions");
    let app_count = apps.len();
    lab.deploy_phone(apps);
    let runs = lab.run_app_tests(app_count);
    let census = AppCensusReport::from_runs(&runs);
    layers.mark("sim_apps");

    let stream = stream_capture(&lab.network.capture, &lab.catalog);
    layers.mark("stream");

    let fig1 = experiments::fig1_device_graph(&lab);
    let fig1_text = fig1.render();
    layers.mark("fig1");
    let fig2 = experiments::fig2_prevalence(&lab, Some(&census));
    let fig2_text = fig2.render();
    layers.mark("fig2");
    let fig3 = experiments::fig3_crossval(&lab).render();
    layers.mark("fig3");
    let fig4 = experiments::fig4_vendor_clusters(&lab).render();
    layers.mark("fig4");
    let table1 = experiments::table1_exposure(&lab).render();
    layers.mark("table1");
    let crowd = experiments::table2_entropy(seed);
    let table2 = crowd.render();
    layers.mark("table2");
    let table3 = experiments::table3_inventory(&lab.catalog);
    layers.mark("table3");
    let table4 = responses::render(&experiments::table4_responses(&lab));
    layers.mark("table4");
    let mut table5 = String::new();
    for example in experiments::table5_payloads(&lab) {
        let _ = writeln!(table5, "{}\t{}", example.protocol, example.rendered);
    }
    layers.mark("table5");
    let sec42 = experiments::sec42_active_scans(&lab.catalog).render();
    layers.mark("sec42");
    let sec51 = experiments::sec51_discovery_stats(&lab).render();
    layers.mark("sec51");
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
    layers.mark("sec52");
    let sec6 = experiments::sec6_exfiltration(&census);
    layers.mark("sec6");
    let appd1 = experiments::appd1_periodicity(&lab);
    let appd1_text = appd1.render() + &periodicity_verdicts(&appd1.report);
    layers.mark("appd1");
    let allocations = alloc::allocation_count() - allocations_before;

    // Everything below checks or counts; none of it is timed.
    let pcap = lab.network.capture.to_pcap();
    let artifacts: [(&'static str, &[u8]); 15] = [
        ("capture.pcap", &pcap),
        ("fig1", fig1_text.as_bytes()),
        ("fig2", fig2_text.as_bytes()),
        ("fig3", fig3.as_bytes()),
        ("fig4", fig4.as_bytes()),
        ("table1", table1.as_bytes()),
        ("table2", table2.as_bytes()),
        ("table3", table3.as_bytes()),
        ("table4", table4.as_bytes()),
        ("table5", table5.as_bytes()),
        ("sec42", sec42.as_bytes()),
        ("sec51", sec51.as_bytes()),
        ("sec52", sec52.as_bytes()),
        ("sec6", sec6.as_bytes()),
        ("appd1", appd1_text.as_bytes()),
    ];
    let mut problems = Vec::new();
    for (name, bytes) in &artifacts {
        if bytes.is_empty() {
            problems.push(format!("{name} is empty"));
        }
    }
    let households = dataset::GeneratorConfig::default().households;
    if crowd.dataset_households != households {
        problems.push(format!(
            "Table 2 analysed {} of {households} households",
            crowd.dataset_households
        ));
    }
    if runs.len() != app_count {
        problems.push(format!("{} of {app_count} app tests completed", runs.len()));
    }
    let frames = lab.network.capture.len();
    if stream.packets != frames as u64 {
        problems.push(format!("stream saw {} of {frames} frames", stream.packets));
    }
    if stream.graph(&lab.catalog).render() != fig1.graph.render() {
        problems.push("stream Fig. 1 graph differs from batch".into());
    }
    if stream.prevalence(&lab.catalog).passive != fig2.prevalence.passive {
        problems.push("stream Fig. 2 passive prevalence differs from batch".into());
    }
    if responses::render(&stream.discovery_response_rows(&lab.catalog)) != table4 {
        problems.push("stream Table 4 differs from batch".into());
    }
    // The detectors are shared code, so equal inputs mean equal verdicts.
    // Beyond the engine's per-key event cap its events are a documented
    // prefix sample, not the batch input.
    let batch_groups = appd1.report.groups.iter().map(|g| (&g.key, &g.events));
    if stream.periodicity_exact && !stream.periodicity_groups.iter().eq(batch_groups) {
        problems.push("stream App. D.1 event series differ from batch".into());
    }

    let (dissect_secs, payload_secs, payloads, malformed) = time_wire(&lab.network.capture);
    if malformed > 0 {
        problems.push(format!("{malformed} of {payloads} mDNS/SSDP payloads fail to parse"));
    }

    let counter = |name: &'static str| metrics::counter(name).get() as f64;
    let pool_stats = pool::stats();
    let counts = vec![
        ("frames_sent", lab.network.frames_sent() as f64),
        ("frames_delivered", counter("netsim.frames_delivered")),
        ("timers_fired", counter("devices.timers_fired")),
        ("capture_bytes", lab.network.capture.arena_bytes() as f64),
        ("stream_peak_state_bytes", stream.peak_state_bytes as f64),
        ("stream_flow_keys", stream.flow_keys as f64),
        ("appd1_groups", appd1.report.groups.len() as f64),
        ("pool_tasks", pool_stats.total_tasks() as f64),
        ("pool_steals", pool_stats.total_steals() as f64),
        ("pool_busy_ms", pool_stats.total_busy_nanos() as f64 / 1e6),
        ("wire_dissect_ms", dissect_secs * 1e3),
        ("wire_mdns_ssdp_ms", payload_secs * 1e3),
        ("mdns_ssdp_payloads", payloads as f64),
    ];
    Regeneration {
        layers,
        allocations,
        counts,
        digests: artifacts
            .iter()
            .map(|(name, bytes)| (*name, fnv1a64(bytes)))
            .collect(),
        problems,
    }
}

/// The digest `ledger.txt` pins for `artifact` of `workload`'s canary.
fn pinned_digest(workload: &str, artifact: &str) -> Option<u64> {
    LEDGER.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != workload || fields.next()? != artifact {
            return None;
        }
        u64::from_str_radix(fields.next()?, 16).ok()
    })
}

/// Rewrite `ledger.txt` from one canary regeneration per workload.
fn bless() -> ExitCode {
    let mut ledger = String::from(
        "# fnv1a64 digests of every artifact of the canary regeneration\n\
         # (seed 42) of each workload. Rewrite with `-- --bless`.\n",
    );
    for workload in &WORKLOADS {
        let regeneration = regenerate(workload, CANARY_SEED);
        if !regeneration.problems.is_empty() {
            eprintln!("{}: {:?}", workload.name, regeneration.problems);
            return ExitCode::FAILURE;
        }
        for (artifact, digest) in &regeneration.digests {
            let _ = writeln!(ledger, "{} {artifact} {digest:016x}", workload.name);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ledger.txt");
    if let Err(error) = std::fs::write(path, ledger) {
        eprintln!("cannot write {path}: {error}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--bless" {
            return Ok(None);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return bless(),
        Err(message) => {
            eprintln!("ttpbench: {message}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    telemetry::set_enabled(args.trace);

    // The canary doubles as the warm-up. It runs on one pool thread and the
    // ledger is written at the default thread count, so a match also shows
    // that the artifacts do not depend on the thread count.
    let canary = pool::with_threads(1, || regenerate(workload, CANARY_SEED));
    let mut problems: Vec<String> = canary
        .problems
        .iter()
        .map(|p| format!("canary: {p}"))
        .collect();
    for (artifact, digest) in &canary.digests {
        let pinned = pinned_digest(workload.name, artifact);
        if pinned != Some(*digest) {
            problems.push(format!(
                "canary {artifact} is {digest:016x}, ledger.txt pins {pinned:016x?}"
            ));
        }
    }

    let setup_s = median(
        (0..SETUP_REPS)
            .map(|_| {
                let mut layers = Layers::start();
                let built = set_up(workload, args.seed);
                layers.mark("setup");
                drop(built);
                layers.total()
            })
            .collect(),
    );

    let mut reps: Vec<Regeneration> = Vec::new();
    let mut failed = 0usize;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        telemetry::reset_all();
        let rep = regenerate(workload, args.seed);
        let mut bad = !rep.problems.is_empty();
        problems.extend(rep.problems.iter().cloned());
        if let Some(first) = reps.first() {
            if first.digests != rep.digests {
                bad = true;
                problems.push(format!("repetition {} changed its digests", reps.len()));
            }
        }
        failed += usize::from(bad);
        reps.push(rep);
    }
    let totals: Vec<String> = reps
        .iter()
        .map(|r| {
            format!(
                "{:.0}/{:.0}",
                r.layers.total() * 1e3,
                r.layers.total_wall() * 1e3
            )
        })
        .collect();
    eprintln!(
        "ttpbench: regeneration ms (rescaled/wall): {}",
        totals.join(" ")
    );
    for problem in problems.iter().take(20) {
        eprintln!("ttpbench: {problem}");
    }

    // Time to paper is the sum of each stage's median, so a slow host phase
    // during one stage of one repetition moves only that stage's sample.
    // Idle slices are stages of their own and add up under one name.
    let per_rep = |f: &dyn Fn(&Regeneration) -> f64| median(reps.iter().map(f).collect());
    let mut stages: Vec<(&str, f64)> = Vec::new();
    for (index, stage) in reps[0].layers.stages.iter().enumerate() {
        let secs = per_rep(&|r| r.layers.stages[index].scaled);
        match stages.last_mut() {
            Some((name, total)) if *name == stage.name => *total += secs,
            _ => stages.push((stage.name, secs)),
        }
    }
    let paper_secs: f64 = stages.iter().map(|(_, secs)| secs).sum();
    let paper_wall_ms = per_rep(&|r| r.layers.total_wall() * 1e3);
    let host_slowdown = per_rep(&|r| r.layers.total_wall() / r.layers.total());
    // Simulation speed is taken on the idle capture, the one simulation
    // phase split into slices; the interaction and app phases are single
    // stages and count only in time to paper.
    let idle_secs = (workload.config)().idle_duration.as_secs() as f64;
    let idle_wall: f64 = stages
        .iter()
        .filter(|(name, _)| *name == "sim_idle")
        .map(|(_, secs)| secs)
        .sum();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        metrics.push(("paper_traced_ms".into(), paper_secs * 1e3, "ms"));
        metrics.push(("paper_wall_ms".into(), paper_wall_ms, "ms"));
        metrics.push(("host_slowdown".into(), host_slowdown, "ratio"));
        for (name, secs) in &stages {
            metrics.push((format!("{name}_ms"), secs * 1e3, "ms"));
        }
        metrics.push((
            "allocations".into(),
            per_rep(&|r| r.allocations as f64),
            "count",
        ));
        for (index, (name, _)) in reps[0].counts.iter().enumerate() {
            let unit = if name.ends_with("_ms") { "ms" } else { "count" };
            metrics.push((name.to_string(), per_rep(&|r| r.counts[index].1), unit));
        }
        metrics.push((
            "peak_rss_mib".into(),
            peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ));
        let fanout = per_rep(&|r| r.count("frames_delivered") / r.count("frames_sent").max(1.0));
        metrics.push(("fanout_per_frame".into(), fanout, "ratio"));
    } else {
        metrics.push(("paper_ms".into(), paper_secs * 1e3, "ms"));
        metrics.push(("sim_s_per_wall_s".into(), idle_secs / idle_wall, "s/s"));
        metrics.push(("setup_s".into(), setup_s, "s"));
    }

    println!(
        "ttpbench: workload={} seed={} reps={} threads={} canary_ms={:.1} \
         paper_wall_ms={paper_wall_ms:.1} host_slowdown={host_slowdown:.3}",
        workload.name,
        args.seed,
        reps.len(),
        pool::thread_count(),
        canary.layers.total() * 1e3,
    );
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
            continue;
        }
        println!("  {name:<26} {value:>14.4} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        problems.is_empty(),
        reps.len(),
    );
    ExitCode::SUCCESS
}
