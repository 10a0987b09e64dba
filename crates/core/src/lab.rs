//! The MonIoTr-style lab: a capturing AP, a router, the 93-device catalog,
//! honeypots, and the instrumented phone — assembled on one simulated LAN.
//!
//! §3.1's data collection is reproduced as:
//! * **idle capture** — run the network with no interactions (the paper
//!   ran five consecutive days; the duration is configurable because the
//!   statistics converge much earlier);
//! * **interactions** — scripted control actions (companion-app commands)
//!   injected at a configurable count (the paper ran 7,191);
//! * **honeypots** — decoy nodes recording who scans, with canary
//!   identifiers planted in every response;
//! * **app testing** — the phone exercises the app population one app at
//!   a time.

use iotlan_apps::{AppConfig, Phone};
use iotlan_devices::{build_testbed, Catalog, Device};
use iotlan_honeypot::Honeypot;
use iotlan_netsim::router::{Router, GATEWAY_MAC};
use iotlan_netsim::stack::{self, Endpoint};
use iotlan_netsim::{FrameSink, Network, NodeId, SimDuration};
use iotlan_telemetry::Manifest;
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::{tcp, tplink};
use iotlan_util::json;
use iotlan_util::rng::Rng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Lab configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    pub seed: u64,
    /// Idle-capture duration.
    pub idle_duration: SimDuration,
    /// Number of scripted device interactions (paper: 7,191).
    pub interactions: u32,
    /// Deploy the honeypot node.
    pub with_honeypot: bool,
}

impl LabConfig {
    /// Small config for tests: minutes of sim time, few interactions.
    pub fn fast() -> LabConfig {
        LabConfig {
            seed: 42,
            idle_duration: SimDuration::from_mins(6),
            interactions: 40,
            with_honeypot: true,
        }
    }

    /// The bench config: long enough for daily events to matter.
    pub fn paper_scale() -> LabConfig {
        LabConfig {
            seed: 42,
            idle_duration: SimDuration::from_hours(30),
            interactions: 7_191,
            with_honeypot: true,
        }
    }
}

/// The assembled lab.
pub struct Lab {
    pub config: LabConfig,
    pub catalog: Catalog,
    pub network: Network,
    pub honeypot_id: Option<NodeId>,
    /// Run manifest under construction; `run_*` methods append phases and
    /// [`Lab::finish_manifest`] seals it (DESIGN.md §9).
    pub manifest: Manifest,
    phone_id: Option<NodeId>,
    interaction_rng: Rng,
}

/// MAC/IP of the lab's interaction controller (stands in for the paired
/// Pixel/iPhone issuing companion-app commands).
const CONTROLLER_MAC: EthernetAddress = EthernetAddress([0x02, 0x0c, 0x0a, 0x00, 0x00, 0x02]);
const CONTROLLER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 241);

/// The honeypot's address.
const HONEYPOT_MAC: EthernetAddress = EthernetAddress([0x02, 0xca, 0x4a, 0x00, 0x00, 0x03]);
const HONEYPOT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 200);

/// One companion-app control action the lab controller can issue.
/// Controllable targets: TP-Link plugs (SHP over TCP), HTTP devices, TLS
/// devices.
#[derive(Clone)]
enum Action {
    TplinkRelay(Endpoint),
    HttpGet(Endpoint, u16, String),
    TlsPing(Endpoint, u16),
}

impl Lab {
    /// Build the full testbed.
    pub fn new(config: LabConfig) -> Lab {
        let _span = iotlan_telemetry::span!("lab.build");
        let catalog = build_testbed();
        let mut network = Network::new(config.seed);
        network.add_node(Box::new(Router::new()));
        for device_config in &catalog.devices {
            network.add_node(Box::new(Device::new(device_config.clone())));
        }
        let honeypot_id = if config.with_honeypot {
            Some(network.add_node(Box::new(Honeypot::new(HONEYPOT_MAC, HONEYPOT_IP))))
        } else {
            None
        };
        let mut manifest = Manifest::new("lab");
        manifest.set("seed", config.seed);
        manifest.set("idle_micros", config.idle_duration.as_micros());
        manifest.set("interactions", u64::from(config.interactions));
        manifest.set("with_honeypot", config.with_honeypot);
        manifest.set("nodes", network.node_count() as u64);
        Lab {
            interaction_rng: Rng::seed_from_u64(config.seed ^ 0xfeed),
            config,
            catalog,
            network,
            honeypot_id,
            manifest,
            phone_id: None,
        }
    }

    /// Close a manifest phase stamped with the network's simulated clock
    /// (the event loop retracts the thread-local clock on return, so the
    /// stamp must be re-published for the duration of the bookkeeping).
    fn finish_sim_phase(&mut self, timer: iotlan_telemetry::manifest::PhaseTimer) {
        let _scope = iotlan_telemetry::clock::sim_scope(self.network.now().as_micros());
        self.manifest.finish_phase(timer);
    }

    /// Run the idle capture (§3.1's five-day no-interaction collection).
    pub fn run_idle(&mut self) {
        let _span = iotlan_telemetry::span!("lab.idle");
        let timer = self.manifest.phase_timer("idle");
        let duration = self.config.idle_duration;
        self.network.run_for(duration);
        self.finish_sim_phase(timer);
    }

    /// The controllable-action pool, derived purely from the catalog (one
    /// entry per device×capability, in catalog order, so the interaction
    /// RNG draws the same sequence in batch and streaming runs).
    fn controllable_actions(&self) -> Vec<Action> {
        let mut actions: Vec<Action> = Vec::new();
        for device in &self.catalog.devices {
            let endpoint = Endpoint {
                mac: device.mac,
                ip: device.ip,
            };
            if device.open_tcp.iter().any(|s| s.port == 9999) {
                actions.push(Action::TplinkRelay(endpoint));
            }
            if let Some(http) = device
                .open_tcp
                .iter()
                .find(|s| s.service.is_http())
            {
                actions.push(Action::HttpGet(endpoint, http.port, "/".into()));
            }
            if let Some(tls) = device.open_tcp.iter().find(|s| s.service.is_tls()) {
                actions.push(Action::TlsPing(endpoint, tls.port));
            }
        }
        actions
    }

    /// Draw one action from the interaction stream and inject its frames.
    /// Advances `interaction_rng` by exactly one draw per call.
    fn inject_interaction(&mut self, index: u32, actions: &[Action]) {
        let controller = Endpoint {
            mac: CONTROLLER_MAC,
            ip: CONTROLLER_IP,
        };
        let action = actions[self.interaction_rng.gen_range(0..actions.len())].clone();
        let sport = 50000 + (index % 10000) as u16;
        match action {
            Action::TplinkRelay(target) => {
                let on = index % 2 == 0;
                let command = tplink::Message::set_relay_state(on).to_tcp_bytes();
                self.network.inject_frame(stack::tcp_segment(
                    controller,
                    target,
                    &tcp::Repr::syn(sport, 9999, u32::from(index)),
                    &[],
                ));
                self.network.inject_frame(stack::tcp_segment(
                    controller,
                    target,
                    &tcp::Repr::data(sport, 9999, u32::from(index) + 1, 0x2001, command.len()),
                    &command,
                ));
            }
            Action::HttpGet(target, port, path) => {
                let request =
                    iotlan_wire::http::Request::get(&path, iotlan_wire::http::Headers::new())
                        .to_bytes();
                self.network.inject_frame(stack::tcp_segment(
                    controller,
                    target,
                    &tcp::Repr::data(sport, port, 1, 0x2001, request.len()),
                    &request,
                ));
            }
            Action::TlsPing(target, port) => {
                let hello = iotlan_wire::tls::Handshake::ClientHello {
                    version: iotlan_wire::tls::Version::Tls12,
                    supported_versions: vec![],
                    server_name: None,
                    cipher_suites: vec![0xc02f],
                }
                .into_record(iotlan_wire::tls::Version::Tls12)
                .to_bytes();
                self.network.inject_frame(stack::tcp_segment(
                    controller,
                    target,
                    &tcp::Repr::data(sport, port, 1, 0x2001, hello.len()),
                    &hello,
                ));
            }
        }
    }

    /// Inject scripted interactions: companion-style control commands to
    /// random controllable devices, spaced through `span`.
    pub fn run_interactions(&mut self, span: SimDuration) {
        let _span = iotlan_telemetry::span!("lab.interactions");
        let timer = self.manifest.phase_timer("interactions");
        self.interaction_script(span, |lab, step| lab.network.run_for(step));
        self.finish_sim_phase(timer);
    }

    /// The interaction script: each interaction is injected and then
    /// `advance` simulates one equal step of `span`. With no interactions
    /// configured, `advance` simulates all of `span` at once.
    fn interaction_script(
        &mut self,
        span: SimDuration,
        mut advance: impl FnMut(&mut Lab, SimDuration),
    ) {
        let count = self.config.interactions;
        if count == 0 {
            advance(self, span);
            return;
        }
        let step = SimDuration::from_micros(span.as_micros() / u64::from(count));
        let actions = self.controllable_actions();
        for index in 0..count {
            self.inject_interaction(index, &actions);
            advance(self, step);
        }
    }

    /// Run `span` of simulation in `window`-sized slices, draining the AP
    /// capture into `sink` after each slice. The event queue processes
    /// events in `(time, seq)` order with an inclusive deadline and carries
    /// pending events across calls, so `run_for(a); run_for(b)` dispatches
    /// the exact event sequence of `run_for(a + b)` — the drained frame
    /// stream is byte-identical to a batch capture of the same span. Like
    /// one `run_for(span)`, a zero span still dispatches the events due now.
    fn run_windowed(&mut self, span: SimDuration, window: SimDuration, sink: &mut impl FrameSink) {
        let mut remaining = span.as_micros();
        let window_micros = window.as_micros().max(1);
        loop {
            let slice = remaining.min(window_micros);
            self.network.run_for(SimDuration::from_micros(slice));
            self.network.capture.drain_into(sink);
            remaining -= slice;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Run the full collection — the idle capture plus the configured
    /// interaction script over `interaction_span` — feeding every captured
    /// frame into `sink` and keeping at most one `window` of frames
    /// buffered at the AP.
    ///
    /// This produces the *identical* frame sequence as
    /// `run_idle()` + `run_interactions(interaction_span)` on a fresh lab
    /// with the same config: the simulation split is exact (see
    /// `run_windowed`) and the interaction RNG draws the same action
    /// sequence. The difference is memory: the batch path materializes the
    /// whole capture; this path is O(window).
    pub fn run_streaming(
        &mut self,
        interaction_span: SimDuration,
        window: SimDuration,
        sink: &mut impl FrameSink,
    ) {
        let _span = iotlan_telemetry::span!("lab.streaming");
        let idle = self.config.idle_duration;
        let timer = self.manifest.phase_timer("streaming.idle");
        self.run_windowed(idle, window, sink);
        self.finish_sim_phase(timer);
        let timer = self.manifest.phase_timer("streaming.interactions");
        self.interaction_script(interaction_span, |lab, step| {
            lab.run_windowed(step, window, sink)
        });
        self.finish_sim_phase(timer);
    }

    /// [`run_streaming`](Lab::run_streaming) into a fresh
    /// [`StreamEngine`](iotlan_stream::StreamEngine), returning the
    /// finished report. The engine snapshots the catalog up front, so the
    /// whole idle + interaction collection runs in bounded memory.
    pub fn run_streaming_report(
        &mut self,
        interaction_span: SimDuration,
        window: SimDuration,
    ) -> iotlan_stream::StreamReport {
        let mut engine = iotlan_stream::StreamEngine::new(&self.catalog);
        self.run_streaming(interaction_span, window, &mut engine);
        engine
            .finish()
            .expect("frame-fed engine has no pcap parse errors")
    }

    /// Deploy the instrumented phone with an app list; runs during
    /// subsequent `run_*` calls.
    pub fn deploy_phone(&mut self, apps: Vec<AppConfig>) -> NodeId {
        let mut phone = Phone::new(
            EthernetAddress([0x02, 0x91, 0x0e, 0x00, 0x00, 0x01]),
            Ipv4Addr::new(192, 168, 10, 240),
            "MonIoTr-Lab",
            GATEWAY_MAC,
            apps,
        );
        // Pair with the Nest Hub for TLS tests (port 8009).
        if let Some(nest) = self.catalog.find("Google Nest Hub") {
            phone.pair_tls_target(nest.ip, nest.mac);
        }
        let id = self.network.add_node(Box::new(phone));
        self.phone_id = Some(id);
        id
    }

    /// Run long enough for all `n` deployed apps to finish, then return the
    /// completed runs.
    pub fn run_app_tests(&mut self, app_count: usize) -> Vec<iotlan_apps::TestRun> {
        let _span = iotlan_telemetry::span!("lab.app_tests");
        let timer = self.manifest.phase_timer("app_tests");
        let span = Phone::schedule_length(app_count) + SimDuration::from_secs(5);
        self.network.run_for(span);
        self.finish_sim_phase(timer);
        let Some(id) = self.phone_id else {
            return Vec::new();
        };
        self.network
            .node(id)
            .as_any()
            .downcast_ref::<Phone>()
            .map(|p| p.runs.clone())
            .unwrap_or_default()
    }

    /// The honeypot's interaction log, if deployed.
    pub fn honeypot(&self) -> Option<&Honeypot> {
        self.honeypot_id
            .map(|id| self.network.node(id).as_any().downcast_ref::<Honeypot>().unwrap())
    }

    /// Assemble the capture into flows.
    pub fn flow_table(&self) -> iotlan_classify::FlowTable {
        iotlan_classify::FlowTable::from_capture(&self.network.capture)
    }

    /// Seal and return this run's manifest: output counts, per-device
    /// packet counts, a digest of the capture pcap, the global metrics
    /// snapshot, and host facts. The lab keeps a fresh manifest so it can
    /// continue running (subsequent phases land in the new one).
    pub fn finish_manifest(&mut self) -> Manifest {
        let mut manifest = std::mem::replace(&mut self.manifest, Manifest::new("lab"));
        manifest.set("frames_captured", self.network.capture.len() as u64);
        manifest.set(
            "capture_arena_bytes",
            self.network.capture.arena_bytes() as u64,
        );
        manifest.set("frames_sent", self.network.frames_sent());
        manifest.set("faults_dropped", self.network.faults.dropped());
        manifest.set("sim_end_micros", self.network.now().as_micros());

        // Per-device packet counts: one pass over the capture, keyed by
        // catalog name where the source MAC is a modelled device and by
        // MAC string otherwise (router, controller, honeypot, phone).
        let mut by_mac: BTreeMap<EthernetAddress, u64> = BTreeMap::new();
        for frame in self.network.capture.frames() {
            *by_mac.entry(frame.src_mac()).or_insert(0) += 1;
        }
        let mut by_device = json::Map::new();
        for (mac, count) in &by_mac {
            let name = self
                .catalog
                .devices
                .iter()
                .find(|device| device.mac == *mac)
                .map(|device| device.name.clone())
                .unwrap_or_else(|| mac.to_string());
            by_device.insert(name, json::Value::from(*count));
        }
        manifest.set("packets_by_device", json::Value::Object(by_device));

        manifest.digest("capture.pcap", &self.network.capture.to_pcap());
        manifest.attach_metrics();
        manifest.attach_host_info();
        manifest
    }

    /// Run one independent lab per seed — idle capture plus the configured
    /// interaction script — fanned out across the
    /// [`pool`](iotlan_util::pool).
    ///
    /// Each seed's lab is self-contained (built, run and torn down on one
    /// worker), and results come back in `seeds` order, so the sweep is a
    /// pure function of `(base, seeds)` at any `IOTLAN_THREADS`. This is
    /// the multi-seed experiment runner: confidence intervals over lab
    /// statistics, seed-sensitivity audits, and the `perf_sweep` bench all
    /// drive it.
    pub fn run_sweep(base: &LabConfig, seeds: &[u64]) -> Vec<SweepRun> {
        iotlan_util::pool::par_map(seeds, |_, &seed| {
            let _span = iotlan_telemetry::span!("lab.sweep_run");
            iotlan_telemetry::counter!("lab.sweep_runs").incr();
            let mut lab = Lab::new(LabConfig { seed, ..base.clone() });
            lab.run_idle();
            if lab.config.interactions > 0 {
                // Fixed span, so a sweep's output depends only on the
                // config and seed list.
                lab.run_interactions(SimDuration::from_mins(1));
            }
            let flow_count = lab.flow_table().len();
            SweepRun {
                seed,
                flow_count,
                frame_count: lab.network.capture.len(),
                capture: lab.network.capture.clone(),
            }
        })
    }
}

/// One completed run of a multi-seed sweep.
#[derive(Debug, Clone)]
pub struct SweepRun {
    pub seed: u64,
    pub flow_count: usize,
    pub frame_count: usize,
    /// The run's full AP capture; merge across runs with
    /// [`merge_sweep_captures`].
    pub capture: iotlan_netsim::Capture,
}

/// Merge sweep captures in run (== seed) order via the order-stable
/// [`iotlan_netsim::Capture::merge`], yielding one combined pcap-able
/// capture that is identical however many threads produced the runs.
pub fn merge_sweep_captures(runs: &[SweepRun]) -> iotlan_netsim::Capture {
    let parts: Vec<iotlan_netsim::Capture> =
        runs.iter().map(|run| run.capture.clone()).collect();
    iotlan_netsim::Capture::merge(&parts)
}

/// Manifest for a completed multi-seed sweep: the base configuration, the
/// per-seed frame/flow counts in seed order, totals, and a digest over
/// every run's pcap. Deterministic across thread counts because the sweep
/// itself is (results come back in seed order).
pub fn sweep_manifest(base: &LabConfig, runs: &[SweepRun]) -> Manifest {
    let mut manifest = Manifest::new("sweep");
    manifest.set("base_seed", base.seed);
    manifest.set("idle_micros", base.idle_duration.as_micros());
    manifest.set("interactions", u64::from(base.interactions));
    manifest.set("runs", runs.len() as u64);
    manifest.set(
        "total_frames",
        runs.iter().map(|run| run.frame_count as u64).sum::<u64>(),
    );
    manifest.set(
        "total_flows",
        runs.iter().map(|run| run.flow_count as u64).sum::<u64>(),
    );
    let per_seed = runs
        .iter()
        .map(|run| {
            let mut row = json::Map::new();
            row.insert("seed".to_string(), json::Value::from(run.seed));
            row.insert(
                "frames".to_string(),
                json::Value::from(run.frame_count as u64),
            );
            row.insert(
                "flows".to_string(),
                json::Value::from(run.flow_count as u64),
            );
            json::Value::Object(row)
        })
        .collect();
    manifest.set("per_seed", json::Value::Array(per_seed));
    for run in runs {
        manifest.digest(&format!("seed_{}.pcap", run.seed), &run.capture.to_pcap());
    }
    manifest.attach_metrics();
    manifest.attach_host_info();
    manifest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_and_captures() {
        let mut lab = Lab::new(LabConfig {
            seed: 1,
            idle_duration: SimDuration::from_mins(3),
            interactions: 0,
            with_honeypot: true,
        });
        assert_eq!(lab.network.node_count(), 1 + 93 + 1); // router + devices + honeypot
        lab.run_idle();
        assert!(
            lab.network.capture.len() > 500,
            "capture {} frames",
            lab.network.capture.len()
        );
        let table = lab.flow_table();
        assert!(table.len() > 50, "flows {}", table.len());
    }

    /// Whether the capture contains a TCP flow classified as `label`.
    fn saw_tcp_class(lab: &Lab, label: &str) -> bool {
        let table = lab.flow_table();
        let rules = iotlan_classify::rules::paper_rules();
        table.flows.iter().any(|f| {
            f.key.transport == iotlan_classify::flow::Transport::Tcp
                && iotlan_classify::rules::classify_with_rules(f, &rules) == label
        })
    }

    /// Run interaction batches until a TCP flow of `label` appears, bounded
    /// at `max_rounds`. Each round draws `config.interactions` fresh actions
    /// from the lab's interaction stream, so any nonzero-weight action class
    /// is reached for *every* seed — no more picking lucky seeds in tests.
    fn run_interactions_until_class(lab: &mut Lab, label: &str, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            lab.run_interactions(SimDuration::from_secs(60));
            if saw_tcp_class(lab, label) {
                return true;
            }
        }
        false
    }

    #[test]
    fn interactions_generate_control_traffic() {
        // Any seed works: only 2 of the ~83 controllable actions are
        // TP-Link relays, so instead of hunting for a seed whose first 20
        // draws include one, keep drawing bounded rounds until one appears.
        let mut lab = Lab::new(LabConfig {
            seed: 1,
            idle_duration: SimDuration::from_secs(30),
            interactions: 20,
            with_honeypot: false,
        });
        lab.run_idle();
        let before = lab.network.capture.len();
        // TP-Link relay commands must appear (TPLINK_SHP over TCP). With 20
        // draws per round and p(relay) ≈ 2/83 per draw, 20 rounds bound the
        // miss probability below 1e-4.
        assert!(
            run_interactions_until_class(&mut lab, "TPLINK_SHP", 20),
            "no TPLINK_SHP flow after bounded interaction rounds"
        );
        assert!(lab.network.capture.len() > before + 20);
    }

    #[test]
    fn honeypot_sees_scanners() {
        let mut lab = Lab::new(LabConfig {
            seed: 3,
            idle_duration: SimDuration::from_mins(10),
            interactions: 0,
            with_honeypot: true,
        });
        lab.run_idle();
        let honeypot = lab.honeypot().unwrap();
        // Echo's broadcast SSDP M-SEARCH and mDNS queries reach the
        // honeypot within minutes; the daily ARP sweep may not. At minimum
        // the mDNS queries (20–100 s cadence) must be logged.
        assert!(
            !honeypot.interactions.is_empty(),
            "honeypot saw {} interactions",
            honeypot.interactions.len()
        );
    }

    #[test]
    fn sweep_runs_in_seed_order_and_merges() {
        let base = LabConfig {
            seed: 0,
            idle_duration: SimDuration::from_mins(1),
            interactions: 0,
            with_honeypot: false,
        };
        let seeds = [5u64, 6, 7];
        let runs = Lab::run_sweep(&base, &seeds);
        assert_eq!(runs.len(), 3);
        for (run, seed) in runs.iter().zip(seeds) {
            assert_eq!(run.seed, seed);
            assert!(run.frame_count > 0);
            assert!(run.flow_count > 0);
        }
        let merged = merge_sweep_captures(&runs);
        assert_eq!(
            merged.len(),
            runs.iter().map(|r| r.frame_count).sum::<usize>()
        );
        // Time-sorted.
        let times: Vec<_> = merged.frames().map(|f| f.time).collect();
        assert!(times.windows(2).all(|pair| pair[0] <= pair[1]));
    }

    #[test]
    fn streaming_run_matches_batch_capture_and_report() {
        use iotlan_netsim::SimTime;
        struct Collect(Vec<(SimTime, Vec<u8>)>);
        impl FrameSink for Collect {
            fn on_frame(&mut self, time: SimTime, data: &[u8]) {
                self.0.push((time, data.to_vec()));
            }
        }
        let config = LabConfig {
            seed: 11,
            idle_duration: SimDuration::from_mins(1),
            interactions: 6,
            with_honeypot: true,
        };
        let span = SimDuration::from_secs(24);
        // A window that does not divide the idle duration, to exercise the
        // remainder slice.
        let window = SimDuration::from_secs(13);

        let mut batch = Lab::new(config.clone());
        batch.run_idle();
        batch.run_interactions(span);
        let batch_pcap = batch.network.capture.to_pcap();

        let mut streamed = Lab::new(config.clone());
        let mut sink = Collect(Vec::new());
        streamed.run_streaming(span, window, &mut sink);
        assert!(
            streamed.network.capture.is_empty(),
            "every frame must be drained into the sink"
        );
        let rebuilt = iotlan_netsim::Capture::from_frames(sink.0);
        assert_eq!(
            rebuilt.to_pcap(),
            batch_pcap,
            "windowed streaming must replay the batch frame sequence exactly"
        );

        // And the convenience runner's report matches the batch analyses.
        let mut reported = Lab::new(config);
        let report = reported.run_streaming_report(span, window);
        let table = batch.flow_table();
        assert_eq!(report.packets, batch.network.capture.len() as u64);
        assert_eq!(
            report.graph(&batch.catalog).render(),
            iotlan_analysis::graph::build_graph(&table, &batch.catalog).render()
        );
        assert_eq!(
            report.prevalence(&batch.catalog).render(),
            iotlan_analysis::prevalence::passive_prevalence(&table, &batch.catalog).render()
        );
        assert_eq!(
            report.discovery_response_rows(&batch.catalog),
            iotlan_analysis::responses::discovery_responses(&table, &batch.catalog)
        );
    }

    #[test]
    fn deterministic_lab() {
        let run = |seed| {
            let mut lab = Lab::new(LabConfig {
                seed,
                idle_duration: SimDuration::from_mins(2),
                interactions: 0,
                with_honeypot: false,
            });
            lab.run_idle();
            lab.network.capture.to_pcap()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
