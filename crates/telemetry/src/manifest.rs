//! Run manifests: one JSON document per pipeline run.
//!
//! Every entry point that does substantial work — a `Lab::run*`, a
//! `StreamEngine` pass, a scanner or honeypot campaign — builds a
//! [`Manifest`] describing what it did: the seed and configuration,
//! per-phase timings, output counts, content digests of its outputs, and
//! host facts (thread count, allocator stats, pool accounting).
//!
//! A manifest keeps **deterministic** and **host-volatile** facts apart:
//!
//! - [`Manifest::set`] records facts that are a pure function of the
//!   program and its seed (counts, digests, simulated timings, the
//!   metrics snapshot). [`Manifest::deterministic_json`] renders exactly
//!   these plus the simulated phase stamps, and is byte-identical across
//!   `IOTLAN_THREADS` and repeated same-seed runs — that identity is
//!   pinned by `tests/telemetry_determinism.rs`.
//! - [`Manifest::set_host`] records scheduling- and machine-dependent
//!   facts (wall timings, thread count, per-worker task splits,
//!   allocation counts). These appear only in the full [`Manifest::to_json`]
//!   view, under `"host"`.
//!
//! Phases are the library's one timing record: each carries the simulated
//! clock at its end, passed in by the caller that owns the simulation
//! (deterministic), and its wall duration (full view only).
//!
//! Output digests use FNV-1a/64 ([`fnv1a64`]) — not cryptographic, just a
//! cheap stable fingerprint so two runs can be compared by their
//! manifests alone.

use iotlan_util::json;
use iotlan_util::pool;
use std::io;
use std::path::Path;
use std::time::Instant;

/// FNV-1a 64-bit content hash: stable, dependency-free fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `fnv1a64` rendered as the fixed-width hex string used in manifests.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// One timed phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    /// Simulated clock at phase end (deterministic).
    pub sim_micros: u64,
    /// Wall-clock duration of the phase in nanoseconds (host-volatile).
    pub wall_nanos: u64,
}

/// A run manifest under construction.
#[derive(Debug)]
pub struct Manifest {
    kind: String,
    deterministic: json::Map,
    host: json::Map,
    digests: Vec<(String, String)>,
    phases: Vec<Phase>,
}

/// Measures one phase: created by [`Manifest::phase_timer`], consumed by
/// [`Manifest::finish_phase`].
#[derive(Debug)]
pub struct PhaseTimer {
    name: String,
    started: Instant,
}

impl Manifest {
    pub fn new(kind: &str) -> Manifest {
        Manifest {
            kind: kind.to_string(),
            deterministic: json::Map::new(),
            host: json::Map::new(),
            digests: Vec::new(),
            phases: Vec::new(),
        }
    }

    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Record a deterministic fact (pure function of program + seed).
    pub fn set(&mut self, key: &str, value: impl Into<json::Value>) {
        self.deterministic.insert(key.to_string(), value.into());
    }

    /// Record a host-volatile fact (machine, scheduling, wall clock).
    pub fn set_host(&mut self, key: &str, value: impl Into<json::Value>) {
        self.host.insert(key.to_string(), value.into());
    }

    /// Read back a deterministic fact (mainly for tests).
    pub fn get(&self, key: &str) -> Option<&json::Value> {
        self.deterministic.get(key)
    }

    /// Fingerprint an output artifact under `name`.
    pub fn digest(&mut self, name: &str, bytes: &[u8]) {
        self.digests.push((name.to_string(), digest_hex(bytes)));
    }

    /// Start timing a phase.
    pub fn phase_timer(&self, name: &str) -> PhaseTimer {
        PhaseTimer {
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Close a phase that ended at simulated time `sim_micros`, stamping
    /// the elapsed wall time.
    pub fn finish_phase(&mut self, timer: PhaseTimer, sim_micros: u64) {
        self.phases.push(Phase {
            name: timer.name,
            sim_micros,
            wall_nanos: timer.started.elapsed().as_nanos() as u64,
        });
    }

    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Attach the current global metrics snapshot as a deterministic
    /// fact (metric values in this codebase are thread-count-invariant;
    /// see DESIGN.md §9).
    pub fn attach_metrics(&mut self) {
        self.deterministic
            .insert("metrics".to_string(), crate::metrics::snapshot());
    }

    /// Attach host facts: effective thread count, process allocation
    /// count (when the binary installs `util::alloc::CountingAllocator`,
    /// so the count is not zero), the process's minor page faults so far
    /// (when `/proc/self/stat` can be read), and the pool's per-worker
    /// accounting. Minor faults tell a run whose allocator regrew a
    /// trimmed heap from one that reused it.
    pub fn attach_host_info(&mut self) {
        self.set_host("threads", pool::thread_count() as u64);
        let allocations = iotlan_util::alloc::allocation_count();
        if allocations > 0 {
            self.set_host("allocations", allocations);
        }
        if let Some(faults) = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| minor_faults(&stat))
        {
            self.set_host("minor_faults", faults);
        }
        let stats = pool::stats();
        let mut pool_map = json::Map::new();
        pool_map.insert("regions".to_string(), json::Value::from(stats.regions));
        let workers = stats
            .workers
            .iter()
            .map(|worker| {
                let mut map = json::Map::new();
                map.insert("chunks".to_string(), json::Value::from(worker.chunks));
                map.insert("tasks".to_string(), json::Value::from(worker.tasks));
                map.insert("steals".to_string(), json::Value::from(worker.steals));
                map.insert(
                    "busy_nanos".to_string(),
                    json::Value::from(worker.busy_nanos),
                );
                json::Value::Object(map)
            })
            .collect();
        pool_map.insert("workers".to_string(), json::Value::Array(workers));
        self.set_host("pool", json::Value::Object(pool_map));
    }

    fn phases_json(&self, deterministic: bool) -> json::Value {
        let rows = self
            .phases
            .iter()
            .map(|phase| {
                let mut row = json::Map::new();
                row.insert("name".to_string(), json::Value::from(&phase.name));
                row.insert(
                    "sim_micros".to_string(),
                    json::Value::from(phase.sim_micros),
                );
                if !deterministic {
                    row.insert(
                        "wall_nanos".to_string(),
                        json::Value::from(phase.wall_nanos),
                    );
                }
                json::Value::Object(row)
            })
            .collect();
        json::Value::Array(rows)
    }

    fn digests_json(&self) -> json::Value {
        let mut sorted = self.digests.clone();
        sorted.sort();
        let mut map = json::Map::new();
        for (name, hex) in sorted {
            map.insert(name, json::Value::from(hex));
        }
        json::Value::Object(map)
    }

    fn base_json(&self, deterministic: bool) -> json::Map {
        let mut map = json::Map::new();
        map.insert("kind".to_string(), json::Value::from(&self.kind));
        for (key, value) in self.deterministic.iter() {
            map.insert(key.clone(), value.clone());
        }
        if !self.digests.is_empty() {
            map.insert("digests".to_string(), self.digests_json());
        }
        map.insert("phases".to_string(), self.phases_json(deterministic));
        map
    }

    /// The full manifest: deterministic facts plus the `"host"` section
    /// and wall-clock phase durations.
    pub fn to_json(&self) -> json::Value {
        let mut map = self.base_json(false);
        let mut host = json::Map::new();
        for (key, value) in self.host.iter() {
            host.insert(key.clone(), value.clone());
        }
        map.insert("host".to_string(), json::Value::Object(host));
        json::Value::Object(map)
    }

    /// The deterministic view: no `"host"` section, no wall stamps.
    /// Byte-identical across thread counts and repeated same-seed runs.
    pub fn deterministic_json(&self) -> json::Value {
        json::Value::Object(self.base_json(true))
    }

    /// Write the full manifest (pretty-printed) to `path`, creating
    /// parent directories as needed.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut text = self.to_json().pretty();
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// Field 10 (`minflt`) of a `/proc/<pid>/stat` line. The command name in
/// field 2 is parenthesised and may hold spaces, so fields are counted
/// from the last `)`.
fn minor_faults(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minor_faults_is_field_ten_of_stat() {
        let stat = "4242 (a (b) c) S 1 4242 4242 0 -1 4194560 8123 0 3 0 12 4";
        assert_eq!(minor_faults(stat), Some(8123));
        assert_eq!(minor_faults("4242 (short) S 1"), None);
        assert_eq!(minor_faults("no command name"), None);
    }

    #[test]
    fn host_info_carries_minor_faults_when_readable() {
        let mut manifest = Manifest::new("t");
        manifest.attach_host_info();
        let full = manifest.to_json().to_string();
        let readable = std::fs::read_to_string("/proc/self/stat").is_ok();
        assert_eq!(full.contains("\"minor_faults\":"), readable, "{full}");
        assert!(!manifest
            .deterministic_json()
            .to_string()
            .contains("minor_faults"));
    }

    #[test]
    fn unmeasured_allocation_count_is_left_out() {
        // The unit-test binary installs no counting allocator.
        assert_eq!(iotlan_util::alloc::allocation_count(), 0);
        let mut manifest = Manifest::new("t");
        manifest.attach_host_info();
        let full = manifest.to_json().to_string();
        assert!(!full.contains("allocations"), "{full}");
        assert!(full.contains("\"threads\":"), "{full}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn deterministic_view_excludes_host_and_wall() {
        let mut manifest = Manifest::new("test_run");
        manifest.set("seed", 7u64);
        manifest.set_host("hostname_ish", "volatile");
        manifest.digest("report", b"payload");
        let timer = manifest.phase_timer("warmup");
        manifest.finish_phase(timer, 1000);
        let full = manifest.to_json().to_string();
        let det = manifest.deterministic_json().to_string();
        assert!(full.contains("volatile"));
        assert!(full.contains("wall_nanos"));
        assert!(!det.contains("volatile"));
        assert!(!det.contains("wall_nanos"));
        assert!(!det.contains("host"));
        assert!(det.contains("\"seed\":7"));
        assert!(det.contains("\"sim_micros\":1000"));
        assert!(det.contains(&digest_hex(b"payload")));
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("iotlan_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/run.json");
        let mut manifest = Manifest::new("t");
        manifest.set("x", 1u64);
        manifest.write_to(&path).expect("write manifest");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"kind\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
