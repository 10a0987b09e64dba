//! Trace report: read the run manifests written by the `observability`
//! example (or any `Manifest::write_to` caller) back from
//! `target/manifests/` and print each one's headline counters, content
//! digests and per-phase timing summary.
//!
//! ```sh
//! cargo run --release --example observability   # produce the manifests
//! cargo run --release --example trace_report    # summarize them
//! ```
//!
//! An optional argument overrides the manifest directory:
//! `cargo run --example trace_report -- path/to/manifests`.

use iotlan::util::json;
use std::fs;
use std::path::{Path, PathBuf};

fn phase_table(value: &json::Value) {
    let Some(phases) = value.get("phases").and_then(|p| p.as_array()) else {
        return;
    };
    if phases.is_empty() {
        return;
    }
    println!("  phases:");
    let mut previous = 0;
    for phase in phases {
        let phase_name = phase
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("<unnamed>");
        let sim = phase
            .get("sim_micros")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        // Phases stamp the simulated clock at their *end*; the delta
        // against the previous phase is the phase's own simulated duration.
        let delta = sim.saturating_sub(previous);
        previous = sim;
        println!("    {phase_name:<26} sim_end {sim:>14} us   +{delta:>12} us");
    }
}

/// Print one manifest's summary; `false` when `path` holds no manifest (a
/// JSON document without a `"kind"`).
fn summarize_manifest(path: &Path) -> bool {
    let Ok(bytes) = fs::read(path) else {
        return false;
    };
    let Ok(value) = json::from_slice(&bytes) else {
        println!("{}: unparseable JSON", path.display());
        return false;
    };
    let Some(kind) = value.get("kind").and_then(|k| k.as_str()) else {
        return false;
    };
    println!("{} [{kind}]", path.display());
    // Headline counters, if present: every manifest kind carries a few.
    for key in [
        "frames_captured",
        "frames_sent",
        "packets",
        "flow_keys",
        "interactions",
        "devices",
        "analyzed_devices",
        "runs",
        "total_frames",
    ] {
        if let Some(v) = value.get(key).and_then(|v| v.as_u64()) {
            println!("  {key}: {v}");
        }
    }
    if let Some(digests) = value.get("digests").and_then(|d| d.as_object()) {
        for (artifact, digest) in digests.iter() {
            if let Some(hex) = digest.as_str() {
                println!("  digest {artifact}: {hex}");
            }
        }
    }
    phase_table(&value);
    true
}

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/manifests"));
    let mut manifest_paths: Vec<PathBuf> = match fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect(),
        Err(error) => {
            eprintln!(
                "trace_report: cannot read {} ({error}); run the observability example first",
                dir.display()
            );
            std::process::exit(1);
        }
    };
    manifest_paths.sort();
    let mut summarized = 0;
    for path in &manifest_paths {
        if summarize_manifest(path) {
            summarized += 1;
        }
    }
    if summarized == 0 {
        eprintln!(
            "trace_report: no manifests in {}; run the observability example first",
            dir.display()
        );
        std::process::exit(1);
    }
    println!(
        "trace_report: summarized {summarized} manifests from {}",
        dir.display()
    );
}
