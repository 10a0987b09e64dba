//! Trace report: read the run manifests written by the `observability`
//! example (or any `Manifest::write_to` caller) back from
//! `target/manifests/` and print a per-phase timing summary plus the
//! hottest frames of the collapsed flamegraph.
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

fn phase_table(name: &str, value: &json::Value) {
    let Some(phases) = value.get("phases").and_then(|p| p.as_array()) else {
        return;
    };
    if phases.is_empty() {
        return;
    }
    println!("  phases:");
    let mut previous: Option<u64> = None;
    for phase in phases {
        let phase_name = phase
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("<unnamed>");
        match phase.get("sim_micros").and_then(|v| v.as_u64()) {
            Some(sim) => {
                // Phases stamp the simulated clock at their *end*; the
                // delta against the previous phase is the phase's own
                // simulated duration.
                let delta = sim.saturating_sub(previous.unwrap_or(0));
                previous = Some(sim);
                println!("    {phase_name:<26} sim_end {sim:>14} us   +{delta:>12} us");
            }
            None => println!("    {phase_name:<26} (no simulated clock)"),
        }
    }
    let _ = name;
}

fn summarize_manifest(path: &Path) {
    let Ok(bytes) = fs::read(path) else {
        return;
    };
    let Ok(value) = json::from_slice(&bytes) else {
        println!("{}: unparseable JSON", path.display());
        return;
    };
    let kind = value
        .get("kind")
        .and_then(|k| k.as_str())
        .unwrap_or("<unknown>");
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
    phase_table(kind, &value);
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
        // trace.json/flame.json are record streams, not manifests; the
        // kind probe below just prints them as <unknown> — skip instead.
        if path
            .file_name()
            .is_some_and(|n| n == "trace.json" || n == "flame.json")
        {
            continue;
        }
        summarize_manifest(path);
        summarized += 1;
    }

    // The hottest self-time frames, from the collapsed stacks.
    if let Ok(collapsed) = fs::read_to_string(dir.join("flame.collapsed")) {
        let mut frames: Vec<(&str, u64)> = collapsed
            .lines()
            .filter_map(|line| {
                let (stack, value) = line.rsplit_once(' ')?;
                Some((stack, value.parse().ok()?))
            })
            .collect();
        frames.sort_by(|a, b| b.1.cmp(&a.1));
        println!("hottest stacks (calls):");
        for (stack, calls) in frames.iter().take(5) {
            println!("  {calls:>12} calls  {stack}");
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
