//! Self-time profiler: folds a trace into a flamegraph-style call tree.
//!
//! The input is the record stream from [`crate::trace`], in record order.
//! Its enter/exit pairs are matched with a stack walk, and every completed
//! span is accumulated into one tree keyed by its name-path. The tree is a
//! pure function of the trace, so in deterministic view (calls +
//! simulated time) it is byte-identical across thread counts.
//!
//! Two renderings:
//! - [`flame_json`]: nested JSON with per-node total and self time, for
//!   the run manifest;
//! - [`collapsed_stacks`]: classic `path;to;frame value` lines that any
//!   flamegraph renderer accepts (`scripts/trace_report.sh` prints them).

use crate::trace::{TraceKind, TraceRecord};
use iotlan_util::json;
use std::collections::BTreeMap;

/// One node of the aggregated call tree.
#[derive(Debug, Default, Clone)]
pub struct FlameNode {
    /// Completed or in-flight entries of this frame.
    pub calls: u64,
    /// Total simulated microseconds spent inside (including children).
    pub sim_micros: u64,
    /// Total wall nanoseconds spent inside (including children).
    pub wall_nanos: u64,
    /// Point events recorded directly under this frame.
    pub events: u64,
    pub children: BTreeMap<&'static str, FlameNode>,
}

impl FlameNode {
    fn child(&mut self, name: &'static str) -> &mut FlameNode {
        self.children.entry(name).or_default()
    }

    /// Time spent in this frame itself, excluding children.
    pub fn self_sim_micros(&self) -> u64 {
        let children: u64 = self.children.values().map(|c| c.sim_micros).sum();
        self.sim_micros.saturating_sub(children)
    }

    /// Wall time spent in this frame itself, excluding children.
    pub fn self_wall_nanos(&self) -> u64 {
        let children: u64 = self.children.values().map(|c| c.wall_nanos).sum();
        self.wall_nanos.saturating_sub(children)
    }
}

/// Aggregate a record stream into a call tree rooted at an unnamed root
/// node.
pub fn build(records: &[TraceRecord]) -> FlameNode {
    let mut root = FlameNode::default();
    // The path of currently-open span names plus each span's entry stamps.
    let mut stack: Vec<(&'static str, Option<u64>, u64)> = Vec::new();
    for record in records {
        match record.kind {
            TraceKind::Enter => {
                node_at(&mut root, stack.iter().map(|frame| frame.0))
                    .child(record.name)
                    .calls += 1;
                stack.push((record.name, record.sim_micros, record.wall_nanos));
            }
            TraceKind::Exit => {
                // An exit that does not match the open span means a guard
                // was dropped out of order or its enter was taken by an
                // earlier collection; drop it rather than corrupt the tree.
                if stack.last().map(|frame| frame.0) != Some(record.name) {
                    continue;
                }
                let (name, enter_sim, enter_wall) = stack.pop().expect("matched above");
                let node = node_at(&mut root, stack.iter().map(|frame| frame.0)).child(name);
                if let (Some(enter), Some(exit)) = (enter_sim, record.sim_micros) {
                    node.sim_micros += exit.saturating_sub(enter);
                }
                node.wall_nanos += record.wall_nanos.saturating_sub(enter_wall);
            }
            TraceKind::Event => {
                let parent = node_at(&mut root, stack.iter().map(|frame| frame.0));
                let node = parent.child(record.name);
                node.events += 1;
            }
        }
    }
    // Spans still open at the end (guard leaked past the collection
    // point) already counted their call; they contribute no time.
    root
}

fn node_at<'tree>(
    root: &'tree mut FlameNode,
    path: impl Iterator<Item = &'static str>,
) -> &'tree mut FlameNode {
    let mut node = root;
    for name in path {
        node = node.child(name);
    }
    node
}

/// Render the tree as JSON. `deterministic` omits wall-clock fields.
pub fn flame_json(node: &FlameNode, deterministic: bool) -> json::Value {
    let mut map = json::Map::new();
    map.insert("calls".into(), json::Value::from(node.calls));
    map.insert("events".into(), json::Value::from(node.events));
    map.insert("sim_micros".into(), json::Value::from(node.sim_micros));
    map.insert(
        "self_sim_micros".into(),
        json::Value::from(node.self_sim_micros()),
    );
    if !deterministic {
        map.insert("wall_nanos".into(), json::Value::from(node.wall_nanos));
        map.insert(
            "self_wall_nanos".into(),
            json::Value::from(node.self_wall_nanos()),
        );
    }
    if !node.children.is_empty() {
        let mut children = json::Map::new();
        for (name, child) in &node.children {
            children.insert((*name).into(), flame_json(child, deterministic));
        }
        map.insert("children".into(), json::Value::Object(children));
    }
    json::Value::Object(map)
}

/// Which value a collapsed-stack line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlameMetric {
    /// Frame entry count (always deterministic).
    Calls,
    /// Self simulated microseconds (deterministic).
    SimMicros,
    /// Self wall nanoseconds (host-volatile).
    WallNanos,
}

/// Render `path;to;frame value` lines, one per node with a non-zero
/// value, sorted by path. This is the collapsed-stack format flamegraph
/// renderers consume.
pub fn collapsed_stacks(root: &FlameNode, metric: FlameMetric) -> String {
    let mut out = String::new();
    let mut path: Vec<&'static str> = Vec::new();
    fn walk(node: &FlameNode, metric: FlameMetric, path: &mut Vec<&'static str>, out: &mut String) {
        for (name, child) in &node.children {
            path.push(name);
            let value = match metric {
                FlameMetric::Calls => child.calls + child.events,
                FlameMetric::SimMicros => child.self_sim_micros(),
                FlameMetric::WallNanos => child.self_wall_nanos(),
            };
            if value > 0 {
                out.push_str(&path.join(";"));
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
            walk(child, metric, path, out);
            path.pop();
        }
    }
    walk(root, metric, &mut path, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use iotlan_util::pool;

    /// A phase span around a nested span, an event and a pool region
    /// whose items open spans, traced at `threads` threads.
    fn capture_tree(threads: usize) -> FlameNode {
        trace::clear();
        pool::with_threads(threads, || {
            let _outer = trace::span("phase");
            {
                let _inner = trace::span("deliver");
                trace::event("frame");
            }
            let _ = pool::par_map_range(20, |i| {
                let _chunk = trace::span("chunk");
                trace::event("chunk_frame");
                i
            });
        });
        build(&trace::take_records())
    }

    #[test]
    fn tree_nests_and_counts() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        for threads in [1, 2, 8] {
            let tree = capture_tree(threads);
            // Region spans and events are absent; the phase span around the
            // region still pairs, so it is the root's only child and holds
            // only what ran on the caller.
            assert_eq!(tree.children.keys().copied().collect::<Vec<_>>(), ["phase"]);
            let phase = &tree.children["phase"];
            assert_eq!(phase.calls, 1, "threads={threads}");
            assert!(
                phase.wall_nanos > 0,
                "phase never closed at {threads} threads"
            );
            assert_eq!(
                phase.children.keys().copied().collect::<Vec<_>>(),
                ["deliver"]
            );
            let deliver = &phase.children["deliver"];
            assert_eq!(deliver.calls, 1);
            assert_eq!(deliver.children.get("frame").expect("event node").events, 1);
            assert_eq!(
                flame_json(&tree, true).to_string(),
                flame_json(&capture_tree(1), true).to_string(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn collapsed_stacks_are_sorted_paths() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let tree = capture_tree(2);
        let lines = collapsed_stacks(&tree, FlameMetric::Calls);
        assert!(lines.contains("phase;deliver;frame 1"));
        let rows: Vec<&str> = lines.lines().collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted, "collapsed output must be path-sorted");
    }

    #[test]
    fn flame_json_deterministic_view_has_no_wall_fields() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let tree = capture_tree(2);
        let full = flame_json(&tree, false).to_string();
        let det = flame_json(&tree, true).to_string();
        assert!(full.contains("wall_nanos"));
        assert!(!det.contains("wall_nanos"));
    }
}
