//! Span/event tracing on the caller's thread.
//!
//! [`span`] returns a guard that records an `Enter` now and an `Exit` when
//! dropped; [`event`] records a point event. Records go into a per-thread
//! buffer (one `Vec` push, no lock) in record order, and [`take_records`]
//! takes this thread's buffer.
//!
//! ## Determinism
//!
//! Nothing is recorded while a pool region runs on this thread
//! ([`iotlan_util::pool::in_region`]): a span or event inside a `par_map`
//! closure would land in whichever worker's buffer ran its chunk, so it is
//! left out at every thread count alike. Everything else records on the
//! thread that calls [`take_records`], in program order, so the
//! [`trace_json`] renderer's deterministic view (`seq`, kind, name and
//! simulated stamp) is byte-comparable across thread counts and repeated
//! runs.
//!
//! Each record carries both clocks ([`crate::clock`]): the simulated stamp
//! participates in the deterministic view, the wall stamp only in the
//! full view.

use crate::clock;
use iotlan_util::json;
use iotlan_util::pool;
use std::cell::RefCell;

/// What a trace record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Enter,
    Exit,
    Event,
}

impl TraceKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::Enter => "enter",
            TraceKind::Exit => "exit",
            TraceKind::Event => "event",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    pub kind: TraceKind,
    pub name: &'static str,
    /// Simulated stamp, when a simulation was dispatching (deterministic).
    pub sim_micros: Option<u64>,
    /// Monotonic wall stamp (host-volatile).
    pub wall_nanos: u64,
}

thread_local! {
    static BUFFER: RefCell<Vec<TraceRecord>> = const { RefCell::new(Vec::new()) };
}

/// Record one trace entry on the current thread, unless a pool region is
/// running on it.
#[inline]
pub fn record(kind: TraceKind, name: &'static str) {
    #[cfg(feature = "telemetry")]
    if crate::enabled() && !pool::in_region() {
        let record = TraceRecord {
            kind,
            name,
            sim_micros: clock::sim_micros(),
            wall_nanos: clock::wall_nanos(),
        };
        BUFFER.with(|buffer| buffer.borrow_mut().push(record));
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (kind, name);
    }
}

/// A span in flight; records `Exit` when dropped.
#[must_use = "a span guard records its exit when dropped"]
pub struct SpanGuard {
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(TraceKind::Exit, self.name);
    }
}

/// Open a span (prefer the [`span!`] macro for symmetry with the metric
/// macros).
///
/// [`span!`]: crate::span!
pub fn span(name: &'static str) -> SpanGuard {
    record(TraceKind::Enter, name);
    SpanGuard { name }
}

/// Record a point event.
pub fn event(name: &'static str) {
    record(TraceKind::Event, name);
}

/// Open a span whose guard records the exit on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

/// Record a point event.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::trace::event($name)
    };
}

/// Take this thread's records, in record order, leaving its buffer empty.
pub fn take_records() -> Vec<TraceRecord> {
    BUFFER.with(|buffer| std::mem::take(&mut *buffer.borrow_mut()))
}

/// Discard this thread's records.
pub fn clear() {
    BUFFER.with(|buffer| buffer.borrow_mut().clear());
}

/// Render records as a JSON array. `deterministic` omits the wall stamps
/// (and nothing else): the remaining fields are a pure function of the
/// program and seed.
pub fn trace_json(records: &[TraceRecord], deterministic: bool) -> json::Value {
    let rows = records
        .iter()
        .zip(0u64..)
        .map(|(record, seq)| {
            let mut row = json::Map::new();
            row.insert("seq".into(), json::Value::from(seq));
            row.insert("kind".into(), json::Value::from(record.kind.as_str()));
            row.insert("name".into(), json::Value::from(record.name));
            if let Some(sim) = record.sim_micros {
                row.insert("sim_micros".into(), json::Value::from(sim));
            }
            if !deterministic {
                row.insert("wall_nanos".into(), json::Value::from(record.wall_nanos));
            }
            json::Value::Object(row)
        })
        .collect();
    json::Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_records_are_skipped_at_every_thread_count() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        for threads in [1, 2, 8] {
            clear();
            pool::with_threads(threads, || {
                let _outer = span("outer");
                event("point");
                let results = pool::par_map_range(40, |i| {
                    let _inner = span("chunk_work");
                    event("chunk_point");
                    i * 2
                });
                assert_eq!(results.len(), 40);
            });
            let shape: Vec<(TraceKind, &str)> = take_records()
                .iter()
                .map(|record| (record.kind, record.name))
                .collect();
            assert_eq!(
                shape,
                [
                    (TraceKind::Enter, "outer"),
                    (TraceKind::Event, "point"),
                    (TraceKind::Exit, "outer"),
                ],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn wall_stamps_only_in_full_view() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        clear();
        event("stamped");
        let records = take_records();
        let full = trace_json(&records, false).to_string();
        let deterministic = trace_json(&records, true).to_string();
        assert!(full.contains("wall_nanos"));
        assert!(!deterministic.contains("wall_nanos"));
    }
}
