//! iotlan-telemetry: deterministic observability for the iotlan pipeline.
//!
//! Four pieces, all std-only and dependency-free (DESIGN.md §9):
//!
//! - [`clock`] — the dual clock: a thread-local simulated stamp scoped to
//!   the discrete-event loop, plus monotonic wall nanoseconds.
//! - [`trace`] — span/event tracing into the caller's buffer in record
//!   order; nothing records inside a pool region, so traces are
//!   byte-identical across `IOTLAN_THREADS`.
//! - [`metrics`] — a global registry of counters, gauges and log2
//!   histograms, cheap enough for per-frame hot paths.
//! - [`flame`] — folds a trace into a flamegraph-style self-time tree;
//!   [`manifest`] — the per-run JSON document every pipeline entry point
//!   emits.
//!
//! ## Switching it off
//!
//! Two layers; `perf_telemetry` measures what the runtime one costs:
//!
//! - **Runtime**: [`set_enabled`]`(false)` turns every record/observe
//!   call into a relaxed atomic load and branch. Enabled by default.
//! - **Compile time**: building without the `telemetry` cargo feature
//!   (on by default) compiles every instrumentation call to an empty
//!   inline function — zero cost, verified by the disabled leg of the
//!   bench.
//!
//! Collection (`take_records`, `snapshot`, manifests) works the same
//! either way; with telemetry off it simply observes nothing.

pub mod clock;
pub mod flame;
pub mod manifest;
pub mod metrics;
pub mod trace;

pub use flame::{build as build_flame, collapsed_stacks, flame_json, FlameMetric, FlameNode};
pub use manifest::{digest_hex, fnv1a64, Manifest};
pub use metrics::{snapshot, Counter, Gauge, Histogram};
pub use trace::{event, span, take_records, trace_json, SpanGuard, TraceRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Runtime master switch. Starts enabled.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn recording on or off at runtime. With recording off, instrumented
/// code pays one relaxed load per call site.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording currently on? (Always `false` when the `telemetry`
/// feature is compiled out — callers never get past the `cfg` gate.)
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reset every piece of global telemetry state: metrics values, this
/// thread's trace buffer, pool accounting and this thread's simulated
/// clock. Call between independent runs whose telemetry must not mix
/// (the determinism tests do).
pub fn reset_all() {
    metrics::reset_metrics();
    trace::clear();
    iotlan_util::pool::reset_stats();
    clock::clear_sim();
}

/// Serializes tests that poke the global registry/trace/enabled state.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Take the cross-test lock around any test that mutates global
/// telemetry state. Poisoning (a failed test) is ignored.
pub fn test_guard() -> MutexGuard<'static, ()> {
    match TEST_LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
