//! iotlan-telemetry: deterministic observability for the iotlan pipeline.
//!
//! Two pieces, both std-only and dependency-free (DESIGN.md §9):
//!
//! - [`metrics`] — a global registry of counters, gauges and log2
//!   histograms, cheap enough for per-frame hot paths.
//! - [`manifest`] — the per-run JSON document every pipeline entry point
//!   emits, with the run's phases: each stamped with the simulated clock
//!   at its end (deterministic) and its wall duration (host-volatile).
//!
//! ## Switching it off
//!
//! Two layers; `perf_telemetry` measures what the runtime one costs:
//!
//! - **Runtime**: [`set_enabled`]`(false)` turns every observe call into
//!   a relaxed atomic load and branch. Enabled by default.
//! - **Compile time**: building without the `telemetry` cargo feature
//!   (on by default) compiles every instrumentation call to an empty
//!   inline function — zero cost, verified by the disabled leg of the
//!   bench.
//!
//! Collection (`snapshot`, manifests) works the same either way; with
//! telemetry off it simply observes nothing.

pub mod manifest;
pub mod metrics;

pub use manifest::{digest_hex, fnv1a64, Manifest};
pub use metrics::{snapshot, Counter, Gauge, Histogram};

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

/// Reset every piece of global telemetry state: metrics values and pool
/// accounting. Call between independent runs whose telemetry must not
/// mix (the determinism tests do).
pub fn reset_all() {
    metrics::reset_metrics();
    iotlan_util::pool::reset_stats();
}

/// Serializes tests that poke the global registry/enabled state.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Take the cross-test lock around any test that mutates global
/// telemetry state. Poisoning (a failed test) is ignored.
pub fn test_guard() -> MutexGuard<'static, ()> {
    match TEST_LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
