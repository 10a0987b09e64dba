//! The metrics registry: counters, gauges, and fixed-boundary log2
//! histograms.
//!
//! Designed for per-frame hot paths:
//!
//! * a *registered* handle is a `&'static` atomic — recording is one
//!   relaxed RMW, no lock, no allocation;
//! * the [`counter!`]/[`gauge!`]/[`histogram!`] macros cache the registry
//!   lookup in a per-call-site `OnceLock`, so steady-state cost is one
//!   atomic load plus the RMW;
//! * the global [`enabled`](crate::enabled) switch is a relaxed load and a
//!   predictable branch; with the `telemetry` cargo feature off, record
//!   methods compile to empty inline functions.
//!
//! Like sharded stream reports, every metric is **associatively mergeable**
//! (counters and histogram buckets add; gauges take the last write), and a
//! [`snapshot`] is rendered in sorted name order — a pure function of the
//! recorded values, so deterministic workloads produce byte-identical
//! snapshots at any thread count.
//!
//! [`counter!`]: crate::counter!
//! [`gauge!`]: crate::gauge!
//! [`histogram!`]: crate::histogram!

use iotlan_util::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log2 histogram buckets: bucket `b` holds values whose bit
/// length is `b` (bucket 0 holds the value 0), so the boundaries are
/// `[0] [1] [2,3] [4,7] … [2^62, 2^63-1] [≥2^63]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "telemetry")]
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = n;
    }

    /// Add one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, value: i64) {
        #[cfg(feature = "telemetry")]
        if crate::enabled() {
            self.value.store(value, Ordering::Relaxed);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = value;
    }

    /// Record `value` if it exceeds the current reading (peak tracking).
    #[inline]
    pub fn set_max(&self, value: i64) {
        #[cfg(feature = "telemetry")]
        if crate::enabled() {
            self.value.fetch_max(value, Ordering::Relaxed);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = value;
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        #[cfg(feature = "telemetry")]
        if crate::enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = delta;
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-boundary log2 histogram: 65 buckets by bit length, plus count
/// and sum. `observe` is two relaxed RMWs and an indexed third — no
/// allocation, no lock, and the boundaries never depend on the data, so
/// two histograms merge by bucket-wise addition.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Bucket index for a value: its bit length (0 → 0, 1 → 1, 2..3 → 2, …).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        #[cfg(feature = "telemetry")]
        if crate::enabled() {
            self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = value;
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(bucket index, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then_some((index, count))
            })
            .collect()
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// One registered metric.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// Name → handle. Handles are leaked boxes: the set of metric names is a
/// small static vocabulary, so the leak is bounded and buys `&'static`
/// hot-path handles with no indirection.
static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    match REGISTRY.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Register (or look up) the counter `name`. Prefer the [`counter!`] macro
/// on hot paths — it caches this lookup per call site.
///
/// [`counter!`]: crate::counter!
pub fn counter(name: &'static str) -> &'static Counter {
    let mut registry = registry();
    match registry
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))))
    {
        Metric::Counter(counter) => counter,
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Register (or look up) the gauge `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut registry = registry();
    match registry
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))))
    {
        Metric::Gauge(gauge) => gauge,
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Register (or look up) the histogram `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut registry = registry();
    match registry
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
    {
        Metric::Histogram(histogram) => histogram,
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Hot-path counter handle, cached per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Hot-path gauge handle, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Hot-path histogram handle, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// Render every registered metric, in sorted name order, as one JSON
/// object:
///
/// ```json
/// {"counters":{"a":1},"gauges":{"b":2},
///  "histograms":{"c":{"count":1,"sum":4,"buckets":[[3,1]]}}}
/// ```
///
/// A pure function of the recorded values: deterministic workloads get
/// byte-identical snapshots at any thread count.
///
/// Metrics still at their zero value are omitted. Registration is
/// process-permanent (handles are leaked), so without this filter a
/// snapshot would also reflect which *other* workloads ever ran in the
/// process — the set of registered names — and identical workloads could
/// render different snapshots run-to-run.
pub fn snapshot() -> json::Value {
    let registry = registry();
    let mut counters = json::Map::new();
    let mut gauges = json::Map::new();
    let mut histograms = json::Map::new();
    for (name, metric) in registry.iter() {
        match metric {
            Metric::Counter(counter) => {
                if counter.get() != 0 {
                    counters.insert((*name).into(), json::Value::from(counter.get()));
                }
            }
            Metric::Gauge(gauge) => {
                if gauge.get() != 0 {
                    gauges.insert((*name).into(), json::Value::from(gauge.get()));
                }
            }
            Metric::Histogram(histogram) => {
                if histogram.count() == 0 {
                    continue;
                }
                let mut doc = json::Map::new();
                doc.insert("count".into(), json::Value::from(histogram.count()));
                doc.insert("sum".into(), json::Value::from(histogram.sum()));
                let buckets: Vec<json::Value> = histogram
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(index, count)| {
                        json::Value::Array(vec![
                            json::Value::from(index as u64),
                            json::Value::from(count),
                        ])
                    })
                    .collect();
                doc.insert("buckets".into(), json::Value::Array(buckets));
                histograms.insert((*name).into(), json::Value::Object(doc));
            }
        }
    }
    let mut out = json::Map::new();
    out.insert("counters".into(), json::Value::Object(counters));
    out.insert("gauges".into(), json::Value::Object(gauges));
    out.insert("histograms".into(), json::Value::Object(histograms));
    json::Value::Object(out)
}

/// Zero every registered metric (handles stay valid — call sites keep
/// their cached references).
pub fn reset_metrics() {
    let registry = registry();
    for metric in registry.values() {
        match metric {
            Metric::Counter(counter) => counter.reset(),
            Metric::Gauge(gauge) => gauge.reset(),
            Metric::Histogram(histogram) => histogram.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_gauges_histograms_record_and_snapshot() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset_metrics();
        counter("test.frames").add(3);
        counter("test.frames").incr();
        gauge("test.depth").set(7);
        gauge("test.depth").set_max(4); // below current → no change
        histogram("test.sizes").observe(100);
        histogram("test.sizes").observe(100);
        histogram("test.sizes").observe(0);

        assert_eq!(counter("test.frames").get(), 4);
        assert_eq!(gauge("test.depth").get(), 7);
        assert_eq!(histogram("test.sizes").count(), 3);
        assert_eq!(histogram("test.sizes").sum(), 200);
        assert_eq!(
            histogram("test.sizes").nonzero_buckets(),
            vec![(0, 1), (7, 2)]
        );

        let rendered = snapshot().to_string();
        assert!(rendered.contains("\"test.frames\":4"), "{rendered}");
        reset_metrics();
        assert_eq!(counter("test.frames").get(), 0);
    }

    #[test]
    fn disabled_switch_drops_records() {
        let _guard = crate::test_guard();
        reset_metrics();
        crate::set_enabled(false);
        counter("test.off").add(10);
        histogram("test.off_h").observe(9);
        crate::set_enabled(true);
        #[cfg(feature = "telemetry")]
        {
            assert_eq!(counter("test.off").get(), 0);
            assert_eq!(histogram("test.off_h").count(), 0);
        }
    }

    #[test]
    fn macro_handles_are_cached_and_usable() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        reset_metrics();
        for _ in 0..5 {
            crate::counter!("test.macro").incr();
        }
        assert_eq!(counter("test.macro").get(), 5);
    }
}
