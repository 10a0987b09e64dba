//! A tiny measurement harness with a Criterion-compatible call surface.
//!
//! Each `bench_function` runs a warmup, calibrates an iteration count so a
//! sample takes ≥ ~1 ms, takes `sample_size` timed samples, reports
//! median/p95/min per-iteration nanoseconds, and returns the median (so a
//! target derives its rate or comparison lines from the same samples
//! instead of timing the closure again). Two output lines per benchmark go
//! to stdout:
//!
//! * a human-readable summary, and
//! * a machine-readable JSON line (`{"type":"bench",…}`) that CI appends to
//!   the `BENCH_*.json` trajectory files.
//!
//! Command-line flags (via [`Criterion::configure_from_args`]):
//! `--quick` (one fast sample pass, for smoke tests), `--sample-size N`,
//! and a bare string that filters benchmark ids by substring. Unknown flags
//! are ignored so `cargo bench -- <anything criterion-ish>` keeps working.

use crate::json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group: adds a derived
/// bytes-or-elements-per-second figure to the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// The harness entry point — API-compatible with the `criterion::Criterion`
/// subset the benches use.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    quick: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            quick: false,
            filter: None,
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    /// Apply command-line configuration (`--quick`, `--sample-size N`,
    /// substring filter). Unrecognized flags are ignored.
    pub fn configure_from_args(self) -> Criterion {
        self.configure_from(std::env::args().skip(1))
    }

    fn configure_from(mut self, args: impl Iterator<Item = String>) -> Criterion {
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => self.quick = true,
                "--sample-size" => {
                    if let Some(n) = args.peek().and_then(|v| v.parse().ok()) {
                        self.sample_size = std::cmp::max(2, n);
                        args.next();
                    }
                }
                "--bench" | "--test" => {} // cargo-inserted markers
                flag if flag.starts_with("--") => {
                    // Swallow a value for `--flag value` style options.
                    if let Some(next) = args.peek() {
                        if !next.starts_with("--") {
                            args.next();
                        }
                    }
                }
                name => self.filter = Some(name.to_string()),
            }
        }
        self
    }

    /// Run one benchmark; returns its median nanoseconds per iteration,
    /// or `None` when the id is filtered out.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> Option<f64> {
        self.run(id, None, f)
    }

    /// Open a named group; ids become `group/function`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    fn run(
        &mut self,
        id: &str,
        throughput: Option<Throughput>,
        mut f: impl FnMut(&mut Bencher),
    ) -> Option<f64> {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return None;
            }
        }
        let (samples, warmup_target) = if self.quick {
            (3.min(self.sample_size), Duration::from_millis(5))
        } else {
            (self.sample_size, Duration::from_millis(100))
        };

        // Warmup, counting iterations to calibrate the per-sample count.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };
        while warmup_start.elapsed() < warmup_target {
            f(&mut bencher);
            warmup_iters += bencher.iters;
            if bencher.elapsed < Duration::from_micros(50) {
                bencher.iters = (bencher.iters * 2).min(1 << 20);
            }
        }
        let warmup_elapsed = warmup_start.elapsed();
        let ns_per_iter =
            (warmup_elapsed.as_nanos() as f64 / warmup_iters.max(1) as f64).max(0.5);
        let sample_target_ns = if self.quick { 200_000.0 } else { 1_000_000.0 };
        let iters_per_sample = ((sample_target_ns / ns_per_iter) as u64).clamp(1, 1 << 24);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let median = percentile(&per_iter_ns, 50.0);
        let p95 = percentile(&per_iter_ns, 95.0);
        let min = per_iter_ns[0];

        let mut line = json::Map::new();
        line.insert("type".into(), json::Value::from("bench"));
        line.insert("id".into(), json::Value::from(id));
        line.insert("median_ns".into(), json::Value::from(median));
        line.insert("p95_ns".into(), json::Value::from(p95));
        line.insert("min_ns".into(), json::Value::from(min));
        line.insert("samples".into(), json::Value::from(samples));
        line.insert("iters_per_sample".into(), json::Value::from(iters_per_sample));
        let mut human_rate = String::new();
        match throughput {
            Some(Throughput::Bytes(bytes)) => {
                let rate = bytes as f64 * 1e9 / median;
                line.insert("bytes".into(), json::Value::from(bytes));
                line.insert("bytes_per_sec".into(), json::Value::from(rate));
                human_rate = format!("  {:>10}/s", human_bytes(rate));
            }
            Some(Throughput::Elements(elements)) => {
                let rate = elements as f64 * 1e9 / median;
                line.insert("elements".into(), json::Value::from(elements));
                line.insert("elements_per_sec".into(), json::Value::from(rate));
                human_rate = format!("  {rate:>12.0} elem/s");
            }
            None => {}
        }
        println!(
            "bench {id:<44} median {:>12}  p95 {:>12}{human_rate}",
            human_ns(median),
            human_ns(p95),
        );
        println!("{}", json::Value::Object(line));
        Some(median)
    }
}

/// A group with an optional throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the throughput used for rate reporting by subsequent
    /// `bench_function` calls in this group.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// As [`Criterion::bench_function`], with the id `group/id`.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> Option<f64> {
        let full = format!("{}/{id}", self.name);
        let throughput = self.throughput;
        self.criterion.run(&full, throughput, f)
    }

    pub fn finish(self) {}
}

/// Passed to the measured closure; `iter` times `self.iters` calls.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Measure `f`, preventing the result from being optimized away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Measure `routine` on a fresh `setup()` value per iteration; setup
    /// time is excluded from the measurement.
    pub fn iter_with_setup<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(black_box(input)));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let weight = rank - low as f64;
    sorted[low] * (1.0 - weight) + sorted[high] * weight
}

fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn human_bytes(rate: f64) -> String {
    if rate < 1_000.0 {
        format!("{rate:.0} B")
    } else if rate < 1_000_000.0 {
        format!("{:.1} KB", rate / 1_000.0)
    } else if rate < 1_000_000_000.0 {
        format!("{:.1} MB", rate / 1_000_000.0)
    } else {
        format!("{:.2} GB", rate / 1_000_000_000.0)
    }
}

/// Generate `fn main()` for a `harness = false` bench target:
/// `iotlan_util::bench_main!(bench_a, bench_b);` runs each target against a
/// `Criterion` configured from the command line.
#[macro_export]
macro_rules! bench_main {
    ($($target:path),+ $(,)?) => {
        fn main() {
            let mut criterion =
                $crate::bench::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 4.0);
        assert_eq!(percentile(&data, 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn args_parsing() {
        let c = Criterion::default()
            .configure_from(["--quick", "--sample-size", "5", "wire"].map(String::from).into_iter());
        assert!(c.quick);
        assert_eq!(c.sample_size, 5);
        assert_eq!(c.filter.as_deref(), Some("wire"));
        // Unknown flags (and their values) are swallowed.
        let c = Criterion::default()
            .configure_from(["--warm-up-time", "3"].map(String::from).into_iter());
        assert!(c.filter.is_none());
    }

    #[test]
    fn bench_function_emits_json_line_and_respects_filter() {
        // Runs a trivial closure through the full pipeline in quick mode —
        // asserts the machinery terminates and computes sane stats.
        let mut c = Criterion::default()
            .sample_size(3)
            .configure_from(["--quick"].map(String::from).into_iter());
        let mut runs = 0u64;
        let median = c.bench_function("selftest/noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            runs += 1;
        });
        assert!(runs > 0);
        assert!(median.is_some_and(f64::is_finite));
        // Filtered-out ids never execute their closure and have no median.
        let mut c = Criterion::default()
            .configure_from(["nomatch"].map(String::from).into_iter());
        let mut ran = false;
        assert_eq!(c.bench_function("selftest/other", |_| ran = true), None);
        assert!(!ran);
    }
}
