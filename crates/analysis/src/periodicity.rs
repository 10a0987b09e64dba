//! Periodicity analysis (Appendix D.1): "we use an approach that combines
//! Discrete Fourier Transformation (DFT) and autocorrelation. We check
//! periodicity for traffic from each unique (destination, protocol) tuple"
//! — ports are excluded "as the randomization of port number is prevalent
//! on IoT devices".
//!
//! Findings to reproduce: ~88% of discovery-protocol flows are periodic,
//! ~580 periodic (destination, protocol) groups, ~6.2 per device.
//!
//! The autocorrelation detector is exact: the binned series is a vector of
//! integer counts, so its normalized autocorrelation at every lag is a ratio
//! of integer sums over the occupied bins, compared without rounding. The
//! DFT test reads the power spectrum of one 1,024-point in-place radix-2
//! FFT.

use iotlan_classify::flow::{Flow, FlowTable};
use iotlan_classify::Label;
use iotlan_util::pool;
use iotlan_wire::ethernet::EthernetAddress;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Key for the paper's periodicity grouping: (source device, destination,
/// protocol) — ports deliberately ignored.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    pub src_mac: EthernetAddress,
    /// Destination: IP string or "multicast"/"broadcast" bucket.
    pub destination: String,
    pub protocol: String,
}

/// One analyzed group.
#[derive(Debug, Clone)]
pub struct Group {
    pub key: GroupKey,
    pub events: Vec<f64>,
    /// Enough events (>=4) to assess periodicity at all.
    pub decidable: bool,
    pub periodic: bool,
    /// Detected period in seconds (when periodic).
    pub period_secs: Option<f64>,
    /// Whether the protocol is a discovery protocol.
    pub discovery: bool,
}

/// Aggregate report.
#[derive(Debug, Clone)]
pub struct PeriodicityReport {
    pub groups: Vec<Group>,
}

impl PeriodicityReport {
    /// Fraction of *decidable* discovery groups flagged periodic (paper
    /// ≈ 88%). Groups with fewer than four events cannot be assessed and
    /// are excluded, as in any spectral method.
    pub fn discovery_periodic_fraction(&self) -> f64 {
        let discovery: Vec<&Group> = self
            .groups
            .iter()
            .filter(|g| g.discovery && g.decidable)
            .collect();
        if discovery.is_empty() {
            return 0.0;
        }
        discovery.iter().filter(|g| g.periodic).count() as f64 / discovery.len() as f64
    }

    /// Count of periodic groups (paper ≈ 580).
    pub fn periodic_group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.periodic).count()
    }

    /// Periodic groups per device (paper ≈ 6.2).
    pub fn periodic_groups_per_device(&self) -> f64 {
        let mut devices: std::collections::BTreeSet<EthernetAddress> =
            std::collections::BTreeSet::new();
        for group in &self.groups {
            devices.insert(group.key.src_mac);
        }
        if devices.is_empty() {
            return 0.0;
        }
        self.periodic_group_count() as f64 / devices.len() as f64
    }
}

/// Protocols the paper treats as discovery traffic (App. D.1).
pub const DISCOVERY_PROTOCOLS: &[Label] = &[
    "mDNS",
    "SSDP",
    "ARP",
    "DHCP",
    "ICMPv6",
    "TuyaLP",
    "TPLINK_SHP",
    "LIFX",
    "COAP",
    "IGMP",
];

/// Most bins the autocorrelation detector uses, however long the span.
const MAX_BINS: usize = 4096;

/// Longest transform: the tests' FFT autocorrelation zero-pads `MAX_BINS`
/// to twice its length, so no lag wraps around; the DFT detector's
/// transform is 1,024 points.
const MAX_FFT_LEN: usize = 2 * MAX_BINS;

/// `exp(-2πik / MAX_FFT_LEN)` as `(cos, sin)` for `k < MAX_FFT_LEN / 2`,
/// built once; a transform of length `n` strides by `MAX_FFT_LEN / n`.
fn twiddles() -> &'static [(f64, f64)] {
    static TABLE: OnceLock<Vec<(f64, f64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..MAX_FFT_LEN / 2)
            .map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / MAX_FFT_LEN as f64;
                (angle.cos(), angle.sin())
            })
            .collect()
    })
}

/// In-place iterative radix-2 FFT of the complex series `re + i·im`, whose
/// length is a power of two no larger than `MAX_FFT_LEN`. The forward
/// transform is `X[k] = Σ x[m]·exp(-2πikm/n)`; `inverse` flips the
/// exponent's sign and leaves the `1/n` scaling to the caller.
fn fft(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    assert!(n.is_power_of_two() && n <= MAX_FFT_LEN && im.len() == n);
    // Bit-reversal permutation.
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies, doubling the sub-transform length each pass.
    let table = twiddles();
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stride = MAX_FFT_LEN / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let (wr, wi) = table[k * stride];
                let wi = if inverse { -wi } else { wi };
                let (a, b) = (start + k, start + k + half);
                let tr = re[b] * wr - im[b] * wi;
                let ti = re[b] * wi + im[b] * wr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}

/// Power `|X_k|²` of `series` (a power-of-two length) at frequencies
/// `k = 0..series.len() / 2`.
fn power_spectrum(mut series: Vec<f64>) -> Vec<f64> {
    let mut im = vec![0.0f64; series.len()];
    fft(&mut series, &mut im, false);
    series
        .iter()
        .zip(&im)
        .take(series.len() / 2)
        .map(|(re, im)| re * re + im * im)
        .collect()
}

/// Autocorrelation-based periodicity test on event times (seconds).
///
/// Bins the events at half the median inter-arrival, so the bin width
/// adapts to the rate and absorbs jitter, and accepts when the normalized
/// autocorrelation of the bin counts exceeds `0.5` at some lag in
/// `1..bins / 2`. Returns the first lag with the largest autocorrelation,
/// in seconds. Both comparisons are exact, in integer arithmetic over the
/// occupied bins.
pub fn autocorrelation_periodic(events: &[f64]) -> Option<f64> {
    let (bin, counts) = bin_counts(events)?;
    strongest_lag(&counts).map(|lag| lag as f64 * bin)
}

/// The autocorrelation detector's series: event counts in bins of half the
/// median positive inter-arrival (at least 1 ms), at most `MAX_BINS` of
/// them, with the bin width in seconds. `None` below four events or with
/// no positive interval.
fn bin_counts(events: &[f64]) -> Option<(f64, Vec<u64>)> {
    if events.len() < 4 {
        return None;
    }
    let mut intervals: Vec<f64> = events.windows(2).map(|w| w[1] - w[0]).collect();
    intervals.retain(|&i| i > 0.0);
    if intervals.is_empty() {
        return None;
    }
    intervals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = intervals[intervals.len() / 2];
    if median <= 0.0 {
        return None;
    }
    // Bin the series at half the median interval.
    let bin = (median / 2.0).max(1e-3);
    let span = events.last().unwrap() - events[0];
    let bins = ((span / bin).ceil() as usize + 1).min(MAX_BINS);
    let mut counts = vec![0u64; bins];
    for &t in events {
        let index = (((t - events[0]) / bin) as usize).min(bins - 1);
        counts[index] += 1;
    }
    Some((bin, counts))
}

/// The lag in `1..counts.len() / 2` with the largest autocorrelation, the
/// first such lag on a tie, if that autocorrelation exceeds `0.5`. Both
/// comparisons are exact, on [`scaled_autocorrelation`]'s integers.
fn strongest_lag(counts: &[u64]) -> Option<usize> {
    let (numerators, den) = scaled_autocorrelation(counts)?;
    let (mut best_lag, mut best) = (0usize, 0i128);
    for (lag, &num) in numerators.iter().enumerate().skip(1) {
        if num > best {
            best = num;
            best_lag = lag;
        }
    }
    (2 * best > den).then_some(best_lag)
}

/// The normalized autocorrelation `r[lag] = Σ_{i<B−lag} (x_i − x̄)(x_{i+lag}
/// − x̄) / Σ_i (x_i − x̄)²` of `B = counts.len()` integer counts at lags
/// `0..B / 2`, as integer numerators over one denominator (`r[lag] =
/// num[lag] / den`); `None` for a constant series.
///
/// Scaled by `B²`, both sides are integers. With `S = Σx`, `Q = Σx²`,
/// `P[lag] = Σ x_i·x_{i+lag}`, `H[lag] = Σ_{i<B−lag} x_i` and
/// `T[lag] = Σ_{i≥lag} x_i`:
/// `num[lag] = B²·P[lag] − B·S·(H[lag] + T[lag]) + (B − lag)·S²` and
/// `den = B²·Q − B·S²`. `P` comes from the pairs of occupied bins less
/// than `B / 2` apart, `H` and `T` from one prefix sum: for `k` occupied
/// bins the cost is O(k·min(k, B/2) + B).
fn scaled_autocorrelation(counts: &[u64]) -> Option<(Vec<i128>, i128)> {
    let bins = counts.len();
    let half = bins / 2;
    // prefix[i] = Σ_{j<i} x_j.
    let mut prefix = Vec::with_capacity(bins + 1);
    prefix.push(0u64);
    let mut occupied: Vec<(usize, u64)> = Vec::new();
    let (mut sum, mut squares) = (0u64, 0u64);
    for (index, &count) in counts.iter().enumerate() {
        if count > 0 {
            occupied.push((index, count));
            squares += count * count;
        }
        sum += count;
        prefix.push(sum);
    }
    let (b, s) = (bins as i128, i128::from(sum));
    let den = b * b * i128::from(squares) - b * s * s;
    if den == 0 {
        return None;
    }
    // Every product sum is at most S², which fits a u64 for any slice of
    // fewer than 2³² events.
    let mut products = vec![0u64; half];
    for (a, &(i, x)) in occupied.iter().enumerate() {
        for &(j, y) in &occupied[a + 1..] {
            let lag = j - i;
            if lag >= half {
                break;
            }
            products[lag] += x * y;
        }
    }
    // Lag 0 pairs each bin with itself.
    if let Some(zero) = products.first_mut() {
        *zero = squares;
    }
    let numerators = products
        .iter()
        .enumerate()
        .map(|(lag, &pairs)| {
            let ends = prefix[bins - lag] + (sum - prefix[lag]);
            b * b * i128::from(pairs) - b * s * i128::from(ends) + (b - lag as i128) * s * s
        })
        .collect();
    Some((numerators, den))
}

/// Inter-arrival regularity test: a group whose intervals have a low
/// coefficient of variation is periodic with the median interval as the
/// period. This is the short-series workhorse — the paper's five-day
/// capture gave every group hundreds of events; shorter captures need a
/// detector that converges by four.
pub fn interval_regularity_periodic(events: &[f64]) -> Option<f64> {
    if events.len() < 4 {
        return None;
    }
    let intervals: Vec<f64> = events.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = intervals.iter().sum::<f64>() / intervals.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let var = intervals
        .iter()
        .map(|i| (i - mean) * (i - mean))
        .sum::<f64>()
        / intervals.len() as f64;
    let cv = var.sqrt() / mean;
    if cv < 0.25 {
        Some(mean)
    } else {
        None
    }
}

/// DFT-based dominant-period detection over the binned series: the power
/// at every candidate frequency comes from one FFT of the 1,024 bins.
/// Returns the dominant period when its spectral power dominates the mean
/// power.
pub fn dft_periodic(events: &[f64]) -> Option<f64> {
    if events.len() < 4 {
        return None;
    }
    let span = events.last().unwrap() - events[0];
    if span <= 0.0 {
        return None;
    }
    const BINS: usize = 1024;
    let bin = span / BINS as f64;
    let mut series = vec![0.0f64; BINS];
    for &t in events {
        let index = (((t - events[0]) / bin) as usize).min(BINS - 1);
        series[index] += 1.0;
    }
    let mean = series.iter().sum::<f64>() / BINS as f64;
    for value in &mut series {
        *value -= mean;
    }
    // Power at each frequency k = 1..BINS/2.
    let mut best_k = 0usize;
    let mut best_power = 0.0f64;
    let mut total_power = 0.0f64;
    for (k, &power) in power_spectrum(series).iter().enumerate().skip(1) {
        total_power += power;
        if power > best_power {
            best_power = power;
            best_k = k;
        }
    }
    if best_k == 0 || total_power == 0.0 {
        return None;
    }
    let mean_power = total_power / (BINS / 2 - 1) as f64;
    if best_power > 10.0 * mean_power {
        Some(span / best_k as f64)
    } else {
        None
    }
}

/// Analyze a flow table, grouping by (source, destination, protocol).
pub fn analyze_periodicity(table: &FlowTable) -> PeriodicityReport {
    // Grouping labels the table's flows across the pool, so it runs here,
    // outside the detectors' pool region.
    let grouped: Vec<(GroupKey, Vec<f64>)> = group_events(table).into_iter().collect();
    // Each verdict is a pure function of its group's events, so the
    // report is the same at any thread count.
    let periods = pool::par_map(&grouped, |_, (_, events)| {
        // The paper combines DFT and autocorrelation; we accept any of
        // the three detectors (regularity converges fastest).
        interval_regularity_periodic(events)
            .or_else(|| autocorrelation_periodic(events))
            .or_else(|| dft_periodic(events))
    });
    let groups = grouped
        .into_iter()
        .zip(periods)
        .map(|((key, events), period)| Group {
            decidable: events.len() >= 4,
            periodic: period.is_some(),
            period_secs: period,
            discovery: DISCOVERY_PROTOCOLS.contains(&key.protocol.as_str()),
            key,
            events,
        })
        .collect();
    PeriodicityReport { groups }
}

/// The detectors' input: each (source, destination, protocol) group's
/// packet times in seconds, sorted.
pub fn group_events(table: &FlowTable) -> BTreeMap<GroupKey, Vec<f64>> {
    let mut groups: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
    for (flow, labels) in table.flows.iter().zip(table.labels()) {
        let key = GroupKey {
            src_mac: flow.key.src_mac,
            destination: destination_bucket(flow),
            protocol: labels.paper.to_string(),
        };
        let entry = groups.entry(key).or_default();
        entry.extend(flow.timestamps.iter().map(|t| t.as_secs_f64()));
    }
    for events in groups.values_mut() {
        events.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    groups
}

/// The (destination) half of the grouping key, from the flow's first-frame
/// destination MAC and IP.
fn destination_bucket(flow: &Flow) -> String {
    let dst_mac = flow.dst_mac;
    if dst_mac.is_broadcast() {
        "broadcast".into()
    } else if dst_mac.is_multicast() {
        match flow.key.dst_ip {
            Some(ip) => format!("multicast:{ip}"),
            None => "multicast".into(),
        }
    } else {
        match flow.key.dst_ip {
            Some(ip) => ip.to_string(),
            None => dst_mac.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic_events(period: f64, count: usize, jitter: f64) -> Vec<f64> {
        // Deterministic pseudo-jitter.
        (0..count)
            .map(|i| {
                let j = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                i as f64 * period + j * jitter
            })
            .collect()
    }

    #[test]
    fn autocorrelation_detects_clean_period() {
        let events = periodic_events(20.0, 50, 0.0);
        let period = autocorrelation_periodic(&events).expect("periodic");
        assert!((period - 20.0).abs() < 2.0, "period {period}");
    }

    #[test]
    fn autocorrelation_tolerates_jitter() {
        let events = periodic_events(20.0, 60, 2.0);
        assert!(autocorrelation_periodic(&events).is_some());
    }

    #[test]
    fn random_events_not_periodic() {
        // Exponential-ish arrivals via deterministic scrambling.
        let mut t = 0.0;
        let events: Vec<f64> = (0..60)
            .map(|i| {
                t += 1.0 + ((i * 48271) % 97) as f64;
                t
            })
            .collect();
        assert!(autocorrelation_periodic(&events).is_none());
        assert!(dft_periodic(&events).is_none());
    }

    #[test]
    fn dft_detects_period() {
        let events = periodic_events(30.0, 64, 0.5);
        let period = dft_periodic(&events).expect("periodic");
        assert!((period - 30.0).abs() < 5.0, "period {period}");
    }

    #[test]
    fn regularity_detector() {
        let events = periodic_events(25.0, 6, 2.0);
        let period = interval_regularity_periodic(&events).expect("periodic");
        assert!((period - 25.0).abs() < 3.0, "period {period}");
        // Irregular arrivals rejected.
        let irregular = vec![0.0, 3.0, 50.0, 52.0, 120.0, 121.0];
        assert!(interval_regularity_periodic(&irregular).is_none());
    }

    #[test]
    fn too_few_events_undecided() {
        assert!(autocorrelation_periodic(&[1.0, 2.0]).is_none());
        assert!(interval_regularity_periodic(&[1.0, 2.0]).is_none());
        assert!(dft_periodic(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn grouping_ignores_ports() {
        use iotlan_classify::flow::FlowTable;
        use iotlan_netsim::stack::{self, Endpoint};
        use iotlan_netsim::SimTime;
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: std::net::Ipv4Addr::new(192, 168, 10, 2),
        };
        let mut table = FlowTable::default();
        // Same destination+protocol, rotating source ports: one group.
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 1).to_bytes();
        for i in 0..30u64 {
            let frame = stack::udp_multicast(
                src,
                std::net::Ipv4Addr::new(239, 255, 255, 250),
                40000 + (i as u16 * 7),
                1900,
                &msearch,
            );
            table.add_frame(SimTime::from_secs(i * 20), &frame);
        }
        let report = analyze_periodicity(&table);
        let ssdp_groups: Vec<&Group> = report
            .groups
            .iter()
            .filter(|g| g.key.protocol == "SSDP")
            .collect();
        assert_eq!(ssdp_groups.len(), 1, "ports must not split groups");
        assert!(ssdp_groups[0].periodic);
        let period = ssdp_groups[0].period_secs.unwrap();
        assert!((period - 20.0).abs() < 3.0, "period {period}");
        assert!(report.discovery_periodic_fraction() > 0.99);
    }

    /// Normalized autocorrelation of `series` at lags `0..series.len() / 2`:
    /// `r[lag] = Σ_i (x_i − x̄)(x_{i+lag} − x̄) / Σ_i (x_i − x̄)²`, or `None` for
    /// a constant series. Wiener–Khinchin: the inverse transform of the
    /// zero-padded series' |X|² is its linear autocovariance.
    fn autocorrelation(series: &[f64]) -> Option<Vec<f64>> {
        let bins = series.len();
        let mean = series.iter().sum::<f64>() / bins as f64;
        let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
        if var == 0.0 {
            return None;
        }
        let n = (2 * bins).next_power_of_two();
        let mut re = vec![0.0f64; n];
        for (slot, v) in re.iter_mut().zip(series) {
            *slot = v - mean;
        }
        let mut im = vec![0.0f64; n];
        fft(&mut re, &mut im, false);
        for (x_re, x_im) in re.iter_mut().zip(&mut im) {
            *x_re = *x_re * *x_re + *x_im * *x_im;
            *x_im = 0.0;
        }
        fft(&mut re, &mut im, true);
        Some(
            re[..bins / 2]
                .iter()
                .map(|acc| acc / n as f64 / var)
                .collect(),
        )
    }

    /// Reference: the FFT detector the exact one replaced, over the same
    /// bins — the Wiener–Khinchin autocorrelation in floating point, its
    /// argmax and the `0.5` threshold — as a lag.
    fn fft_strongest_lag(counts: &[u64]) -> Option<usize> {
        let series: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let correlation = autocorrelation(&series)?;
        let mut best_lag = 0usize;
        let mut best = 0.0f64;
        for (lag, &r) in correlation.iter().enumerate().skip(1) {
            if r > best {
                best = r;
                best_lag = lag;
            }
        }
        (best > 0.5 && best_lag > 0).then_some(best_lag)
    }

    /// The stream engine's per-flow timestamp cap (`EVENT_CAP`): a stream
    /// group holds at least this many events when one of its flows hit it.
    const EVENT_CAP: usize = 2048;

    /// Sorted event times of one of the shapes App. D.1 meets: periodic
    /// with and without jitter, bursty, uniform random, at least
    /// `EVENT_CAP` events, a span that hits `MAX_BINS`, and many events
    /// in one bin.
    fn event_series(g: &mut iotlan_util::check::Gen) -> Vec<f64> {
        let start = g.rng().gen_range(0.0..1000.0);
        // `least` plus up to `extra` (scaled by size) events.
        let periodic =
            |g: &mut iotlan_util::check::Gen, least: usize, extra: usize, jitter: f64| {
                let period = g.rng().gen_range(0.01..600.0);
                (0..least + g.len(extra))
                    .map(|i| {
                        let noise = g.rng().gen_range(-0.5..0.5) * jitter * period;
                        start + i as f64 * period + noise
                    })
                    .collect::<Vec<f64>>()
            };
        let mut events = match g.int_in(0..7u8) {
            0 => periodic(g, 4, 396, 0.0),
            1 => {
                let jitter = g.rng().gen_range(0.0..0.6);
                periodic(g, 4, 396, jitter)
            }
            2 => {
                let mut t = start;
                let mut events = Vec::new();
                for _ in 0..g.len(40).max(2) {
                    t += g.rng().gen_range(10.0..1000.0);
                    let spacing = g.rng().gen_range(0.001..1.0);
                    for k in 0..g.int_in(2..=20usize) {
                        events.push(t + k as f64 * spacing);
                    }
                }
                events
            }
            3 => {
                let span = g.rng().gen_range(1.0..100_000.0);
                (0..g.len(400).max(4))
                    .map(|_| start + g.rng().gen_range(0.0..span))
                    .collect()
            }
            4 => {
                let jitter = if g.bool() {
                    0.0
                } else {
                    g.rng().gen_range(0.0..0.3)
                };
                periodic(g, EVENT_CAP, 1000, jitter)
            }
            5 => {
                // A dense run, then a straggler far enough out that the
                // span needs more than `MAX_BINS` bins at this width.
                let mut events = periodic(g, 4, 196, 0.1);
                let last = *events.last().unwrap();
                let median_gap = (last - start) / events.len() as f64;
                events.push(last + median_gap * g.rng().gen_range(4096.0..1e5));
                events
            }
            _ => {
                // Repeated instants: each event `k` times, or one burst.
                let base = periodic(g, 4, 96, 0.05);
                if g.bool() {
                    let k = g.int_in(2..=50usize);
                    base.iter()
                        .flat_map(|&t| std::iter::repeat_n(t, k))
                        .collect()
                } else {
                    let mut events = base.clone();
                    events.extend(std::iter::repeat_n(base[0], g.int_in(100..=1000usize)));
                    events
                }
            }
        };
        events.sort_by(f64::total_cmp);
        events
    }

    iotlan_util::props! {
        /// The exact detector returns, bit for bit, the period the FFT
        /// detector it replaced returns, and its `num / den` is the FFT's
        /// autocorrelation at every lag. The one licensed difference is an
        /// exact tie that the FFT's rounding resolved: two lags with equal
        /// numerators (the exact detector keeps the first) or a maximum of
        /// exactly `0.5` (which it rejects).
        fn exact_autocorrelation_matches_fft(g) {
            let events = event_series(g);
            let exact = autocorrelation_periodic(&events);
            let Some((bin, counts)) = bin_counts(&events) else {
                assert_eq!(exact, None);
                return;
            };
            let fft = fft_strongest_lag(&counts);
            let fft_period = fft.map(|lag| lag as f64 * bin);
            let scaled = scaled_autocorrelation(&counts);
            let series: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let correlation = autocorrelation(&series);
            assert_eq!(scaled.is_some(), correlation.is_some());
            let Some((numerators, den)) = scaled else {
                assert_eq!((exact, fft), (None, None));
                return;
            };
            let correlation = correlation.unwrap();
            assert_eq!(numerators.len(), correlation.len());
            for (lag, (&num, r)) in numerators.iter().zip(&correlation).enumerate() {
                let exact_r = num as f64 / den as f64;
                assert!((exact_r - r).abs() <= 1e-9, "lag {lag}: {exact_r} vs FFT {r}");
            }
            if exact.map(f64::to_bits) == fft_period.map(f64::to_bits) {
                return;
            }
            let context = format!("{} events in {} bins: exact {exact:?} vs FFT {fft_period:?}", events.len(), counts.len());
            match (strongest_lag(&counts), fft) {
                (Some(first), Some(later)) => {
                    assert!(first < later && numerators[first] == numerators[later], "{context}");
                }
                (None, Some(lag)) => assert_eq!(2 * numerators[lag], den, "{context}"),
                _ => panic!("{context}"),
            }
        }
    }

    /// Exact ties follow the documented rules, whatever the FFT's rounding
    /// made of them: equal maxima go to the first lag, and a maximum of
    /// exactly `0.5` is rejected.
    #[test]
    fn exact_ties_keep_the_first_lag_and_reject_one_half() {
        let mut counts = vec![1u64, 1, 0, 0];
        counts.extend([1, 0].repeat(12));
        let (numerators, den) = scaled_autocorrelation(&counts).unwrap();
        assert_eq!((numerators[2], numerators[4], den), (3920, 3920, 5488));
        assert_eq!(strongest_lag(&counts), Some(2));

        let mut counts = vec![1u64, 1, 0, 0];
        counts.extend([1, 0].repeat(6));
        let (numerators, den) = scaled_autocorrelation(&counts).unwrap();
        assert_eq!((2 * numerators[2], 2 * numerators[4]), (den, den));
        assert_eq!(strongest_lag(&counts), None);
    }

    /// A million events, almost all in the last of `MAX_BINS` bins: `B²·Q`
    /// alone exceeds 1.6·10¹⁹, near the top of a u64, and the i128 sums
    /// still give the FFT's verdict.
    #[test]
    fn exact_autocorrelation_holds_at_a_million_events() {
        let events: Vec<f64> = (0..1_000_000).map(|i| i as f64 * 1e-3).collect();
        let (_, counts) = bin_counts(&events).unwrap();
        assert_eq!(counts.len(), MAX_BINS);
        assert!(counts[MAX_BINS - 1] > 990_000);
        assert_eq!(strongest_lag(&counts), fft_strongest_lag(&counts));
        // A million events in bursts of 489 at one instant every 2 s:
        // 1-s bins, every other one holding 489 events.
        let events: Vec<f64> = (0..1_000_000).map(|i| (i / 489) as f64 * 2.0).collect();
        let (bin, counts) = bin_counts(&events).unwrap();
        assert_eq!(bin, 1.0);
        assert_eq!(strongest_lag(&counts), Some(2));
        assert_eq!(fft_strongest_lag(&counts), Some(2));
        assert_eq!(autocorrelation_periodic(&events), Some(2.0));
    }

    /// Reference: the direct O(n²) autocorrelation sum over the same lags.
    fn direct_autocorrelation(series: &[f64]) -> Option<Vec<f64>> {
        let bins = series.len();
        let mean = series.iter().sum::<f64>() / bins as f64;
        let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
        if var == 0.0 {
            return None;
        }
        let r = (0..bins / 2)
            .map(|lag| {
                let mut acc = 0.0;
                for i in 0..bins - lag {
                    acc += (series[i] - mean) * (series[i + lag] - mean);
                }
                acc / var
            })
            .collect();
        Some(r)
    }

    /// Reference: the direct O(n²) DFT power over the same frequencies.
    fn direct_power(series: &[f64]) -> Vec<f64> {
        let n = series.len();
        (0..n / 2)
            .map(|k| {
                let omega = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for (m, &v) in series.iter().enumerate() {
                    let phase = omega * m as f64;
                    re += v * phase.cos();
                    im += v * phase.sin();
                }
                re * re + im * im
            })
            .collect()
    }

    /// A binned event series: mostly empty bins with a few small counts,
    /// occasionally constant.
    fn count_series(g: &mut iotlan_util::check::Gen) -> Vec<f64> {
        let bins = match g.int_in(0..8u8) {
            0 => MAX_BINS,
            1 => g.int_in(2..=4usize),
            _ => g.len(MAX_BINS).max(2),
        };
        if g.int_in(0..8u8) == 0 {
            return vec![f64::from(g.int_in(0..=3u8)); bins];
        }
        let density = g.int_in(1..=4u32);
        (0..bins)
            .map(|_| {
                if g.int_in(0..8u32) < density {
                    f64::from(g.int_in(1..=5u8))
                } else {
                    0.0
                }
            })
            .collect()
    }

    iotlan_util::props! {
        /// The FFT detectors compute the direct sums they replaced: every
        /// autocorrelation lag within 1e-9, every DFT power within 1e-9 of
        /// the total power, and an inverse transform undoes a forward one.
        fn fft_matches_direct_sums(g) {
            let series = count_series(g);
            let fast = autocorrelation(&series);
            let direct = direct_autocorrelation(&series);
            assert_eq!(fast.is_some(), direct.is_some(), "bins {}", series.len());
            if let (Some(fast), Some(direct)) = (fast, direct) {
                assert_eq!(fast.len(), direct.len());
                for (lag, (a, b)) in fast.iter().zip(&direct).enumerate() {
                    assert!((a - b).abs() <= 1e-9, "bins {} lag {lag}: {a} vs {b}", series.len());
                }
            }

            // The DFT detector's transform: a power-of-two prefix, centred.
            let n = 1usize << series.len().ilog2();
            let mean = series[..n].iter().sum::<f64>() / n as f64;
            let centred: Vec<f64> = series[..n].iter().map(|v| v - mean).collect();
            let direct = direct_power(&centred);
            let total: f64 = direct.iter().sum();
            let fast = power_spectrum(centred);
            assert_eq!(fast.len(), direct.len());
            for (k, (a, b)) in fast.iter().zip(&direct).enumerate() {
                assert!((a - b).abs() <= 1e-9 * total.max(1.0), "n {n} k {k}: {a} vs {b}");
            }

            // r and |X|² are even in k, so they cannot see a wrong sign in
            // the inverse transform; a complex round trip can.
            let mut re: Vec<f64> = (0..n).map(|_| f64::from(g.int_in(0..=9u8))).collect();
            let mut im: Vec<f64> = (0..n).map(|_| f64::from(g.int_in(0..=9u8))).collect();
            let (re0, im0) = (re.clone(), im.clone());
            fft(&mut re, &mut im, false);
            fft(&mut re, &mut im, true);
            for m in 0..n {
                let (a, b) = (re[m] / n as f64, im[m] / n as f64);
                assert!((a - re0[m]).abs() <= 1e-9 && (b - im0[m]).abs() <= 1e-9, "n {n} m {m}");
            }
        }
    }
}
