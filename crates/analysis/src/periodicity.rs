//! Periodicity analysis (Appendix D.1): "we use an approach that combines
//! Discrete Fourier Transformation (DFT) and autocorrelation. We check
//! periodicity for traffic from each unique (destination, protocol) tuple"
//! — ports are excluded "as the randomization of port number is prevalent
//! on IoT devices".
//!
//! Findings to reproduce: ~88% of discovery-protocol flows are periodic,
//! ~580 periodic (destination, protocol) groups, ~6.2 per device.

use iotlan_classify::flow::{Flow, FlowTable};
use iotlan_classify::rules::{classify_with_rules, paper_rules};
use iotlan_classify::Label;
use iotlan_wire::ethernet::EthernetAddress;
use std::collections::BTreeMap;

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
    "mDNS", "SSDP", "ARP", "DHCP", "ICMPv6", "TuyaLP", "TPLINK_SHP", "LIFX", "COAP", "IGMP",
];

/// Autocorrelation-based periodicity test on event times (seconds).
///
/// Computes the normalized autocorrelation of the binned event series and
/// accepts when some non-zero lag exceeds `0.5`. Robust to jitter because
/// the bin width adapts to the median inter-arrival.
pub fn autocorrelation_periodic(events: &[f64]) -> Option<f64> {
    if events.len() < 4 {
        return None;
    }
    let mut intervals: Vec<f64> = events.windows(2).map(|w| w[1] - w[0]).collect();
    intervals.retain(|&i| i > 0.0);
    if intervals.is_empty() {
        return None;
    }
    let mut sorted = intervals.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    if median <= 0.0 {
        return None;
    }
    // Bin the series at half the median interval.
    let bin = (median / 2.0).max(1e-3);
    let span = events.last().unwrap() - events[0];
    let bins = ((span / bin).ceil() as usize + 1).min(4096);
    let mut series = vec![0.0f64; bins];
    for &t in events {
        let index = (((t - events[0]) / bin) as usize).min(bins - 1);
        series[index] += 1.0;
    }
    let mean = series.iter().sum::<f64>() / bins as f64;
    let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var == 0.0 {
        return None;
    }
    let max_lag = bins / 2;
    let mut best_lag = 0usize;
    let mut best = 0.0f64;
    for lag in 1..max_lag {
        let mut acc = 0.0;
        for i in 0..bins - lag {
            acc += (series[i] - mean) * (series[i + lag] - mean);
        }
        let r = acc / var;
        if r > best {
            best = r;
            best_lag = lag;
        }
    }
    if best > 0.5 && best_lag > 0 {
        Some(best_lag as f64 * bin)
    } else {
        None
    }
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

/// DFT-based dominant-period detection over the binned series (Goertzel
/// over candidate frequencies). Returns the dominant period when its
/// spectral power dominates the mean power.
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
    for k in 1..BINS / 2 {
        let omega = 2.0 * std::f64::consts::PI * k as f64 / BINS as f64;
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for (n, &v) in series.iter().enumerate() {
            let phase = omega * n as f64;
            re += v * phase.cos();
            im += v * phase.sin();
        }
        let power = re * re + im * im;
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
    let analyzed = group_events(table)
        .into_iter()
        .map(|(key, events)| {
            // The paper combines DFT and autocorrelation; we accept any of
            // the three detectors (regularity converges fastest).
            let period = interval_regularity_periodic(&events)
                .or_else(|| autocorrelation_periodic(&events))
                .or_else(|| dft_periodic(&events));
            let discovery = DISCOVERY_PROTOCOLS.contains(&key.protocol.as_str());
            Group {
                decidable: events.len() >= 4,
                periodic: period.is_some(),
                period_secs: period,
                discovery,
                key,
                events,
            }
        })
        .collect();
    PeriodicityReport { groups: analyzed }
}

/// The detectors' input: each (source, destination, protocol) group's
/// packet times in seconds, sorted.
pub fn group_events(table: &FlowTable) -> BTreeMap<GroupKey, Vec<f64>> {
    let rules = paper_rules();
    let mut groups: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
    for flow in &table.flows {
        let key = GroupKey {
            src_mac: flow.key.src_mac,
            destination: destination_bucket(flow),
            protocol: classify_with_rules(flow, &rules).to_string(),
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
}
