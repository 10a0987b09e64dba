//! AppCensus-style runtime instrumentation records and their aggregate
//! analysis (§3.2, §6.1).
//!
//! In the paper, a system-level instrumented Android 9 with Frida scripts
//! logs permission-protected API access and decrypts TLS to observe
//! exfiltration. Here, every [`TestRun`] carries the same observables: the
//! APIs the app touched (and whether a side channel was used), the LAN
//! traffic it generated, what it harvested from responses, and the
//! decrypted exfiltration payloads with their cloud endpoints. Taint is
//! structural: an [`ExfilRecord`]'s `values` are copied from the harvested
//! items, so "data leaves only if it was actually collected on the LAN"
//! holds by construction.

use crate::android::{AccessOutcome, AndroidApi};
use crate::app::AppCategory;
use crate::sdk::SdkKind;
use std::collections::{BTreeMap, BTreeSet};

/// The sensitive data types of §6.1's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// MAC address of an IoT device on the LAN.
    DeviceMac,
    /// The router/AP's MAC (BSSID).
    RouterMac,
    /// The router's SSID.
    RouterSsid,
    /// The phone's own Wi-Fi MAC.
    WifiMac,
    /// A persistent device UUID harvested from mDNS/SSDP.
    DeviceUuid,
    /// A user display name ("Danny's Room").
    DisplayName,
    /// Geolocation (from TPLINK-SHP or the phone's location API).
    Geolocation,
    /// The Android Advertising ID.
    AdvertisingId,
    /// The non-resettable Android ID.
    AndroidId,
    /// TP-Link device ID.
    TplinkDeviceId,
    /// TP-Link OEM ID.
    TplinkOemId,
    /// Tuya gwId / product key.
    TuyaGwId,
    /// NetBIOS machine names.
    NetbiosName,
    /// UPnP device descriptor contents (AppDynamics' harvest).
    UpnpDescriptor,
}

/// Direction of a flow between app and cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// App → cloud.
    Uplink,
    /// Cloud → app (the §6.1 downlink MAC dissemination).
    Downlink,
}

/// One item collected from the LAN during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Harvested {
    pub data: DataType,
    pub value: String,
    /// The protocol it came from ("mDNS", "SSDP", …).
    pub source_protocol: &'static str,
}

/// One decrypted exfiltration flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExfilRecord {
    /// Destination (uplink) or source (downlink) endpoint URL.
    pub endpoint: String,
    /// The SDK responsible, if not first-party code.
    pub sdk: Option<SdkKind>,
    pub direction: Direction,
    /// The typed data and concrete values carried.
    pub values: Vec<(DataType, String)>,
}

/// The full instrumentation record for one app test.
#[derive(Debug, Clone)]
pub struct TestRun {
    pub package: String,
    pub category: AppCategory,
    pub api_accesses: Vec<(AndroidApi, AccessOutcome)>,
    /// Protocol labels of LAN traffic the app generated.
    pub protocols_used: Vec<&'static str>,
    pub harvested: Vec<Harvested>,
    pub exfil: Vec<ExfilRecord>,
}

impl TestRun {
    /// Did the run exfiltrate a given data type uplink?
    pub fn exfiltrates(&self, data: DataType) -> bool {
        self.exfil
            .iter()
            .any(|e| e.direction == Direction::Uplink && e.values.iter().any(|(d, _)| *d == data))
    }

    /// Did the run receive a given data type downlink?
    pub fn receives_downlink(&self, data: DataType) -> bool {
        self.exfil
            .iter()
            .any(|e| e.direction == Direction::Downlink && e.values.iter().any(|(d, _)| *d == data))
    }
}

/// Aggregate report over all runs — the numbers of §4.3 and §6.1.
#[derive(Debug, Clone)]
pub struct AppCensusReport {
    pub total_apps: usize,
    /// App counts per LAN protocol used.
    pub protocol_usage: BTreeMap<&'static str, usize>,
    /// Uplink exfiltration counts per data type.
    pub exfil_counts: BTreeMap<DataType, usize>,
    /// Uplink exfiltration counts per data type, IoT-category apps only
    /// (the §6.1 "six IoT apps relay MAC addresses" framing).
    pub exfil_counts_iot: BTreeMap<DataType, usize>,
    /// Apps receiving device MACs downlink.
    pub downlink_mac_apps: usize,
    /// Exfiltration flows per SDK.
    pub sdk_flows: BTreeMap<SdkKind, usize>,
    /// Apps whose data reached each cloud endpoint.
    pub endpoints: BTreeSet<String>,
    /// Apps that used a permission side channel.
    pub side_channel_apps: usize,
}

impl AppCensusReport {
    pub fn from_runs(runs: &[TestRun]) -> AppCensusReport {
        let mut protocol_usage: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut exfil_counts: BTreeMap<DataType, usize> = BTreeMap::new();
        let mut exfil_counts_iot: BTreeMap<DataType, usize> = BTreeMap::new();
        let mut sdk_flows: BTreeMap<SdkKind, usize> = BTreeMap::new();
        let mut endpoints = BTreeSet::new();
        let mut downlink_mac_apps = 0;
        let mut side_channel_apps = 0;
        for run in runs {
            let protocols: BTreeSet<&'static str> = run.protocols_used.iter().copied().collect();
            for protocol in protocols {
                *protocol_usage.entry(protocol).or_insert(0) += 1;
            }
            let mut exfilled: BTreeSet<DataType> = BTreeSet::new();
            for record in &run.exfil {
                endpoints.insert(record.endpoint.clone());
                if let Some(sdk) = record.sdk {
                    *sdk_flows.entry(sdk).or_insert(0) += 1;
                }
                if record.direction == Direction::Uplink {
                    for (data, _) in &record.values {
                        exfilled.insert(*data);
                    }
                }
            }
            for data in exfilled {
                *exfil_counts.entry(data).or_insert(0) += 1;
                if run.category == AppCategory::Iot {
                    *exfil_counts_iot.entry(data).or_insert(0) += 1;
                }
            }
            if run.receives_downlink(DataType::DeviceMac) {
                downlink_mac_apps += 1;
            }
            if run
                .api_accesses
                .iter()
                .any(|(_, outcome)| *outcome == AccessOutcome::SideChannel)
            {
                side_channel_apps += 1;
            }
        }
        AppCensusReport {
            total_apps: runs.len(),
            protocol_usage,
            exfil_counts,
            exfil_counts_iot,
            downlink_mac_apps,
            sdk_flows,
            endpoints,
            side_channel_apps,
        }
    }

    /// Apps exfiltrating `data`, as a count.
    pub fn apps_exfiltrating(&self, data: DataType) -> usize {
        self.exfil_counts.get(&data).copied().unwrap_or(0)
    }

    /// IoT-category apps exfiltrating `data`.
    pub fn iot_apps_exfiltrating(&self, data: DataType) -> usize {
        self.exfil_counts_iot.get(&data).copied().unwrap_or(0)
    }

    /// Distinct LAN protocols used across all apps (§4.3: 18 unique).
    pub fn unique_protocols(&self) -> usize {
        self.protocol_usage.len()
    }

    /// Fraction of apps using a protocol.
    pub fn protocol_rate(&self, protocol: &str) -> f64 {
        self.protocol_usage
            .iter()
            .find(|(p, _)| **p == protocol)
            .map(|(_, c)| *c)
            .unwrap_or(0) as f64
            / self.total_apps.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;

    #[test]
    fn mac_extraction() {
        let text = "deviceid=00:17:88:68:5f:61 other 9c:8e:cd:0a:33:1b end";
        let macs = extract_macs(text);
        assert_eq!(macs, vec!["00:17:88:68:5f:61", "9c:8e:cd:0a:33:1b"]);
        assert!(extract_macs("no macs here 00:17:88").is_empty());
    }

    #[test]
    fn uuid_extraction() {
        let text = "uuid:2f402f80-da50-11e1-9b23-001788685f61::upnp:rootdevice";
        let uuids = extract_uuids(text);
        assert_eq!(uuids, vec!["2f402f80-da50-11e1-9b23-001788685f61"]);
        assert!(extract_uuids("2f402f80-da50-11e1").is_empty());
    }

    #[test]
    fn possessive_extraction() {
        let names = extract_possessive_names("Roku Express - Danny's Room, ok");
        assert_eq!(names, vec!["Danny's Room"]);
        let names = extract_possessive_names("Jane Doe's Kitchen Homepod");
        assert_eq!(names, vec!["Doe's Kitchen Homepod"]);
        assert!(extract_possessive_names("its nothing").is_empty());
    }

    #[test]
    fn report_aggregation() {
        let runs = vec![
            TestRun {
                package: "a".into(),
                category: AppCategory::Iot,
                api_accesses: vec![(AndroidApi::NsdDiscoverMdns, AccessOutcome::SideChannel)],
                protocols_used: vec!["mDNS", "ARP", "mDNS"],
                harvested: vec![],
                exfil: vec![ExfilRecord {
                    endpoint: "https://api.amplitude.com/2/httpapi".into(),
                    sdk: Some(SdkKind::Amplitude),
                    direction: Direction::Uplink,
                    values: vec![(DataType::DeviceMac, "00:17:88:68:5f:61".into())],
                }],
            },
            TestRun {
                package: "b".into(),
                category: AppCategory::Regular,
                api_accesses: vec![],
                protocols_used: vec!["SSDP"],
                harvested: vec![],
                exfil: vec![ExfilRecord {
                    endpoint: "https://cloud.example".into(),
                    sdk: None,
                    direction: Direction::Downlink,
                    values: vec![(DataType::DeviceMac, "aa:bb:cc:dd:ee:ff".into())],
                }],
            },
        ];
        let report = AppCensusReport::from_runs(&runs);
        assert_eq!(report.total_apps, 2);
        assert_eq!(report.protocol_usage["mDNS"], 1); // deduped per app
        assert_eq!(report.apps_exfiltrating(DataType::DeviceMac), 1);
        assert_eq!(report.downlink_mac_apps, 1);
        assert_eq!(report.sdk_flows[&SdkKind::Amplitude], 1);
        assert_eq!(report.side_channel_apps, 1);
        assert_eq!(report.unique_protocols(), 3);
        assert!((report.protocol_rate("mDNS") - 0.5).abs() < 1e-9);
    }
}

/// The phone's original extractors, kept as test oracles for the
/// `inspector::ident` scans it now calls: per-byte windows for colon MACs
/// and UUIDs (case kept, UUIDs matched inside longer hex runs), and
/// possessive names over a `Vec<char>` (lowercase `'s ` only).
#[cfg(test)]
pub(crate) mod oracle {
    /// Find MAC-address-shaped substrings in text (colon form).
    pub fn extract_macs(text: &str) -> Vec<String> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let is_hex = |b: u8| b.is_ascii_hexdigit();
        let mut i = 0;
        while i + 17 <= bytes.len() {
            let window = &bytes[i..i + 17];
            let mut ok = true;
            for (j, &b) in window.iter().enumerate() {
                if j % 3 == 2 {
                    if b != b':' {
                        ok = false;
                        break;
                    }
                } else if !is_hex(b) {
                    ok = false;
                    break;
                }
            }
            if ok {
                out.push(String::from_utf8_lossy(window).into_owned());
                i += 17;
            } else {
                i += 1;
            }
        }
        out
    }

    /// Find UUID-shaped substrings (8-4-4-4-12 hex).
    pub fn extract_uuids(text: &str) -> Vec<String> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let lens = [8usize, 4, 4, 4, 12];
        let total = 36;
        let mut i = 0;
        while i + total <= bytes.len() {
            let window = &bytes[i..i + total];
            let mut pos = 0;
            let mut ok = true;
            for (seg, &len) in lens.iter().enumerate() {
                for _ in 0..len {
                    if !window[pos].is_ascii_hexdigit() {
                        ok = false;
                        break;
                    }
                    pos += 1;
                }
                if !ok {
                    break;
                }
                if seg < 4 {
                    if window[pos] != b'-' {
                        ok = false;
                        break;
                    }
                    pos += 1;
                }
            }
            if ok {
                out.push(String::from_utf8_lossy(window).into_owned());
                i += total;
            } else {
                i += 1;
            }
        }
        out
    }

    /// Find possessive display names ("Danny's Room" style): a word, an
    /// apostrophe-s, and a following word.
    pub fn extract_possessive_names(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            // Find a word start.
            if chars[i].is_alphabetic() {
                let word_start = i;
                while i < chars.len() && chars[i].is_alphanumeric() {
                    i += 1;
                }
                // Expect 's followed by space and another word.
                if i + 2 < chars.len()
                    && chars[i] == '\''
                    && chars[i + 1] == 's'
                    && chars[i + 2] == ' '
                    && i + 3 < chars.len()
                    && chars[i + 3].is_alphabetic()
                {
                    let mut j = i + 3;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == ' ') {
                        j += 1;
                    }
                    let name: String = chars[word_start..j].iter().collect();
                    out.push(name.trim_end().to_string());
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
        out
    }
}
