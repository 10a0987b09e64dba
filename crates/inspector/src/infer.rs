//! Device-identity inference — the Appendix E replacement.
//!
//! The paper fed user labels, DHCP hostnames and mDNS/SSDP responses to
//! OpenAI's TextCompletion API to infer vendor and category for 25,033
//! devices. We substitute a deterministic rule engine over the same three
//! metadata fields (keyword table + OUI registry fallback), which is
//! reproducible and runs offline. Accuracy is scored against the
//! generator's ground truth.

use crate::dataset::{Dataset, Device};
use iotlan_util::pool;

/// An inference result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inference {
    pub vendor: Option<String>,
    pub category: Option<String>,
}

/// Category keywords → canonical category. Order matters: first hit wins.
const CATEGORY_RULES: &[(&str, &str)] = &[
    ("camera", "camera"),
    ("cam", "camera"),
    ("doorbell", "camera"),
    ("tv-stick", "tv-stick"),
    ("roku", "tv-stick"),
    ("streamer", "streamer"),
    ("cast", "streamer"),
    ("tv", "tv"),
    ("speaker", "speaker"),
    ("echo", "speaker"),
    ("homepod", "speaker"),
    ("bridge", "bridge"),
    ("hue", "bridge"),
    ("hub", "hub"),
    ("plug", "plug"),
    ("switch", "plug"),
    ("bulb", "plug"),
    ("sensor", "sensor"),
    ("scale", "sensor"),
    ("thermostat", "sensor"),
    ("appliance", "appliance"),
    ("fridge", "appliance"),
    ("washer", "appliance"),
    ("media-player", "media-player"),
    ("media", "media-player"),
];

/// Infer vendor and category for a device from its metadata, with an
/// OUI-registry fallback for the vendor.
pub fn infer_device(device: &Device, oui_registry: &[(String, String)]) -> Inference {
    let mut corpus = String::new();
    if let Some(label) = &device.user_label {
        corpus.push_str(label);
        corpus.push(' ');
    }
    if let Some(hostname) = &device.dhcp_hostname {
        corpus.push_str(hostname);
        corpus.push(' ');
    }
    for payload in device.mdns_responses.iter().chain(&device.ssdp_responses) {
        corpus.push_str(payload);
        corpus.push(' ');
    }
    let corpus = corpus.to_lowercase();

    // Vendor: look for a known vendor name in the text, else the OUI.
    let mut vendor = oui_registry
        .iter()
        .find(|(_, name)| corpus.contains(&name.to_lowercase()))
        .map(|(_, name)| name.clone());
    if vendor.is_none() {
        vendor = oui_registry
            .iter()
            .find(|(oui, _)| *oui == device.oui)
            .map(|(_, name)| name.clone());
    }

    let category = CATEGORY_RULES
        .iter()
        .find(|(keyword, _)| corpus.contains(keyword))
        .map(|(_, category)| category.to_string());

    Inference { vendor, category }
}

/// Build an OUI registry from a dataset's ground truth (standing in for
/// IoT Inspector's curated OUI database).
pub fn registry_from_dataset(dataset: &Dataset) -> Vec<(String, String)> {
    let mut registry: Vec<(String, String)> = dataset
        .households
        .iter()
        .flat_map(|h| &h.devices)
        .map(|d| (d.oui.clone(), d.truth_vendor.clone()))
        .collect();
    registry.sort();
    registry.dedup();
    registry
}

/// Inference accuracy over a dataset: (vendor accuracy, category accuracy,
/// coverage = fraction with at least two metadata fields, mirroring the
/// paper's ≥2-field filter).
pub fn score(dataset: &Dataset) -> (f64, f64, f64) {
    let registry = registry_from_dataset(dataset);
    // Per-household tallies are independent — fan the rule engine out
    // across the pool and merge counts in household order.
    #[derive(Default)]
    struct Tally {
        eligible: usize,
        vendor_hits: usize,
        category_hits: usize,
        total: usize,
    }
    let tally = pool::par_map_reduce(
        &dataset.households,
        Tally::default,
        |acc, _, household| {
            for device in &household.devices {
                acc.total += 1;
                let fields = usize::from(device.user_label.is_some())
                    + usize::from(device.dhcp_hostname.is_some())
                    + usize::from(
                        !device.mdns_responses.is_empty() || !device.ssdp_responses.is_empty(),
                    );
                if fields < 2 {
                    continue;
                }
                acc.eligible += 1;
                let inference = infer_device(device, &registry);
                if inference.vendor.as_deref() == Some(device.truth_vendor.as_str()) {
                    acc.vendor_hits += 1;
                }
                if inference.category.as_deref() == Some(device.truth_category.as_str()) {
                    acc.category_hits += 1;
                }
            }
        },
        |acc, part| {
            acc.eligible += part.eligible;
            acc.vendor_hits += part.vendor_hits;
            acc.category_hits += part.category_hits;
            acc.total += part.total;
        },
    );
    (
        tally.vendor_hits as f64 / tally.eligible.max(1) as f64,
        tally.category_hits as f64 / tally.eligible.max(1) as f64,
        tally.eligible as f64 / tally.total.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, GeneratorConfig};

    #[test]
    fn infers_vendor_from_label_and_oui() {
        let dataset = generate(&GeneratorConfig {
            seed: 5,
            households: 300,
        });
        let registry = registry_from_dataset(&dataset);
        let device = dataset
            .households
            .iter()
            .flat_map(|h| &h.devices)
            .find(|d| d.user_label.is_some())
            .unwrap();
        let inference = infer_device(device, &registry);
        assert_eq!(
            inference.vendor.as_deref(),
            Some(device.truth_vendor.as_str())
        );
    }

    #[test]
    fn oui_fallback_when_no_text() {
        let dataset = generate(&GeneratorConfig {
            seed: 5,
            households: 300,
        });
        let registry = registry_from_dataset(&dataset);
        // A device with no label still resolves through its OUI.
        let device = dataset
            .households
            .iter()
            .flat_map(|h| &h.devices)
            .find(|d| d.user_label.is_none())
            .unwrap();
        let inference = infer_device(device, &registry);
        assert!(inference.vendor.is_some());
    }

    #[test]
    fn accuracy_high_on_eligible_devices() {
        let dataset = generate(&GeneratorConfig {
            seed: 11,
            households: 500,
        });
        let (vendor_acc, category_acc, coverage) = score(&dataset);
        assert!(vendor_acc > 0.9, "vendor accuracy {vendor_acc}");
        assert!(category_acc > 0.7, "category accuracy {category_acc}");
        assert!(coverage > 0.5, "coverage {coverage}");
    }
}
