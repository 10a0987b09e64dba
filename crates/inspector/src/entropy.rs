//! The Table 2 household-fingerprintability analysis (§6.3).
//!
//! For every device, extract names/UUIDs/MACs from its mDNS and SSDP
//! responses; classify devices by the *combination* of identifier types
//! they expose; then per combination report distinct products, vendors,
//! devices, households, the fraction of households uniquely identifiable
//! from those identifier values, and the entropy `log2(N)` (summed across
//! the types in the combination, matching the paper's additive combination
//! rows: 12.3 ≈ 3.4 + 8.9, 16.7 ≈ 8.9 + 7.8, 20.1 ≈ all three).

use crate::dataset::Dataset;
use crate::ident;
use iotlan_util::pool;
use std::collections::{BTreeMap, BTreeSet};

/// Which identifier types a device exposed (Table 2's "#" classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdentifierClass {
    pub name: bool,
    pub uuid: bool,
    pub mac: bool,
}

impl IdentifierClass {
    pub const NONE: IdentifierClass = IdentifierClass {
        name: false,
        uuid: false,
        mac: false,
    };

    /// Number of identifier types exposed (the "#" column).
    pub fn count(self) -> usize {
        usize::from(self.name) + usize::from(self.uuid) + usize::from(self.mac)
    }

    /// Label like "name, UUID".
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        if self.name {
            parts.push("name");
        }
        if self.uuid {
            parts.push("UUID");
        }
        if self.mac {
            parts.push("MAC");
        }
        if parts.is_empty() {
            "N/A".into()
        } else {
            parts.join(", ")
        }
    }
}

/// One row of the Table 2 output.
#[derive(Debug, Clone)]
pub struct EntropyRow {
    pub class: IdentifierClass,
    pub products: usize,
    pub vendors: usize,
    pub devices: usize,
    pub households: usize,
    /// Fraction of the row's households whose identifier values are
    /// unique among them.
    pub unique_fraction: f64,
    /// log2(distinct values), summed over the types in the class.
    pub entropy_bits: f64,
}

/// The full analysis result.
#[derive(Debug, Clone)]
pub struct EntropyTable {
    pub rows: Vec<EntropyRow>,
    /// Households with at least one device carrying discovery payloads.
    pub analyzed_households: usize,
    pub analyzed_devices: usize,
}

impl EntropyTable {
    /// Find the row for a class.
    pub fn row(&self, name: bool, uuid: bool, mac: bool) -> Option<&EntropyRow> {
        self.rows
            .iter()
            .find(|r| r.class == IdentifierClass { name, uuid, mac })
    }

    /// Render the table as text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "#  Pdt  Vdr   Dev    Hse   Identifier(s)      Unique%   Ent\n",
        );
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| (r.class.count(), r.class));
        for row in rows {
            out.push_str(&format!(
                "{}  {:>3}  {:>3}  {:>5}  {:>5}  {:<17} {:>6.1}%  {:>5.1}\n",
                row.class.count(),
                row.products,
                row.vendors,
                row.devices,
                row.households,
                row.class.label(),
                row.unique_fraction * 100.0,
                row.entropy_bits,
            ));
        }
        out
    }
}

/// The identifier values one device exposes in its discovery payloads —
/// the extraction step of the Table 2 analysis below.
struct DeviceIdentifiers {
    class: IdentifierClass,
    names: Vec<String>,
    uuids: Vec<String>,
    macs: Vec<String>,
}

/// Extract a device's exposed identifiers. `None` when the device carries
/// no discovery payloads (such devices were never collected and are
/// excluded from every Table 2 aggregate).
fn extract_device_identifiers(device: &crate::dataset::Device) -> Option<DeviceIdentifiers> {
    if device.mdns_responses.is_empty() && device.ssdp_responses.is_empty() {
        return None;
    }
    let text = format!(
        "{}\n{}",
        device.mdns_responses.join("\n"),
        device.ssdp_responses.join("\n")
    );
    let names = ident::extract_names(&text);
    let uuids = ident::extract_uuids(&text);
    let macs = ident::extract_macs_with_oui(&text, &device.oui);
    Some(DeviceIdentifiers {
        class: IdentifierClass {
            name: !names.is_empty(),
            uuid: !uuids.is_empty(),
            mac: !macs.is_empty(),
        },
        names,
        uuids,
        macs,
    })
}

struct DeviceExtraction<'a> {
    household: usize,
    vendor: &'a str,
    product: (String, String),
    class: IdentifierClass,
    names: Vec<String>,
    uuids: Vec<String>,
    macs: Vec<String>,
}

/// Run the §6.3 analysis.
///
/// Identifier extraction — the string-scanning hot loop — fans out across
/// the pool per household; the flattened extraction list is rebuilt in
/// household order, so every downstream aggregate is thread-count
/// invariant.
pub fn analyze(dataset: &Dataset) -> EntropyTable {
    let per_household: Vec<Vec<DeviceExtraction>> =
        pool::par_map(&dataset.households, |house_index, household| {
            household
                .devices
                .iter()
                .filter_map(|device| {
                    let identifiers = extract_device_identifiers(device)?;
                    Some(DeviceExtraction {
                        household: house_index,
                        vendor: &device.truth_vendor,
                        product: (device.truth_vendor.clone(), device.truth_category.clone()),
                        class: identifiers.class,
                        names: identifiers.names,
                        uuids: identifiers.uuids,
                        macs: identifiers.macs,
                    })
                })
                .collect()
        });
    let analyzed_households: BTreeSet<usize> = per_household
        .iter()
        .enumerate()
        .filter(|(_, extractions)| !extractions.is_empty())
        .map(|(house_index, _)| house_index)
        .collect();
    let extractions: Vec<DeviceExtraction> = per_household.into_iter().flatten().collect();

    // Group by class.
    let mut by_class: BTreeMap<IdentifierClass, Vec<&DeviceExtraction>> = BTreeMap::new();
    for extraction in &extractions {
        by_class.entry(extraction.class).or_default().push(extraction);
    }

    // Global per-type value spaces: the paper's entropy is per identifier
    // *type* (name 3.4, UUID 8.9, MAC 7.8 bits) and combination rows add
    // them (12.3 ≈ 3.4+8.9; 16.7 ≈ 8.9+7.8; 20.1 ≈ all three).
    let mut global_names: BTreeSet<&str> = BTreeSet::new();
    let mut global_uuids: BTreeSet<&str> = BTreeSet::new();
    let mut global_macs: BTreeSet<&str> = BTreeSet::new();
    for extraction in &extractions {
        global_names.extend(extraction.names.iter().map(String::as_str));
        global_uuids.extend(extraction.uuids.iter().map(String::as_str));
        global_macs.extend(extraction.macs.iter().map(String::as_str));
    }
    let bits = |n: usize| if n == 0 { 0.0 } else { (n as f64).log2() };
    let name_bits = bits(global_names.len());
    let uuid_bits = bits(global_uuids.len());
    let mac_bits = bits(global_macs.len());

    let mut rows = Vec::new();
    for (class, devices) in &by_class {
        let products: BTreeSet<&(String, String)> = devices.iter().map(|d| &d.product).collect();
        let vendors: BTreeSet<&str> = devices.iter().map(|d| d.vendor).collect();
        let households: BTreeSet<usize> = devices.iter().map(|d| d.household).collect();

        // Per-household identifier value sets (for uniqueness).
        let mut per_household: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for device in devices {
            let entry = per_household.entry(device.household).or_default();
            for v in &device.names {
                entry.insert(format!("n:{v}"));
            }
            for v in &device.uuids {
                entry.insert(format!("u:{v}"));
            }
            for v in &device.macs {
                entry.insert(format!("m:{v}"));
            }
        }
        // Uniqueness: households whose value-set is unique among this row's
        // households.
        let mut signature_counts: BTreeMap<&BTreeSet<String>, usize> = BTreeMap::new();
        for values in per_household.values() {
            *signature_counts.entry(values).or_insert(0) += 1;
        }
        let unique_households = per_household
            .values()
            .filter(|values| signature_counts[*values] == 1 && !values.is_empty())
            .count();
        let unique_fraction = if class.count() == 0 {
            0.0
        } else {
            unique_households as f64 / households.len().max(1) as f64
        };

        let mut entropy_bits = 0.0;
        if class.name {
            entropy_bits += name_bits;
        }
        if class.uuid {
            entropy_bits += uuid_bits;
        }
        if class.mac {
            entropy_bits += mac_bits;
        }

        rows.push(EntropyRow {
            class: *class,
            products: products.len(),
            vendors: vendors.len(),
            devices: devices.len(),
            households: households.len(),
            unique_fraction,
            entropy_bits,
        });
    }

    EntropyTable {
        rows,
        analyzed_households: analyzed_households.len(),
        analyzed_devices: extractions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, GeneratorConfig};

    fn table() -> EntropyTable {
        analyze(&generate(&GeneratorConfig::default()))
    }

    #[test]
    fn class_labels() {
        assert_eq!(IdentifierClass::NONE.label(), "N/A");
        assert_eq!(
            IdentifierClass {
                name: true,
                uuid: true,
                mac: false
            }
            .label(),
            "name, UUID"
        );
        assert_eq!(IdentifierClass::NONE.count(), 0);
    }

    #[test]
    fn rows_cover_paper_classes() {
        let table = table();
        assert!(table.row(false, false, false).is_some(), "none row");
        assert!(table.row(false, true, false).is_some(), "uuid row");
        assert!(table.row(false, false, true).is_some(), "mac row");
        assert!(table.row(false, true, true).is_some(), "uuid+mac row");
        assert!(table.row(true, true, true).is_some(), "all row");
    }

    #[test]
    fn uuid_row_shape_matches_table2() {
        let table = table();
        let row = table.row(false, true, false).unwrap();
        // Paper: 2,814 households exposing UUIDs only; 94.2% unique; 8.9
        // bits. Shape bands:
        assert!(
            (2_300..=3_300).contains(&row.households),
            "households {}",
            row.households
        );
        assert!(row.unique_fraction > 0.90, "unique {}", row.unique_fraction);
        assert!(
            (8.0..=14.0).contains(&row.entropy_bits),
            "entropy {}",
            row.entropy_bits
        );
    }

    #[test]
    fn combination_rows_add_entropy() {
        let table = table();
        let uuid = table.row(false, true, false).unwrap().entropy_bits;
        let uuid_mac = table.row(false, true, true).unwrap().entropy_bits;
        let all = table.row(true, true, true).unwrap().entropy_bits;
        // More identifier types → strictly more bits (the paper's 8.9 →
        // 16.7 → 20.1 progression).
        assert!(uuid_mac > uuid, "{uuid_mac} vs {uuid}");
        assert!(all > 10.0, "all-row entropy {all}");
        // Combination rows beat the 10.5-bit User-Agent baseline the paper
        // cites for ≥2 identifiers.
        assert!(uuid_mac > 10.5);
    }

    #[test]
    fn uuid_mac_row_uniqueness() {
        let table = table();
        let row = table.row(false, true, true).unwrap();
        // Paper: 1,182 households, 95.6% uniquely identifiable.
        assert!(
            (800..=1_800).contains(&row.households),
            "households {}",
            row.households
        );
        assert!(row.unique_fraction > 0.93, "{}", row.unique_fraction);
    }

    #[test]
    fn all_three_row_is_roku_and_tiny() {
        let table = table();
        let row = table.row(true, true, true).unwrap();
        assert_eq!(row.products, 1);
        assert_eq!(row.vendors, 1);
        assert!((2..=4).contains(&row.households), "{}", row.households);
        assert!(row.unique_fraction >= 0.99);
    }

    #[test]
    fn none_row_large() {
        let table = table();
        let row = table.row(false, false, false).unwrap();
        // Paper row 0: 154 products / 1,811 households exposing nothing.
        assert!(row.households > 1_000, "{}", row.households);
        assert_eq!(row.unique_fraction, 0.0);
        assert_eq!(row.entropy_bits, 0.0);
    }

    #[test]
    fn render_contains_all_rows() {
        let table = table();
        let rendered = table.render();
        assert!(rendered.contains("UUID, MAC"));
        assert!(rendered.contains("N/A"));
        assert!(rendered.lines().count() >= 6);
    }
}
