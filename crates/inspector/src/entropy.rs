//! The Table 2 household-fingerprintability analysis (§6.3).
//!
//! For every device, extract names/UUIDs/MACs from its mDNS and SSDP
//! responses; classify devices by the *combination* of identifier types
//! they expose; then per combination report distinct products, vendors,
//! devices, households, the fraction of households uniquely identifiable
//! from those identifier values, and the entropy `log2(N)` (summed across
//! the types in the combination, matching the paper's additive combination
//! rows: 12.3 ≈ 3.4 + 8.9, 16.7 ≈ 8.9 + 7.8, 20.1 ≈ all three).

use crate::dataset::{Dataset, Device};
use crate::ident::Exposed;
use iotlan_util::pool;
use std::collections::BTreeMap;

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
        let mut out = String::from("#  Pdt  Vdr   Dev    Hse   Identifier(s)      Unique%   Ent\n");
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

/// One device's share of the analysis: what it is, where it lives, and
/// the identifiers its discovery responses expose.
struct DeviceExtraction<'a> {
    household: usize,
    /// (vendor, category)
    product: (&'a str, &'a str),
    class: IdentifierClass,
    exposed: Exposed<'a>,
}

/// Identifier types, so that equal text under two types stays two values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Name,
    Uuid,
    Mac,
}

impl<'a> DeviceExtraction<'a> {
    /// Extract a device's exposed identifiers. `None` when the device
    /// carries no discovery payloads (such devices were never collected
    /// and are excluded from every Table 2 aggregate).
    fn new(household: usize, device: &'a Device) -> Option<DeviceExtraction<'a>> {
        if device.mdns_responses.is_empty() && device.ssdp_responses.is_empty() {
            return None;
        }
        let responses = device.mdns_responses.iter().chain(&device.ssdp_responses);
        let exposed = Exposed::scan(responses.map(String::as_str), &device.oui);
        Some(DeviceExtraction {
            household,
            product: (&device.truth_vendor, &device.truth_category),
            class: IdentifierClass {
                name: !exposed.names.is_empty(),
                uuid: !exposed.uuids.is_empty(),
                mac: !exposed.macs.is_empty(),
            },
            exposed,
        })
    }

    /// Every identifier value, tagged with its type.
    fn values(&self) -> impl Iterator<Item = (Kind, &[u8])> {
        let exposed = &self.exposed;
        let names = exposed.names.iter().map(|v| (Kind::Name, v.as_bytes()));
        let uuids = exposed.uuids.iter().map(|v| (Kind::Uuid, &v[..]));
        let macs = exposed.macs.iter().map(|v| (Kind::Mac, &v[..]));
        names.chain(uuids).chain(macs)
    }
}

/// Sort and deduplicate `values`, leaving the distinct ones.
fn distinct<T: Ord>(mut values: Vec<T>) -> Vec<T> {
    values.sort_unstable();
    values.dedup();
    values
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
                .filter_map(|device| DeviceExtraction::new(house_index, device))
                .collect()
        });
    let analyzed_households = per_household.iter().filter(|e| !e.is_empty()).count();
    let extractions: Vec<DeviceExtraction> = per_household.into_iter().flatten().collect();

    // Group by class; each group stays in household order.
    let mut by_class: BTreeMap<IdentifierClass, Vec<&DeviceExtraction>> = BTreeMap::new();
    for extraction in &extractions {
        by_class
            .entry(extraction.class)
            .or_default()
            .push(extraction);
    }

    // Global per-type value spaces: the paper's entropy is per identifier
    // *type* (name 3.4, UUID 8.9, MAC 7.8 bits) and combination rows add
    // them (12.3 ≈ 3.4+8.9; 16.7 ≈ 8.9+7.8; 20.1 ≈ all three).
    let global = distinct(
        extractions
            .iter()
            .flat_map(DeviceExtraction::values)
            .collect(),
    );
    let bits = |kind: Kind| {
        let n = global.iter().filter(|(k, _)| *k == kind).count();
        if n == 0 {
            0.0
        } else {
            (n as f64).log2()
        }
    };
    let name_bits = bits(Kind::Name);
    let uuid_bits = bits(Kind::Uuid);
    let mac_bits = bits(Kind::Mac);

    let mut rows = Vec::new();
    for (class, devices) in &by_class {
        let products = distinct(devices.iter().map(|d| d.product).collect());
        let vendors = distinct(products.iter().map(|(vendor, _)| *vendor).collect());

        // Per-household identifier value sets (for uniqueness), each
        // sorted: a household's devices are one run of `devices`.
        let mut signatures: Vec<Vec<(Kind, &[u8])>> = devices
            .chunk_by(|a, b| a.household == b.household)
            .map(|run| distinct(run.iter().flat_map(|d| d.values()).collect()))
            .collect();
        let households = signatures.len();
        // Uniqueness: households whose value-set is unique among this row's
        // households.
        signatures.sort_unstable();
        let unique_households = signatures
            .chunk_by(|a, b| a == b)
            .filter(|same| same.len() == 1 && !same[0].is_empty())
            .count();
        let unique_fraction = if class.count() == 0 {
            0.0
        } else {
            unique_households as f64 / households.max(1) as f64
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
            households,
            unique_fraction,
            entropy_bits,
        });
    }

    EntropyTable {
        rows,
        analyzed_households,
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
