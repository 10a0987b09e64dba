//! The Table 2 household-fingerprintability analysis (§6.3).
//!
//! For every device, extract names/UUIDs/MACs from its mDNS and SSDP
//! responses; classify devices by the *combination* of identifier types
//! they expose; then per combination report distinct products, vendors,
//! devices, households, the fraction of households uniquely identifiable
//! from those identifier values, and the entropy `log2(N)` (summed across
//! the types in the combination, matching the paper's additive combination
//! rows: 12.3 ≈ 3.4 + 8.9, 16.7 ≈ 8.9 + 7.8, 20.1 ≈ all three).

use crate::dataset::{self, Dataset, GeneratorConfig};
use crate::ident::{Exposed, Mac, Uuid};
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

/// One device's share of the analysis: what it is and the identifiers its
/// discovery responses expose. It owns its identifiers, so it outlives the
/// device it was taken from.
struct DeviceExtraction<'a> {
    /// (vendor, category)
    product: (&'a str, &'a str),
    class: IdentifierClass,
    exposed: Exposed,
}

/// Identifier types, so that equal text under two types stays two values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Name,
    Uuid,
    Mac,
}

impl<'a> DeviceExtraction<'a> {
    /// Extract the identifiers a device of `product` whose MAC starts with
    /// `oui` exposes in its (mDNS, SSDP) payloads. `None` when it carries
    /// no discovery payloads (such devices were never collected and are
    /// excluded from every Table 2 aggregate).
    fn new(
        product: (&'a str, &'a str),
        oui: &str,
        (mdns, ssdp): (&[String], &[String]),
    ) -> Option<DeviceExtraction<'a>> {
        if mdns.is_empty() && ssdp.is_empty() {
            return None;
        }
        let responses = mdns.iter().chain(ssdp);
        let exposed = Exposed::scan(responses.map(String::as_str), oui);
        Some(DeviceExtraction {
            product,
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

/// `log2(n)` bits for `n` distinct values, 0 for none.
fn bits(n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        (n as f64).log2()
    }
}

/// The value of a run of lowercase hex digits.
fn hex_value<'a>(digits: impl IntoIterator<Item = &'a u8>) -> u128 {
    digits.into_iter().fold(0, |value, &digit| {
        // '0'..='9' → 0..=9, 'a'..='f' → 10..=15.
        value << 4 | u128::from((digit & 0xf) + 9 * (digit >> 6))
    })
}

/// A UUID match as its 32 digits' value: matches are lowercase with their
/// dashes at fixed places, so distinct matches have distinct keys.
fn uuid_key(uuid: &Uuid) -> u128 {
    let groups = [
        &uuid[..8],
        &uuid[9..13],
        &uuid[14..18],
        &uuid[19..23],
        &uuid[24..],
    ];
    hex_value(groups.into_iter().flatten())
}

/// A MAC match (12 lowercase digits) as its value.
fn mac_key(mac: &Mac) -> u64 {
    hex_value(mac) as u64
}

/// Sort and deduplicate `values`, leaving the distinct ones.
fn distinct<T: Ord>(mut values: Vec<T>) -> Vec<T> {
    values.sort_unstable();
    values.dedup();
    values
}

/// Run the §6.3 analysis over a built dataset.
///
/// Identifier extraction — the string-scanning hot loop — fans out across
/// the pool per household, and [`merge`] reduces the extractions in
/// household order, so every aggregate is thread-count invariant.
pub fn analyze(dataset: &Dataset) -> EntropyTable {
    merge(pool::par_map(&dataset.households, |_, household| {
        household
            .devices
            .iter()
            .filter_map(|device| {
                DeviceExtraction::new(
                    (&device.truth_vendor, &device.truth_category),
                    &device.oui,
                    (&device.mdns_responses, &device.ssdp_responses),
                )
            })
            .collect()
    }))
}

/// [`analyze_generated`]'s result: the table and the size of the crowd it
/// was computed over.
#[derive(Debug, Clone)]
pub struct CrowdTable {
    pub table: EntropyTable,
    /// Households and devices generated, with or without discovery
    /// payloads.
    pub households: usize,
    pub devices: usize,
}

/// Run the §6.3 analysis over the households `config` generates, without
/// building the dataset: each pool worker extracts a household's
/// identifiers as [`dataset::fold_households`] draws its devices and drops
/// them there. The table equals `analyze(&generate(config))`.
pub fn analyze_generated(config: &GeneratorConfig) -> CrowdTable {
    let products = dataset::product_universe();
    let per_household = dataset::fold_households(
        config,
        &products,
        |(devices, extractions): &mut (usize, Vec<DeviceExtraction>), product, (mdns, ssdp)| {
            *devices += 1;
            extractions.extend(DeviceExtraction::new(
                (&product.vendor, &product.category),
                &product.oui,
                (&mdns, &ssdp),
            ));
        },
    );
    let households = per_household.len();
    let devices = per_household.iter().map(|(devices, _)| devices).sum();
    let table = merge(per_household.into_iter().map(|(_, e)| e).collect());
    CrowdTable {
        table,
        households,
        devices,
    }
}

/// Reduce every household's extractions, in household order, to the table.
fn merge(per_household: Vec<Vec<DeviceExtraction>>) -> EntropyTable {
    let analyzed_households = per_household.iter().filter(|e| !e.is_empty()).count();
    let extractions = || per_household.iter().flatten();

    // Group by class; each group stays in household order.
    let mut by_class: BTreeMap<IdentifierClass, Vec<(usize, &DeviceExtraction)>> = BTreeMap::new();
    for (household, extractions) in per_household.iter().enumerate() {
        for extraction in extractions {
            by_class
                .entry(extraction.class)
                .or_default()
                .push((household, extraction));
        }
    }

    // Global per-type value spaces: the paper's entropy is per identifier
    // *type* (name 3.4, UUID 8.9, MAC 7.8 bits) and combination rows add
    // them (12.3 ≈ 3.4+8.9; 16.7 ≈ 8.9+7.8; 20.1 ≈ all three).
    let names = extractions().flat_map(|e| &e.exposed.names);
    let uuids = extractions().flat_map(|e| &e.exposed.uuids);
    let macs = extractions().flat_map(|e| &e.exposed.macs);
    let name_bits = bits(distinct(names.map(String::as_str).collect()).len());
    let uuid_bits = bits(distinct(uuids.map(uuid_key).collect()).len());
    let mac_bits = bits(distinct(macs.map(mac_key).collect()).len());

    let mut rows = Vec::new();
    for (class, devices) in &by_class {
        let products = distinct(devices.iter().map(|(_, d)| d.product).collect());
        let vendors = distinct(products.iter().map(|(vendor, _)| *vendor).collect());

        // Per-household identifier value sets (for uniqueness), each
        // sorted: a household's devices are one run of `devices`.
        let mut signatures: Vec<Vec<(Kind, &[u8])>> = devices
            .chunk_by(|(a, _), (b, _)| a == b)
            .map(|run| distinct(run.iter().flat_map(|(_, d)| d.values()).collect()))
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
        analyzed_devices: extractions().count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::generate;

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

    iotlan_util::props! {
        /// A UUID's or a MAC's key is the number its lowercase text spells,
        /// so distinct matches keep distinct keys.
        fn identifier_keys_are_the_values_the_text_spells(g) {
            let value = u128::from_be_bytes(g.array());
            let hex = format!("{value:032x}");
            let text = format!(
                "{}-{}-{}-{}-{}",
                &hex[..8],
                &hex[8..12],
                &hex[12..16],
                &hex[16..20],
                &hex[20..]
            );
            assert_eq!(uuid_key(text.as_bytes().try_into().unwrap()), value, "{text}");
            let value = value as u64 & 0xffff_ffff_ffff;
            let text = format!("{value:012x}");
            assert_eq!(mac_key(text.as_bytes().try_into().unwrap()), value, "{text}");
        }

        /// The one-pass analysis of a generated crowd equals the batch
        /// analysis of the built dataset at 1 and 4 pool threads, over
        /// crowds that reach household 100's Roku.
        fn generated_analysis_matches_batch(g) {
            let config = GeneratorConfig {
                seed: g.u64(),
                households: g.int_in(0..=120usize),
            };
            let data = generate(&config);
            let batch = analyze(&data);
            for threads in [1, 4] {
                let crowd = pool::with_threads(threads, || analyze_generated(&config));
                assert_eq!(crowd.table.render(), batch.render(), "{config:?} at {threads}");
                assert_eq!(crowd.table.analyzed_devices, batch.analyzed_devices);
                assert_eq!(crowd.table.analyzed_households, batch.analyzed_households);
                assert_eq!(crowd.devices, data.device_count());
                assert_eq!(crowd.households, data.households.len());
            }
        }
    }
}
