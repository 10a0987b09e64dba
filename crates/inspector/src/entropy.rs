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
use crate::ident::{self, Id};
use iotlan_util::pool;
use std::collections::HashMap;

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

    /// The class's place in class order, 0..8.
    fn index(self) -> usize {
        usize::from(self.name) << 2 | usize::from(self.uuid) << 1 | usize::from(self.mac)
    }

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

/// Dense ids for the (vendor, category) pairs that Table 2 counts as
/// products: two products may share one.
#[derive(Default)]
struct Pairs<'a> {
    ids: HashMap<(&'a str, &'a str), u32>,
    /// Each id's pair.
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Pairs<'a> {
    /// The id of (`vendor`, `category`), assigned on first sight.
    fn id(&mut self, vendor: &'a str, category: &'a str) -> u32 {
        let next = self.pairs.len() as u32;
        *self.ids.entry((vendor, category)).or_insert_with(|| {
            self.pairs.push((vendor, category));
            next
        })
    }
}

/// One entry of a household's share of the analysis.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    /// A device with discovery payloads: its product pair id, and the
    /// household's entry count before it, so that no two devices are one
    /// entry.
    Device(u32, usize),
    /// An identifier value, by type. Names are copied out of the
    /// responses; they are rare.
    Name(String),
    Uuid(u128),
    Mac(u64),
}

/// One household's share of the analysis, taken from its devices as they
/// are drawn or read: an entry per device and per identifier value it
/// exposes, each tagged with the device's class, sorted and deduplicated.
/// So the run of one class holds its devices, then the household's
/// signature in that class's row. It owns its identifiers, so it outlives
/// the devices.
#[derive(Default)]
struct HouseholdIds {
    entries: Vec<(IdentifierClass, Entry)>,
}

impl HouseholdIds {
    /// Add a device of product pair `pair`, whose MAC starts with `oui`,
    /// with its (mDNS, SSDP) payloads. A device with none was never
    /// collected and is left out of every Table 2 aggregate.
    fn add(&mut self, pair: u32, oui: impl Fn(u64) -> bool, (mdns, ssdp): (&[String], &[String])) {
        if mdns.is_empty() && ssdp.is_empty() {
            return;
        }
        let start = self.entries.len();
        let mut class = IdentifierClass::NONE;
        let responses = mdns.iter().chain(ssdp).map(String::as_str);
        ident::for_each_exposed(responses, oui, |id| {
            let value = match id {
                Id::Name(name) => {
                    class.name = true;
                    Entry::Name(name.to_string())
                }
                Id::Uuid(key) => {
                    class.uuid = true;
                    Entry::Uuid(key)
                }
                Id::Mac(key, _) => {
                    class.mac = true;
                    Entry::Mac(key)
                }
            };
            self.entries.push((class, value));
        });
        self.entries.push((class, Entry::Device(pair, start)));
        for (tag, _) in &mut self.entries[start..] {
            *tag = class;
        }
        self.entries.sort_unstable();
        self.entries.dedup();
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

/// The number of distinct `values`.
fn distinct<T: Ord>(mut values: Vec<T>) -> usize {
    values.sort_unstable();
    values.dedup();
    values.len()
}

/// Run the §6.3 analysis over a built dataset.
///
/// Identifier extraction — the string-scanning hot loop — fans out across
/// the pool per household, and [`merge`] reduces the extractions in
/// household order, so every aggregate is thread-count invariant.
pub fn analyze(dataset: &Dataset) -> EntropyTable {
    let mut pairs = Pairs::default();
    for device in dataset.households.iter().flat_map(|h| &h.devices) {
        pairs.id(&device.truth_vendor, &device.truth_category);
    }
    let households = pool::par_map(&dataset.households, |_, household| {
        let mut ids = HouseholdIds::default();
        for device in &household.devices {
            let pair = pairs.ids[&(&*device.truth_vendor, &*device.truth_category)];
            let payloads = (&device.mdns_responses[..], &device.ssdp_responses[..]);
            ids.add(pair, ident::oui_filter(&device.oui), payloads);
        }
        ids
    });
    merge(&households, &pairs)
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
    let mut pairs = Pairs::default();
    let per_product: Vec<_> = products
        .iter()
        .map(|p| (pairs.id(&p.vendor, &p.category), ident::oui_filter(&p.oui)))
        .collect();
    let per_household = dataset::fold_households(
        config,
        &products,
        |(devices, ids): &mut (usize, HouseholdIds), product, (mdns, ssdp)| {
            *devices += 1;
            let (pair, oui) = per_product[product];
            ids.add(pair, oui, (&mdns, &ssdp));
        },
    );
    CrowdTable {
        table: merge(per_household.iter().map(|(_, ids)| ids), &pairs),
        households: per_household.len(),
        devices: per_household.iter().map(|(devices, _)| devices).sum(),
    }
}

/// One row in the making: its devices, which product pairs they are, and
/// each of its households' signatures, in household order.
#[derive(Default)]
struct Row<'h> {
    devices: usize,
    products: Vec<bool>,
    signatures: Vec<&'h [(IdentifierClass, Entry)]>,
}

/// Reduce every household's identifiers, in household order, to the table.
fn merge<'h>(
    households: impl IntoIterator<Item = &'h HouseholdIds>,
    pairs: &Pairs,
) -> EntropyTable {
    let mut rows: [Row; 8] = std::array::from_fn(|_| Row {
        products: vec![false; pairs.pairs.len()],
        ..Row::default()
    });
    let (mut names, mut uuids, mut macs) = (Vec::new(), Vec::new(), Vec::new());
    let mut analyzed_households = 0;
    for household in households {
        analyzed_households += usize::from(!household.entries.is_empty());
        let mut rest = &household.entries[..];
        while let Some(&(class, _)) = rest.first() {
            let (run, tail) = rest.split_at(rest.iter().take_while(|(c, _)| *c == class).count());
            rest = tail;
            let row = &mut rows[class.index()];
            for (_, entry) in run {
                match entry {
                    Entry::Device(pair, _) => {
                        row.devices += 1;
                        row.products[*pair as usize] = true;
                    }
                    Entry::Name(name) => names.push(name.as_str()),
                    Entry::Uuid(key) => uuids.push(*key),
                    Entry::Mac(key) => macs.push(*key),
                }
            }
            let devices = run
                .iter()
                .take_while(|(_, e)| matches!(e, Entry::Device(..)));
            row.signatures.push(&run[devices.count()..]);
        }
    }

    // Global per-type value spaces: the paper's entropy is per identifier
    // *type* (name 3.4, UUID 8.9, MAC 7.8 bits) and combination rows add
    // them (12.3 ≈ 3.4+8.9; 16.7 ≈ 8.9+7.8; 20.1 ≈ all three).
    let name_bits = bits(distinct(names));
    let uuid_bits = bits(distinct(uuids));
    let mac_bits = bits(distinct(macs));

    let mut table_rows = Vec::new();
    for (index, row) in rows.iter_mut().enumerate() {
        if row.devices == 0 {
            continue;
        }
        let class = IdentifierClass {
            name: index & 4 != 0,
            uuid: index & 2 != 0,
            mac: index & 1 != 0,
        };
        let products: Vec<_> = pairs
            .pairs
            .iter()
            .zip(&row.products)
            .filter(|(_, &seen)| seen)
            .collect();
        let vendors = distinct(products.iter().map(|((vendor, _), _)| vendor).collect());

        // Uniqueness: households whose value-set is unique among this row's
        // households.
        let households = row.signatures.len();
        row.signatures.sort_unstable();
        let unique_households = row
            .signatures
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

        table_rows.push(EntropyRow {
            class,
            products: products.len(),
            vendors,
            devices: row.devices,
            households,
            unique_fraction,
            entropy_bits,
        });
    }

    EntropyTable {
        rows: table_rows,
        analyzed_households,
        analyzed_devices: rows.iter().map(|row| row.devices).sum(),
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
