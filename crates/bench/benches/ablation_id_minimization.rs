//! Ablation (DESIGN.md §5.4): identifier minimization vs household
//! uniqueness — what Table 2 would look like if vendors stripped UUIDs/MACs
//! from discovery payloads (the §7 "data exposure minimization" mitigation).

use iotlan_core::inspector::{dataset, entropy};
use iotlan_util::bench::Criterion;

fn unique_rate(table: &entropy::EntropyTable) -> f64 {
    // Weighted unique fraction over all identifier-exposing rows.
    let mut households = 0usize;
    let mut unique = 0.0f64;
    for row in &table.rows {
        if row.class.count() == 0 {
            continue;
        }
        households += row.households;
        unique += row.unique_fraction * row.households as f64;
    }
    if households == 0 {
        0.0
    } else {
        unique / households as f64
    }
}

fn bench(c: &mut Criterion) {
    println!("== Ablation: identifier minimization vs household uniqueness ==");
    for (label, strip_uuid, strip_mac) in [
        ("baseline (as deployed)   ", false, false),
        ("strip UUIDs              ", true, false),
        ("strip MACs               ", false, true),
        ("strip UUIDs + MACs       ", true, true),
    ] {
        let mut data = dataset::generate(&dataset::GeneratorConfig::default());
        data.strip_identifiers(strip_uuid, strip_mac);
        let table = entropy::analyze(&data);
        println!(
            "{label} -> households uniquely identifiable: {:>5.1}%",
            100.0 * unique_rate(&table)
        );
    }
    let data = dataset::generate(&dataset::GeneratorConfig::default());
    c.bench_function("ablation/entropy_after_stripping", |b| {
        b.iter(|| entropy::analyze(&data))
    });
}

iotlan_util::bench_main!(bench);
