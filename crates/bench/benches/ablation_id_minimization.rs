//! Ablation (DESIGN.md §5.4): identifier minimization vs household
//! uniqueness — what Table 2 would look like if vendors stripped UUIDs/MACs
//! from discovery payloads (the §7 "data exposure minimization" mitigation).

use iotlan_core::inspector::{dataset, entropy};
use iotlan_util::bench::Criterion;

fn strip_identifiers(data: &mut dataset::Dataset, strip_uuid: bool, strip_mac: bool) {
    for household in &mut data.households {
        for device in &mut household.devices {
            let scrub = |text: &mut String| {
                if strip_uuid {
                    // Replace UUID-shaped segments with a constant.
                    let uuids = iotlan_core::inspector::ident::extract_uuids(text);
                    for uuid in uuids {
                        *text = text.replace(&uuid, "00000000-0000-0000-0000-000000000000");
                    }
                }
                if strip_mac {
                    let macs = iotlan_core::inspector::ident::extract_mac_candidates(text);
                    for mac in macs {
                        // The extractor normalizes to bare hex; scrub the
                        // colon/dash spellings too.
                        let colon: String = mac
                            .as_bytes()
                            .chunks(2)
                            .map(|c| std::str::from_utf8(c).unwrap())
                            .collect::<Vec<_>>()
                            .join(":");
                        let dash = colon.replace(':', "-");
                        *text = text
                            .replace(&mac, "000000000000")
                            .replace(&colon, "00:00:00:00:00:00")
                            .replace(&colon.to_uppercase(), "00:00:00:00:00:00")
                            .replace(&dash, "00-00-00-00-00-00");
                    }
                }
            };
            for response in device
                .mdns_responses
                .iter_mut()
                .chain(device.ssdp_responses.iter_mut())
            {
                scrub(response);
            }
        }
    }
}

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
        strip_identifiers(&mut data, strip_uuid, strip_mac);
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
