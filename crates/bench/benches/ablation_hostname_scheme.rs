//! Ablation (DESIGN.md §5.3): hostname scheme vs identifier leakage.
//! Compares the §5.1 schemes: model-name, name+MAC, display-name, and the
//! GE-Microwave randomized scheme, measured as distinct stable identifiers
//! a DHCP-observing adversary collects across lease renewals.

use iotlan_core::devices::config::{Category, DeviceConfig, HostnameScheme};
use iotlan_core::wire::ethernet::EthernetAddress;
use iotlan_util::bench::Criterion;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

fn stable_identifier_leak(scheme: HostnameScheme, renewals: u64) -> (usize, bool) {
    let mut config = DeviceConfig::base(
        "Ablation Device",
        "Acme",
        "Widget-9",
        Category::GenericIot,
        EthernetAddress([2, 0, 0, 0xaa, 0xbb, 0xcc]),
        Ipv4Addr::new(192, 168, 10, 50),
    );
    config.hostname = scheme;
    config.identity.display_name = Some("Jane Doe's Kitchen Widget".into());
    let mut seen = BTreeSet::new();
    for nonce in 1..=renewals {
        if let Some(hostname) = config.hostname_string(nonce) {
            seen.insert(hostname);
        }
    }
    // A stable identifier exists if the adversary sees the same hostname
    // every renewal.
    let stable = seen.len() == 1 && renewals > 1;
    (seen.len(), stable)
}

fn bench(c: &mut Criterion) {
    println!("== Ablation: hostname scheme vs trackability over 50 DHCP renewals ==");
    for (label, scheme) in [
        ("model name     ", HostnameScheme::Model("Widget-9".into())),
        (
            "name + MAC     ",
            HostnameScheme::NamePlusMac("acme".into()),
        ),
        ("display name   ", HostnameScheme::DisplayName),
        ("randomized (GE)", HostnameScheme::Randomized("ge".into())),
        ("none           ", HostnameScheme::None),
    ] {
        let (distinct, stable) = stable_identifier_leak(scheme, 50);
        println!(
            "{label} -> {distinct:>2} distinct hostnames; stable tracker: {}",
            if stable { "YES (trackable)" } else { "no" }
        );
    }
    c.bench_function("ablation/hostname_schemes", |b| {
        b.iter(|| stable_identifier_leak(HostnameScheme::Randomized("ge".into()), 50))
    });
}

iotlan_util::bench_main!(bench);
