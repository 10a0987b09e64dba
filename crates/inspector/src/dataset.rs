//! Synthetic IoT Inspector dataset generator (§3.3; DESIGN.md substitution
//! table).
//!
//! Schema-faithful to the published description: per-device source/dest
//! byte counts in 5-second windows, DHCP hostnames, full mDNS and SSDP
//! response payloads, crowdsourced user labels, HMAC-SHA256 device IDs with
//! a per-household salt, and OUI metadata. The identifier-exposure mixture
//! is calibrated so the §6.3 analysis reproduces Table 2's shape:
//! most households expose UUIDs, a third expose UUID+MAC combinations,
//! possessive display names are rare, and the one all-three product is a
//! Roku.

use crate::hashes::{self, push_hex, HmacKey};
use iotlan_util::pool;
use iotlan_util::rng::Rng;
use std::fmt::Write as _;

/// What identifier types a product's discovery payloads expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExposureClass {
    None,
    UuidOnly,
    MacOnly,
    NameOnly,
    NameUuid,
    UuidMac,
    All,
}

/// A product: vendor + category + exposure behaviour.
#[derive(Debug, Clone)]
pub struct Product {
    pub vendor: String,
    pub category: String,
    pub model: String,
    pub oui: String,
    pub exposure: ExposureClass,
    /// Relative popularity weight.
    pub weight: u32,
}

/// One observed 5-second traffic window (the only flow data IoT Inspector
/// keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowWindow {
    /// Window start, seconds since dataset epoch.
    pub ts: u64,
    pub remote_port: u16,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// True when the remote endpoint is another local (RFC 1918) device.
    pub local_peer: bool,
}

/// One device as IoT Inspector records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// HMAC-SHA256(MAC, household salt).
    pub device_id: String,
    /// First three octets of the MAC, colon form.
    pub oui: String,
    pub dhcp_hostname: Option<String>,
    pub user_label: Option<String>,
    pub mdns_responses: Vec<String>,
    pub ssdp_responses: Vec<String>,
    pub flows: Vec<FlowWindow>,
    /// Ground truth (not available to the analyses; used to score the
    /// inference engine).
    pub truth_vendor: String,
    pub truth_category: String,
}

/// One household (user).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Household {
    pub user_id: String,
    pub devices: Vec<Device>,
}

/// The generated dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    pub households: Vec<Household>,
}

impl Dataset {
    pub fn device_count(&self) -> usize {
        self.households.iter().map(|h| h.devices.len()).sum()
    }

    /// Median devices per household (paper: 3).
    pub fn median_household_size(&self) -> usize {
        let mut sizes: Vec<usize> = self.households.iter().map(|h| h.devices.len()).collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }

    /// Distinct (vendor, category) products represented.
    pub fn distinct_products(&self) -> usize {
        let mut set: Vec<(&str, &str)> = self
            .households
            .iter()
            .flat_map(|h| &h.devices)
            .map(|d| (d.truth_vendor.as_str(), d.truth_category.as_str()))
            .collect();
        set.sort();
        set.dedup();
        set.len()
    }

    /// Distinct vendors represented.
    pub fn distinct_vendors(&self) -> usize {
        let mut set: Vec<&str> = self
            .households
            .iter()
            .flat_map(|h| &h.devices)
            .map(|d| d.truth_vendor.as_str())
            .collect();
        set.sort();
        set.dedup();
        set.len()
    }
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub seed: u64,
    /// Households to generate (paper entropy subset: 3,860–3,893).
    pub households: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0x1077_1a6,
            households: 3893,
        }
    }
}

const FIRST_NAMES: &[&str] = &[
    "Danny", "Jane", "Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan",
    "Judy", "Mallory", "Niaj", "Olivia", "Peggy", "Rupert", "Sybil", "Trent", "Victor", "Wendy",
    "Yusuf", "Zoe", "Liam", "Noah", "Emma", "Ava", "Mia", "Ethan", "Lucas",
];

const ROOMS: &[&str] = &[
    "Room",
    "Bedroom",
    "Kitchen",
    "Office",
    "Den",
    "Living Room",
    "Basement",
    "Garage",
    "Loft",
    "Study",
];

/// Build the product universe: 284 products across 143 vendors with the
/// calibrated exposure mixture.
pub fn product_universe() -> Vec<Product> {
    let mut products = Vec::new();
    let mut vendor_index = 0usize;
    let push_family = |count: usize,
                       category: &str,
                       exposure: ExposureClass,
                       weight: u32,
                       products: &mut Vec<Product>,
                       vendor_index: &mut usize| {
        for i in 0..count {
            // ~1.6 products per vendor on average: new vendor every
            // other product.
            if i % 2 == 0 || *vendor_index == 0 {
                *vendor_index += 1;
            }
            let vendor = format!("Vendor{:03}", *vendor_index);
            products.push(Product {
                vendor: vendor.clone(),
                category: category.to_string(),
                model: format!("{category}-{}", products.len()),
                oui: format!(
                    "{:02x}:{:02x}:{:02x}",
                    0x10 + (products.len() / 97) as u8,
                    (products.len() % 251) as u8,
                    (products.len() % 241) as u8
                ),
                exposure,
                weight,
            });
        }
    };

    // 154 products exposing nothing (Table 2 row 0) — the bulk of cheap
    // plugs/sensors/appliances.
    push_family(
        80,
        "plug",
        ExposureClass::None,
        6,
        &mut products,
        &mut vendor_index,
    );
    push_family(
        40,
        "sensor",
        ExposureClass::None,
        4,
        &mut products,
        &mut vendor_index,
    );
    push_family(
        34,
        "appliance",
        ExposureClass::None,
        3,
        &mut products,
        &mut vendor_index,
    );
    // UUID-exposing products (speakers, TVs, cast targets): popular.
    push_family(
        60,
        "speaker",
        ExposureClass::UuidOnly,
        14,
        &mut products,
        &mut vendor_index,
    );
    push_family(
        12,
        "tv",
        ExposureClass::UuidOnly,
        10,
        &mut products,
        &mut vendor_index,
    );
    // MAC-only products (bridges that embed the MAC in hostnames).
    push_family(
        24,
        "bridge",
        ExposureClass::MacOnly,
        4,
        &mut products,
        &mut vendor_index,
    );
    // UUID+MAC combinations (cast sticks, hubs).
    push_family(
        22,
        "streamer",
        ExposureClass::UuidMac,
        9,
        &mut products,
        &mut vendor_index,
    );
    push_family(
        4,
        "hub",
        ExposureClass::UuidMac,
        4,
        &mut products,
        &mut vendor_index,
    );
    // Possessive-name exposers are rare.
    push_family(
        1,
        "camera",
        ExposureClass::NameOnly,
        0,
        &mut products,
        &mut vendor_index,
    );
    push_family(
        6,
        "media-player",
        ExposureClass::NameUuid,
        1,
        &mut products,
        &mut vendor_index,
    );
    // The single all-three product: a Roku (Table 2's last row).
    products.push(Product {
        vendor: "Roku".into(),
        category: "tv-stick".into(),
        model: "Roku Express".into(),
        oui: "b0:a7:37".into(),
        exposure: ExposureClass::All,
        weight: 0, // injected into exactly two households (Table 2 row 3)
    });
    products
}

/// A random MAC under `oui`, in colon form and in the bare 12-hex-digit
/// form that payloads and hostnames embed.
fn random_mac(rng: &mut Rng, oui: &str) -> (String, String) {
    let mut mac = String::with_capacity(17);
    mac.push_str(oui);
    for _ in 0..3 {
        mac.push(':');
        push_hex(&mut mac, u64::from(rng.gen_u8()), 2);
    }
    let bare = mac.replace(':', "");
    (mac, bare)
}

/// Append a random UUID with the version-4 nibble.
fn push_random_uuid(out: &mut String, rng: &mut Rng) {
    push_hex(out, u64::from(rng.gen_u32()), 8);
    out.push('-');
    push_hex(out, u64::from(rng.gen_u16()), 4);
    out.push_str("-4");
    push_hex(out, u64::from(rng.gen_u16()), 3);
    out.push('-');
    push_hex(out, u64::from(rng.gen_u16()), 4);
    out.push('-');
    push_hex(out, rng.gen_u64(), 12);
}

fn make_payloads(
    rng: &mut Rng,
    product: &Product,
    mac: &str,
    bare_mac: &str,
) -> (Vec<String>, Vec<String>, Option<String>) {
    let mut mdns = Vec::new();
    let mut ssdp = Vec::new();
    let mut display_name = None;
    let expose_uuid = matches!(
        product.exposure,
        ExposureClass::UuidOnly
            | ExposureClass::NameUuid
            | ExposureClass::UuidMac
            | ExposureClass::All
    );
    let expose_mac = matches!(
        product.exposure,
        ExposureClass::MacOnly | ExposureClass::UuidMac | ExposureClass::All
    );
    let expose_name = matches!(
        product.exposure,
        ExposureClass::NameOnly | ExposureClass::NameUuid | ExposureClass::All
    );

    if expose_uuid {
        // Cloned firmware ships a constant UUID on a slice of units — the
        // reason Table 2's uniqueness is ~94%, not 100%.
        let mut response = String::with_capacity(160);
        response.push_str("HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\nUSN: uuid:");
        if rng.gen_bool(0.16) {
            let h = product.model.bytes().fold(0u64, |acc, b| {
                acc.wrapping_mul(131).wrapping_add(u64::from(b))
            });
            push_hex(&mut response, h >> 32, 8);
            response.push_str("-0000-4000-8000-");
            push_hex(&mut response, h, 12);
        } else {
            push_random_uuid(&mut response, rng);
        }
        let _ = write!(
            response,
            "::upnp:rootdevice\r\nSERVER: Linux UPnP/1.0 {}/1.0\r\n\r\n",
            product.vendor
        );
        ssdp.push(response);
    }
    if expose_mac {
        mdns.push(format!(
            "{} - {}._{}._tcp.local TXT mac={} id={}",
            product.model,
            &bare_mac[6..],
            product.category,
            mac,
            bare_mac
        ));
    }
    if expose_name {
        let name = format!(
            "{}'s {}",
            FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
            ROOMS[rng.gen_range(0..ROOMS.len())]
        );
        ssdp.push(format!(
            "HTTP/1.1 200 OK\r\nST: roku:ecp\r\nname: \"{} - {}\"\r\n\r\n",
            product.model, name
        ));
        display_name = Some(name);
    }
    if matches!(product.exposure, ExposureClass::None) && rng.gen_bool(0.5) {
        // None-class products still answer discovery, just without unique
        // identifiers — "154 products … exposing none of the three types".
        mdns.push(format!(
            "{}._{}._tcp.local TXT md={}",
            product.model, product.category, product.model
        ));
    }
    (mdns, ssdp, display_name)
}

/// Generate a dataset.
///
/// Households are independent: household `i` draws everything from its own
/// `Rng::stream(seed, i)`, so generation fans out across the
/// [`iotlan_util::pool`] with bit-identical output at any thread count.
pub fn generate(config: &GeneratorConfig) -> Dataset {
    let products = product_universe();
    let total_weight: u32 = products.iter().map(|p| p.weight).sum();
    let households = pool::par_map_range(config.households, |house_index| {
        let mut rng = Rng::stream(config.seed, house_index as u64);
        generate_household(&mut rng, house_index, &products, total_weight)
    });
    Dataset { households }
}

/// Build one household from its private generator.
fn generate_household(
    rng: &mut Rng,
    house_index: usize,
    products: &[Product],
    total_weight: u32,
) -> Household {
    let salt: [u8; 16] = rng.gen_array();
    let user_id = hashes::to_hex(&hashes::sha256(&salt)[..8]);
    let salt = HmacKey::new(&salt);
    // Household size: median 3 (1..=9, weighted toward small).
    let size = *[1usize, 2, 2, 3, 3, 3, 3, 4, 4, 5, 6]
        .get(rng.gen_range(0..11usize))
        .unwrap();
    let mut devices = Vec::with_capacity(size);
    for _ in 0..size {
        // Weighted product draw.
        let mut pick = rng.gen_range(0..total_weight);
        let product = products
            .iter()
            .find(|p| {
                if pick < p.weight {
                    true
                } else {
                    pick -= p.weight;
                    false
                }
            })
            .unwrap();
        devices.push(make_device(rng, product, &salt));
    }
    // Deterministic rare-class injection: the 2 name-only households
    // and the 2 all-three (Roku) households of Table 2.
    if house_index == 100 || house_index == 2100 {
        let roku = products.last().unwrap();
        devices.push(make_device(rng, roku, &salt));
    }
    if house_index == 700 || house_index == 2900 {
        let name_only = products
            .iter()
            .find(|p| p.exposure == ExposureClass::NameOnly)
            .unwrap();
        devices.push(make_device(rng, name_only, &salt));
    }
    Household { user_id, devices }
}

fn make_device(rng: &mut Rng, product: &Product, salt: &HmacKey) -> Device {
    let (mac, bare_mac) = random_mac(rng, &product.oui);
    let (mdns_responses, ssdp_responses, display_name) =
        make_payloads(rng, product, &mac, &bare_mac);
    let dhcp_hostname = if rng.gen_bool(0.67) {
        Some(match display_name {
            Some(name) => name.replace(' ', "-"),
            None => format!("{}-{}", product.model, &bare_mac[8..]),
        })
    } else {
        None
    };
    let user_label = if rng.gen_bool(0.6) {
        Some(format!(
            "{} {}",
            product.vendor.to_lowercase(),
            product.category
        ))
    } else {
        None
    };
    // A few 5-second traffic windows; some local-peer, mostly cloud.
    let flows = (0..rng.gen_range(4..12))
        .map(|k| FlowWindow {
            ts: k * 5,
            remote_port: *[443u16, 8009, 1900, 5353, 80]
                .get(rng.gen_range(0..5usize))
                .unwrap(),
            bytes_sent: rng.gen_range(60..5_000),
            bytes_received: rng.gen_range(60..50_000),
            local_peer: rng.gen_bool(0.3),
        })
        .collect();
    Device {
        device_id: hashes::device_id(&mac, salt),
        oui: product.oui.clone(),
        dhcp_hostname,
        user_label,
        mdns_responses,
        ssdp_responses,
        flows,
        truth_vendor: product.vendor.clone(),
        truth_category: product.category.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_shape() {
        let products = product_universe();
        assert_eq!(
            products.len(),
            80 + 40 + 34 + 60 + 12 + 24 + 22 + 4 + 1 + 6 + 1
        );
        let none = products
            .iter()
            .filter(|p| p.exposure == ExposureClass::None)
            .count();
        assert_eq!(none, 154);
        let vendors: std::collections::BTreeSet<&str> =
            products.iter().map(|p| p.vendor.as_str()).collect();
        assert_eq!(vendors.len(), 143);
    }

    #[test]
    fn dataset_scale_matches_paper() {
        let dataset = generate(&GeneratorConfig::default());
        assert_eq!(dataset.households.len(), 3893);
        let devices = dataset.device_count();
        // Paper: 13,487 devices over 3,893 users (≈3.46/household).
        assert!((12_000..=15_500).contains(&devices), "{devices}");
        assert_eq!(dataset.median_household_size(), 3);
    }

    #[test]
    fn device_ids_are_hmacs() {
        let dataset = generate(&GeneratorConfig {
            seed: 1,
            households: 10,
        });
        for household in &dataset.households {
            for device in &household.devices {
                assert_eq!(device.device_id.len(), 64);
                assert!(device.device_id.chars().all(|c| c.is_ascii_hexdigit()));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&GeneratorConfig {
            seed: 7,
            households: 50,
        });
        let b = generate(&GeneratorConfig {
            seed: 7,
            households: 50,
        });
        assert_eq!(a.device_count(), b.device_count());
        assert_eq!(
            a.households[0].devices[0].device_id,
            b.households[0].devices[0].device_id
        );
        let c = generate(&GeneratorConfig {
            seed: 8,
            households: 50,
        });
        assert_ne!(
            a.households[0].devices[0].device_id,
            c.households[0].devices[0].device_id
        );
    }

    #[test]
    fn exposure_payloads_contain_identifiers() {
        let dataset = generate(&GeneratorConfig {
            seed: 3,
            households: 200,
        });
        let mut saw_uuid = false;
        let mut saw_mac = false;
        let mut saw_name = false;
        for household in &dataset.households {
            for device in &household.devices {
                let text = format!(
                    "{} {}",
                    device.mdns_responses.join(" "),
                    device.ssdp_responses.join(" ")
                );
                saw_uuid |= !crate::ident::extract_uuids(&text).is_empty();
                saw_mac |= !crate::ident::extract_macs_with_oui(&text, &device.oui).is_empty();
                saw_name |= !crate::ident::extract_names(&text).is_empty();
            }
        }
        assert!(saw_uuid && saw_mac && saw_name);
    }
}
