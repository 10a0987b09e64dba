//! Synthetic IoT Inspector dataset generator (§3.3; DESIGN.md substitution
//! table).
//!
//! Each device keeps what Table 2 reads: its OUI, its full mDNS and SSDP
//! response payloads, and its product's vendor and category. IoT Inspector
//! also records salted device IDs, 5-second byte-count windows, DHCP
//! hostnames and user labels; no artifact reads those, so the generator
//! only makes the random draws they took and discards them, which keeps
//! every household's draws where they were. The identifier-exposure
//! mixture is calibrated so the §6.3 analysis reproduces Table 2's shape:
//! most households expose UUIDs, a third expose UUID+MAC combinations,
//! possessive display names are rare, and the one all-three product is a
//! Roku.

use crate::ident;
use iotlan_util::pool;
use iotlan_util::rng::Rng;

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

/// One device: the part of IoT Inspector's record that Table 2 reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// First three octets of the MAC, colon form.
    pub oui: String,
    pub mdns_responses: Vec<String>,
    pub ssdp_responses: Vec<String>,
    /// The product's vendor and category, which Table 2 counts per
    /// identifier class.
    pub truth_vendor: String,
    pub truth_category: String,
}

/// One household (user).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Household {
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

    /// Identifier minimization (§7): overwrite every UUID (with `uuids`)
    /// and every MAC (with `macs`) in each device's mDNS and SSDP
    /// responses with zeros. A MAC is scrubbed in its bare, colon,
    /// uppercase colon and dash spellings.
    pub fn strip_identifiers(&mut self, uuids: bool, macs: bool) {
        for device in self.households.iter_mut().flat_map(|h| &mut h.devices) {
            for response in device
                .mdns_responses
                .iter_mut()
                .chain(&mut device.ssdp_responses)
            {
                if uuids {
                    for uuid in ident::extract_uuids(response) {
                        *response = response.replace(&uuid, "00000000-0000-0000-0000-000000000000");
                    }
                }
                if macs {
                    let mut keys = Vec::new();
                    ident::for_each_id(response, |id| {
                        if let ident::Id::Mac(key, _) = id {
                            keys.push(key);
                        }
                    });
                    for key in keys {
                        let colon = ident::mac_text(key, Some(b':'));
                        *response = response
                            .replace(&ident::mac_text(key, None), "000000000000")
                            .replace(&colon, "00:00:00:00:00:00")
                            .replace(&colon.to_uppercase(), "00:00:00:00:00:00")
                            .replace(&ident::mac_text(key, Some(b'-')), "00-00-00-00-00-00");
                    }
                }
            }
        }
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

/// Append the low `digits` hex digits of `value`, lowercase and
/// zero-padded: `format!("{value:0digits$x}")` for a value that fits.
fn push_hex(out: &mut String, value: u64, digits: u32) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..digits).rev() {
        out.push(char::from(DIGITS[(value >> (4 * shift)) as usize & 0xf]));
    }
}

/// Fill `mac` with a random MAC under `oui` in colon form and `bare` with
/// the 12-hex-digit form that payloads embed.
fn random_mac(rng: &mut Rng, oui: &str, mac: &mut String, bare: &mut String) {
    mac.clear();
    mac.push_str(oui);
    for _ in 0..3 {
        mac.push(':');
        push_hex(mac, u64::from(rng.gen_u8()), 2);
    }
    bare.clear();
    bare.extend(mac.chars().filter(|&c| c != ':'));
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

fn make_payloads(rng: &mut Rng, product: &Product, mac: &str, bare_mac: &str) -> Payloads {
    let mut mdns = Vec::new();
    let mut ssdp = Vec::new();
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
        response.push_str("::upnp:rootdevice\r\nSERVER: Linux UPnP/1.0 ");
        response.push_str(&product.vendor);
        response.push_str("/1.0\r\n\r\n");
        ssdp.push(response);
    }
    if expose_mac {
        mdns.push(
            [
                &product.model,
                " - ",
                &bare_mac[6..],
                "._",
                &product.category,
                "._tcp.local TXT mac=",
                mac,
                " id=",
                bare_mac,
            ]
            .concat(),
        );
    }
    if expose_name {
        let first = FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())];
        let room = ROOMS[rng.gen_range(0..ROOMS.len())];
        ssdp.push(
            [
                "HTTP/1.1 200 OK\r\nST: roku:ecp\r\nname: \"",
                &product.model,
                " - ",
                first,
                "'s ",
                room,
                "\"\r\n\r\n",
            ]
            .concat(),
        );
    }
    if matches!(product.exposure, ExposureClass::None) && rng.gen_bool(0.5) {
        // None-class products still answer discovery, just without unique
        // identifiers — "154 products … exposing none of the three types".
        mdns.push(
            [
                &product.model,
                "._",
                &product.category,
                "._tcp.local TXT md=",
                &product.model,
            ]
            .concat(),
        );
    }
    (mdns, ssdp)
}

/// Generate a dataset.
///
/// Households are independent: household `i` draws everything from its own
/// `Rng::stream(seed, i)`, so generation fans out across the
/// [`iotlan_util::pool`] with bit-identical output at any thread count.
pub fn generate(config: &GeneratorConfig) -> Dataset {
    let products = product_universe();
    let households = fold_households(config, &products, |household, product, payloads| {
        push_device(household, &products[product], payloads)
    });
    Dataset { households }
}

/// [`generate`]'s visitor: the device of `product` with `payloads`.
fn push_device(household: &mut Household, product: &Product, payloads: Payloads) {
    let (mdns_responses, ssdp_responses) = payloads;
    household.devices.push(Device {
        oui: product.oui.clone(),
        mdns_responses,
        ssdp_responses,
        truth_vendor: product.vendor.clone(),
        truth_category: product.category.clone(),
    });
}

/// A drawn device's discovery payloads: its mDNS and its SSDP responses.
/// With its product they are all of its [`Device`] record.
pub type Payloads = (Vec<String>, Vec<String>);

/// Generate the households of `config` across the pool and reduce each one
/// where it is generated, without building the dataset. Household `i`'s
/// accumulator starts as `A::default()`, and `visit` folds in each of its
/// devices, as the index in `products` of the product it was drawn from
/// and its payloads, in draw order; a visitor that needs no owned
/// [`Device`] copies no product string. Only the accumulators are kept, in
/// household order, so the result is the same at any thread count.
///
/// `products` must be [`product_universe`]'s list.
pub fn fold_households<A, V>(config: &GeneratorConfig, products: &[Product], visit: V) -> Vec<A>
where
    A: Default + Send,
    V: Fn(&mut A, usize, Payloads) + Sync,
{
    let total_weight: u32 = products.iter().map(|p| p.weight).sum();
    pool::par_map_range(config.households, |house_index| {
        let mut rng = Rng::stream(config.seed, house_index as u64);
        generate_household(&mut rng, house_index, products, total_weight, &visit)
    })
}

/// Build one household from its private generator: each device's product
/// index and payloads are handed to `visit` as they are drawn.
fn generate_household<A: Default>(
    rng: &mut Rng,
    house_index: usize,
    products: &[Product],
    total_weight: u32,
    visit: impl Fn(&mut A, usize, Payloads),
) -> A {
    // IoT Inspector's per-user salt for its device IDs: drawn, not kept.
    let _salt: [u8; 16] = rng.gen_array();
    let mut household = A::default();
    // Reused by every device's MAC.
    let (mut mac, mut bare_mac) = (String::with_capacity(17), String::with_capacity(12));
    let mut add = |product: usize, rng: &mut Rng| {
        let payloads = draw_device(rng, &products[product], &mut mac, &mut bare_mac);
        visit(&mut household, product, payloads);
    };
    // Household size: median 3 (1..=9, weighted toward small).
    let size = *[1usize, 2, 2, 3, 3, 3, 3, 4, 4, 5, 6]
        .get(rng.gen_range(0..11usize))
        .unwrap();
    for _ in 0..size {
        // Weighted product draw.
        let mut pick = rng.gen_range(0..total_weight);
        let product = products
            .iter()
            .position(|p| {
                if pick < p.weight {
                    true
                } else {
                    pick -= p.weight;
                    false
                }
            })
            .unwrap();
        add(product, rng);
    }
    // Deterministic rare-class injection: the 2 name-only households
    // and the 2 all-three (Roku) households of Table 2.
    if house_index == 100 || house_index == 2100 {
        add(products.len() - 1, rng);
    }
    if house_index == 700 || house_index == 2900 {
        let name_only = products
            .iter()
            .position(|p| p.exposure == ExposureClass::NameOnly)
            .unwrap();
        add(name_only, rng);
    }
    household
}

/// Draw one device of `product` and return its payloads; `mac` and
/// `bare_mac` are scratch buffers.
fn draw_device(
    rng: &mut Rng,
    product: &Product,
    mac: &mut String,
    bare_mac: &mut String,
) -> Payloads {
    random_mac(rng, &product.oui, mac, bare_mac);
    let payloads = make_payloads(rng, product, mac, bare_mac);
    skip_unread_fields(rng);
    payloads
}

/// The draws of the fields IoT Inspector records but no artifact reads,
/// discarded with the same calls and bounds so that later draws stay put:
/// the DHCP hostname's and user label's coins, then 4–11 five-second flow
/// windows (remote port, bytes sent, bytes received, local peer).
fn skip_unread_fields(rng: &mut Rng) {
    rng.gen_bool(0.67);
    rng.gen_bool(0.6);
    for _ in 0..rng.gen_range(4u64..12) {
        rng.gen_range(0..5usize);
        rng.gen_range(60u64..5_000);
        rng.gen_range(60u64..50_000);
        rng.gen_bool(0.3);
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
    }

    #[test]
    fn deterministic_given_seed() {
        let config = |seed| GeneratorConfig {
            seed,
            households: 50,
        };
        let a = generate(&config(7));
        assert_eq!(a, generate(&config(7)));
        assert_ne!(a, generate(&config(8)));
    }

    #[test]
    fn hex_matches_format() {
        for value in [0, 0xabc, 0xffff_ffff, 0x0123_4567_89ab_cdef, u64::MAX] {
            let mut pushed = String::new();
            push_hex(&mut pushed, value & 0xffff_ffff_ffff, 12);
            assert_eq!(pushed, format!("{:012x}", value & 0xffff_ffff_ffff));
        }
        for byte in 0..=255u8 {
            let mut pushed = String::new();
            push_hex(&mut pushed, u64::from(byte), 2);
            assert_eq!(pushed, format!("{byte:02x}"));
        }
    }

    #[test]
    fn stripping_identifiers_scrubs_every_spelling() {
        let device = |response: &str| Device {
            oui: "b0:a7:37".into(),
            mdns_responses: vec![response.into()],
            ssdp_responses: Vec::new(),
            truth_vendor: "Roku".into(),
            truth_category: "tv-stick".into(),
        };
        let text = "USN: uuid:0a1b2c3d-0000-4abc-8def-0123456789ab mac=b0:a7:37:01:02:0f \
                    MAC=B0:A7:37:01:02:0F hw=b0-a7-37-01-02-0f id=b0a7370102af";
        let mut data = Dataset {
            households: vec![Household {
                devices: vec![device(text)],
            }],
        };
        let scrubbed = |data: &Dataset| data.households[0].devices[0].mdns_responses[0].clone();
        data.strip_identifiers(false, false);
        assert_eq!(scrubbed(&data), text);
        data.strip_identifiers(true, true);
        assert_eq!(
            scrubbed(&data),
            "USN: uuid:00000000-0000-0000-0000-000000000000 mac=00:00:00:00:00:00 \
             MAC=00:00:00:00:00:00 hw=00-00-00-00-00-00 id=000000000000"
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

    iotlan_util::props! {
        /// The presized MAC and payload builders equal the `format!` ones
        /// they replaced for every product, and draw the same numbers from
        /// the generator.
        fn builders_match_the_format_oracle(g) {
            let (mut mac, mut bare_mac) = (String::new(), String::new());
            for product in &product_universe() {
                let mut rng = Rng::stream(g.u64(), g.u64());
                let mut expected = rng.clone();
                random_mac(&mut rng, &product.oui, &mut mac, &mut bare_mac);
                let (oracle_mac, oracle_bare) = oracle::random_mac(&mut expected, &product.oui);
                assert_eq!((&mac, &bare_mac), (&oracle_mac, &oracle_bare));
                let payloads = make_payloads(&mut rng, product, &mac, &bare_mac);
                let oracle_payloads =
                    oracle::make_payloads(&mut expected, product, &oracle_mac, &oracle_bare);
                assert_eq!(payloads, oracle_payloads, "{}", product.model);
                assert_eq!(rng, expected, "{}", product.model);
            }
        }

        /// The generator equals the one that also built device IDs, user
        /// IDs, flow windows, DHCP hostnames and user labels, projected
        /// onto the fields it keeps: each device's OUI, payloads, vendor
        /// and category, and each household's final generator state, over
        /// crowds that reach household 100's Roku.
        fn generator_equals_the_projected_full_record_oracle(g) {
            let config = GeneratorConfig {
                seed: g.u64(),
                households: g.int_in(0..=120usize),
            };
            let products = product_universe();
            let total_weight: u32 = products.iter().map(|p| p.weight).sum();
            let mut projected = Vec::new();
            for house_index in 0..config.households {
                let mut rng = Rng::stream(config.seed, house_index as u64);
                let mut expected = rng.clone();
                let household: Household = generate_household(
                    &mut rng,
                    house_index,
                    &products,
                    total_weight,
                    |household, product, payloads| {
                        push_device(household, &products[product], payloads)
                    },
                );
                let oracle = oracle::household(&mut expected, house_index, &products);
                assert_eq!(household, oracle, "{config:?} household {house_index}");
                assert_eq!(rng, expected, "{config:?} household {house_index}");
                projected.push(oracle);
            }
            assert_eq!(
                generate(&config),
                Dataset {
                    households: projected
                }
            );
        }
    }
}

/// The original generator, kept as a test oracle: its `format!`-built MAC
/// and payloads, and its households with every draw their user IDs and
/// their devices' IDs, DHCP hostnames, user labels and flow windows took.
/// Hashing draws nothing, so the oracle computes no IDs.
#[cfg(test)]
mod oracle {
    use super::{push_hex, push_random_uuid, Device, ExposureClass, Household, Product};
    use super::{FIRST_NAMES, ROOMS};
    use iotlan_util::rng::Rng;
    use std::fmt::Write as _;

    pub fn random_mac(rng: &mut Rng, oui: &str) -> (String, String) {
        let mut mac = String::with_capacity(17);
        mac.push_str(oui);
        for _ in 0..3 {
            mac.push(':');
            push_hex(&mut mac, u64::from(rng.gen_u8()), 2);
        }
        let bare = mac.replace(':', "");
        (mac, bare)
    }

    pub fn make_payloads(
        rng: &mut Rng,
        product: &Product,
        mac: &str,
        bare_mac: &str,
    ) -> (Vec<String>, Vec<String>) {
        let mut mdns = Vec::new();
        let mut ssdp = Vec::new();
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
        }
        if matches!(product.exposure, ExposureClass::None) && rng.gen_bool(0.5) {
            mdns.push(format!(
                "{}._{}._tcp.local TXT md={}",
                product.model, product.category, product.model
            ));
        }
        (mdns, ssdp)
    }

    /// One 5-second traffic window: start, remote port, bytes sent and
    /// received, and whether the peer was local.
    type FlowWindow = (u64, u16, u64, u64, bool);

    /// Household `house_index` drawn from `rng` the original way, less
    /// its user ID and each device's ID, hostname, label and flows.
    pub fn household(rng: &mut Rng, house_index: usize, products: &[Product]) -> Household {
        let total_weight: u32 = products.iter().map(|p| p.weight).sum();
        let _salt: [u8; 16] = rng.gen_array();
        let mut devices = Vec::new();
        let mut add = |product: &Product, rng: &mut Rng| {
            devices.push(device(rng, product));
        };
        let size = *[1usize, 2, 2, 3, 3, 3, 3, 4, 4, 5, 6]
            .get(rng.gen_range(0..11usize))
            .unwrap();
        for _ in 0..size {
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
            add(product, rng);
        }
        if house_index == 100 || house_index == 2100 {
            add(products.last().unwrap(), rng);
        }
        if house_index == 700 || house_index == 2900 {
            let name_only = products
                .iter()
                .find(|p| p.exposure == ExposureClass::NameOnly)
                .unwrap();
            add(name_only, rng);
        }
        Household { devices }
    }

    fn device(rng: &mut Rng, product: &Product) -> Device {
        let (mac, bare_mac) = random_mac(rng, &product.oui);
        let (mdns_responses, ssdp_responses) = make_payloads(rng, product, &mac, &bare_mac);
        // Whether the device had a DHCP hostname and a user label; building
        // them drew nothing.
        let _has_dhcp_hostname = rng.gen_bool(0.67);
        let _has_user_label = rng.gen_bool(0.6);
        let _flows: Vec<FlowWindow> = (0..rng.gen_range(4..12))
            .map(|k| {
                (
                    k * 5,
                    *[443u16, 8009, 1900, 5353, 80]
                        .get(rng.gen_range(0..5usize))
                        .unwrap(),
                    rng.gen_range(60..5_000),
                    rng.gen_range(60..50_000),
                    rng.gen_bool(0.3),
                )
            })
            .collect();
        Device {
            oui: product.oui.clone(),
            mdns_responses,
            ssdp_responses,
            truth_vendor: product.vendor.clone(),
            truth_category: product.category.clone(),
        }
    }
}
