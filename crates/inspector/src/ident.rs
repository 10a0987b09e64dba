//! The §6.3 identifier extractors over mDNS/SSDP payload text:
//!
//! 1. **Names** — "an English word followed by an apostrophe, 's', space,
//!    and another word" (the `Roku 3 - REDACTED's Room` pattern);
//! 2. **UUIDs** — the standard 8-4-4-4-12 pattern (RFC 4122);
//! 3. **MAC addresses** — "with and without ':' and '-'", filtered by
//!    checking the candidate against the device's OUI "to reduce false
//!    positives".
//!
//! Hand-rolled matchers (no regex dependency), case-insensitive where the
//! wire formats are. [`for_each_id`] is the one scan: a single pass over
//! the bytes, driven by a 256-entry class table, that keys each UUID as a
//! `u128` and each MAC as a `u64` while it reads their digits, and borrows
//! each possessive name from a text it saw an apostrophe in. Everything
//! else uses it: [`kinds`] reports which identifier types a text holds
//! without allocating (Table 1), `for_each_exposed` gathers one device's
//! keys for Table 2, and the `extract_*` functions render the matches as
//! lowercase `String`s ([`uuid_text`], [`mac_text`]).

use crate::entropy::IdentifierClass;

/// [`CLASS`] flags; a hex digit's value is the entry's low nibble.
const HEX: u8 = 0x10;
const APOSTROPHE: u8 = 0x20;

/// Each byte's class: `HEX` plus the digit's value for a hex digit,
/// `APOSTROPHE` for `'`, 0 for anything else.
const CLASS: [u8; 256] = {
    let mut class = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        class[byte] = match byte as u8 {
            digit @ b'0'..=b'9' => HEX | (digit - b'0'),
            letter @ b'a'..=b'f' => HEX | (letter - b'a' + 10),
            letter @ b'A'..=b'F' => HEX | (letter - b'A' + 10),
            b'\'' => APOSTROPHE,
            _ => 0,
        };
        byte += 1;
    }
    class
};

/// One identifier match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id<'a> {
    /// A possessive name, borrowed from the text.
    Name(&'a str),
    /// A UUID as the value of its 32 hex digits.
    Uuid(u128),
    /// A MAC candidate as the value of its 12 hex digits, with the
    /// separator between its pairs (`None` for the bare form).
    Mac(u64, Option<u8>),
}

/// Call `each` with every identifier in `text`: its UUIDs and MAC
/// candidates in text order, then its possessive names in text order. MAC
/// candidates come in three syntaxes: `aa:bb:cc:dd:ee:ff`,
/// `aa-bb-cc-dd-ee-ff`, and the bare 12-hex-digit form.
///
/// Matches start only where a run of hex digits ends. A UUID starts a run
/// of exactly eight digits, never one inside a longer run. A bare MAC is a
/// whole run of exactly 12 digits, one of them decimal (pure-letter runs
/// such as "thermostatic" are words). Otherwise a separated MAC may start
/// two digits before the `:` or `-` that ends the run; it consumes its 17
/// bytes, so no MAC starts inside it. Every name holds an apostrophe, so
/// names are sought only in a text with one.
///
/// The pass reads 16 bytes at a time through the class table and finds in
/// them the ends of runs of two or more digits; only there does it look
/// further, keying each match as it reads its digits.
pub fn for_each_id<'a>(text: &'a str, mut each: impl FnMut(Id<'a>)) {
    let bytes = text.as_bytes();
    // `run`: the length of the run of digits that ends before byte `i`.
    // `next_mac`: where the next MAC may start. `seen`: every class read.
    let (mut i, mut run, mut next_mac, mut seen) = (0, 0, 0, 0);
    'words: while i <= bytes.len() {
        let word: [u8; 16] = match bytes.get(i..i + 16) {
            Some(word) => word.try_into().expect("sixteen bytes"),
            // Spaces past the end: the end of the text ends a run as any
            // byte but a digit does.
            None => {
                let mut word = [b' '; 16];
                word[..bytes.len() - i].copy_from_slice(&bytes[i..]);
                word
            }
        };
        // Bit k: byte i + k is a digit.
        let mut digits = 0u32;
        for (k, &byte) in word.iter().enumerate() {
            let class = CLASS[usize::from(byte)];
            seen |= class;
            digits |= u32::from(class & HEX) >> 4 << k;
        }
        // Bit k: byte i + k ends a run of two or more digits.
        let after_one = digits << 1 | u32::from(run >= 1);
        let after_two = digits << 2 | u32::from(run >= 1) << 1 | u32::from(run >= 2);
        let mut ends = !digits & after_one & after_two & 0xffff;
        while ends != 0 {
            let k = ends.trailing_zeros() as usize;
            ends &= ends - 1;
            // The run's length: back to the last byte before it in this
            // word that is no digit, or on into the run carried in.
            let before = !digits & ((1 << k) - 1);
            let len = if before == 0 {
                run + k
            } else {
                k - 1 - (31 - before.leading_zeros() as usize)
            };
            let (start, end) = (i + k - len, i + k);
            let uuid = bytes.get(start..start + 36).filter(|_| len == 8);
            if let Some(uuid) = uuid.and_then(|w| key(w, b'-', |j| matches!(j, 8 | 13 | 18 | 23))) {
                each(Id::Uuid(uuid));
                // The next three groups hold no match; the last one may be
                // a bare MAC or start a separated one.
                (i, run) = (start + 24, 0);
                continue 'words;
            }
            let run_bytes = &bytes[start..end];
            if len == 12 && start >= next_mac && run_bytes.iter().any(u8::is_ascii_digit) {
                each(Id::Mac(
                    key(run_bytes, 0, |_| false).expect("a run of digits") as u64,
                    None,
                ));
            } else if let Some(&sep @ (b':' | b'-')) =
                bytes.get(end).filter(|_| end - 2 >= next_mac)
            {
                let window = bytes.get(end - 2..end + 15);
                if let Some(mac) = window.and_then(|w| key(w, sep, |j| j % 3 == 2)) {
                    each(Id::Mac(mac as u64, Some(sep)));
                    // Resume at the last pair, which may start a run.
                    next_mac = end + 15;
                    (i, run) = (end + 13, 0);
                    continue 'words;
                }
            }
        }
        // The run carried into the next word: the digits this one ends in.
        run = match digits {
            0xffff => run + 16,
            _ => (digits as u16).leading_ones() as usize,
        };
        i += 16;
    }
    if seen & APOSTROPHE != 0 {
        for_each_name(text, |name| each(Id::Name(name)));
    }
}

/// The value of the hex digits of `window`, whose bytes at the offsets
/// `is_separator` picks must be `sep`; `None` if a byte is out of place.
/// `#[inline]`: the scan is generic, so it is built in its callers' crates,
/// where calls into this one slowed it by a tenth.
#[inline]
fn key(window: &[u8], sep: u8, is_separator: impl Fn(usize) -> bool) -> Option<u128> {
    window.iter().enumerate().try_fold(0, |key, (j, &byte)| {
        let class = CLASS[usize::from(byte)];
        match is_separator(j) {
            true => (byte == sep).then_some(key),
            false => (class & HEX != 0).then(|| key << 4 | u128::from(class & 0xf)),
        }
    })
}

/// Call `each` with every possessive name in `text`, in order.
fn for_each_name<'a>(text: &'a str, mut each: impl FnMut(&'a str)) {
    let mut i = 0;
    while let Some(c) = text[i..].chars().next() {
        if !c.is_alphabetic() {
            i += c.len_utf8();
            continue;
        }
        let start = i;
        i = skip_while(text, i, char::is_alphanumeric);
        // word + ' + s + space + word
        let rest = &text[i..];
        if (rest.starts_with("'s ") || rest.starts_with("'S "))
            && rest[3..].starts_with(char::is_alphabetic)
        {
            i = skip_while(text, i + 3, |c| c.is_alphanumeric() || c == ' ');
            each(text[start..i].trim_end());
        }
    }
}

/// The byte offset of the first char at or after `from` that fails `keep`.
fn skip_while(text: &str, from: usize, keep: impl Fn(char) -> bool) -> usize {
    text[from..]
        .char_indices()
        .find(|&(_, c)| !keep(c))
        .map_or(text.len(), |(len, _)| from + len)
}

/// Which identifier types `text` holds; `mac` counts every MAC candidate,
/// with no OUI filter.
pub fn kinds(text: &str) -> IdentifierClass {
    let mut kinds = IdentifierClass::NONE;
    for_each_id(text, |id| match id {
        Id::Name(_) => kinds.name = true,
        Id::Uuid(_) => kinds.uuid = true,
        Id::Mac(..) => kinds.mac = true,
    });
    kinds
}

/// A UUID key as its 8-4-4-4-12 lowercase text.
pub fn uuid_text(key: u128) -> String {
    let hex = format!("{key:032x}");
    format!(
        "{}-{}-{}-{}-{}",
        &hex[..8],
        &hex[8..12],
        &hex[12..16],
        &hex[16..20],
        &hex[20..]
    )
}

/// A MAC key as lowercase text: 12 bare digits for `None`, else six pairs
/// joined by the separator.
pub fn mac_text(key: u64, sep: Option<u8>) -> String {
    let hex = format!("{key:012x}");
    let Some(sep) = sep else { return hex };
    let pairs: Vec<&str> = (0..12).step_by(2).map(|at| &hex[at..at + 2]).collect();
    pairs.join(char::from(sep).encode_utf8(&mut [0; 4]))
}

/// The matches `render` maps to a `String`, in [`for_each_id`]'s order.
fn collect(text: &str, mut render: impl FnMut(Id) -> Option<String>) -> Vec<String> {
    let mut out = Vec::new();
    for_each_id(text, |id| out.extend(render(id)));
    out
}

/// Possessive-name matches.
pub fn extract_names(text: &str) -> Vec<String> {
    collect(text, |id| match id {
        Id::Name(name) => Some(name.to_string()),
        _ => None,
    })
}

/// UUID matches (8-4-4-4-12 hex with dashes), lowercased.
pub fn extract_uuids(text: &str) -> Vec<String> {
    collect(text, |id| match id {
        Id::Uuid(key) => Some(uuid_text(key)),
        _ => None,
    })
}

/// MAC-address candidates in all three syntaxes, as 12 lowercase digits.
/// The bare form is noisy, so [`extract_macs_with_oui`] filters by the
/// known OUI.
pub fn extract_mac_candidates(text: &str) -> Vec<String> {
    collect(text, |id| match id {
        Id::Mac(key, _) => Some(mac_text(key, None)),
        _ => None,
    })
}

/// The paper's false-positive filter: keep candidates whose first six hex
/// digits match the OUI that IoT Inspector recorded for the device.
pub fn extract_macs_with_oui(text: &str, device_oui: &str) -> Vec<String> {
    let admits = oui_filter(device_oui);
    collect(text, |id| match id {
        Id::Mac(key, _) if admits(key) => Some(mac_text(key, None)),
        _ => None,
    })
}

/// The filter of the MAC keys that start with `device_oui`, lowercased
/// and without its `:`/`-` separators; none do if it holds another char
/// that is no hex digit.
pub(crate) fn oui_filter(device_oui: &str) -> impl Fn(u64) -> bool + Copy {
    let (mut prefix, mut digits) = (Some(0u64), 0);
    for c in device_oui.chars().filter(|&c| c != ':' && c != '-') {
        prefix = prefix
            .zip(c.to_digit(16))
            .map(|(p, d)| p << 4 | u64::from(d));
        digits += 1;
    }
    move |mac| digits <= 12 && prefix == Some(mac >> (4 * (12 - digits)))
}

/// Call `each` with the identifiers one device exposes in its discovery
/// `responses`, of its MACs only those `admits` (its [`oui_filter`]). Each
/// response is scanned in place, in order; per type, this equals scanning
/// the responses joined with `'\n'`: no match can span a newline, which is
/// not hex, `-`, `:`, a space or alphanumeric, and a newline bounds a bare
/// MAC or a UUID just as the start of a response does.
pub(crate) fn for_each_exposed<'a>(
    responses: impl IntoIterator<Item = &'a str>,
    admits: impl Fn(u64) -> bool,
    mut each: impl FnMut(Id<'a>),
) {
    for response in responses {
        for_each_id(response, |id| match id {
            Id::Mac(key, _) if !admits(key) => {}
            id => each(id),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_util::check::Gen;

    #[test]
    fn names_from_table2_examples() {
        assert_eq!(extract_names("Roku 3 - Danny's Room"), vec!["Danny's Room"]);
        assert_eq!(
            extract_names("name=\"Alice's Roku Express\" x"),
            vec!["Alice's Roku Express"]
        );
        assert!(extract_names("no possessives here").is_empty());
        // Bare apostrophe without 's' is not a possessive.
        assert!(extract_names("devices' room").is_empty());
    }

    #[test]
    fn uuids() {
        let text = "USN: uuid:2f402f80-da50-11e1-9b23-001788685f61::upnp:rootdevice";
        assert_eq!(
            extract_uuids(text),
            vec!["2f402f80-da50-11e1-9b23-001788685f61"]
        );
        assert!(extract_uuids("2f402f80-da50-11e1-9b23").is_empty());
        // Uppercase normalizes to lowercase.
        assert_eq!(
            extract_uuids("ABCDEF01-2345-6789-ABCD-EF0123456789"),
            vec!["abcdef01-2345-6789-abcd-ef0123456789"]
        );
    }

    #[test]
    fn mac_syntaxes() {
        let colon = extract_mac_candidates("mac=00:17:88:68:5F:61;");
        assert_eq!(colon, vec!["001788685f61"]);
        let dash = extract_mac_candidates("serial 9C-8E-CD-0A-33-1B end");
        assert_eq!(dash, vec!["9c8ecd0a331b"]);
        let bare = extract_mac_candidates("bridgeid=001788685f61 ");
        assert_eq!(bare, vec!["001788685f61"]);
        let mixed = "mac=00:17:88:68:5F:61; serial 9C-8E-CD-0A-33-1B id=001788685f61";
        assert_eq!(
            macs_as_written(mixed),
            vec!["00:17:88:68:5f:61", "9c-8e-cd-0a-33-1b", "001788685f61"]
        );
    }

    /// Every MAC candidate in `text`, rendered in its own syntax.
    fn macs_as_written(text: &str) -> Vec<String> {
        collect(text, |id| match id {
            Id::Mac(key, sep) => Some(mac_text(key, sep)),
            _ => None,
        })
    }

    #[test]
    fn letter_run_starts_a_separated_mac() {
        // A 12-digit run of letters is no bare MAC, yet its last pair
        // starts a separated one.
        let text = "abcdefabcdef:12:34:56:78:9a";
        assert_eq!(extract_mac_candidates(text), vec!["ef123456789a"]);
        assert_eq!(macs_as_written(text), vec!["ef:12:34:56:78:9a"]);
        assert_eq!(
            extract_mac_candidates(text),
            oracle::extract_mac_candidates(text)
        );
    }

    #[test]
    fn bare_needs_digit_and_boundaries() {
        assert!(extract_mac_candidates("thermostatic").is_empty()); // no digit
        assert!(extract_mac_candidates("001788685f612").is_empty()); // 13 hex
        assert!(extract_mac_candidates("x001788685f61").len() == 1); // 'x' boundary
    }

    #[test]
    fn separated_mac_consumes_its_last_pair() {
        // The last pair starts a 12-digit run, which is no bare MAC: the
        // separated match before it has consumed its first two digits.
        let text = "00:11:22:33:44:55667788990a";
        assert_eq!(extract_mac_candidates(text), vec!["001122334455"]);
        assert_eq!(
            extract_mac_candidates(text),
            oracle::extract_mac_candidates(text)
        );
    }

    #[test]
    fn oui_filter() {
        let text = "bridgeid=001788685f61 session=deadbeef1234";
        // Philips OUI 001788: only the bridge id survives.
        assert_eq!(
            extract_macs_with_oui(text, "00:17:88"),
            vec!["001788685f61"]
        );
        // Wrong OUI: nothing survives.
        assert!(extract_macs_with_oui(text, "b0:a7:37").is_empty());
    }

    #[test]
    fn multiple_identifiers_in_one_payload() {
        // The Table 5 SSDP example: friendlyName serial + MAC + UUID.
        let payload = "<friendlyName>AMC020SC43PJ749D66</friendlyName>\
                       <serialNumber>9c:8e:cd:0a:33:1b</serialNumber>\
                       <UDN>uuid:deadbeef-9c8e-4d0a-b31b-9c8ecd0a331b</UDN>";
        let macs = extract_macs_with_oui(payload, "9c:8e:cd");
        assert!(macs.contains(&"9c8ecd0a331b".to_string()));
        assert_eq!(extract_uuids(payload).len(), 1);
    }

    /// OUIs for the filter: colon, dash and bare forms, mixed case, the
    /// empty OUI that every candidate matches, and a non-ASCII one.
    const OUIS: [&str; 7] = [
        "00:17:88", "B0-a7-37", "9c8ecd", "9C:8E", "", "zz:00:17", "ΑΣ",
    ];

    /// Random text over hex digits, `:-'s\n`, space and non-ASCII letters,
    /// with spliced MACs (in every syntax, often under an OUI above), UUIDs,
    /// chains of hex pairs and possessive names so every matcher fires.
    fn text(g: &mut Gen) -> String {
        const ALPHABET: &str = "0123456789abcdefABCDEF:-'sS\n xRé中";
        let mut out = String::new();
        for _ in 0..g.len(12) {
            match g.int_in(0..7u8) {
                0 => {
                    let mut bytes: [u8; 6] = g.array();
                    let ouis = [[0x00, 0x17, 0x88], [0xb0, 0xa7, 0x37], [0x9c, 0x8e, 0xcd]];
                    if let Some(oui) = ouis.get(g.int_in(0..4usize)) {
                        bytes[..3].copy_from_slice(oui);
                    }
                    let sep = ["", ":", "-"][g.int_in(0..3usize)];
                    let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
                    let mac = hex.join(sep);
                    out.push_str(&if g.bool() { mac.to_uppercase() } else { mac });
                }
                1 => {
                    let digits = g.string_of("0123456789abcdefABCDEF", 32, 32);
                    for (i, c) in digits.chars().enumerate() {
                        if matches!(i, 8 | 12 | 16 | 20) {
                            out.push('-');
                        }
                        out.push(c);
                    }
                }
                2 => {
                    out.push_str(&g.string_of("abcxyzRé中1", 1, 6));
                    out.push_str(if g.bool() { "'s " } else { "'S " });
                    out.push_str(&g.string_of("abcRé中 1\n", 0, 8));
                }
                3 => {
                    // Runs of hex pairs longer than a MAC, so separated
                    // matches chain and overlap.
                    let sep = [":", "-"][g.int_in(0..2usize)];
                    let pairs: Vec<String> = (0..g.int_in(1..20usize))
                        .map(|_| format!("{:02x}", g.u8()))
                        .collect();
                    out.push_str(&pairs.join(sep));
                    out.push_str(&g.string_of("0123456789abcdef", 0, 12));
                }
                4 => {
                    // A run of 11 to 13 digits, often letters only, ending
                    // in separated pairs: a separated MAC may start inside
                    // a run that is no bare MAC.
                    let digits = ["abcdefABCDEF", "0123456789abcdef"][g.int_in(0..2usize)];
                    out.push_str(&g.string_of(digits, 11, 13));
                    let sep = [":", "-"][g.int_in(0..2usize)];
                    for _ in 0..g.int_in(4..7usize) {
                        out.push_str(sep);
                        out.push_str(&format!("{:02x}", g.u8()));
                    }
                }
                _ => out.push_str(&g.string_of(ALPHABET, 0, 16)),
            }
        }
        out
    }

    iotlan_util::props! {
        /// The borrowing, array-valued scanners equal the original
        /// `Vec<char>` and `String`-per-candidate extractors.
        fn extractors_match_oracles(g) {
            let text = text(g);
            let oui = OUIS[g.int_in(0..OUIS.len())];
            assert_eq!(extract_names(&text), oracle::extract_names(&text), "{text:?}");
            assert_eq!(extract_uuids(&text), oracle::extract_uuids(&text), "{text:?}");
            assert_eq!(
                extract_mac_candidates(&text),
                oracle::extract_mac_candidates(&text),
                "{text:?}"
            );
            assert_eq!(
                extract_macs_with_oui(&text, oui),
                oracle::extract_macs_with_oui(&text, oui),
                "{text:?} oui {oui:?}"
            );
        }

        /// Scanning each response in place equals scanning the responses
        /// joined with newlines.
        fn per_response_scan_matches_joined_text(g) {
            let responses = g.vec_of(0, 6, text);
            let oui = OUIS[g.int_in(0..OUIS.len())];
            let (mut names, mut uuids, mut macs) = (Vec::new(), Vec::new(), Vec::new());
            let scanned = responses.iter().map(String::as_str);
            for_each_exposed(scanned, super::oui_filter(oui), |id| match id {
                Id::Name(name) => names.push(name.to_string()),
                Id::Uuid(key) => uuids.push(uuid_text(key)),
                Id::Mac(key, _) => macs.push(mac_text(key, None)),
            });
            let joined = responses.join("\n");
            assert_eq!(names, extract_names(&joined), "{responses:?}");
            assert_eq!(uuids, extract_uuids(&joined), "{responses:?}");
            assert_eq!(
                macs,
                extract_macs_with_oui(&joined, oui),
                "{responses:?} oui {oui:?}"
            );
        }

        /// The keyed pass finds what the original extractors find: each
        /// UUID and MAC key is the value of the oracle's match, each MAC's
        /// separator is how the text writes it, the `extract_*` functions
        /// render its matches, and the kinds pass reports which of the
        /// three lists are non-empty.
        fn keyed_pass_matches_the_oracles(g) {
            let text = text(g);
            let oui = OUIS[g.int_in(0..OUIS.len())];
            let (mut names, mut uuids, mut macs) = (Vec::new(), Vec::new(), Vec::new());
            for_each_id(&text, |id| match id {
                Id::Name(name) => names.push(name.to_string()),
                Id::Uuid(key) => uuids.push(key),
                Id::Mac(key, sep) => macs.push((key, sep)),
            });
            let oracle_uuids: Vec<u128> =
                oracle::extract_uuids(&text).iter().map(|uuid| oracle::uuid_key(uuid)).collect();
            let oracle_macs: Vec<u64> = oracle::extract_mac_candidates(&text)
                .iter()
                .map(|mac| oracle::mac_key(mac))
                .collect();
            assert_eq!(names, oracle::extract_names(&text), "{text:?}");
            assert_eq!(uuids, oracle_uuids, "{text:?}");
            let keys: Vec<u64> = macs.iter().map(|&(key, _)| key).collect();
            assert_eq!(keys, oracle_macs, "{text:?}");
            let uuid_texts: Vec<String> = uuids.iter().map(|&key| uuid_text(key)).collect();
            assert_eq!(uuid_texts, extract_uuids(&text), "{text:?}");
            let mac_texts = keys.iter().map(|&key| mac_text(key, None));
            assert_eq!(mac_texts.collect::<Vec<_>>(), extract_mac_candidates(&text), "{text:?}");
            let admits = super::oui_filter(oui);
            let kept = keys.iter().filter(|&&key| admits(key)).map(|&key| mac_text(key, None));
            assert_eq!(kept.collect::<Vec<_>>(), extract_macs_with_oui(&text, oui), "{text:?}");
            assert_eq!(names, extract_names(&text), "{text:?}");
            // Each MAC as its syntax writes it, in order: the separator
            // is the one the text puts between its pairs.
            let lower = text.to_ascii_lowercase();
            let mut from = 0;
            for &(key, sep) in &macs {
                let written = mac_text(key, sep);
                let at = lower[from..].find(&written);
                assert!(at.is_some(), "{written} not in {text:?} after {from}");
                from += at.unwrap_or_default() + written.len();
            }
            let expected = IdentifierClass {
                name: !names.is_empty(),
                uuid: !uuids.is_empty(),
                mac: !macs.is_empty(),
            };
            assert_eq!(kinds(&text), expected, "{text:?}");
        }

        /// A UUID's or a MAC's oracle key is the number its lowercase text
        /// spells, and the renderers write that text back.
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
            assert_eq!(oracle::uuid_key(&text), value, "{text}");
            assert_eq!(uuid_text(value), text);
            let value = value as u64 & 0xffff_ffff_ffff;
            let text = format!("{value:012x}");
            assert_eq!(oracle::mac_key(&text), value, "{text}");
            assert_eq!(mac_text(value, None), text);
            let pairs: Vec<&str> = (0..6).map(|i| &text[2 * i..2 * i + 2]).collect();
            assert_eq!(mac_text(value, Some(b'-')), pairs.join("-"));
        }
    }
}

/// The original extractors, kept as test oracles for the scanners above:
/// names over a `Vec<char>`, and a `String` per MAC candidate before the
/// OUI check; and the keys of their matches, computed from the text.
#[cfg(test)]
mod oracle {
    /// The value of a run of lowercase hex digits.
    fn hex_value<'a>(digits: impl IntoIterator<Item = &'a u8>) -> u128 {
        digits.into_iter().fold(0, |value, &digit| {
            // '0'..='9' → 0..=9, 'a'..='f' → 10..=15.
            value << 4 | u128::from((digit & 0xf) + 9 * (digit >> 6))
        })
    }

    /// A lowercase UUID match as its 32 digits' value.
    pub fn uuid_key(uuid: &str) -> u128 {
        hex_value(uuid.as_bytes().iter().filter(|&&byte| byte != b'-'))
    }

    /// A MAC match (12 lowercase digits) as its value.
    pub fn mac_key(mac: &str) -> u64 {
        hex_value(mac.as_bytes()) as u64
    }

    pub fn extract_names(text: &str) -> Vec<String> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if chars[i].is_alphabetic() {
                let start = i;
                while i < chars.len() && chars[i].is_alphanumeric() {
                    i += 1;
                }
                if i + 3 < chars.len()
                    && chars[i] == '\''
                    && (chars[i + 1] == 's' || chars[i + 1] == 'S')
                    && chars[i + 2] == ' '
                    && chars[i + 3].is_alphabetic()
                {
                    let mut j = i + 3;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == ' ') {
                        j += 1;
                    }
                    out.push(
                        chars[start..j]
                            .iter()
                            .collect::<String>()
                            .trim_end()
                            .to_string(),
                    );
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    pub fn extract_uuids(text: &str) -> Vec<String> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let segments = [8usize, 4, 4, 4, 12];
        const TOTAL: usize = 36;
        let mut i = 0;
        'outer: while i + TOTAL <= bytes.len() {
            if i > 0 && bytes[i - 1].is_ascii_hexdigit() {
                i += 1;
                continue;
            }
            let window = &bytes[i..i + TOTAL];
            let mut pos = 0;
            for (index, &len) in segments.iter().enumerate() {
                for _ in 0..len {
                    if !window[pos].is_ascii_hexdigit() {
                        i += 1;
                        continue 'outer;
                    }
                    pos += 1;
                }
                if index < 4 {
                    if window[pos] != b'-' {
                        i += 1;
                        continue 'outer;
                    }
                    pos += 1;
                }
            }
            out.push(String::from_utf8_lossy(window).to_lowercase());
            i += TOTAL;
        }
        out
    }

    pub fn extract_mac_candidates(text: &str) -> Vec<String> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if let Some((mac, advance)) =
                match_separated(bytes, i, b':').or_else(|| match_separated(bytes, i, b'-'))
            {
                out.push(mac);
                i += advance;
                continue;
            }
            if let Some((mac, advance)) = match_bare(bytes, i) {
                out.push(mac);
                i += advance;
                continue;
            }
            i += 1;
        }
        out
    }

    fn match_separated(bytes: &[u8], i: usize, sep: u8) -> Option<(String, usize)> {
        if i + 17 > bytes.len() {
            return None;
        }
        let window = &bytes[i..i + 17];
        for (j, &b) in window.iter().enumerate() {
            if j % 3 == 2 {
                if b != sep {
                    return None;
                }
            } else if !b.is_ascii_hexdigit() {
                return None;
            }
        }
        let normalized: String = window
            .iter()
            .filter(|&&b| b != sep)
            .map(|&b| (b as char).to_ascii_lowercase())
            .collect();
        Some((normalized, 17))
    }

    fn match_bare(bytes: &[u8], i: usize) -> Option<(String, usize)> {
        if i + 12 > bytes.len() {
            return None;
        }
        if i > 0 && bytes[i - 1].is_ascii_hexdigit() {
            return None;
        }
        let window = &bytes[i..i + 12];
        if !window.iter().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        if i + 12 < bytes.len() && bytes[i + 12].is_ascii_hexdigit() {
            return None;
        }
        if !window.iter().any(|b| b.is_ascii_digit()) {
            return None;
        }
        Some((
            window
                .iter()
                .map(|&b| (b as char).to_ascii_lowercase())
                .collect(),
            12,
        ))
    }

    pub fn extract_macs_with_oui(text: &str, device_oui: &str) -> Vec<String> {
        let oui = device_oui.to_lowercase().replace([':', '-'], "");
        extract_mac_candidates(text)
            .into_iter()
            .filter(|mac| mac.starts_with(&oui))
            .collect()
    }
}
