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
//! wire formats are. The scanners hand each match to a callback without
//! allocating: names borrowed from the text, UUIDs and MACs (found in one
//! pass over the runs of hex digits) as fixed-size lowercase arrays. The `extract_*` functions collect
//! the matches as `String`s; `Exposed::scan` gathers one device's matches
//! from its responses for the Table 2 analysis.

/// A UUID match: 8-4-4-4-12 hex digits with dashes, lowercased.
pub(crate) type Uuid = [u8; 36];

/// A MAC match: 12 hex digits without separators, lowercased.
pub(crate) type Mac = [u8; 12];

/// Call `each` with every possessive name in `text`, in order.
fn for_each_name<'a>(text: &'a str, mut each: impl FnMut(&'a str)) {
    // Every name has an apostrophe; most payloads have none.
    if !text.contains('\'') {
        return;
    }
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

/// Possessive-name matches.
pub fn extract_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_name(text, |name| out.push(name.to_string()));
    out
}

/// The end of the run of hex digits starting at `i`.
fn hex_run_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|b| !b.is_ascii_hexdigit())
        .map_or(bytes.len(), |len| i + len)
}

/// Call `uuid` with every UUID (8-4-4-4-12 hex with dashes) and `mac` with
/// every MAC-address candidate in `text`, each in order, in one pass over
/// its runs of hex digits. MAC candidates come in three syntaxes:
/// `aa:bb:cc:dd:ee:ff`, `aa-bb-cc-dd-ee-ff`, and the bare 12-hex-digit form;
/// `mac` gets the separator, `None` for the bare form.
///
/// The result equals two separate scans, one per type: a separated MAC
/// consumes its 17 bytes for MACs only (a bare one is its whole run), and
/// inside a UUID match no other run of exactly eight digits starts.
fn for_each_uuid_and_mac(
    text: &str,
    mut uuid: impl FnMut(Uuid),
    mut mac: impl FnMut(Mac, Option<u8>),
) {
    let bytes = text.as_bytes();
    let mut next_mac = 0;
    let mut start = 0;
    while start < bytes.len() {
        if !bytes[start].is_ascii_hexdigit() {
            start += 1;
            continue;
        }
        // Within a whole run of hex digits, a UUID can only start the run
        // (it is not matched inside a longer run) and only if the run is
        // its first eight digits; a bare MAC is the whole run; and a
        // separated MAC starts two digits before the separator that ends
        // the run.
        let end = hex_run_end(bytes, start);
        if end - start == 8 {
            if let Some(found) = match_uuid(bytes, start) {
                uuid(found);
            }
        }
        let bare = (end - start == 12 && start >= next_mac)
            .then(|| match_bare(bytes, start))
            .flatten();
        let separated = || match bytes.get(end) {
            Some(&sep @ (b':' | b'-')) if end - start >= 2 && end - 2 >= next_mac => {
                Some((match_separated(bytes, end - 2, sep)?, sep))
            }
            _ => None,
        };
        if let Some(found) = bare {
            mac(found, None);
        } else if let Some((found, sep)) = separated() {
            mac(found, Some(sep));
            next_mac = end - 2 + 17;
        }
        start = end;
    }
}

/// The 8-4-4-4-12 pattern at `i`.
fn match_uuid(bytes: &[u8], i: usize) -> Option<Uuid> {
    let window = bytes.get(i..i + 36)?;
    let valid = window.iter().enumerate().all(|(j, &b)| match j {
        8 | 13 | 18 | 23 => b == b'-',
        _ => b.is_ascii_hexdigit(),
    });
    if !valid {
        return None;
    }
    let mut uuid: Uuid = window.try_into().expect("36-byte window");
    uuid.make_ascii_lowercase();
    Some(uuid)
}

/// UUID matches (8-4-4-4-12 hex with dashes), lowercased.
pub fn extract_uuids(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_uuid_and_mac(text, |uuid| out.push(ascii(&uuid)), |_, _| {});
    out
}

/// MAC-address candidates in three syntaxes: `aa:bb:cc:dd:ee:ff`,
/// `aa-bb-cc-dd-ee-ff`, and the bare 12-hex-digit form. The bare form is
/// noisy, so [`extract_macs_with_oui`] filters by the known OUI.
pub fn extract_mac_candidates(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_uuid_and_mac(text, |_| {}, |mac, _| out.push(ascii(&mac)));
    out
}

/// The MAC candidates written with `sep` between their hex pairs, rendered
/// that way (`aa:bb:cc:dd:ee:ff` for `b':'`) and lowercased. A candidate of
/// this syntax that starts inside an earlier candidate of another syntax
/// is not matched: the scan's candidates never overlap.
pub fn extract_macs_separated_by(text: &str, sep: u8) -> Vec<String> {
    let mut out = Vec::new();
    for_each_uuid_and_mac(
        text,
        |_| {},
        |mac, found| {
            if found == Some(sep) {
                let pairs: Vec<String> = mac.chunks(2).map(ascii).collect();
                out.push(pairs.join(&char::from(sep).to_string()));
            }
        },
    );
    out
}

/// The separated form at `i`: six hex pairs joined by `sep`.
fn match_separated(bytes: &[u8], i: usize, sep: u8) -> Option<Mac> {
    let window = bytes.get(i..i + 17)?;
    let mut mac = [0u8; 12];
    for (j, &b) in window.iter().enumerate() {
        if j % 3 == 2 {
            if b != sep {
                return None;
            }
        } else if b.is_ascii_hexdigit() {
            mac[j - j / 3] = b.to_ascii_lowercase();
        } else {
            return None;
        }
    }
    Some(mac)
}

/// The bare form at `i`: exactly 12 hex digits with non-hex (or the
/// boundary) on each side.
fn match_bare(bytes: &[u8], i: usize) -> Option<Mac> {
    let window = bytes.get(i..i + 12)?;
    let hex_at = |j: usize| bytes.get(j).is_some_and(u8::is_ascii_hexdigit);
    if (i > 0 && hex_at(i - 1)) || hex_at(i + 12) || !window.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    // Require at least one decimal digit: pure alphabetic 12-char strings
    // ("thermostatic") are words, not MACs.
    if !window.iter().any(u8::is_ascii_digit) {
        return None;
    }
    let mut mac: Mac = window.try_into().expect("12-byte window");
    mac.make_ascii_lowercase();
    Some(mac)
}

/// Whether `mac` starts with `device_oui` lowercased and without its
/// separators. Lowercasing char by char differs from `str::to_lowercase`
/// only on a word-final 'Σ', which matches no hex digit either way.
fn has_oui(mac: &Mac, device_oui: &str) -> bool {
    let mut digits = mac.iter().map(|&digit| char::from(digit));
    device_oui
        .chars()
        .flat_map(char::to_lowercase)
        .filter(|&c| c != ':' && c != '-')
        .all(|c| digits.next() == Some(c))
}

/// The paper's false-positive filter: keep candidates whose first six hex
/// digits match the OUI that IoT Inspector recorded for the device.
pub fn extract_macs_with_oui(text: &str, device_oui: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_uuid_and_mac(
        text,
        |_| {},
        |mac, _| {
            if has_oui(&mac, device_oui) {
                out.push(ascii(&mac));
            }
        },
    );
    out
}

fn ascii(bytes: &[u8]) -> String {
    bytes.iter().copied().map(char::from).collect()
}

/// The identifiers one device exposes in its discovery responses, each
/// type in scan order, MACs already filtered by the device's OUI. Names are
/// copied out of the responses (they are rare), so the result outlives them.
#[derive(Debug, Default)]
pub(crate) struct Exposed {
    pub names: Vec<String>,
    pub uuids: Vec<Uuid>,
    pub macs: Vec<Mac>,
}

impl Exposed {
    /// Scan each response in place, in order. This equals scanning the
    /// responses joined with `'\n'`: no match can span a newline, which is
    /// not hex, `-`, `:`, a space or alphanumeric, and a newline bounds a
    /// bare MAC or a UUID just as the start of a response does.
    pub(crate) fn scan<'a>(
        responses: impl IntoIterator<Item = &'a str>,
        device_oui: &str,
    ) -> Exposed {
        let mut exposed = Exposed::default();
        for response in responses {
            for_each_name(response, |name| exposed.names.push(name.to_string()));
            for_each_uuid_and_mac(
                response,
                |uuid| exposed.uuids.push(uuid),
                |mac, _| {
                    if has_oui(&mac, device_oui) {
                        exposed.macs.push(mac);
                    }
                },
            );
        }
        exposed
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
            extract_macs_separated_by(mixed, b':'),
            vec!["00:17:88:68:5f:61"]
        );
        assert_eq!(
            extract_macs_separated_by(mixed, b'-'),
            vec!["9c-8e-cd-0a-33-1b"]
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
            match g.int_in(0..6u8) {
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
                _ => out.push_str(&g.string_of(ALPHABET, 0, 16)),
            }
        }
        out
    }

    fn strings<const N: usize>(values: &[[u8; N]]) -> Vec<String> {
        values.iter().map(|v| ascii(v)).collect()
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
            let exposed = Exposed::scan(responses.iter().map(String::as_str), oui);
            let joined = responses.join("\n");
            assert_eq!(exposed.names, extract_names(&joined), "{responses:?}");
            assert_eq!(strings(&exposed.uuids), extract_uuids(&joined), "{responses:?}");
            assert_eq!(
                strings(&exposed.macs),
                extract_macs_with_oui(&joined, oui),
                "{responses:?} oui {oui:?}"
            );
        }
    }
}

/// The original extractors, kept as test oracles for the scanners above:
/// names over a `Vec<char>`, and a `String` per MAC candidate before the
/// OUI check.
#[cfg(test)]
mod oracle {
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
