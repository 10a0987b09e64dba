//! SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), implemented from
//! scratch — IoT Inspector anonymizes device MACs as
//! `HMAC-SHA256(MAC, salt)` with a per-user persistent salt (§3.3 fn. 2).
//!
//! Nothing here allocates except the hex output: whole blocks are
//! compressed in place and the padding goes into a stack block. A
//! household keys one [`HmacKey`] from its salt and reuses it for every
//! device ID.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Fold one 64-byte block into the chaining state `h`, with the x86 SHA
/// extensions where the CPU has them.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `available` has checked every feature `compress` enables.
        unsafe { sha_ni::compress(h, block) };
        return;
    }
    compress_portable(h, block);
}

/// [`compress`] in portable Rust (FIPS 180-4 §6.2.2).
fn compress_portable(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(add);
    }
}

/// [`compress`] on the x86 SHA extensions: `sha256rnds2` runs two rounds
/// and `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time. The state lives in two registers as (A, B, E, F) and
/// (C, D, G, H), the layout `sha256rnds2` takes; register names list
/// lanes from the highest.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    pub fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four 32-bit lanes from the start of `words`.
    fn load(words: &[u32]) -> __m128i {
        assert!(words.len() >= 4, "a register holds four words");
        // SAFETY: the assert keeps the 16-byte read inside `words`, the
        // unaligned load has no alignment requirement, and SSE2 is part
        // of x86-64.
        unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
    }

    /// Store four 32-bit lanes at the start of `words`.
    fn store(words: &mut [u32], lanes: __m128i) {
        assert!(words.len() >= 4, "a register holds four words");
        // SAFETY: as for `load`, for a write.
        unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), lanes) }
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`, as
    /// [`available`] checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
        let mut message = [0u32; 16];
        for (word, bytes) in message.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let cdab = _mm_shuffle_epi32(load(&h[..4]), 0xb1);
        let efgh = _mm_shuffle_epi32(load(&h[4..]), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w = [0, 4, 8, 12].map(|i| load(&message[i..]));
        for i in 0..16 {
            let words = if i < 4 {
                w[i]
            } else {
                // W[t-16] + σ0(W[t-15]) + W[t-7] + σ1(W[t-2]), four at a time.
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8(w[3], w[2], 4),
                    ),
                    w[3],
                );
                w = [w[1], w[2], w[3], next];
                next
            };
            let scheduled = _mm_add_epi32(words, load(&K[4 * i..]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, scheduled);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(scheduled, 0x0e));
        }
        let feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef_in), 0x1b);
        let dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh_in), 0xb1);
        store(&mut h[..4], _mm_blend_epi16(feba, dchg, 0xf0));
        store(&mut h[4..], _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// Finish a digest whose state `h` has absorbed `absorbed` bytes (a
/// multiple of 64) by hashing `data` and the padding: message || 0x80 ||
/// zeros || 64-bit big-endian bit length. Whole blocks are compressed
/// straight from `data`; only the tail is copied, into a stack block.
fn finish(mut h: [u32; 8], absorbed: u64, data: &[u8]) -> [u8; 32] {
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block.try_into().expect("64-byte chunk"));
    }
    let tail = blocks.remainder();
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    if tail.len() >= 56 {
        compress(&mut h, &block);
        block = [0u8; 64];
    }
    let bit_len = absorbed.wrapping_add(data.len() as u64).wrapping_mul(8);
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut h, &block);
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compute the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    finish(H0, 0, data)
}

/// An HMAC-SHA256 key (RFC 2104) with its ipad and opad blocks already
/// compressed, so each [`HmacKey::mac`] of a short message costs two
/// compressions instead of four.
#[derive(Debug, Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = H0;
            compress(&mut h, &key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// HMAC-SHA256(key, message).
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        finish(self.outer, 64, &finish(self.inner, 64, message))
    }
}

/// HMAC-SHA256(key, message) per RFC 2104.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Append the low `digits` hex digits of `value`, lowercase and
/// zero-padded: `format!("{value:0digits$x}")` for a value that fits.
pub(crate) fn push_hex(out: &mut String, value: u64, digits: u32) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..digits).rev() {
        out.push(char::from(DIGITS[(value >> (4 * shift)) as usize & 0xf]));
    }
}

/// Hex-encode a digest (lowercase).
pub fn to_hex(digest: &[u8]) -> String {
    let mut out = String::with_capacity(2 * digest.len());
    for &b in digest {
        push_hex(&mut out, u64::from(b), 2);
    }
    out
}

/// The IoT Inspector device-ID scheme: HMAC of the MAC string keyed with
/// the household's persistent salt.
pub fn device_id(mac: &str, salt: &HmacKey) -> String {
    to_hex(&salt.mac(mac.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_nist_vectors() {
        // FIPS 180-4 examples.
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_long_input() {
        // The million-'a' vector, checked against the published digest.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0b; 20];
        let digest = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&digest),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2 ("Jefe").
        let digest = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&digest),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_hashed() {
        // RFC 4231 test case 6: 131-byte key forces the hash-the-key path.
        let key = [0xaa; 131];
        let digest = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&digest),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn device_ids_salted_per_household() {
        let mac = "00:17:88:68:5f:61";
        let household_a = HmacKey::new(b"salt-household-a");
        let id_a = device_id(mac, &household_a);
        let id_b = device_id(mac, &HmacKey::new(b"salt-household-b"));
        assert_ne!(id_a, id_b); // same device, different households
        assert_eq!(id_a, device_id(mac, &household_a)); // stable
        assert_eq!(
            id_a,
            to_hex(&oracle::hmac_sha256(b"salt-household-a", mac.as_bytes()))
        );
        assert_eq!(id_a.len(), 64);
    }

    #[test]
    fn hex_matches_format() {
        let bytes: Vec<u8> = (0..=255).collect();
        let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&bytes), formatted);
        for value in [0, 0xabc, 0xffff_ffff, 0x0123_4567_89ab_cdef, u64::MAX] {
            let mut pushed = String::new();
            push_hex(&mut pushed, value & 0xffff_ffff_ffff, 12);
            assert_eq!(pushed, format!("{:012x}", value & 0xffff_ffff_ffff));
        }
    }

    iotlan_util::props! {
        /// Streaming SHA-256 equals the pad-a-copy oracle at every length
        /// 0..=200, across the 55/56/63/64/119/120 padding edges.
        fn sha256_matches_oracle_at_every_length(g) {
            let mut data = [0u8; 200];
            g.rng().fill_bytes(&mut data);
            for len in 0..=data.len() {
                assert_eq!(sha256(&data[..len]), oracle::sha256(&data[..len]), "len {len}");
            }
        }

        /// The x86 SHA-extension compression equals the portable one on
        /// random states and blocks (skipped on CPUs without them).
        fn sha_ni_matches_portable_compress(g) {
            #[cfg(target_arch = "x86_64")]
            if sha_ni::available() {
                let mut state = [0u32; 8];
                state.iter_mut().for_each(|word| *word = g.u32());
                let block: [u8; 64] = g.array();
                let mut portable = state;
                compress_portable(&mut portable, &block);
                // SAFETY: `available` has checked the features.
                unsafe { sha_ni::compress(&mut state, &block) };
                assert_eq!(state, portable);
            }
        }

        /// The keyed state equals the oracle HMAC for key lengths 0..=131
        /// (short, one block exactly, and hashed-first long keys).
        fn keyed_hmac_matches_oracle(g) {
            let message = g.bytes(150);
            let mut key = [0u8; 131];
            g.rng().fill_bytes(&mut key);
            for len in 0..=key.len() {
                let keyed = HmacKey::new(&key[..len]);
                assert_eq!(
                    keyed.mac(&message),
                    oracle::hmac_sha256(&key[..len], &message),
                    "key length {len}, message length {}",
                    message.len()
                );
            }
        }
    }
}

/// The original pad-a-copy SHA-256 and `Vec`-built HMAC, kept as test
/// oracles for the streaming and keyed versions above.
#[cfg(test)]
mod oracle {
    use super::{H0, K};

    pub fn sha256(data: &[u8]) -> [u8; 32] {
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&bit_len.to_be_bytes());

        let mut h = H0;
        let mut w = [0u32; 64];
        for block in message.chunks_exact(64) {
            for (i, word) in w.iter_mut().take(16).enumerate() {
                *word = u32::from_be_bytes([
                    block[4 * i],
                    block[4 * i + 1],
                    block[4 * i + 2],
                    block[4 * i + 3],
                ]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let temp1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Vec::with_capacity(64 + message.len());
        let mut outer = Vec::with_capacity(96);
        for &b in &key_block {
            inner.push(b ^ 0x36);
        }
        inner.extend_from_slice(message);
        let inner_hash = sha256(&inner);
        for &b in &key_block {
            outer.push(b ^ 0x5c);
        }
        outer.extend_from_slice(&inner_hash);
        sha256(&outer)
    }
}
