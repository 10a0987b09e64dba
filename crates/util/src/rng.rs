//! Seeded pseudo-random numbers: SplitMix64 for seeding, xoshiro256++ for
//! generation.
//!
//! The simulator's only requirements are determinism, stream independence
//! and reasonable statistical quality — cryptographic strength is explicitly
//! *not* one (the paper's pipeline is a measurement study, not a protocol).
//! xoshiro256++ passes BigCrush, has a 2^256−1 period, and is four shifts
//! and an add per draw; SplitMix64 is the generator its authors recommend
//! for expanding a 64-bit seed into the 256-bit state.

/// Advance a SplitMix64 state and return the next output.
///
/// Used for seeding [`Rng`] and its independent streams; also
/// usable standalone when a test needs a one-line scrambler.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 expansion (the construction recommended by the
    /// xoshiro authors). Equal seeds produce equal sequences forever.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// A generator for stream `stream` of seed `seed`: distinct streams of
    /// the same seed are independent, and `stream(seed, 0)` differs from
    /// `seed_from_u64(seed)`. Lets every simulated device own a private
    /// sequence derived from the one lab seed.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut sm = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let _ = splitmix64(&mut sm); // decorrelate from seed_from_u64(seed)
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The raw xoshiro256++ output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift with
    /// rejection — unbiased for every bound. Panics if `bound == 0`.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    pub fn gen_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    pub fn gen_u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    pub fn gen_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    pub fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Fill a byte slice.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// A fixed-size random byte array (`let salt: [u8; 16] = rng.gen_array();`).
    pub fn gen_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }

    /// Uniform value from a `Range`/`RangeInclusive` over any primitive
    /// integer type — the `rand`-compatible call surface
    /// (`rng.gen_range(0..n)`, `rng.gen_range(1..=255u8)`).
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }

    /// `k` distinct indices sampled without replacement from `0..n`
    /// (partial Fisher–Yates; order is the draw order). `k > n` yields `n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.bounded_u64((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Only reachable for the full u64/i64 domain.
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.bounded_u64(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // State {1, 2, 3, 4} — first outputs of the reference C
        // implementation of xoshiro256++.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first, vec![41943041, 58720359, 3588806011781223]);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..2000 {
            let x = rng.gen_range(10..20u64);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(1..=255u8);
            assert!((1..=255).contains(&y));
            let z = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&z));
        }
        // Degenerate singleton.
        assert_eq!(rng.gen_range(9..=9u32), 9);
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.1)));
    }

    #[test]
    fn streams_are_independent() {
        let base: Vec<u64> = {
            let mut r = Rng::seed_from_u64(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let s0: Vec<u64> = {
            let mut r = Rng::stream(5, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let s1: Vec<u64> = {
            let mut r = Rng::stream(5, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(base, s0);
        assert_ne!(s0, s1);
    }

    #[test]
    fn stream_rngs_pairwise_disjoint_over_10k_draws() {
        // Parallel generation draws one RNG per item via stream(); if any
        // two streams overlapped within a realistic draw budget, "parallel
        // == serial" would hold while both silently reused randomness.
        // 16 streams × 10k draws = 160k values from a 2^64 space: a single
        // collision has probability ~7e-10, so any overlap means the
        // derivation scheme is broken, not bad luck.
        const DRAWS: usize = 10_000;
        let mut streams: Vec<Rng> = (0..16).map(|i| Rng::stream(0x5eed, i)).collect();
        let mut seen: std::collections::HashSet<u64> =
            std::collections::HashSet::with_capacity(streams.len() * DRAWS);
        for (index, stream) in streams.iter_mut().enumerate() {
            for draw in 0..DRAWS {
                assert!(
                    seen.insert(stream.next_u64()),
                    "stream {index} repeated a value at draw {draw}: \
                     overlapping RNG streams"
                );
            }
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng::seed_from_u64(13);
        let picks = rng.sample_indices(100, 10);
        assert_eq!(picks.len(), 10);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn fill_bytes_and_array() {
        let mut rng = Rng::seed_from_u64(17);
        let a: [u8; 16] = rng.gen_array();
        let mut rng2 = Rng::seed_from_u64(17);
        let b: [u8; 16] = rng2.gen_array();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }
}
