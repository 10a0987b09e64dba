//! A std-only KMV distinct counter for crowd-scale identifier spaces,
//! whose exact form (a global set of every identifier) is O(cardinality).
//!
//! [`Distinct`] is a k-minimum-values (KMV) distinct counter. It keeps the
//! `k` smallest 64-bit hashes seen and estimates `|S| ≈ (k-1) / R(k-th
//! min)`, where `R` normalizes the hash to (0,1]. Relative standard error
//! is about `1/sqrt(k-2)` (~4.5% at k=512). It is exact below `k` distinct
//! keys.
//!
//! Merges are associative and commutative (same `k`/seed required), so
//! household shards can be combined in any grouping — `stream::crowd`
//! merges them in input order, but the estimates themselves are
//! order-free.
//!
//! Hashing is seeded splitmix64 over the key bytes — deterministic across
//! runs and platforms, independent of Rust's `Hash`.

/// splitmix64 finalizer: the mixing core of the seeded byte hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded, deterministic 64-bit hash of a byte string.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut state = splitmix64(seed ^ 0x6a09_e667_f3bc_c909);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = splitmix64(state ^ u64::from_le_bytes(word));
    }
    // Fold in the length so "a" + "" and "" + "a" style extensions differ.
    splitmix64(state ^ (bytes.len() as u64))
}

/// k-minimum-values distinct counter over 64-bit hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distinct {
    k: usize,
    seed: u64,
    /// The k smallest distinct hashes seen, ascending.
    minima: Vec<u64>,
}

impl Distinct {
    pub fn new(k: usize, seed: u64) -> Distinct {
        assert!(k >= 3, "KMV needs k >= 3 for a usable estimate");
        Distinct {
            k,
            seed,
            minima: Vec::new(),
        }
    }

    pub fn insert(&mut self, key: &[u8]) {
        let hash = hash_bytes(self.seed, key);
        match self.minima.binary_search(&hash) {
            Ok(_) => {} // already present
            Err(position) => {
                if self.minima.len() < self.k {
                    self.minima.insert(position, hash);
                } else if position < self.k {
                    self.minima.insert(position, hash);
                    self.minima.pop();
                }
            }
        }
    }

    /// Estimated number of distinct keys inserted. Exact while fewer than
    /// `k` distinct hashes have been seen; `(k-1) / R(k-th minimum)`
    /// otherwise, with relative standard error ≈ `1/sqrt(k-2)`.
    pub fn estimate(&self) -> f64 {
        if self.minima.len() < self.k {
            return self.minima.len() as f64;
        }
        let kth = *self.minima.last().unwrap();
        // Normalize to (0, 1]: hash / 2^64, guarding the zero hash.
        let normalized = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / normalized
    }

    /// Union merge: keep the k smallest of both sides' minima. Associative,
    /// commutative and idempotent (it is a set union).
    pub fn merge(&mut self, other: &Distinct) {
        assert_eq!(self.k, other.k, "KMV k mismatch");
        assert_eq!(self.seed, other.seed, "KMV seed mismatch");
        let mut union: Vec<u64> = Vec::with_capacity(self.minima.len() + other.minima.len());
        union.extend_from_slice(&self.minima);
        union.extend_from_slice(&other.minima);
        union.sort_unstable();
        union.dedup();
        union.truncate(self.k);
        self.minima = union;
    }

    pub fn state_bytes(&self) -> usize {
        self.k * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_exact_below_k() {
        let mut sketch = Distinct::new(64, 3);
        for i in 0..50u64 {
            sketch.insert(&i.to_le_bytes());
            sketch.insert(&i.to_le_bytes()); // duplicates don't count
        }
        assert_eq!(sketch.estimate(), 50.0);
    }

    #[test]
    fn distinct_estimates_above_k() {
        let mut sketch = Distinct::new(512, 9);
        let n = 20_000u64;
        for i in 0..n {
            sketch.insert(&i.to_le_bytes());
        }
        let estimate = sketch.estimate();
        let relative = (estimate - n as f64).abs() / n as f64;
        // 1/sqrt(k-2) ≈ 4.4%; allow 4 sigma.
        assert!(relative < 0.18, "relative error {relative}");
    }

    #[test]
    fn distinct_merge_idempotent_and_commutative() {
        let mut a = Distinct::new(32, 5);
        let mut b = Distinct::new(32, 5);
        for i in 0..100u64 {
            a.insert(&i.to_le_bytes());
        }
        for i in 50..150u64 {
            b.insert(&i.to_le_bytes());
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut self_merge = a.clone();
        self_merge.merge(&a);
        assert_eq!(self_merge, a);
    }

    #[test]
    fn hash_is_stable_and_length_aware() {
        assert_eq!(hash_bytes(1, b"abc"), hash_bytes(1, b"abc"));
        assert_ne!(hash_bytes(1, b"abc"), hash_bytes(2, b"abc"));
        assert_ne!(hash_bytes(1, b"a"), hash_bytes(1, b"a\0"));
    }
}
