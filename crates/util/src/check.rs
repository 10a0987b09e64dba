//! Seeded property checks: run a closure over generated inputs, shrink
//! failures by bisecting the generation size.
//!
//! The replacement for `proptest`, scoped to what the workspace's property
//! tests need. A property is a closure over a [`Gen`]; the runner executes
//! it for `IOTLAN_CHECK_CASES` cases (default 64) with deterministic
//! per-case seeds and a size parameter ramping from small to large. On a
//! failure the runner bisects the size downward to the smallest size that
//! still fails with the same seed — collection-heavy counterexamples shrink
//! to near-minimal length — and panics with a replay recipe
//! (`IOTLAN_CHECK_SEED=0x…` reruns exactly the failing case).
//!
//! ```ignore
//! iotlan_util::props! {
//!     fn cipher_involution(g) {
//!         let data = g.bytes(512);
//!         assert_eq!(decrypt(&encrypt(&data)), data);
//!     }
//! }
//! ```

use crate::rng::{Rng, SampleRange};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases per property.
const DEFAULT_CASES: usize = 64;

/// The size scale: cases ramp `1..=MAX_SIZE`, and collection bounds scale
/// proportionally.
const MAX_SIZE: u32 = 100;

/// The per-case input generator: a seeded [`Rng`] plus a size parameter
/// that scales collection lengths, so early cases are small and shrinking
/// can bisect on size.
pub struct Gen {
    rng: Rng,
    size: u32,
}

impl Gen {
    fn new(seed: u64, size: u32) -> Gen {
        Gen {
            rng: Rng::seed_from_u64(seed),
            size: size.clamp(1, MAX_SIZE),
        }
    }

    /// A full-size generator outside [`run_props`], for a fixed-seed test
    /// whose scenario costs too much to repeat per case.
    pub fn seeded(seed: u64) -> Gen {
        Gen::new(seed, MAX_SIZE)
    }

    /// The underlying generator, for draws the helpers don't cover.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    pub fn u8(&mut self) -> u8 {
        self.rng.gen_u8()
    }

    pub fn u16(&mut self) -> u16 {
        self.rng.gen_u16()
    }

    pub fn u32(&mut self) -> u32 {
        self.rng.gen_u32()
    }

    pub fn u64(&mut self) -> u64 {
        self.rng.gen_u64()
    }

    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// Uniform draw from an integer range (`g.int_in(1u16..=65535)`).
    pub fn int_in<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        self.rng.gen_range(range)
    }

    /// A fixed-size byte array (`let mac: [u8; 6] = g.array();`).
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        self.rng.gen_array()
    }

    /// A length in `[0, max]`, scaled by the current size so early cases
    /// and shrunk replays stay small.
    pub fn len(&mut self, max: usize) -> usize {
        let cap = (max * self.size as usize) / MAX_SIZE as usize;
        self.rng.gen_range(0..=cap)
    }

    /// Arbitrary bytes with size-scaled length in `[0, max]`.
    pub fn bytes(&mut self, max: usize) -> Vec<u8> {
        let len = self.len(max);
        let mut out = vec![0u8; len];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// A size-scaled vector of generated elements, length in `[min, max]`.
    pub fn vec_of<T>(
        &mut self,
        min: usize,
        max: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = min.max(self.len(max));
        (0..len).map(|_| item(self)).collect()
    }

    /// A string of `min..=max` chars drawn uniformly from `alphabet`
    /// (length NOT size-scaled: protocol fields often require nonempty
    /// names regardless of case size).
    pub fn string_of(&mut self, alphabet: &str, min: usize, max: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        assert!(!chars.is_empty(), "empty alphabet");
        let len = self.rng.gen_range(min..=max);
        (0..len)
            .map(|_| *self.rng.choose(&chars).unwrap())
            .collect()
    }

    /// Lowercase ASCII label, the `[a-z]{min,max}` workhorse.
    pub fn label(&mut self, min: usize, max: usize) -> String {
        self.string_of("abcdefghijklmnopqrstuvwxyz", min, max)
    }

    /// `Some(item)` half the time.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.bool() {
            Some(item(self))
        } else {
            None
        }
    }
}

/// Run `property` over seeded generated inputs. Prefer the [`props!`]
/// macro, which names the property after the test function.
///
/// Environment knobs:
/// * `IOTLAN_CHECK_CASES` — cases per property (default 64).
/// * `IOTLAN_CHECK_SEED` — replay exactly one case with this seed
///   (decimal or `0x…`), at size `IOTLAN_CHECK_SIZE` (default max).
pub fn run_props(name: &str, property: impl Fn(&mut Gen)) {
    let property = AssertUnwindSafe(property);
    let run = |seed: u64, size: u32| -> Result<(), String> {
        let mut gen = Gen::new(seed, size);
        catch_unwind(AssertUnwindSafe(|| property(&mut gen))).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string())
        })
    };

    if let Some(seed) = env_u64("IOTLAN_CHECK_SEED") {
        let size = env_u64("IOTLAN_CHECK_SIZE").map_or(MAX_SIZE, |s| s as u32);
        if let Err(message) = run(seed, size) {
            panic!("property '{name}' failed on replay (seed {seed:#x}, size {size}): {message}");
        }
        return;
    }

    let cases = env_u64("IOTLAN_CHECK_CASES").map_or(DEFAULT_CASES, |c| c.max(1) as usize);
    // Per-property seed base: FNV-1a of the name, so properties in one
    // binary draw unrelated streams but every run is reproducible.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });

    for case in 0..cases {
        let seed = {
            let mut s = base.wrapping_add(case as u64);
            crate::rng::splitmix64(&mut s)
        };
        let size = ramp_size(case, cases);
        if let Err(message) = run(seed, size) {
            // Shrink: bisect for the smallest failing size at this seed.
            let mut failing_size = size;
            let (mut lo, mut hi) = (1u32, size);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if run(seed, mid).is_err() {
                    failing_size = mid;
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let message = run(seed, failing_size).err().unwrap_or(message);
            panic!(
                "property '{name}' failed: case {case}/{cases}, seed {seed:#x}, \
                 size {failing_size} (shrunk from {size}): {message}\n\
                 replay with: IOTLAN_CHECK_SEED={seed:#x} IOTLAN_CHECK_SIZE={failing_size}"
            );
        }
    }
}

/// Sizes ramp linearly from 1 to [`MAX_SIZE`] across the case budget.
fn ramp_size(case: usize, cases: usize) -> u32 {
    if cases <= 1 {
        return MAX_SIZE;
    }
    (1 + (MAX_SIZE as usize - 1) * case / (cases - 1)) as u32
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Declare property tests: each `fn name(g) { … }` becomes a `#[test]`
/// running the body via [`run_props`] with `g: &mut Gen`.
#[macro_export]
macro_rules! props {
    ($(#[doc = $doc:expr])* fn $name:ident($g:ident) $body:block $($rest:tt)*) => {
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            $crate::check::run_props(stringify!($name), |$g: &mut $crate::check::Gen| $body);
        }
        $crate::props! { $($rest)* }
    };
    () => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        // Would panic if any case failed.
        run_props("always_true", |g| {
            let x = g.int_in(0..100u32);
            assert!(x < 100);
        });
    }

    #[test]
    fn failing_property_shrinks_to_small_size() {
        let result = catch_unwind(|| {
            run_props("always_false", |g| {
                let data = g.bytes(256);
                // Fails whenever the input has at least 1 byte: the minimal
                // failing size must be tiny.
                assert!(data.len() < 1, "len {}", data.len());
            });
        });
        let message = match result {
            Ok(()) => panic!("property should have failed"),
            Err(payload) => *payload.downcast::<String>().unwrap(),
        };
        assert!(message.contains("always_false"), "{message}");
        assert!(message.contains("replay with"), "{message}");
        // The bisection must land on a single-digit size even though
        // failures were first seen at larger sizes.
        let shrunk: u32 = message
            .split("size ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(shrunk <= 5, "{message}");
    }

    #[test]
    fn gen_helpers_respect_bounds() {
        let mut g = Gen::new(1, 100);
        for _ in 0..100 {
            assert!(g.bytes(64).len() <= 64);
            let s = g.label(1, 12);
            assert!((1..=12).contains(&s.len()));
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
            let v = g.vec_of(2, 6, |g| g.u8());
            assert!((2..=6).contains(&v.len()));
        }
        // Small sizes produce small collections.
        let mut g = Gen::new(1, 1);
        assert!(g.bytes(100).len() <= 1);
    }

    props! {
        /// The macro itself: declares a real test.
        fn props_macro_declares_tests(g) {
            let x = g.int_in(1..=6u8);
            assert!((1..=6).contains(&x));
        }
    }
}
