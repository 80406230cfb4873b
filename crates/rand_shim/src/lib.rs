//! A hermetic, dependency-free PRNG shim exposing the subset of the
//! `rand` 0.8 API this workspace uses.
//!
//! The workspace must build with `cargo build --offline` on machines with
//! no crates.io mirror, so the real `rand` crate is replaced by this shim
//! via a `[workspace.dependencies]` rename (`rand = { path =
//! "crates/rand_shim", package = "nuca-rand" }`). Generators are
//! deterministic splitmix64-seeded xoshiro256 variants:
//!
//! - [`rngs::SmallRng`]: xoshiro256++ (the same core algorithm `rand`
//!   0.8's `SmallRng` uses on 64-bit targets);
//! - [`rngs::StdRng`]: xoshiro256**, seeded from a domain-separated
//!   splitmix64 stream.
//!
//! The streams are *not* bit-compatible with the real `rand` crate
//! (`StdRng` there is ChaCha12); every checked-in `results/*.tsv` was
//! regenerated against this shim. Determinism per seed is what the
//! experiments rely on, and this shim keeps that property.

#![warn(missing_docs)]

/// Core generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// The next uniform 32-bit word (upper bits of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The splitmix64 mixing step used for seeding and for hashing.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `[0, 1)` from 53 random bits.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Lemire's multiply-shift: unbiased enough for simulation,
                // one draw per sample, deterministic.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo + v as $t
            }
        }
    )*};
}
int_range!(u64, u32, usize, i64, i32);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = unit_f64(rng.next_u64());
        self.start + (self.end - self.start) * u
    }
}

/// Types samplable by [`Rng::gen`] (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}
impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng.next_u64())
    }
}
impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// High-level sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range`.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Shared 256-bit xoshiro state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct State256([u64; 4]);

    impl State256 {
        fn from_seed(seed: u64, domain: u64) -> State256 {
            let mut s = seed ^ domain;
            let mut out = [0u64; 4];
            for w in &mut out {
                *w = splitmix64(&mut s);
            }
            // xoshiro must not start from the all-zero state.
            if out == [0, 0, 0, 0] {
                out[0] = 0x9E37_79B9_7F4A_7C15;
            }
            State256(out)
        }

        #[inline]
        fn step(&mut self) -> &[u64; 4] {
            let s = &mut self.0;
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            &self.0
        }
    }

    /// xoshiro256++ — the fast small generator (`rand`'s 64-bit
    /// `SmallRng` uses the same core algorithm).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        state: State256,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            SmallRng {
                state: State256::from_seed(seed, 0),
            }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &self.state.0;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            self.state.step();
            out
        }
    }

    /// xoshiro256** — the "default" generator, seeded from a
    /// domain-separated stream so `StdRng` and `SmallRng` with the same
    /// seed stay uncorrelated.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: State256,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng {
                state: State256::from_seed(seed, 0x5D04_2D04_7E8D_7A6B),
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &self.state.0;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            self.state.step();
            out
        }
    }
}

/// Slice helpers, mirroring `rand::seq::SliceRandom`.
pub mod seq {
    use super::Rng;

    /// Random selection and shuffling over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// A uniformly random element, or `None` if the slice is empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{SmallRng, StdRng};
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| r.gen()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(8);
            (0..32).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn std_and_small_streams_differ() {
        let mut small = SmallRng::seed_from_u64(1);
        let mut std = StdRng::seed_from_u64(1);
        let a: Vec<u64> = (0..8).map(|_| small.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| std.gen()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let i = rng.gen_range(0..=4usize);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            let expect = n / 8;
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 10) as u64,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "measured {frac}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn unit_f64_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements essentially never stay sorted");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = SmallRng::seed_from_u64(9);
        let v = [1usize, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let &x = v.choose(&mut rng).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
