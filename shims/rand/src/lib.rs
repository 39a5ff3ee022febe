//! Vendored, dependency-free shim for the subset of the `rand` 0.8 API used
//! by this workspace.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! minimal substitutes for its external dependencies under `shims/`. This
//! crate provides:
//!
//! * [`RngCore`] / [`Rng`] / [`SeedableRng`] — the trait surface the
//!   simulators are written against,
//! * [`rngs::StdRng`] — a deterministic, seedable generator
//!   (xoshiro256++ under the hood; the *distribution* quality matters here,
//!   not crypto strength),
//! * uniform sampling for integer and float ranges via [`Rng::gen_range`].
//!
//! The shim is API-compatible with the calls in this repository only; it is
//! **not** a general replacement for `rand`. If the real crate ever becomes
//! available, deleting `shims/rand` and adding the crates.io dependency
//! should be a drop-in change.

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code seeds its own generators"
    )
)]
#![forbid(unsafe_code)]

/// Low-level source of randomness: a stream of `u64` words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32` (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// A generator that can be constructed from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The raw seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with SplitMix64 and constructs the
    /// generator. Deterministic and stable across platforms.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let z = splitmix64(&mut s).to_le_bytes();
            chunk.copy_from_slice(&z[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// One step of the SplitMix64 sequence (also used to expand seeds).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types that can be sampled uniformly from the generator's native stream
/// (the shim's stand-in for `rand`'s `Standard` distribution).
pub trait StandardSample {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform on `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range. Panics on an empty range.
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                let draw = mult_reduce(rng.next_u64(), span);
                (self.start as u64).wrapping_add(draw) as $t
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                let draw = if span == 0 {
                    // Full u64 domain.
                    rng.next_u64()
                } else {
                    mult_reduce(rng.next_u64(), span)
                };
                (lo as u64).wrapping_add(draw) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i32, i64);

/// Maps a uniform `u64` into `[0, span)` by 128-bit multiplication
/// (Lemire's multiply-shift; the tiny bias is irrelevant for simulation).
fn mult_reduce(word: u64, span: u64) -> u64 {
    ((u128::from(word) * u128::from(span)) >> 64) as u64
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u: f64 = StandardSample::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u: f32 = StandardSample::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        let u: f64 = StandardSample::sample(rng);
        lo + u * (hi - lo)
    }
}

impl SampleRange<f32> for core::ops::RangeInclusive<f32> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        let u: f32 = StandardSample::sample(rng);
        lo + u * (hi - lo)
    }
}

/// High-level convenience methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the generator's native distribution
    /// (uniform over the type's domain; `[0, 1)` for floats).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_in(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        let u: f64 = self.gen();
        u < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not the same bit stream as `rand`'s real `StdRng` — all experiment
    /// seeds live inside this repository, so only internal reproducibility
    /// matters.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro; remap it.
                let mut state = 0x6A09_E667_F3BC_C909;
                for word in &mut s {
                    *word = splitmix64(&mut state);
                }
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_floats_are_in_range_and_vary() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mean = 0.0;
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            mean += u / 1000.0;
        }
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..500 {
            let i = rng.gen_range(0usize..10);
            seen[i] = true;
            let j = rng.gen_range(5u64..=6);
            assert!((5..=6).contains(&j));
            let x = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&x));
        }
        assert!(seen.iter().all(|&b| b), "all buckets hit: {seen:?}");
    }

    #[test]
    fn zero_seed_is_not_a_fixed_point() {
        let mut rng = StdRng::from_seed([0u8; 32]);
        assert_ne!(rng.gen::<u64>(), 0);
    }
}
