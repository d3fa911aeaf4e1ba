//! Offline stand-in for `rand` 0.9, covering the surface `mc-net` and the
//! benchmark use: [`rngs::SmallRng`] (xoshiro256++ seeded through
//! splitmix64, the published crate's 64-bit `SmallRng`), [`SeedableRng`]
//! and the [`Rng`] sampling methods `random`, `random_range` and
//! `random_bool`.
//!
//! Streams are deterministic per seed but are **not** bit-identical to the
//! published crate's (range sampling uses plain widening-multiply
//! rejection), so seeded runs repeat against this stand-in only.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Generators.
pub mod rngs {
    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::SmallRng;

/// Source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Expands a 64-bit seed into full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(mut seed: u64) -> SmallRng {
        // splitmix64, as the published crate does, so that adjacent seeds
        // give unrelated states and the all-zero state cannot occur.
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *word = z ^ (z >> 31);
        }
        SmallRng { s }
    }
}

/// Types [`Rng::random`] can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)`; `span == 0` means the full 64-bit range.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    // Widening multiply with rejection of the biased low zone.
    let zone = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + below(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = ((hi - lo) as u64).wrapping_add(1);
                lo + below(rng, span) as $t
            }
        }
    )+};
}

int_ranges!(u32, u64);

/// Sampling conveniences over any [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform in `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // p·2^64 as an integer threshold, as the published Bernoulli does.
        let threshold = (p * (1u128 << 64) as f64) as u64;
        self.next_u64() < threshold
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_differ_by_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_and_bernoulli_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut hits = 0u32;
        for _ in 0..10_000 {
            assert!(rng.random_range(0..1000u32) < 1000);
            let v = rng.random_range(5..=9u64);
            assert!((5..=9).contains(&v));
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            hits += u32::from(rng.random_bool(0.25));
        }
        assert!((2200..2800).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
