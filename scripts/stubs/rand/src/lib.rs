//! Offline stand-in for `rand` 0.9 covering what the root workspace uses:
//! [`rngs::SmallRng`] (xoshiro256++ seeded through splitmix64, as the
//! published 64-bit `SmallRng` and as `co-e2e/stubs/rand`), [`SeedableRng`],
//! and the [`Rng`] methods `random_range` (every primitive integer,
//! through one generic impl so literal ranges infer as they do against the
//! published crate) and `random_bool`.
//!
//! Streams are deterministic per seed but **not** bit-identical to the
//! published crate's: seeded results compare only between builds that
//! resolved the same `rand`.

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
        // splitmix64, so adjacent seeds give unrelated states and the
        // all-zero state cannot occur.
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

/// Integers [`Rng::random_range`] can sample.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform in `[lo, hi]`; the caller has checked `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// The value before `self` (turns an exclusive bound inclusive).
    fn pred(self) -> Self;
}

macro_rules! sample_uniform {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                // Offsets are taken in 128 bits so signed and 128-bit-wide
                // spans cannot overflow; every sampled type is ≤ 64 bits.
                let span = ((hi as i128 - lo as i128) as u64).wrapping_add(1);
                (lo as i128 + below(rng, span) as i128) as $t
            }
            fn pred(self) -> $t {
                self - 1
            }
        }
    )+};
}

sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_inclusive(self.start, self.end.pred(), rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// Sampling conveniences over any [`RngCore`].
pub trait Rng: RngCore {
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
