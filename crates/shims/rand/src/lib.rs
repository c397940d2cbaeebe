//! Minimal local stand-in for the `rand` crate (0.8-style API).
//!
//! The build environment has no crates.io access, so this shim implements
//! exactly the subset the workspace uses:
//!
//! * [`RngCore`] / [`Rng`] with `gen_range` over `Range<f64>`,
//!   `Range<usize>`, `RangeInclusive<usize>`, `Range<u64>` and `gen::<T>()`
//!   for primitive `T`,
//! * [`SeedableRng::seed_from_u64`],
//! * [`seq::SliceRandom::choose`].
//!
//! Determinism is the only contract: given the same seed the sequence is
//! identical on every platform.  Bit-compatibility with upstream `rand` is
//! explicitly *not* promised (the workspace pins all randomness behind its
//! own seeds, so nothing outside this workspace depends on the stream).

// Shims are deliberate API subsets of the real crates; the smoke gate
// builds the workspace with RUSTFLAGS=-Dwarnings and shims are exempt
// (subset evolution routinely leaves dead code behind).
#![allow(dead_code, unused_imports, unused_variables, unused_macros)]

use std::ops::{Range, RangeInclusive};

/// Core random source: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A type that can be sampled uniformly from a range.  Generic over the
/// generator, as upstream `rand`'s `sample_single` is, so a draw calls the
/// generator directly rather than through a `dyn RngCore`.
pub trait SampleRange<T> {
    /// Draws one value from `self` using `rng`.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline]
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    // Lemire's multiply-shift reduction; bias is < 2^-64 per draw, far
    // below anything the simulator's statistics can resolve.
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

impl SampleRange<f64> for Range<f64> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 sample range");
        let v = self.start + (self.end - self.start) * unit_f64(rng);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty usize sample range");
        self.start + below(rng, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty inclusive sample range");
        start + below(rng, (end - start) as u64 + 1) as usize
    }
}

impl SampleRange<u64> for Range<u64> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "empty u64 sample range");
        self.start + below(rng, self.end - self.start)
    }
}

impl SampleRange<u32> for Range<u32> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> u32 {
        assert!(self.start < self.end, "empty u32 sample range");
        self.start + below(rng, (self.end - self.start) as u64) as u32
    }
}

/// A type with a canonical uniform distribution (stand-in for sampling from
/// rand's `Standard`).
pub trait Random {
    /// Draws one value.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Random for f64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}
impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Convenience methods over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_one(self)
    }

    /// Draw from the type's canonical uniform distribution.
    fn gen<T: Random>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (expanded internally).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Slice sampling helpers, mirroring `rand::seq::SliceRandom`.
pub mod seq {
    use super::{Rng, RngCore};

    /// `choose` on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniformly random element, or `None` for an empty slice.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let idx = rng.gen_range(0..self.len());
                Some(&self[idx])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn f64_range_stays_inside() {
        let mut r = Lcg(1);
        for _ in 0..10_000 {
            let v: f64 = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&v));
        }
    }

    #[test]
    fn usize_ranges_stay_inside() {
        let mut r = Lcg(2);
        for _ in 0..10_000 {
            let a = r.gen_range(3..17usize);
            assert!((3..17).contains(&a));
            let b = r.gen_range(1..=3usize);
            assert!((1..=3).contains(&b));
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        use seq::SliceRandom;
        let items = [1, 2, 3, 4];
        let mut r = Lcg(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let &x = items.choose(&mut r).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }
}
