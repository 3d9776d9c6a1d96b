//! Workspace-local stand-in for the `rand` crate (0.9 API surface).
//!
//! Everything in the workspace draws from seeded generators only —
//! workload generation and tests need determinism, not cryptographic
//! quality — so a single xoshiro256** generator behind the `rand 0.9`
//! method names (`random`, `random_range`, `seed_from_u64`) covers the
//! whole usage. Streams produced here are stable across runs and
//! platforms; workloads regenerate bit-identically from their seeds.

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from an `RngCore` (the `StandardUniform`
/// distribution of real rand).
pub trait Standard: Sized {
    /// Draw one value.
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

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform bits over [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges samplable uniformly (the `SampleRange` of real rand).
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// A uniform draw from `0..span` (`span > 0`). Rejection sampling over
/// the widened domain removes modulo bias without needing 128-bit
/// multiplies in the common small-span case.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    let zone = u128::MAX - (u128::MAX % span);
    loop {
        let raw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if raw < zone {
            return raw % span;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add(below(rng, span) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                // The span in `u128`, not `start..end + 1`: that end
                // wraps to `MIN` when `end` is `MAX`.
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                start.wrapping_add(below(rng, span) as $t)
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Convenience sampling methods over any word source.
pub trait Rng: RngCore {
    /// Draw one uniformly distributed value of an inferred type.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw one value uniformly from `range`.
    fn random_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample(self)
    }

    /// Draw `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        let u: f64 = self.random();
        u < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** — deterministic, seeded via splitmix64 like the
    /// reference implementation recommends.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// Same generator; the workspace only needs the type name.
    pub type SmallRng = StdRng;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
}

pub use rngs::StdRng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn ranges_hit_their_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = r.random_range(0u64..8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values drawn: {seen:?}");
        for _ in 0..1000 {
            let v = r.random_range(5u32..6);
            assert_eq!(v, 5);
            let f = r.random_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        // Full-domain inclusive range must not overflow.
        let _ = r.random_range(0u64..=u64::MAX);
    }

    #[test]
    fn inclusive_ranges_ending_at_max_sample_in_range() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(r.random_range(1u8..=255) >= 1);
            assert!(r.random_range((i64::MIN + 1)..=i64::MAX) > i64::MIN);
        }
        // A range that does not end at the maximum draws the same
        // stream as its half-open twin.
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..1000 {
            assert_eq!(a.random_range(0u8..=254), b.random_range(0u8..255));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[r.random_range(0usize..10)] += 1;
        }
        for c in counts {
            let expect = n as f64 / 10.0;
            assert!((c as f64 - expect).abs() < expect * 0.1, "{counts:?}");
        }
    }
}
