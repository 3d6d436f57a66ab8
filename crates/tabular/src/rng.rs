//! Self-contained seeded pseudo-randomness for the whole workspace.
//!
//! The workspace builds with an empty cargo registry, so this module
//! replaces the subset of `rand` 0.8 the stack used: a deterministic
//! generator ([`StdRng`], xoshiro256** seeded through SplitMix64), the
//! [`SeedableRng`]/[`Rng`] traits, uniform ranges via `gen_range`, and
//! Fisher–Yates [`SliceRandom::shuffle`]. The API is shaped like rand's
//! on purpose — call sites migrate by swapping the import path — but the
//! byte streams are *not* rand-compatible; anything persisted that
//! embeds generator state (see `fume-forest::persist`) derives it from
//! seeds, never from raw state dumps, so this is a behavioural reseed,
//! not a format break.
//!
//! Statistical scope: experiment sampling and DaRE's random-split
//! draws. Nothing here is cryptographic.

use std::ops::{Range, RangeInclusive};

/// Splits one `u64` seed into well-distributed stream material
/// (Steele, Lea & Flood's SplitMix64 — the canonical xoshiro seeder).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's standard generator: xoshiro256** (Blackman & Vigna),
/// 256 bits of state, equidistributed in every u64 lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for lane in &mut s {
            *lane = splitmix64(&mut sm);
        }
        // All-zero state is the one fixed point; SplitMix64 cannot emit
        // four zeros from any seed, but keep the guard explicit.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }
}

impl StdRng {
    /// The generator's 256-bit state, which fixes every later draw: two
    /// generators with equal states yield equal streams.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// Uniform sampling from the generator's full output ("standard"
/// distribution in rand's vocabulary).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with the standard 53-bit mantissa trick.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that can produce a uniform sample of their element type.
pub trait SampleRange<T> {
    /// Draws one value inside the range. Panics on an empty range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps a raw draw onto `[0, span)` with a 128-bit widening multiply
/// (Lemire). The ≤2⁻⁶⁴·span bias is irrelevant at this code's spans.
#[inline]
fn widen_mul(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + widen_mul(rng.next_u64(), span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + widen_mul(rng.next_u64(), span + 1) as $t
            }
        }
    )*};
}

int_sample_range!(u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let unit: f64 = Standard::sample(rng);
        self.start + (self.end - self.start) * unit
    }
}

/// The generator interface call sites program against.
pub trait Rng {
    /// The raw stream: one uniform `u64`.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw over a type's full "standard" distribution
    /// (`gen::<f64>()` → `[0, 1)`, `gen::<bool>()` → fair coin).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform draw from a half-open or inclusive range.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p` (clamped to [0, 1]).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let unit: f64 = Standard::sample(self);
        unit < p
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Random slice operations (rand's `seq::SliceRandom` shape).
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Uniform in-place Fisher–Yates shuffle.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);

    /// One uniformly chosen element, `None` on an empty slice.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }

    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a, b, "state comparison works (DareTree derives rely on it)");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn unit_f64_is_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let a = rng.gen_range(3u16..9);
            assert!((3..9).contains(&a));
            let b = rng.gen_range(0usize..=5);
            assert!(b <= 5);
            let c = rng.gen_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&c));
        }
        // Degenerate inclusive range is fine.
        assert_eq!(rng.gen_range(7usize..=7), 7);
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        let mut rng = StdRng::seed_from_u64(6);
        v.shuffle(&mut rng);
        assert_ne!(v, orig, "50 elements virtually never map to identity");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);

        let mut v2 = orig.clone();
        v2.shuffle(&mut StdRng::seed_from_u64(6));
        assert_eq!(v, v2, "same seed, same permutation");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(8);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn choose_is_uniformish() {
        let mut rng = StdRng::seed_from_u64(9);
        let items = [1, 2, 3];
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[*items.choose(&mut rng).unwrap() as usize - 1] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
    }
}
