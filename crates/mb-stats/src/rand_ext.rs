//! Random-variate generation used by MacroBase's samplers and the synthetic
//! workload generators.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! instead of `rand`/`rand_distr` this module carries a minimal [`Rng`]
//! trait, the deterministic [`SplitMix64`] generator, and the Gaussian
//! (Box–Muller) and Zipfian samplers the evaluation needs.

/// Minimal uniform-variate source, standing in for `rand::Rng`.
///
/// Implementors only supply raw 64-bit output; `[0, 1)` doubles are derived
/// from the top 53 bits, which is the same construction `rand` uses.
pub trait Rng {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draw a standard normal variate using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid log(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen_f64();
    let u2: f64 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draw a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// A Zipfian sampler over `{0, 1, ..., n-1}` with exponent `s`.
///
/// Heavy-hitter experiments (Figure 6) use Zipf-distributed attribute values
/// because production attribute streams (device IDs, firmware versions) are
/// highly skewed. Sampling uses the inverse-CDF over a precomputed table,
/// which is exact and fast for the cardinalities used in the benches.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf distribution over `n` items with skew `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating point drift: the last entry must be 1.0.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    /// Draw one item index in `[0, n)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.total_cmp(&u))
        {
            Ok(idx) => idx,
            Err(idx) => idx.min(self.cdf.len() - 1),
        }
    }
}

/// Deterministic SplitMix64 RNG for tests and reproducible workloads.
///
/// A tiny local generator keeps state explicit in bench harnesses that must
/// be byte-for-byte reproducible across runs, and avoids any external
/// dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        Rng::gen_f64(self)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }

    /// Derive an independent child generator for stream `index` without
    /// advancing `self`.
    ///
    /// Parallel workers (e.g. FastMCD's training restarts) each take
    /// `rng.split(i)` so their streams are (a) decorrelated — the index is
    /// spread by an odd multiplier and pushed through the full SplitMix64
    /// output avalanche before seeding the child, so child `i` and child
    /// `i+1` share no state trajectory, unlike seeding with `seed + i` —
    /// and (b) a pure function of `(parent seed, index)`, independent of
    /// scheduling, which keeps parallel runs bit-identical to serial ones.
    pub(crate) fn split(&self, index: u64) -> SplitMix64 {
        let mut seeder = SplitMix64 {
            state: self.state ^ index.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        SplitMix64::new(seeder.next_u64())
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::univariate::{mean, population_std};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn standard_normal_moments() {
        let mut rng = SplitMix64::new(42);
        let sample: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let m = mean(&sample).unwrap();
        let s = population_std(&sample).unwrap();
        assert!(m.abs() < 0.03, "mean was {m}");
        assert!((s - 1.0).abs() < 0.03, "std was {s}");
    }

    #[test]
    fn normal_respects_parameters() {
        let mut rng = SplitMix64::new(7);
        let sample: Vec<f64> = (0..50_000).map(|_| normal(&mut rng, 70.0, 10.0)).collect();
        let m = mean(&sample).unwrap();
        let s = population_std(&sample).unwrap();
        assert!((m - 70.0).abs() < 0.3, "mean was {m}");
        assert!((s - 10.0).abs() < 0.3, "std was {s}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SplitMix64::new(3);
        let zipf = Zipf::new(1000, 1.2);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            let idx = zipf.sample(&mut rng);
            assert!(idx < 1000);
            counts[idx] += 1;
        }
        // Item 0 must dominate item 100 by a wide margin under s=1.2.
        assert!(counts[0] > counts[100] * 5);
        // All the mass is somewhere.
        assert_eq!(counts.iter().sum::<usize>(), 100_000);
    }

    #[test]
    fn zipf_single_item() {
        let mut rng = SplitMix64::new(5);
        let zipf = Zipf::new(1, 1.0);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_children_are_deterministic_and_decorrelated() {
        let parent = SplitMix64::new(42);
        let mut a1 = parent.split(0);
        let mut a2 = parent.split(0);
        let mut b = parent.split(1);
        let stream_a: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let again: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(stream_a, again, "split must be a pure function of (seed, index)");
        let stream_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(stream_a, stream_b);
        // Adjacent children are not shifted copies of one another — the
        // failure mode of naive `seed + index` splitting, where child i+1
        // replays child i's stream offset by one draw.
        assert_ne!(&stream_a[1..], &stream_b[..7]);
        assert_ne!(&stream_b[1..], &stream_a[..7]);
    }

    #[test]
    fn split_does_not_advance_the_parent() {
        let mut parent = SplitMix64::new(7);
        let probe = parent.clone().next_u64();
        let _child = parent.split(3);
        assert_eq!(parent.next_u64(), probe);
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Restart determinism (and the scenario corpus built on it) relies
        // on adjacent split() children behaving as independent streams: for
        // any parent seed and index, children i and i+1 must not share a
        // single value anywhere in their first 1 000 draws. A naive
        // `seed + index` child construction fails this immediately (child
        // i+1 replays child i's stream shifted by one).
        #[test]
        fn adjacent_split_streams_do_not_collide(
            seed in 0u64..u64::MAX,
            index in 0u64..(u64::MAX - 1),
        ) {
            let parent = SplitMix64::new(seed);
            let mut left = parent.split(index);
            let mut right = parent.split(index + 1);
            let draws: BTreeSet<u64> = (0..1_000).map(|_| left.next_u64()).collect();
            prop_assert_eq!(draws.len(), 1_000);
            for draw in 0..1_000u32 {
                let value = right.next_u64();
                prop_assert!(
                    !draws.contains(&value),
                    "children {} and {} collide on value {} (right draw {})",
                    index,
                    index + 1,
                    value,
                    draw
                );
            }
        }
    }
}
