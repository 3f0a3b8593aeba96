//! Reproducible pseudo-random number generation.
//!
//! All stochastic behaviour in the simulator (workload generation, noise
//! injection, node-failure placement) flows through [`Pcg32`], a
//! self-contained implementation of the PCG-XSH-RR 64/32 generator. Results
//! are identical on every platform and every run with the same seed, which
//! the integration tests rely on.

/// PCG-XSH-RR 64/32: 64-bit state, 32-bit output, period 2^64 per stream.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Create a generator from a seed and a stream selector. Different
    /// streams with the same seed are statistically independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Create a generator from a seed on the default stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0xda3e39cb94b95bdb)
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits (two draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` without modulo bias (Lemire's method
    /// via rejection on the widening multiply).
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = u64::from(r) * u64::from(bound);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal deviate via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        Self::normal_from(self.normal_uniforms())
    }

    /// The two uniforms [`Self::normal`] consumes, drawn in the same order:
    /// `u` is redrawn until it exceeds [`f64::MIN_POSITIVE`], so `ln(u)` is
    /// finite. A caller may keep them and finish the deviate later, or
    /// never: the generator's stream is the same either way.
    #[inline]
    pub fn normal_uniforms(&mut self) -> (f64, f64) {
        let mut u = self.next_f64();
        while u <= f64::MIN_POSITIVE {
            u = self.next_f64();
        }
        (u, self.next_f64())
    }

    /// The Box–Muller transform of a [`Self::normal_uniforms`] pair. Its
    /// magnitude is at most `sqrt(-2 ln u)`, whatever `v` is.
    #[inline]
    pub fn normal_from((u, v): (f64, f64)) -> f64 {
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Lognormal multiplicative noise factor with median 1 and the given
    /// sigma of the underlying normal. Used to model run-to-run variability
    /// of benchmark measurements.
    #[inline]
    pub fn lognormal_noise(&mut self, sigma: f64) -> f64 {
        (sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u32 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.next_below(slice.len() as u32) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::seeded(42);
        let mut b = Pcg32::seeded(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seeded(1);
        let mut b = Pcg32::seeded(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 5);
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::new(7, 1);
        let mut b = Pcg32::new(7, 2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::seeded(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Pcg32::seeded(4);
        for bound in [1u32, 2, 3, 7, 48, 192] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = Pcg32::seeded(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Pcg32::seeded(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn split_draw_matches_normal_bit_for_bit() {
        let mut whole = Pcg32::seeded(10);
        let mut split = Pcg32::seeded(10);
        for _ in 0..10_000 {
            let (u, v) = split.normal_uniforms();
            let z = Pcg32::normal_from((u, v));
            assert_eq!(whole.normal().to_bits(), z.to_bits());
            assert!(z.abs() <= (-2.0 * u.ln()).sqrt());
        }
        assert_eq!(whole.next_u32(), split.next_u32(), "streams stay aligned");
    }

    #[test]
    fn lognormal_noise_has_median_one() {
        let mut rng = Pcg32::seeded(7);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.lognormal_noise(0.3)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seeded(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Pcg32::seeded(9);
        for _ in 0..1000 {
            let x = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }
}
