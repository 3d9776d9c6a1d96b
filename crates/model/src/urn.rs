//! The Johnson–Kotz urn model used for Grace's thrashing approximation.
//!
//! Paper §7.3 derives the extra I/O caused by premature page
//! replacement in pass 0 from the classical occupancy distribution
//! (Johnson & Kotz \[19, p. 110\]): the probability that exactly `k`
//! urns are empty after `n` balls land uniformly in `m` urns is
//!
//! ```text
//! Pr[X = k] = C(m,k) (1 − k/m)ⁿ Σ_{j=0}^{m−k−1} C(m−k, j) (−1)ʲ (1 − j/(m−k))ⁿ
//! ```
//!
//! That alternating sum is not evaluated here: its terms grow like
//! `C(m, m/2)` while the result is at most one, so in doubles it cancels
//! away digits as `m` grows — the thrashing term built on it was off in
//! the fourth digit at `m = 57` and had no correct digit left at
//! `m = 128`. Instead `Occupancy` carries the whole distribution and
//! drops one ball at a time. With `e` urns empty, the next ball lands in
//! one of them with probability `e/m`, so
//!
//! ```text
//! Pr'[X = e] = Pr[X = e] · (1 − e/m) + Pr[X = e+1] · (e+1)/m
//! ```
//!
//! Both terms are non-negative, so a step's rounding error stays relative
//! to its result instead of being amplified by cancellation. The
//! thrashing model's epochs add exactly one object each, so one
//! distribution advanced in place serves the whole epoch loop at O(m)
//! per epoch.

/// The occupancy distribution of `m` urns, advanced one ball at a time.
#[derive(Debug)]
pub(crate) struct Occupancy {
    /// Balls dropped so far.
    balls: u64,
    /// `p[e]` = Pr[exactly `e` urns empty], for `e` in `0..=m`.
    p: Vec<f64>,
    /// `e/m`: the chance the next ball lands in one of `e` empty urns.
    frac: Vec<f64>,
    /// Every `p[e]` above `top` is zero; the top of the support that
    /// underflowed is trimmed so steps stop paying for it.
    top: usize,
}

impl Occupancy {
    /// `m ≥ 1` urns and no balls yet: all `m` empty.
    pub fn new(m: u64) -> Self {
        debug_assert!(m > 0, "an occupancy distribution needs an urn");
        let urns = m as usize;
        let mut p = vec![0.0; urns + 1];
        p[urns] = 1.0;
        let frac = (0..=m).map(|e| e as f64 / m as f64).collect();
        Occupancy {
            balls: 0,
            p,
            frac,
            top: urns,
        }
    }

    /// Lowest `e` that can carry mass: `n` balls fill at most `n` urns.
    fn bottom(&self) -> usize {
        (self.p.len() - 1).saturating_sub(self.balls as usize)
    }

    /// Drop one more ball.
    fn add_ball(&mut self) {
        self.balls += 1;
        let lo = self.bottom();
        let top = self.top;
        // Ascending and in place: `p[e]` reads the old `p[e + 1]`, which
        // is overwritten only on the next iteration.
        let (p, frac) = (&mut self.p[lo..=top], &self.frac[lo..=top]);
        for i in 0..p.len() - 1 {
            p[i] = p[i] * (1.0 - frac[i]) + p[i + 1] * frac[i + 1];
        }
        let last = p.len() - 1;
        p[last] *= 1.0 - frac[last];
        // Trim once the top underflows. Subnormals count: the smallest
        // one times a factor above 1/2 rounds back to itself, so a top
        // entry with `e < m/2` would never reach zero, and every step
        // would keep paying slow subnormal arithmetic on it.
        while self.top > 0 && self.p[self.top] < f64::MIN_POSITIVE {
            self.p[self.top] = 0.0;
            self.top -= 1;
        }
    }

    /// Drop balls until `n` have landed (no-op if `n` already have).
    pub fn advance_to(&mut self, n: u64) {
        while self.balls < n {
            self.add_ball();
        }
    }

    /// Pr[exactly `k` urns empty].
    pub fn exactly(&self, k: u64) -> f64 {
        self.p.get(k as usize).copied().unwrap_or(0.0)
    }

    /// Pr[at most `k_max` urns empty].
    pub fn at_most(&self, k_max: u64) -> f64 {
        // Once a ball has landed at most `m − 1` urns can be empty: a
        // bound covering that is certain, not a rounded sum of the support.
        let most_empty = (self.p.len() - 1).saturating_sub((self.balls > 0) as usize);
        if k_max as usize >= most_empty {
            return 1.0;
        }
        let hi = (k_max as usize).min(self.top);
        let lo = self.bottom();
        if hi < lo {
            return 0.0;
        }
        self.p[lo..=hi].iter().sum::<f64>().min(1.0)
    }
}

/// Probability that exactly `k` of `m` urns are empty after `n` balls.
///
/// ```
/// use mmjoin_model::urn::prob_empty_exactly;
/// // One ball, ten urns: exactly nine empty, always.
/// assert!((prob_empty_exactly(10, 1, 9) - 1.0).abs() < 1e-9);
/// let total: f64 = (0..=10).map(|k| prob_empty_exactly(10, 7, k)).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn prob_empty_exactly(m: u64, n: u64, k: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let mut occ = Occupancy::new(m);
    occ.advance_to(n);
    occ.exactly(k)
}

/// Probability that **at most** `k_max` urns are empty after `n` balls
/// in `m` urns — the `p_j` of the paper's epoch argument.
pub fn prob_empty_at_most(m: u64, n: u64, k_max: u64) -> f64 {
    if m == 0 {
        return 1.0;
    }
    let mut occ = Occupancy::new(m);
    occ.advance_to(n);
    occ.at_most(k_max)
}

/// Expected number of empty urns, `m(1 − 1/m)ⁿ` — used as a sanity
/// anchor in tests and available for coarse estimates.
pub fn expected_empty(m: u64, n: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    m as f64 * (1.0 - 1.0 / m as f64).powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one() {
        for &(m, n) in &[(1u64, 1u64), (5, 3), (10, 10), (20, 40), (64, 200)] {
            let total: f64 = (0..=m).map(|k| prob_empty_exactly(m, n, k)).sum();
            assert!((total - 1.0).abs() < 1e-8, "m={m} n={n} total={total}");
        }
    }

    #[test]
    fn zero_balls_all_empty() {
        assert_eq!(prob_empty_exactly(7, 0, 7), 1.0);
        assert_eq!(prob_empty_exactly(7, 0, 3), 0.0);
        assert_eq!(prob_empty_at_most(7, 0, 6), 0.0);
        assert_eq!(prob_empty_at_most(7, 0, 7), 1.0);
    }

    #[test]
    fn one_ball_leaves_m_minus_one_empty() {
        let p = prob_empty_exactly(10, 1, 9);
        assert!((p - 1.0).abs() < 1e-9, "p={p}");
    }

    #[test]
    fn mean_matches_expected_empty() {
        for &(m, n) in &[(10u64, 5u64), (16, 30), (40, 100)] {
            let mean: f64 = (0..=m)
                .map(|k| k as f64 * prob_empty_exactly(m, n, k))
                .sum();
            let expect = expected_empty(m, n);
            assert!(
                (mean - expect).abs() < 1e-6 * expect.max(1.0),
                "m={m} n={n}: mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn many_balls_push_cdf_to_one() {
        // With n ≫ m ln m, almost surely no urn is empty.
        assert!(prob_empty_at_most(16, 2000, 0) > 0.999);
        // With very few balls, "at most 0 empty" is impossible.
        assert!(prob_empty_at_most(16, 2, 0) < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_in_k() {
        let (m, n) = (32u64, 64u64);
        let mut prev = 0.0;
        for k in 0..=m {
            let c = prob_empty_at_most(m, n, k);
            assert!(c >= prev - 1e-12, "k={k}");
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-8);
    }

    #[test]
    fn large_n_is_numerically_stable() {
        // n in the tens of thousands (the paper's |R_{i,i}| scale).
        for k in 0..5 {
            let p = prob_empty_exactly(24, 25_600, k);
            assert!((0.0..=1.0).contains(&p), "k={k} p={p}");
        }
        assert!(prob_empty_at_most(24, 25_600, 24) > 0.999_999);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Up to 1024 urns, where the alternating sum has no digits
        /// left: still a distribution, with the closed-form mean.
        #[test]
        fn occupancy_is_a_distribution_for_any_m(m in 1u64..=1024, n in 0u64..4096) {
            let mut occ = Occupancy::new(m);
            occ.advance_to(n);
            let total: f64 = (0..=m).map(|k| occ.exactly(k)).sum();
            let mean: f64 = (0..=m).map(|k| k as f64 * occ.exactly(k)).sum();
            let expect = expected_empty(m, n);
            proptest::prop_assert!((total - 1.0).abs() < 1e-9, "m={m} n={n}: total {total}");
            proptest::prop_assert!(
                (mean - expect).abs() < 1e-9 * expect.max(1.0),
                "m={m} n={n}: mean {mean} vs {expect}"
            );
            proptest::prop_assert_eq!(occ.at_most(m), 1.0);
        }
    }

    #[test]
    fn matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (m, n) = (12u64, 30u64);
        let trials = 200_000u64;
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0u64; m as usize + 1];
        for _ in 0..trials {
            let mut hit = vec![false; m as usize];
            for _ in 0..n {
                hit[rng.random_range(0..m) as usize] = true;
            }
            let empty = hit.iter().filter(|&&h| !h).count();
            counts[empty] += 1;
        }
        for k in 0..=m {
            let emp = counts[k as usize] as f64 / trials as f64;
            let theory = prob_empty_exactly(m, n, k);
            assert!(
                (emp - theory).abs() < 0.01,
                "k={k}: empirical {emp} vs theory {theory}"
            );
        }
    }
}
