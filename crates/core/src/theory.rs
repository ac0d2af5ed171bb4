//! The mathematical model of Sec. III.
//!
//! Given two `w`-bit words where the first contains `x` ones and the second
//! `y` ones, and assuming the positions of the ones are uniformly random and
//! independent, the probability that one wire toggles is (Eq. 1)
//!
//! ```text
//! P(t) = 1 − (w−x)(w−y)/w² − xy/w²
//! ```
//!
//! and the expected number of transitions over the whole word is (Eq. 2,
//! generalized from the paper's w = 32)
//!
//! ```text
//! E = w·P(t) = x + y − 2xy/w        (for w = 32: x + y − xy/16)
//! ```
//!
//! Summing over the `N` word lanes of two flits gives Eq. 3, whose data-
//! dependent term is the pair-product objective `F = Σ xi·yi` (Eq. 4):
//! because `Σxi + Σyi` is fixed by the payload multiset, minimizing expected
//! BT is equivalent to **maximizing F**. The paper proves the descending
//! interleaved ordering `x1 ≥ y1 ≥ x2 ≥ y2 ≥ …` is globally optimal; this
//! module provides that construction plus brute-force oracles used by the
//! test-suite to re-verify the claim exhaustively on small instances.

/// Probability that a single wire toggles between two `width`-bit words
/// containing `x` and `y` ones respectively (Eq. 1).
///
/// # Panics
///
/// Panics if `x` or `y` exceeds `width`, or `width == 0`.
#[must_use]
pub fn transition_probability(x: u32, y: u32, width: u32) -> f64 {
    assert!(width > 0, "width must be positive");
    assert!(x <= width && y <= width, "popcounts must be <= width");
    let w = f64::from(width);
    let (x, y) = (f64::from(x), f64::from(y));
    1.0 - ((w - x) * (w - y)) / (w * w) - (x * y) / (w * w)
}

/// Expected number of bit transitions between two `width`-bit words with
/// popcounts `x` and `y` (Eq. 2 generalized): `E = x + y − 2xy/w`.
///
/// # Panics
///
/// Panics if `x` or `y` exceeds `width`, or `width == 0`.
#[must_use]
pub fn expected_bt(x: u32, y: u32, width: u32) -> f64 {
    assert!(width > 0, "width must be positive");
    assert!(x <= width && y <= width, "popcounts must be <= width");
    let w = f64::from(width);
    f64::from(x) + f64::from(y) - 2.0 * f64::from(x) * f64::from(y) / w
}

/// Expected BT between two 32-bit words (the paper's Eq. 2:
/// `E = x + y − xy/16`).
#[must_use]
pub fn expected_bt_32(x: u32, y: u32) -> f64 {
    expected_bt(x, y, 32)
}

/// Total expected BT between two flits carrying `N` aligned `width`-bit
/// words with popcount series `xs` and `ys` (Eq. 3).
///
/// # Panics
///
/// Panics if the series lengths differ.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "Eq. 3; the total_bt_decomposes_into_constant_minus_objective test checks Eq. 4 against it")
pub fn expected_total_bt(xs: &[u32], ys: &[u32], width: u32) -> f64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "flits must carry the same number of words"
    );
    xs.iter()
        .zip(ys.iter())
        .map(|(&x, &y)| expected_bt(x, y, width))
        .sum()
}

/// The pair-product objective `F = Σ xi·yi` (Eq. 4). Maximizing `F`
/// minimizes [`expected_total_bt`] for a fixed payload multiset.
#[must_use]
pub fn pair_product_objective(xs: &[u32], ys: &[u32]) -> u64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "flits must carry the same number of words"
    );
    xs.iter()
        .zip(ys.iter())
        .map(|(&x, &y)| u64::from(x) * u64::from(y))
        .sum()
}

/// The paper's optimal two-flit arrangement: sort all `2N` popcounts
/// descending and deal them alternately, so the interleaved order satisfies
/// `x1 ≥ y1 ≥ x2 ≥ y2 ≥ … ≥ xN ≥ yN`.
///
/// Returns `(xs, ys)`, the popcount series of the two flits.
///
/// # Panics
///
/// Panics if `popcounts.len()` is odd.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "tests/properties.rs descending_interleave_is_globally_optimal compares it with the brute force")
pub fn optimal_two_flit_split(popcounts: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        popcounts.len().is_multiple_of(2),
        "need an even number of values for two flits"
    );
    let mut sorted = popcounts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut xs = Vec::with_capacity(sorted.len() / 2);
    let mut ys = Vec::with_capacity(sorted.len() / 2);
    for pair in sorted.chunks(2) {
        xs.push(pair[0]);
        if pair.len() == 2 {
            ys.push(pair[1]);
        }
    }
    (xs, ys)
}

/// Brute-force oracle: the maximum achievable `F = Σ xi·yi` over **all**
/// ways of splitting `popcounts` (length `2N`) into two flits of `N` values
/// each and pairing their lanes.
///
/// Because `F` only depends on which values share a lane, it suffices to
/// enumerate partitions into two sets and pair each sorted descending
/// (rearrangement inequality gives the optimal pairing within a partition).
/// Exponential — intended for tests with `2N ≤ 16`.
///
/// # Panics
///
/// Panics if `popcounts.len()` is odd or greater than 16.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "the brute-force oracle tests/properties.rs descending_interleave_is_globally_optimal compares against")
pub fn brute_force_max_objective(popcounts: &[u32]) -> u64 {
    let n2 = popcounts.len();
    assert!(n2.is_multiple_of(2), "need an even number of values");
    assert!(n2 <= 16, "brute force limited to 16 values");
    let n = n2 / 2;
    let mut best = 0u64;
    // Enumerate all subsets of size n for the first flit.
    for mask in 0u32..(1 << n2) {
        if mask.count_ones() as usize != n {
            continue;
        }
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for (i, &pc) in popcounts.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                xs.push(pc);
            } else {
                ys.push(pc);
            }
        }
        // Optimal pairing within a fixed partition: sort both descending.
        xs.sort_unstable_by(|a, b| b.cmp(a));
        ys.sort_unstable_by(|a, b| b.cmp(a));
        best = best.max(pair_product_objective(&xs, &ys));
    }
    best
}

/// Monte-Carlo estimate of the BT between two random `width`-bit words with
/// exactly `x` and `y` ones, for cross-checking Eq. 1/2 (used by Fig. 1's
/// verification mode and the test-suite).
///
/// # Panics
///
/// Panics if `x` or `y` exceeds `width` or `width > 64`.
#[must_use]
pub fn monte_carlo_bt(x: u32, y: u32, width: u32, samples: u32, seed: u64) -> f64 {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    assert!(width <= 64, "monte carlo supports widths up to 64");
    assert!(x <= width && y <= width, "popcounts must be <= width");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut positions: Vec<u32> = (0..width).collect();
    let mut total = 0u64;
    for _ in 0..samples {
        positions.shuffle(&mut rng);
        let a: u64 = positions[..x as usize].iter().map(|&p| 1u64 << p).sum();
        positions.shuffle(&mut rng);
        let b: u64 = positions[..y as usize].iter().map(|&p| 1u64 << p).sum();
        total += u64::from((a ^ b).count_ones());
    }
    total as f64 / f64::from(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_matches_paper_form_for_w32() {
        // Paper: E = x + y − xy/16 for 32-bit words.
        for x in [0u32, 1, 8, 16, 31, 32] {
            for y in [0u32, 3, 16, 32] {
                let paper = f64::from(x) + f64::from(y) - f64::from(x) * f64::from(y) / 16.0;
                assert!((expected_bt_32(x, y) - paper).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expectation_is_width_times_probability() {
        for w in [8u32, 16, 32] {
            for x in 0..=w {
                for y in 0..=w {
                    let lhs = expected_bt(x, y, w);
                    let rhs = f64::from(w) * transition_probability(x, y, w);
                    assert!((lhs - rhs).abs() < 1e-9, "w={w} x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn identical_extremes_have_zero_expectation() {
        assert_eq!(expected_bt(0, 0, 32), 0.0);
        assert_eq!(expected_bt(32, 32, 32), 0.0);
        // All-ones vs all-zeros toggles every wire.
        assert_eq!(expected_bt(32, 0, 32), 32.0);
    }

    #[test]
    fn expectation_peak_is_at_opposite_extremes() {
        // E(x, y) decreases in y when x > w/2 and increases when x < w/2.
        let mut max = 0.0;
        let mut argmax = (0, 0);
        for x in 0..=32 {
            for y in 0..=32 {
                let e = expected_bt_32(x, y);
                if e > max {
                    max = e;
                    argmax = (x, y);
                }
            }
        }
        assert!(argmax == (0, 32) || argmax == (32, 0));
        assert_eq!(max, 32.0);
    }

    #[test]
    fn total_bt_decomposes_into_constant_minus_objective() {
        // Eq. 3: Et = Σx + Σy − 2·F/w.
        let xs = [10u32, 4, 22];
        let ys = [7u32, 30, 1];
        let sum: f64 = xs.iter().chain(ys.iter()).map(|&v| f64::from(v)).sum();
        let f = pair_product_objective(&xs, &ys) as f64;
        let total = expected_total_bt(&xs, &ys, 32);
        assert!((total - (sum - 2.0 * f / 32.0)).abs() < 1e-9);
    }

    #[test]
    fn optimal_split_interleaves_descending() {
        let (xs, ys) = optimal_two_flit_split(&[3, 9, 1, 7, 5, 2]);
        assert_eq!(xs, vec![9, 5, 2]);
        assert_eq!(ys, vec![7, 3, 1]);
        // Interleaved: x1 >= y1 >= x2 >= y2 >= x3 >= y3.
        assert!(
            xs[0] >= ys[0] && ys[0] >= xs[1] && xs[1] >= ys[1] && ys[1] >= xs[2] && xs[2] >= ys[2]
        );
    }

    #[test]
    fn count_based_ordering_matches_brute_force_small() {
        // Exhaustively verify the paper's optimality claim on a few fixed
        // small instances (the proptest suite covers random ones).
        let cases: &[&[u32]] = &[
            &[0, 1, 2, 3],
            &[8, 8, 8, 8],
            &[32, 0, 16, 16],
            &[1, 2, 3, 4, 5, 6],
            &[7, 7, 1, 1, 30, 2, 19, 5],
            &[0, 0, 0, 32, 32, 32, 16, 8],
        ];
        for &pcs in cases {
            let (xs, ys) = optimal_two_flit_split(pcs);
            let ours = pair_product_objective(&xs, &ys);
            let best = brute_force_max_objective(pcs);
            assert_eq!(ours, best, "popcounts {pcs:?}");
        }
    }

    #[test]
    fn local_pairwise_inequality() {
        // The paper's inductive step: for four values a >= b >= c >= d, the
        // interleaved pairing (a·b + c·d) beats the alternatives.
        for a in 0..=8u64 {
            for b in 0..=a {
                for c in 0..=b {
                    for d in 0..=c {
                        let interleaved = a * b + c * d;
                        assert!(interleaved >= a * c + b * d);
                        assert!(interleaved >= a * d + b * c);
                    }
                }
            }
        }
    }

    #[test]
    fn monte_carlo_agrees_with_eq2() {
        for &(x, y) in &[(0u32, 0u32), (16, 16), (32, 0), (8, 24), (5, 29)] {
            let analytic = expected_bt_32(x, y);
            let sampled = monte_carlo_bt(x, y, 32, 20_000, 42);
            assert!(
                (analytic - sampled).abs() < 0.2,
                "x={x} y={y}: analytic {analytic} vs sampled {sampled}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "popcounts must be <= width")]
    fn rejects_popcount_above_width() {
        let _ = expected_bt(33, 0, 32);
    }
}
