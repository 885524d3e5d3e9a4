//! Rank-correlation statistics.
//!
//! The paper scores every sorting experiment with Kendall's tau-β, the
//! tie-aware variant of Kendall's tau. We implement Knight's O(n log n)
//! algorithm and property-test it against the quadratic definition.

use std::collections::HashMap;
use std::hash::Hash;

/// Kendall's tau-β between two paired score vectors.
///
/// ```
/// use crowdprompt_metrics::rank::kendall_tau_b;
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let reversed = [4.0, 3.0, 2.0, 1.0];
/// assert_eq!(kendall_tau_b(&x, &x), Some(1.0));
/// assert_eq!(kendall_tau_b(&x, &reversed), Some(-1.0));
/// ```
///
/// Tie-aware: `tau_b = (C - D) / sqrt((n0 - t_x)(n0 - t_y))` where `C`/`D`
/// are concordant/discordant pair counts, `n0 = n(n-1)/2`, and `t_x`/`t_y`
/// are pairs tied in each input. Returns `None` when either input is
/// constant (the statistic is undefined) or lengths differ or `n < 2`.
pub fn kendall_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len();
    let mut pairs: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
    // Sort by x, breaking ties by y (Knight's algorithm precondition).
    pairs.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    });

    let n0 = (n * (n - 1) / 2) as i64;
    let xtie = tie_pair_count(pairs.iter().map(|p| p.0));
    let xytie = tie_pair_count_joint(&pairs);

    // Count discordant pairs = inversions in y once sorted by (x, y).
    let mut ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let dis = count_inversions(&mut ys) as i64;

    // y tie count is order-independent.
    let mut y_sorted: Vec<f64> = y.to_vec();
    y_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let ytie = tie_pair_count(y_sorted.iter().copied());

    let denom_x = n0 - xtie;
    let denom_y = n0 - ytie;
    if denom_x == 0 || denom_y == 0 {
        return None;
    }
    let con_minus_dis = n0 - xtie - ytie + xytie - 2 * dis;
    Some(con_minus_dis as f64 / ((denom_x as f64) * (denom_y as f64)).sqrt())
}

/// Kendall tau-β between two *orderings* of the same item set.
///
/// Items present in only one ordering are ignored. Returns `None` when
/// fewer than two items are shared.
pub fn kendall_tau_b_rankings<T: Eq + Hash>(observed: &[T], gold: &[T]) -> Option<f64> {
    let gold_rank: HashMap<&T, usize> = gold.iter().enumerate().map(|(i, t)| (t, i)).collect();
    let mut obs_ranks: Vec<f64> = Vec::new();
    let mut gold_ranks: Vec<f64> = Vec::new();
    for (i, item) in observed.iter().enumerate() {
        if let Some(&g) = gold_rank.get(item) {
            obs_ranks.push(i as f64);
            gold_ranks.push(g as f64);
        }
    }
    kendall_tau_b(&obs_ranks, &gold_ranks)
}

// ---------------------------------------------------------------------------

fn tie_pair_count(sorted: impl Iterator<Item = f64>) -> i64 {
    let mut total = 0i64;
    let mut run = 0i64;
    let mut prev: Option<f64> = None;
    for v in sorted {
        match prev {
            Some(p) if p == v => run += 1,
            _ => {
                total += run * (run + 1) / 2;
                run = 0;
            }
        }
        prev = Some(v);
    }
    total + run * (run + 1) / 2
}

fn tie_pair_count_joint(sorted_pairs: &[(f64, f64)]) -> i64 {
    let mut total = 0i64;
    let mut run = 0i64;
    let mut prev: Option<(f64, f64)> = None;
    for &pv in sorted_pairs {
        match prev {
            Some(p) if p == pv => run += 1,
            _ => {
                total += run * (run + 1) / 2;
                run = 0;
            }
        }
        prev = Some(pv);
    }
    total + run * (run + 1) / 2
}

/// Merge-sort inversion counting; ties are *not* inversions.
fn count_inversions(seq: &mut [f64]) -> u64 {
    let n = seq.len();
    if n < 2 {
        return 0;
    }
    let mut buf = vec![0.0f64; n];
    merge_count(seq, &mut buf)
}

fn merge_count(seq: &mut [f64], buf: &mut [f64]) -> u64 {
    let n = seq.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = seq.split_at_mut(mid);
    let mut inv = merge_count(left, &mut buf[..mid]) + merge_count(right, &mut buf[mid..]);
    // Merge, counting how many left elements strictly exceed each right one.
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[k] = left[i];
            i += 1;
        } else {
            buf[k] = right[j];
            inv += (left.len() - i) as u64;
            j += 1;
        }
        k += 1;
    }
    while i < left.len() {
        buf[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        buf[k] = right[j];
        j += 1;
        k += 1;
    }
    seq.copy_from_slice(&buf[..n]);
    inv
}

/// Quadratic reference implementation of tau-β, kept public for tests and
/// benchmarks (`#[doc(hidden)]` because it is not part of the stable API).
#[doc(hidden)]
pub fn kendall_tau_b_reference(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len();
    let (mut con, mut dis, mut tx, mut ty) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                // tied in both: contributes to neither denominator term
            } else if dx == 0.0 {
                tx += 1;
            } else if dy == 0.0 {
                ty += 1;
            } else if dx * dy > 0.0 {
                con += 1;
            } else {
                dis += 1;
            }
        }
    }
    let denom = (((con + dis + tx) as f64) * ((con + dis + ty) as f64)).sqrt();
    if denom == 0.0 {
        return None;
    }
    Some((con - dis) as f64 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_agreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((kendall_tau_b(&x, &x).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau_b(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_reference_with_ties() {
        let x = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 7.0];
        let y = [2.0, 1.0, 3.0, 3.0, 4.0, 6.0, 5.0];
        let fast = kendall_tau_b(&x, &y).unwrap();
        let slow = kendall_tau_b_reference(&x, &y).unwrap();
        assert!((fast - slow).abs() < 1e-12, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn constant_input_is_undefined() {
        assert_eq!(kendall_tau_b(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn length_mismatch_and_tiny_inputs() {
        assert_eq!(kendall_tau_b(&[1.0], &[1.0]), None);
        assert_eq!(kendall_tau_b(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn rankings_helper_ignores_unshared_items() {
        let observed = ["a", "ghost", "b", "c"];
        let gold = ["a", "b", "c", "dropped"];
        let tau = kendall_tau_b_rankings(&observed, &gold).unwrap();
        assert!((tau - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rankings_helper_detects_swap() {
        let observed = ["b", "a", "c"];
        let gold = ["a", "b", "c"];
        let tau = kendall_tau_b_rankings(&observed, &gold).unwrap();
        let expected = kendall_tau_b(&[0.0, 1.0, 2.0], &[1.0, 0.0, 2.0]).unwrap();
        assert!((tau - expected).abs() < 1e-12);
    }

    /// The inversion count of a copy of `seq`.
    fn inversions(seq: &[f64]) -> u64 {
        count_inversions(&mut seq.to_vec())
    }

    #[test]
    fn inversion_counts() {
        assert_eq!(inversions(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(inversions(&[3.0, 2.0, 1.0]), 3);
        assert_eq!(inversions(&[2.0, 1.0, 3.0]), 1);
        assert_eq!(inversions(&[]), 0);
        assert_eq!(inversions(&[1.0, 1.0, 1.0]), 0, "ties are not inversions");
    }

    proptest! {
        #[test]
        fn inversions_zero_iff_sorted(
            mut x in prop::collection::vec((-5i32..=5).prop_map(f64::from), 2..50)
        ) {
            x.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(inversions(&x), 0);
        }

        #[test]
        fn inversions_bounded_by_pair_count(
            x in prop::collection::vec((-5i32..=5).prop_map(f64::from), 2..50)
        ) {
            let n = x.len() as u64;
            prop_assert!(inversions(&x) <= n * (n - 1) / 2);
        }
    }

    #[test]
    fn near_paper_values_are_representable() {
        // Sanity: a 20-item ranking with a handful of swaps lands mid-range,
        // like the paper's 0.526 baseline.
        let gold: Vec<f64> = (0..20).map(f64::from).collect();
        let mut obs = gold.clone();
        // Shuffle the tail badly.
        obs[8..20].reverse();
        let tau = kendall_tau_b(&obs, &gold).unwrap();
        assert!(tau > 0.2 && tau < 0.8, "tau {tau}");
    }
}
