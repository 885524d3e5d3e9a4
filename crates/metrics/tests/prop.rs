//! Property tests for the metrics crate.

use crowdprompt_metrics::rank::{kendall_tau_b, kendall_tau_b_reference};
use proptest::prelude::*;

fn score_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    // Small integer-valued scores generate plenty of ties.
    prop::collection::vec((-5i32..=5).prop_map(f64::from), 2..max_len)
}

proptest! {
    #[test]
    fn tau_fast_matches_quadratic_reference(
        pairs in score_vec(60).prop_flat_map(|x| {
            let n = x.len();
            (Just(x), prop::collection::vec((-5i32..=5).prop_map(f64::from), n..=n))
        })
    ) {
        let (x, y) = pairs;
        let fast = kendall_tau_b(&x, &y);
        let slow = kendall_tau_b_reference(&x, &y);
        match (fast, slow) {
            (Some(f), Some(s)) => prop_assert!((f - s).abs() < 1e-9, "fast {f} slow {s}"),
            (None, None) => {}
            other => prop_assert!(false, "definedness mismatch: {other:?}"),
        }
    }

    #[test]
    fn tau_is_bounded(x in score_vec(40), ) {
        let n = x.len();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 7.0) % 11.0).collect();
        if let Some(t) = kendall_tau_b(&x, &y) {
            prop_assert!((-1.0..=1.0).contains(&t), "tau {t}");
        }
    }

    #[test]
    fn tau_symmetric(x in score_vec(40)) {
        let n = x.len();
        let y: Vec<f64> = (0..n).map(|i| ((i * i) % 13) as f64).collect();
        let a = kendall_tau_b(&x, &y);
        let b = kendall_tau_b(&y, &x);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12),
            (None, None) => {}
            other => prop_assert!(false, "symmetry definedness mismatch: {other:?}"),
        }
    }

    #[test]
    fn tau_of_identical_permutation_is_one(n in 2usize..100) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert!((kendall_tau_b(&x, &x).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversing_negates_tau(n in 2usize..60) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let rev: Vec<f64> = x.iter().rev().copied().collect();
        let t = kendall_tau_b(&x, &rev).unwrap();
        prop_assert!((t + 1.0).abs() < 1e-12);
    }
}
