//! Train/validation/test splitting (§4: the toolkit explores strategies on a
//! labelled validation sample before committing the budget to the full set).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A three-way split of items.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(pub-has-caller) — exposed by `splits::split`
pub struct Split<T> {
    /// Training items (e.g. few-shot example pool).
    pub train: Vec<T>,
    /// Validation items (strategy selection).
    pub validation: Vec<T>,
    /// Test items (final evaluation).
    pub test: Vec<T>,
}

/// Split `items` into train/validation/test by the given fractions
/// (validation gets `val_frac`, train gets `train_frac`, the rest is test),
/// shuffled deterministically by `seed`.
///
/// # Panics
/// Panics unless `0 <= train_frac + val_frac <= 1`.
pub fn split<T: Clone>(items: &[T], train_frac: f64, val_frac: f64, seed: u64) -> Split<T> {
    assert!(
        train_frac >= 0.0 && val_frac >= 0.0 && train_frac + val_frac <= 1.0 + 1e-12,
        "fractions must be non-negative and sum to at most 1"
    );
    let mut shuffled: Vec<T> = items.to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    shuffled.shuffle(&mut rng);
    let n = shuffled.len();
    let n_train = (n as f64 * train_frac).round() as usize;
    let n_val = ((n as f64 * val_frac).round() as usize).min(n - n_train);
    let test = shuffled.split_off(n_train + n_val);
    let validation = shuffled.split_off(n_train);
    Split {
        train: shuffled,
        validation,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let items: Vec<u32> = (0..100).collect();
        let s = split(&items, 0.2, 0.3, 7);
        assert_eq!(s.train.len(), 20);
        assert_eq!(s.validation.len(), 30);
        assert_eq!(s.test.len(), 50);
        let mut all: Vec<u32> = s
            .train
            .iter()
            .chain(&s.validation)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn deterministic_per_seed() {
        let items: Vec<u32> = (0..50).collect();
        assert_eq!(split(&items, 0.5, 0.2, 3), split(&items, 0.5, 0.2, 3));
        assert_ne!(
            split(&items, 0.5, 0.2, 3).train,
            split(&items, 0.5, 0.2, 4).train
        );
    }

    #[test]
    fn empty_and_degenerate() {
        let empty: Vec<u32> = Vec::new();
        let s = split(&empty, 0.5, 0.5, 1);
        assert!(s.train.is_empty() && s.validation.is_empty() && s.test.is_empty());

        let items = vec![1u32, 2, 3];
        let s = split(&items, 0.0, 1.0, 1);
        assert!(s.train.is_empty());
        assert_eq!(s.validation.len(), 3);
        assert!(s.test.is_empty());
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn invalid_fractions_panic() {
        split(&[1, 2, 3], 0.8, 0.5, 1);
    }
}
