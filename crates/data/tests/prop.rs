//! Property tests for the dataset generators.

use crowdprompt_data::splits::split;
use crowdprompt_data::{
    CitationDataset, CitationParams, FlavorDataset, ReviewsDataset, WordsDataset,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn splits_partition_for_any_fractions(
        n in 0usize..200,
        train_pct in 0u32..=100,
        seed in any::<u64>()
    ) {
        let val_pct = 100 - train_pct;
        let items: Vec<usize> = (0..n).collect();
        let s = split(
            &items,
            f64::from(train_pct) / 100.0,
            f64::from(val_pct) / 100.0,
            seed,
        );
        let mut all: Vec<usize> = s
            .train
            .iter()
            .chain(&s.validation)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, items);
    }

    #[test]
    fn words_sample_is_distinct_and_keyed(n in 2usize..150, seed in any::<u64>()) {
        let d = WordsDataset::sample(n, seed);
        let mut words: Vec<&str> = d.items.iter().map(|i| d.word(*i)).collect();
        prop_assert_eq!(words.len(), n);
        words.sort_unstable();
        words.dedup();
        prop_assert_eq!(words.len(), n, "sampled words must be distinct");
        // Gold really is the ascending key order.
        let gold: Vec<&str> = d.gold.iter().map(|i| d.word(*i)).collect();
        let mut expected = gold.clone();
        expected.sort_unstable();
        prop_assert_eq!(gold, expected);
    }

    #[test]
    fn flavor_scores_match_gold_order(n in 2usize..40, seed in any::<u64>()) {
        let d = FlavorDataset::sample(n, seed);
        let scores: Vec<f64> = d.gold.iter().map(|i| d.world.score(*i).unwrap()).collect();
        for w in scores.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn citation_pair_labels_always_match_clusters(seed in any::<u64>()) {
        let params = CitationParams {
            n_entities: 40,
            n_pairs: 60,
            ..CitationParams::small()
        };
        let d = CitationDataset::generate(&params, seed);
        prop_assert_eq!(d.pairs.len(), 60);
        for &(a, b, dup) in &d.pairs {
            prop_assert_eq!(d.world.same_cluster(a, b), Some(dup));
        }
    }

    #[test]
    fn reviews_flags_consistent(n in 1usize..120, seed in any::<u64>()) {
        let d = ReviewsDataset::generate(n, seed);
        let mut positives = 0usize;
        for &id in &d.items {
            let score = d.world.score(id).unwrap();
            prop_assert!((0.0..=1.0).contains(&score));
            let flag = d.world.flag(id, "positive").unwrap();
            prop_assert_eq!(flag, score >= 0.5);
            positives += usize::from(flag);
        }
        prop_assert_eq!(positives, d.positive_count);
    }

}
