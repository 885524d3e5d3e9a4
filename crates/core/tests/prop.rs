//! Property tests for the core engine's algorithmic components.

use crowdprompt_core::budget::{Budget, BudgetTracker};
use crowdprompt_core::consistency::{repair_ranking, violations, UnionFind};
use crowdprompt_core::extract;
use crowdprompt_core::quality::{calibrate_threshold, dawid_skene};
use proptest::prelude::*;

/// Pieces of packed responses: enumerations, preambles, line breaks of
/// every kind, blank and multi-byte text.
const ANSWER_PIECES: [&str; 22] = [
    "1",
    "2.",
    "10)",
    "99999999999999999999.",
    ")",
    ".",
    ":",
    "\n",
    "\r\n",
    "\r",
    " ",
    "\t",
    "\u{a0}",
    "\u{2028}",
    "Yes",
    "no",
    "Answer:",
    "é",
    "日本",
    "🦀",
    "- ",
    "",
];

/// Pieces of free-text answers: every marker `extract::value` and `yes_no`
/// look for, in both cases, and characters whose lowercase form has
/// another byte length (U+212A KELVIN SIGN → `k`, U+0130 `İ` → `i̇`) or
/// another shape (U+1E9E `ẞ` → `ß`).
const VALUE_PIECES: [&str; 20] = [
    "Answer:",
    "ANSWER: ",
    "answer is ",
    "most likely ",
    "It is ",
    "\"",
    "yes",
    "No",
    "Berkeley",
    "café",
    ".",
    " ",
    "\n",
    "\u{212A}",
    "\u{212A}\u{212A}",
    "\u{130}",
    "\u{1E9E}",
    "é",
    "日本",
    "",
];

proptest! {
    // -- consistency ---------------------------------------------------------

    #[test]
    fn union_find_closure_is_idempotent(
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..60)
    ) {
        let mut uf = UnionFind::new(20);
        for (a, b) in &edges {
            uf.union(*a, *b);
        }
        let components_once = uf.components();
        let groups_once = uf.groups();
        // Re-applying the same edges changes nothing.
        for (a, b) in &edges {
            prop_assert!(!uf.union(*a, *b), "edge ({a},{b}) should be saturated");
        }
        prop_assert_eq!(uf.components(), components_once);
        prop_assert_eq!(uf.groups(), groups_once);
    }

    #[test]
    fn union_find_groups_partition_everything(
        edges in prop::collection::vec((0usize..15, 0usize..15), 0..40)
    ) {
        let mut uf = UnionFind::new(15);
        for (a, b) in edges {
            uf.union(a, b);
        }
        let groups = uf.groups();
        let mut all: Vec<usize> = groups.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn repair_ranking_is_a_permutation(
        flips in prop::collection::hash_set((0usize..10, 0usize..10), 0..20)
    ) {
        let wins = |a: usize, b: usize| {
            let base = a < b;
            if flips.contains(&(a.min(b), a.max(b))) { !base } else { base }
        };
        for n in [0usize, 1, 5, 10] {
            let order = repair_ranking(n, &wins, 12);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn exact_repair_never_worse_than_greedy(
        flips in prop::collection::hash_set((0usize..9, 0usize..9), 0..14)
    ) {
        let wins = |a: usize, b: usize| {
            if a == b { return false; }
            let base = a < b;
            if flips.contains(&(a.min(b), a.max(b))) { !base } else { base }
        };
        let n = 9;
        let exact = repair_ranking(n, &wins, 12);
        let greedy = repair_ranking(n, &wins, 0);
        prop_assert!(
            violations(&exact, &wins) <= violations(&greedy, &wins),
            "exact {} > greedy {}",
            violations(&exact, &wins),
            violations(&greedy, &wins)
        );
    }

    // -- budget ----------------------------------------------------------------

    #[test]
    fn budget_never_admits_over_cap(
        spends in prop::collection::vec(0.0f64..0.4, 1..40)
    ) {
        let cap = 1.0f64;
        let tracker = BudgetTracker::new(Budget::usd(cap));
        for s in spends {
            if tracker.admit(s, 0) {
                tracker.record(s, 0);
            }
        }
        // Optimistic admission may overshoot by at most the final admitted
        // call (< 0.4 here).
        prop_assert!(tracker.spent_usd() <= cap + 0.4 + 1e-9);
    }

    // -- extraction -------------------------------------------------------------

    #[test]
    fn yes_no_total_on_polarity_prefixed_text(
        prefix_yes in any::<bool>(),
        filler in "[a-z ]{0,40}"
    ) {
        let word = if prefix_yes { "Yes" } else { "No" };
        let text = format!("{word}, {filler}");
        prop_assert_eq!(extract::yes_no(&text).unwrap(), prefix_yes);
    }

    #[test]
    fn rating_finds_first_integer(n in 1u8..100, suffix in "[a-z ]{0,20}") {
        let text = format!("Rating: {n} {suffix}");
        prop_assert_eq!(extract::rating(&text).unwrap(), n);
    }

    #[test]
    fn list_items_roundtrip_numbered_lists(
        items in prop::collection::vec("[a-z]{1,12}", 1..20)
    ) {
        let rendered: String = items
            .iter()
            .enumerate()
            .map(|(i, it)| format!("{}. {}\n", i + 1, it))
            .collect();
        // Read through the packed parser, the public door onto the list
        // reader.
        let expected = items.len();
        prop_assert_eq!(extract::packed_answers(&rendered, expected), Some(items));
    }

    #[test]
    fn packed_answers_never_panics_and_ok_holds_exactly_expected_entries(
        picks in prop::collection::vec(0usize..ANSWER_PIECES.len(), 0..32),
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        expected in 0usize..6,
    ) {
        // A response built from list-shaped pieces, and arbitrary bytes.
        let shaped: String = picks.iter().map(|&p| ANSWER_PIECES[p]).collect();
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        for text in [shaped, raw] {
            match std::panic::catch_unwind(|| extract::packed_answers(&text, expected)) {
                Err(_) => panic!("packed_answers({text:?}, {expected}) panicked"),
                Ok(Some(answers)) => prop_assert_eq!(
                    answers.len(),
                    expected,
                    "packed_answers({:?}, {}) = {:?}",
                    text,
                    expected,
                    answers
                ),
                Ok(None) => {}
            }
        }
    }

    #[test]
    fn answer_parsers_never_panic_on_arbitrary_unicode(
        picks in prop::collection::vec(0usize..VALUE_PIECES.len(), 0..24),
        code_points in prop::collection::vec(0u32..0x11_0000, 0..12),
    ) {
        // Markers and quotes between characters whose lowercase form has
        // another byte length, plus arbitrary scalar values.
        let shaped: String = picks.iter().map(|&p| VALUE_PIECES[p]).collect();
        let arbitrary: String = code_points.iter().filter_map(|&c| char::from_u32(c)).collect();
        let mixed: String = shaped.chars().zip(arbitrary.chars().cycle()).flat_map(|(a, b)| [a, b]).collect();
        let labels = vec!["berkeley".to_owned(), "İstanbul".to_owned(), "\u{212A}".to_owned()];
        for text in [shaped, arbitrary, mixed] {
            let parsed = std::panic::catch_unwind(|| {
                let _ = extract::value(&text);
                let _ = extract::choice(&text, &labels);
                let _ = extract::yes_no(&text);
            });
            prop_assert!(parsed.is_ok(), "an answer parser panicked on {:?}", text);
        }
    }

    // -- quality ------------------------------------------------------------------

    #[test]
    fn dawid_skene_posteriors_in_unit_interval(
        votes in prop::collection::vec(
            prop::collection::vec(prop::option::of(prop::bool::ANY), 8..=8),
            1..5
        )
    ) {
        let result = dawid_skene(&votes, 30);
        for p in &result.posteriors {
            prop_assert!((0.0..=1.0).contains(p), "posterior {p}");
        }
        for a in &result.worker_accuracy {
            prop_assert!((0.0..=1.0).contains(a), "accuracy {a}");
        }
    }

    // -- packed execution ----------------------------------------------------

    #[test]
    fn packed_filter_is_bit_identical_to_per_item(
        flags in prop::collection::vec(prop::bool::ANY, 1..40),
        width in 2usize..12,
        force_bisection in prop::bool::ANY,
    ) {
        use crowdprompt_core::ops::filter::FilterStrategy;
        use crowdprompt_core::{Budget, Corpus, Engine, Query};
        use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
        use crowdprompt_oracle::sim::SimulatedLlm;
        use crowdprompt_oracle::world::WorldModel;
        use crowdprompt_oracle::LlmClient;
        use std::sync::Arc;

        // Accuracy-1.0 answers with heavy formatting noise; optionally
        // every pack's numbered answer list comes back broken, forcing
        // bisection all the way down to singletons.
        let build = |pack: usize, dropout: f64| {
            let mut w = WorldModel::new();
            let ids: Vec<_> = flags
                .iter()
                .enumerate()
                .map(|(i, &flag)| {
                    let id = w.add_item(format!("prop item {i}"));
                    w.set_flag(id, "keep", flag);
                    id
                })
                .collect();
            let corpus = Corpus::from_world(&w, &ids);
            let profile = ModelProfile::perfect().with_noise(NoiseProfile {
                chatter_level: 0.9,
                malformed_rate: 0.3,
                packed_dropout_rate: dropout,
                ..NoiseProfile::perfect()
            });
            let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 99));
            let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
                .with_budget(Budget::Unlimited)
                .with_pack_width(pack);
            (engine, ids)
        };
        let filter = |engine: &Engine, ids: &[_]| {
            let query = Query::over(ids).filter_with("keep", FilterStrategy::Single);
            let run = query.plan_on(engine).and_then(|plan| plan.execute_on(engine));
            run.map(|run| run.into_outcome(|out| out.into_items().unwrap()))
        };
        let (baseline_engine, ids) = build(1, 0.0);
        let baseline = filter(&baseline_engine, &ids).expect("per-item path");
        let dropout = if force_bisection { 1.0 } else { 0.0 };
        let (packed_engine, ids) = build(width, dropout);
        let packed = filter(&packed_engine, &ids).expect("packed path");
        prop_assert_eq!(&packed.value, &baseline.value);
        // Spend attribution stays exact under bisection: the operator's
        // meter, the client ledger, and the budget tracker must agree.
        let ledger = packed_engine.client().ledger();
        prop_assert_eq!(packed.calls, ledger.calls());
        prop_assert_eq!(u64::from(packed.usage.total()), ledger.total_tokens());
        prop_assert_eq!(packed_engine.budget().spent_tokens(), ledger.total_tokens());
    }

    #[test]
    fn calibrated_threshold_f1_is_achievable_max(
        scores in prop::collection::vec(0.0f64..1.0, 2..30)
    ) {
        let gold: Vec<bool> = scores.iter().map(|s| *s > 0.6).collect();
        if let Some((t, f1)) = calibrate_threshold(&scores, &gold) {
            // The reported F1 must be reproducible at the reported threshold.
            let (mut tp, mut fp, mut fn_) = (0f64, 0f64, 0f64);
            for (&s, &g) in scores.iter().zip(&gold) {
                match (s >= t, g) {
                    (true, true) => tp += 1.0,
                    (true, false) => fp += 1.0,
                    (false, true) => fn_ += 1.0,
                    (false, false) => {}
                }
            }
            let p = tp / (tp + fp);
            let r = tp / (tp + fn_);
            let check = 2.0 * p * r / (p + r);
            prop_assert!((check - f1).abs() < 1e-9, "reported {f1}, recomputed {check}");
        }
    }
}
