//! Property tests for the oracle substrate: tokenizer laws, simulator
//! determinism, cache-key behaviour, and pricing arithmetic.

use std::sync::Arc;

use crowdprompt_oracle::model::ModelProfile;
use crowdprompt_oracle::sim::SimulatedLlm;
use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
use crowdprompt_oracle::tokenizer::count_tokens;
use crowdprompt_oracle::types::{CompletionRequest, LanguageModel};
use crowdprompt_oracle::world::WorldModel;
use crowdprompt_oracle::{LlmClient, Pricing, Usage};
use proptest::prelude::*;

proptest! {
    #[test]
    fn tokenizer_monotone_under_concatenation(a in ".{0,200}", b in ".{0,200}") {
        let ab = format!("{a}{b}");
        prop_assert!(count_tokens(&ab) >= count_tokens(&a));
        prop_assert!(count_tokens(&ab) >= count_tokens(&b));
        // And subadditive-ish: concatenation can merge at most one token
        // boundary, never create more than the sum plus one.
        prop_assert!(count_tokens(&ab) <= count_tokens(&a) + count_tokens(&b) + 1);
    }

    #[test]
    fn pricing_is_linear_in_usage(
        inp in 0u32..100_000,
        out in 0u32..100_000,
        rate_in in 0.0f64..0.1,
        rate_out in 0.0f64..0.1
    ) {
        let p = Pricing::new(rate_in, rate_out);
        let u = Usage { prompt_tokens: inp, completion_tokens: out };
        let double = Usage { prompt_tokens: inp * 2, completion_tokens: out * 2 };
        prop_assert!((p.cost_usd(double) - 2.0 * p.cost_usd(u)).abs() < 1e-9);
        prop_assert!(p.cost_usd(u) >= 0.0);
    }

    #[test]
    fn simulator_is_deterministic_per_seed(
        seed in any::<u64>(),
        scores in prop::collection::vec(0.0f64..1.0, 2..12)
    ) {
        let mut w = WorldModel::new();
        let ids: Vec<_> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let id = w.add_item(format!("item {i}"));
                w.set_score(id, *s);
                id
            })
            .collect();
        let world = Arc::new(w);
        let make = || SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::clone(&world), seed);
        let req = CompletionRequest::new(
            "compare the first two items",
            TaskDescriptor::Compare {
                left: ids[0],
                right: ids[1],
                criterion: SortCriterion::LatentScore,
            },
        );
        let a = make().complete(&req).unwrap();
        let b = make().complete(&req).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn client_cache_hits_preserve_text_and_usage(seed in any::<u64>()) {
        let mut w = WorldModel::new();
        let id = w.add_item("thing");
        w.set_flag(id, "p", true);
        let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w), seed);
        let client = LlmClient::new(Arc::new(llm));
        let req = CompletionRequest::new(
            "check",
            TaskDescriptor::CheckPredicate { item: id, predicate: "p".into() },
        );
        let first = client.complete(&req).unwrap();
        let second = client.complete(&req).unwrap();
        prop_assert_eq!(&first.text, &second.text);
        prop_assert_eq!(first.usage, second.usage);
        prop_assert!(!first.cached);
        prop_assert!(second.cached);
    }

    #[test]
    fn sort_responses_never_exceed_input_plus_hallucinations(
        n in 2usize..30,
        seed in any::<u64>()
    ) {
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("entry number {i}"));
                w.set_score(id, i as f64 / n as f64);
                id
            })
            .collect();
        let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w), seed);
        let req = CompletionRequest::new(
            "sort these",
            TaskDescriptor::SortList { items: ids, criterion: SortCriterion::LatentScore },
        );
        let resp = llm.complete(&req).unwrap();
        let lines = resp.text.lines().filter(|l| !l.trim().is_empty()).count();
        // Entries = n - dropped + hallucinated; hallucinations are
        // per-item Bernoulli so the line count is bounded by 2n + 1
        // (for a possible preamble line).
        prop_assert!(lines <= 2 * n + 1, "lines {lines} for n {n}");
    }

    #[test]
    fn fingerprints_distinguish_distinct_compares(
        a in 0u64..50, b in 0u64..50, c in 0u64..50, d in 0u64..50
    ) {
        use crowdprompt_oracle::world::ItemId;
        prop_assume!((a, b) != (c, d));
        let t1 = TaskDescriptor::Compare {
            left: ItemId(a),
            right: ItemId(b),
            criterion: SortCriterion::LatentScore,
        };
        let t2 = TaskDescriptor::Compare {
            left: ItemId(c),
            right: ItemId(d),
            criterion: SortCriterion::LatentScore,
        };
        prop_assert_ne!(t1.fingerprint(), t2.fingerprint());
    }
}
