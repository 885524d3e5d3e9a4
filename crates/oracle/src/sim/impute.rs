//! Simulation of missing-value imputation tasks (paper §3.4).

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::Rng;

use crate::model::NoiseProfile;
use crate::sim::mutate::{format_variant, has_format_variants};
use crate::world::{ItemId, WorldModel};

/// Every attribute's domain — its distinct registered values, sorted — the
/// pool a wrong imputation draws from. Gathered from the world in one pass
/// on first use and kept: a simulator's world never changes, and scanning
/// it per wrong answer cost a millisecond on 40 k records.
#[derive(Debug, Clone, Default)]
pub(crate) struct Domains(OnceLock<HashMap<String, Vec<String>>>);

impl Domains {
    /// `attribute`'s domain in `world`, the one world every call passes.
    fn of<'a>(&'a self, world: &WorldModel, attribute: &str) -> &'a [String] {
        self.0
            .get_or_init(|| world.attr_domains())
            .get(attribute)
            .map_or(&[], Vec::as_slice)
    }
}

/// Simulate "predict the missing attribute from the serialized record".
///
/// Accuracy rises with the number of few-shot examples (saturating at
/// `impute_max_acc`). Even semantically correct answers may be rendered as a
/// *formatting variant* of the gold value ("TomTom" for "Tom Tom") — the
/// paper notes LLM-only imputation was "unfairly penalized" by exact-match
/// scoring for exactly this reason. Examples teach the output format, so the
/// variant probability halves with each shot.
pub(crate) fn simulate_impute<R: Rng>(
    world: &WorldModel,
    domains: &Domains,
    noise: &NoiseProfile,
    item: ItemId,
    attribute: &str,
    n_examples: usize,
    rng: &mut R,
) -> String {
    let gold = match world.attr(item, attribute) {
        Some(v) => v.to_owned(),
        None => return "unknown".to_owned(),
    };
    let acc = (noise.impute_base_acc + noise.impute_shot_bonus * n_examples as f64)
        .min(noise.impute_max_acc)
        .clamp(0.0, 1.0);
    if rng.random_bool(acc) {
        // Semantically right; maybe formatted differently — but only values
        // with structural variants (spaces, camel-case) can come out
        // "wrongly" formatted. Few-shot examples teach the expected format,
        // halving the variant probability per shot.
        let variant_p = noise.impute_format_variant_rate * 0.5f64.powi(n_examples as i32);
        if has_format_variants(&gold)
            && variant_p > 0.0
            && rng.random_bool(variant_p.clamp(0.0, 1.0))
        {
            return format_variant(&gold, rng);
        }
        gold
    } else {
        // Wrong but plausible: another value from the same attribute domain.
        let pool: Vec<&str> = domains
            .of(world, attribute)
            .iter()
            .map(String::as_str)
            .filter(|v| *v != gold)
            .collect();
        if pool.is_empty() {
            format_variant(&gold, rng)
        } else {
            pool[rng.random_range(0..pool.len())].to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn city_world() -> (WorldModel, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let cities = ["Berkeley", "San Francisco", "Oakland", "Palo Alto"];
        let ids: Vec<ItemId> = (0..40)
            .map(|i| {
                let id = w.add_item(format!("restaurant {i}"));
                w.set_attr(id, "city", cities[i % cities.len()]);
                id
            })
            .collect();
        (w, ids)
    }

    fn accuracy(
        world: &WorldModel,
        ids: &[ItemId],
        noise: &NoiseProfile,
        shots: usize,
        runs: u64,
    ) -> f64 {
        let mut correct = 0u32;
        let mut total = 0u32;
        let domains = Domains::default();
        for seed in 0..runs {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for &id in ids {
                let gold = world.attr(id, "city").unwrap();
                let ans = simulate_impute(world, &domains, noise, id, "city", shots, &mut rng);
                if ans == gold {
                    correct += 1;
                }
                total += 1;
            }
        }
        f64::from(correct) / f64::from(total)
    }

    #[test]
    fn perfect_noise_always_gold() {
        let (w, ids) = city_world();
        let noise = NoiseProfile::perfect();
        let (domains, mut rng) = (Domains::default(), ChaCha8Rng::seed_from_u64(0));
        for &id in &ids {
            assert_eq!(
                simulate_impute(&w, &domains, &noise, id, "city", 0, &mut rng),
                w.attr(id, "city").unwrap()
            );
        }
    }

    #[test]
    fn examples_improve_exact_match_accuracy() {
        let (w, ids) = city_world();
        let noise = NoiseProfile::default();
        let acc0 = accuracy(&w, &ids, &noise, 0, 20);
        let acc3 = accuracy(&w, &ids, &noise, 3, 20);
        assert!(
            acc3 > acc0 + 0.03,
            "3-shot ({acc3:.3}) should beat 0-shot ({acc0:.3})"
        );
    }

    #[test]
    fn wrong_answers_come_from_attribute_domain_or_variants() {
        let (w, ids) = city_world();
        let noise = NoiseProfile {
            impute_base_acc: 0.0,
            impute_max_acc: 0.0,
            impute_format_variant_rate: 0.0,
            ..NoiseProfile::default()
        };
        let domains = Domains::default();
        let domain: std::collections::HashSet<&str> =
            w.values_of_attr("city").into_iter().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for &id in &ids {
            let gold = w.attr(id, "city").unwrap();
            let ans = simulate_impute(&w, &domains, &noise, id, "city", 0, &mut rng);
            assert_ne!(ans, gold);
            assert!(domain.contains(ans.as_str()), "answer {ans} outside domain");
        }
    }

    #[test]
    fn memoized_domains_match_the_scan_for_every_attribute() {
        // A generated world: six attributes with skewed, repeating value
        // pools, set on a random subset of 2 000 items, some values shared
        // across attributes.
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let mut w = WorldModel::new();
        let attrs = ["city", "brand", "year", "colour", "shared", "rare"];
        for i in 0..2_000 {
            let id = w.add_item(format!("record {i}"));
            for (a, attr) in attrs.iter().enumerate() {
                if rng.random_bool(0.1 + 0.15 * a as f64) {
                    let pool = 3 + a * a * 7;
                    let v = rng.random_range(0..pool) * rng.random_range(1usize..3);
                    w.set_attr(id, *attr, format!("value {v}"));
                }
            }
        }
        let domains = Domains::default();
        for attr in attrs.iter().chain(&["never-set"]) {
            let memo: Vec<&str> = domains.of(&w, attr).iter().map(String::as_str).collect();
            assert_eq!(memo, w.values_of_attr(attr), "attribute {attr}");
        }
        assert!(domains.of(&w, "city").len() > 1);
    }

    #[test]
    fn unknown_attribute_degrades_gracefully() {
        let (w, ids) = city_world();
        let noise = NoiseProfile::default();
        let (domains, mut rng) = (Domains::default(), ChaCha8Rng::seed_from_u64(1));
        assert_eq!(
            simulate_impute(&w, &domains, &noise, ids[0], "nonexistent", 0, &mut rng),
            "unknown"
        );
    }

    #[test]
    fn format_variants_occur_at_zero_shot() {
        let mut w = WorldModel::new();
        let id = w.add_item("gps vendor record");
        w.set_attr(id, "manufacturer", "Tom Tom");
        let noise = NoiseProfile {
            impute_base_acc: 1.0,
            impute_max_acc: 1.0,
            impute_format_variant_rate: 1.0,
            ..NoiseProfile::default()
        };
        let (domains, mut rng) = (Domains::default(), ChaCha8Rng::seed_from_u64(5));
        let ans = simulate_impute(&w, &domains, &noise, id, "manufacturer", 0, &mut rng);
        assert_ne!(ans, "Tom Tom");
    }
}
