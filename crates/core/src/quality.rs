//! Quality control (paper §3.5), the aggregation half: Dawid–Skene EM
//! across models of unknown accuracy, and decision-threshold calibration
//! against validation gold. Both are pure functions of votes already
//! collected — they dispatch nothing. The strategies that *collect* votes
//! (majority voting, sequential asking, self-verification) are
//! [`FilterStrategy`](crate::ops::filter::FilterStrategy) variants, and
//! validation-set accuracy is
//! [`optimize::evaluate_filter_strategies`](crate::optimize::evaluate_filter_strategies).

// ---------------------------------------------------------------------------
// Threshold calibration
// ---------------------------------------------------------------------------

/// Pick the decision threshold on a `[0, 1]` score (e.g. a vote fraction or
/// posterior) that maximizes F1 against validation gold labels — §3.5's
/// "debias or better calibrate LLM answers", in the form crowdsourcing
/// pipelines use it.
///
/// Returns `(threshold, f1_at_threshold)`; `None` for empty or
/// positives-free input. Candidate thresholds are the observed score values
/// (sufficient: F1 only changes at observed scores).
///
/// ```
/// use crowdprompt_core::quality::calibrate_threshold;
///
/// // Yes-vote fractions of five validation items, and their gold labels.
/// let votes = [0.2, 0.4, 0.6, 0.8, 1.0];
/// let gold = [false, false, true, true, true];
/// assert_eq!(calibrate_threshold(&votes, &gold), Some((0.6, 1.0)));
/// ```
pub fn calibrate_threshold(scores: &[f64], gold: &[bool]) -> Option<(f64, f64)> {
    assert_eq!(scores.len(), gold.len(), "length mismatch");
    if scores.is_empty() || !gold.iter().any(|g| *g) {
        return None;
    }
    let mut candidates: Vec<f64> = scores.to_vec();
    candidates.push(0.0);
    candidates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    candidates.dedup();
    let mut best: Option<(f64, f64)> = None;
    for &t in &candidates {
        let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
        for (&s, &g) in scores.iter().zip(gold) {
            let predicted = s >= t;
            match (predicted, g) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
        if tp == 0 {
            continue;
        }
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = tp as f64 / (tp + fn_) as f64;
        let f1 = 2.0 * precision * recall / (precision + recall);
        if best.is_none_or(|(_, bf)| f1 > bf) {
            best = Some((t, f1));
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Dawid–Skene EM
// ---------------------------------------------------------------------------

/// Output of [`dawid_skene`]: per-item posteriors and per-worker accuracies.
#[derive(Debug, Clone)]
// lint: allow(pub-has-caller) — exposed by `quality::dawid_skene`
pub struct DawidSkeneResult {
    /// P(true answer = yes) per item.
    pub posteriors: Vec<f64>,
    /// Estimated accuracy per worker (probability of answering correctly).
    pub worker_accuracy: Vec<f64>,
    /// EM iterations performed.
    pub iterations: usize,
}

impl DawidSkeneResult {
    /// Hard labels from the posteriors (`>= 0.5` ⇒ yes).
    pub fn labels(&self) -> Vec<bool> {
        self.posteriors.iter().map(|p| *p >= 0.5).collect()
    }
}

/// Two-class Dawid–Skene EM (§3.5, after Ipeirotis et al.): given a
/// `votes[worker][item]` matrix of optional yes/no answers from several
/// independent models with fixed-but-unknown accuracies, jointly estimate
/// per-item truths and per-worker accuracies. Symmetric error model (one
/// accuracy per worker).
///
/// # Panics
/// Panics if worker rows have inconsistent lengths.
pub fn dawid_skene(votes: &[Vec<Option<bool>>], max_iter: usize) -> DawidSkeneResult {
    let n_workers = votes.len();
    let n_items = votes.first().map_or(0, Vec::len);
    for row in votes {
        assert_eq!(row.len(), n_items, "ragged vote matrix");
    }
    // Initialize posteriors from unweighted majority vote.
    let mut posteriors: Vec<f64> = (0..n_items)
        .map(|i| {
            let (mut yes, mut total) = (0.0f64, 0.0f64);
            for row in votes {
                if let Some(v) = row[i] {
                    total += 1.0;
                    if v {
                        yes += 1.0;
                    }
                }
            }
            if total == 0.0 {
                0.5
            } else {
                yes / total
            }
        })
        .collect();
    let mut accuracy = vec![0.75f64; n_workers];
    let mut iterations = 0usize;
    for _ in 0..max_iter {
        iterations += 1;
        // M step (prior): estimate class prevalence from the soft labels —
        // without this, imbalanced truth pulls EM to a poor fixed point.
        let prior = if n_items == 0 {
            0.5
        } else {
            (posteriors.iter().sum::<f64>() / n_items as f64).clamp(0.01, 0.99)
        };
        // M step: re-estimate worker accuracies from soft labels.
        let mut new_acc = Vec::with_capacity(n_workers);
        for row in votes {
            let (mut agree, mut total) = (0.0f64, 0.0f64);
            for (i, vote) in row.iter().enumerate() {
                if let Some(v) = vote {
                    total += 1.0;
                    agree += if *v {
                        posteriors[i]
                    } else {
                        1.0 - posteriors[i]
                    };
                }
            }
            // Clamp away from 0/1 to keep the E step numerically stable.
            new_acc.push(if total == 0.0 {
                0.5
            } else {
                (agree / total).clamp(0.01, 0.99)
            });
        }
        // E step: recompute posteriors from accuracies and the class prior.
        let mut new_post = Vec::with_capacity(n_items);
        for i in 0..n_items {
            let (mut log_yes, mut log_no) = (prior.ln(), (1.0 - prior).ln());
            for (w, row) in votes.iter().enumerate() {
                if let Some(v) = row[i] {
                    let a = new_acc[w];
                    if v {
                        log_yes += a.ln();
                        log_no += (1.0 - a).ln();
                    } else {
                        log_yes += (1.0 - a).ln();
                        log_no += a.ln();
                    }
                }
            }
            let m = log_yes.max(log_no);
            let py = (log_yes - m).exp();
            let pn = (log_no - m).exp();
            new_post.push(py / (py + pn));
        }
        // Convergence check.
        let delta: f64 = new_post
            .iter()
            .zip(&posteriors)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            + new_acc
                .iter()
                .zip(&accuracy)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        posteriors = new_post;
        accuracy = new_acc;
        if delta < 1e-9 {
            break;
        }
    }
    DawidSkeneResult {
        posteriors,
        worker_accuracy: accuracy,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dawid_skene_recovers_truth_and_worker_quality() {
        use rand::{Rng, SeedableRng};
        let n_items = 200;
        let truth: Vec<bool> = (0..n_items).map(|i| i % 3 == 0).collect();
        let worker_acc = [0.95, 0.7, 0.55];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let votes: Vec<Vec<Option<bool>>> = worker_acc
            .iter()
            .map(|acc| {
                truth
                    .iter()
                    .map(|t| Some(if rng.random_bool(*acc) { *t } else { !*t }))
                    .collect()
            })
            .collect();
        let result = dawid_skene(&votes, 50);
        // Labels should beat the worst worker and approach the best.
        let labels = result.labels();
        let correct = labels.iter().zip(&truth).filter(|(a, b)| a == b).count();
        let acc = correct as f64 / n_items as f64;
        assert!(acc > 0.9, "EM accuracy {acc}");
        // Worker quality ordering recovered.
        assert!(result.worker_accuracy[0] > result.worker_accuracy[1]);
        assert!(result.worker_accuracy[1] > result.worker_accuracy[2]);
    }

    #[test]
    fn calibrate_threshold_finds_separating_point() {
        // Scores cleanly separate at 0.5.
        let scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1];
        let gold = [true, true, true, false, false, false];
        let (t, f1) = calibrate_threshold(&scores, &gold).unwrap();
        assert!((0.3..=0.7).contains(&t), "threshold {t}");
        assert!((f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibrate_threshold_trades_precision_for_recall() {
        // A biased scorer: positives all score >= 0.4, negatives up to 0.5.
        let scores = [0.9, 0.6, 0.45, 0.4, 0.5, 0.3, 0.2, 0.1];
        let gold = [true, true, true, true, false, false, false, false];
        let (t, f1) = calibrate_threshold(&scores, &gold).unwrap();
        // Best F1 keeps all positives at the cost of one false positive
        // (t <= 0.4) or drops one positive (t > 0.45): F1(0.4) = 8/9 beats
        // F1(0.6)=0.857 and F1(0.45)=0.857... the sweep should find 8/9.
        assert!((f1 - 8.0 / 9.0).abs() < 1e-9, "f1 {f1}");
        assert!(t <= 0.4 + 1e-12, "threshold {t}");
    }

    #[test]
    fn calibrate_threshold_degenerate_inputs() {
        assert_eq!(calibrate_threshold(&[], &[]), None);
        assert_eq!(calibrate_threshold(&[0.5, 0.5], &[false, false]), None);
    }

    #[test]
    fn dawid_skene_handles_missing_votes_and_empty() {
        let votes: Vec<Vec<Option<bool>>> = vec![
            vec![Some(true), None, Some(false)],
            vec![Some(true), Some(true), None],
        ];
        let r = dawid_skene(&votes, 20);
        assert_eq!(r.posteriors.len(), 3);
        assert!(r.posteriors[0] > 0.5);

        let empty: Vec<Vec<Option<bool>>> = Vec::new();
        let r = dawid_skene(&empty, 5);
        assert!(r.posteriors.is_empty());
        assert!(r.worker_accuracy.is_empty());
    }
}
