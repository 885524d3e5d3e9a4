//! Summary statistics for multi-trial experiment rows.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Arithmetic mean; 0 for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
pub(crate) fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Seeded bootstrap percentile confidence interval for the mean.
///
/// Returns `(low, high)` at the given confidence level (e.g. `0.95`);
/// degenerate inputs collapse to `(mean, mean)`. The interval a
/// multi-seed table row reports beside its mean:
///
/// ```
/// use crowdprompt_metrics::stats::{bootstrap_ci, mean};
///
/// // Kendall tau-β of one strategy over seven seeds.
/// let taus = [0.50, 0.52, 0.49, 0.51, 0.50, 0.52, 0.48];
/// let (lo, hi) = bootstrap_ci(&taus, 0.95, 2000, 7);
/// assert!(lo <= mean(&taus) && mean(&taus) <= hi);
/// assert_eq!((lo, hi), bootstrap_ci(&taus, 0.95, 2000, 7), "seeded");
/// ```
pub fn bootstrap_ci(values: &[f64], confidence: f64, resamples: usize, seed: u64) -> (f64, f64) {
    if values.len() < 2 || resamples == 0 {
        let m = mean(values);
        return (m, m);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let total: f64 = (0..values.len())
                .map(|_| values[rng.random_range(0..values.len())])
                .sum();
            total / values.len() as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let alpha = (1.0 - confidence.clamp(0.0, 1.0)) / 2.0;
    let lo_idx = ((means.len() as f64 * alpha) as usize).min(means.len() - 1);
    let hi_idx = ((means.len() as f64 * (1.0 - alpha)) as usize).min(means.len() - 1);
    (means[lo_idx], means[hi_idx])
}

/// Format `mean ± sd` with the given precision.
pub fn fmt_mean_sd(values: &[f64], places: usize) -> String {
    format!("{:.places$} ± {:.places$}", mean(values), std_dev(values),)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_sd_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_contains_mean_for_tight_data() {
        let values = [0.50, 0.52, 0.49, 0.51, 0.50, 0.52, 0.48];
        let (lo, hi) = bootstrap_ci(&values, 0.95, 2000, 7);
        let m = mean(&values);
        assert!(lo <= m && m <= hi, "[{lo}, {hi}] should contain {m}");
        assert!(hi - lo < 0.05, "tight data gives a tight interval");
    }

    #[test]
    fn bootstrap_widens_with_spread() {
        let tight = [0.5, 0.51, 0.49, 0.5];
        let wide = [0.1, 0.9, 0.2, 0.8];
        let (tl, th) = bootstrap_ci(&tight, 0.95, 1000, 1);
        let (wl, wh) = bootstrap_ci(&wide, 0.95, 1000, 1);
        assert!(wh - wl > th - tl);
    }

    #[test]
    fn bootstrap_deterministic_per_seed() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            bootstrap_ci(&values, 0.9, 500, 42),
            bootstrap_ci(&values, 0.9, 500, 42)
        );
    }

    #[test]
    fn degenerate_inputs_collapse() {
        assert_eq!(bootstrap_ci(&[3.0], 0.95, 100, 1), (3.0, 3.0));
        assert_eq!(bootstrap_ci(&[], 0.95, 100, 1), (0.0, 0.0));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_mean_sd(&[1.0, 3.0], 1), "2.0 ± 1.4");
    }
}
