//! Tiny random-distribution helpers (keeps the dependency set to `rand`).

use rand::Rng;

/// Sample a standard normal via the Marsaglia polar method.
pub(crate) fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random_range(-1.0..1.0);
        let v: f64 = rng.random_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Sample a normal with the given mean and standard deviation.
pub(crate) fn gauss_with<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return mean;
    }
    mean + gauss(rng) * sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gauss_moments_are_sane() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gauss_with_zero_sigma_is_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(gauss_with(&mut rng, 3.5, 0.0), 3.5);
        assert_eq!(gauss_with(&mut rng, 3.5, -1.0), 3.5);
    }

    #[test]
    fn gauss_with_scales() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| gauss_with(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }
}
