//! LLM-trained proxy models (§3.4): "given LLMs can synthesize programs,
//! one could use the LLM to … train a model given the specific task … the
//! low-cost model can be used by default, and for the cases where there is
//! uncertainty (as deemed by model confidence scores), we can leverage the
//! LLM."
//!
//! Concretely (after Gokhale et al. and Marcus et al.): spend LLM budget
//! labelling a *sample*, fit a free nearest-centroid classifier over hashed
//! n-gram embeddings of those labels, then classify the remaining items
//! with the proxy wherever its confidence clears a threshold — paying for
//! the LLM only on the uncertain remainder. This module is the classifier;
//! the dispatching half is
//! [`FilterStrategy::ProxyGated`](crate::ops::filter::FilterStrategy::ProxyGated).

use crowdprompt_embed::{cosine_similarity, Embedder, NgramEmbedder};

/// A trained nearest-centroid text classifier with a confidence score.
pub(crate) struct ProxyModel {
    embedder: NgramEmbedder,
    positive_centroid: Vec<f32>,
    negative_centroid: Vec<f32>,
}

impl ProxyModel {
    /// Fit the classifier to `(text, label)` pairs. `None` when the labels
    /// are one-sided: there is no decision boundary to learn.
    pub(crate) fn fit<'a>(labelled: impl IntoIterator<Item = (&'a str, bool)>) -> Option<Self> {
        let embedder = NgramEmbedder::ada_like();
        let dims = embedder.dimensions();
        let mut positive_centroid = vec![0.0f32; dims];
        let mut negative_centroid = vec![0.0f32; dims];
        let (mut n_pos, mut n_neg) = (0usize, 0usize);
        for (text, label) in labelled {
            let (centroid, n) = if label {
                (&mut positive_centroid, &mut n_pos)
            } else {
                (&mut negative_centroid, &mut n_neg)
            };
            for (c, x) in centroid.iter_mut().zip(&embedder.embed(text)) {
                *c += x;
            }
            *n += 1;
        }
        if n_pos == 0 || n_neg == 0 {
            return None;
        }
        for c in positive_centroid.iter_mut() {
            *c /= n_pos as f32;
        }
        for c in negative_centroid.iter_mut() {
            *c /= n_neg as f32;
        }
        Some(ProxyModel {
            embedder,
            positive_centroid,
            negative_centroid,
        })
    }

    /// Classify a text: `(prediction, confidence in [0, 1])`.
    ///
    /// Confidence is the absolute similarity margin between the two class
    /// centroids — 0 at the decision boundary, approaching 1 for texts that
    /// resemble exactly one class.
    pub(crate) fn classify(&self, text: &str) -> (bool, f64) {
        let v = self.embedder.embed(text);
        let pos = cosine_similarity(&v, &self.positive_centroid);
        let neg = cosine_similarity(&v, &self.negative_centroid);
        let margin = f64::from(pos - neg);
        (margin >= 0.0, margin.abs().min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_proxy_separates_classes() {
        let text = |i: usize| {
            if i.is_multiple_of(2) {
                format!("win a free prize now, claim your exclusive reward bonus {i}")
            } else {
                format!("quarterly maintenance report for facility section {i}")
            }
        };
        let texts: Vec<String> = (0..60).map(text).collect();
        let proxy = ProxyModel::fit(
            texts[..20]
                .iter()
                .enumerate()
                .map(|(i, t)| (t.as_str(), i % 2 == 0)),
        )
        .expect("both classes labelled");
        // The proxy classifies unseen items correctly and confidently.
        for (i, t) in texts.iter().enumerate().skip(20) {
            let (pred, conf) = proxy.classify(t);
            assert_eq!(pred, i % 2 == 0, "separable classes classify perfectly");
            assert!(conf > 0.0);
        }
    }

    #[test]
    fn one_sided_labels_fit_nothing() {
        assert!(ProxyModel::fit([("a", true), ("b", true)]).is_none());
        assert!(ProxyModel::fit(std::iter::empty()).is_none());
    }
}
