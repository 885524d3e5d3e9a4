//! What a strategy asks of the model — the one description its call count
//! and its dollar estimate are both read from.
//!
//! Every strategy states a `bill(rows, …)` next to its run code: an ordered
//! list of [`Line`]s, each "this many calls of this prompt shape". The
//! planner's estimator ([`crate::plan::estimate`]) prices a shape by
//! rendering a representative of it and folds the lines; it knows no
//! strategy, so a node's calls and dollars cannot describe different work.

use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;

/// One prompt shape, with what rendering a representative of it needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ask {
    /// One pairwise comparison.
    Compare { criterion: SortCriterion },
    /// `pairs` comparisons in one prompt.
    CompareBatch {
        criterion: SortCriterion,
        pairs: usize,
    },
    /// One item rated on `1..=scale_max`.
    Rate {
        criterion: SortCriterion,
        scale_max: u8,
    },
    /// One prompt sorting a list of `len` items.
    SortList {
        criterion: SortCriterion,
        len: usize,
    },
    /// One item checked against a predicate.
    Check { predicate: String },
    /// One item classified into `labels`.
    Classify { labels: Vec<String> },
    /// One record's attribute imputed with few-shot `examples`.
    Impute {
        attribute: String,
        examples: Vec<(ItemId, String)>,
    },
    /// One prompt eyeballing how many of `len` items satisfy a predicate.
    EyeballCount { predicate: String, len: usize },
    /// One same-entity question about a pair.
    SameEntity,
    /// One prompt grouping `len` items into entities.
    Group { len: usize },
}

impl Ask {
    pub(crate) fn check(predicate: &str) -> Self {
        Ask::Check {
            predicate: predicate.to_owned(),
        }
    }
}

/// `calls` prompts of one shape.
#[derive(Debug)]
pub(crate) struct Line {
    pub(crate) calls: u64,
    pub(crate) ask: Ask,
    /// `Some(width)`: each call packs `width` point-wise asks into one
    /// multi-item prompt.
    pub(crate) packed: Option<usize>,
    /// `Some(len)`: the calls verify candidates drawn from a blocking index
    /// over `len` items, so an approximate index thins them (the estimator
    /// applies the recall discount).
    pub(crate) blocked_on: Option<usize>,
}

impl Line {
    pub(crate) fn new(calls: usize, ask: Ask) -> Self {
        Line {
            calls: calls as u64,
            ask,
            packed: None,
            blocked_on: None,
        }
    }

    /// At `pack > 1` each call is a packed multi-item prompt; one never
    /// holds more items than the `rows` reaching the node.
    pub(crate) fn packed(mut self, pack: usize, rows: usize) -> Self {
        if pack > 1 {
            self.packed = Some(pack.min(rows.max(1)));
        }
        self
    }

    pub(crate) fn blocked_on(mut self, indexed: usize) -> Self {
        self.blocked_on = Some(indexed);
        self
    }
}

/// All `n(n-1)/2` unordered pairs of `n` items.
pub(crate) fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}
