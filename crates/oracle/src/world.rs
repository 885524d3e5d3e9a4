//! The latent world model: ground truth the simulator answers from.
//!
//! In a crowdsourcing simulation, a "worker" is modelled as ground truth plus
//! noise. The [`WorldModel`] is that ground truth: latent scalar scores,
//! lexicographic keys, entity cluster ids, true attribute values, and
//! predicate truth. **Only** the simulator and the metrics layer may consult
//! it; the declarative engine sees item texts alone, exactly as a production
//! system would.

use std::collections::HashMap;

/// Opaque identifier of a data item (record, snippet, entity mention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u64);

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// Latent ground truth registry.
///
/// Built once by a dataset generator and then shared (behind `Arc`) with the
/// simulated model. All lookups are by [`ItemId`].
#[derive(Debug, Default, Clone)]
pub struct WorldModel {
    texts: HashMap<ItemId, String>,
    scores: HashMap<ItemId, f64>,
    sort_keys: HashMap<ItemId, String>,
    clusters: HashMap<ItemId, u64>,
    /// Attribute name → item → true value. Keyed by name first so that a
    /// lookup borrows the caller's `&str` instead of building a key.
    attrs: HashMap<String, HashMap<ItemId, String>>,
    /// Predicate name → item → truth, keyed as `attrs`.
    flags: HashMap<String, HashMap<ItemId, bool>>,
    /// How much surface evidence of the latent score the text carries, in
    /// `[0, 1]`. Items with high salience (e.g. "chocolate" in the flavor
    /// name) are sorted confidently even by a coarse single-prompt task;
    /// low-salience items are where the oracle guesses.
    salience: HashMap<ItemId, f64>,
    next_id: u64,
}

impl WorldModel {
    /// An empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new item with the given display text, returning its id.
    pub fn add_item(&mut self, text: impl Into<String>) -> ItemId {
        let id = ItemId(self.next_id);
        self.next_id += 1;
        self.texts.insert(id, text.into());
        id
    }

    /// Number of registered items.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the world has no items.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Set the latent scalar score of an item (higher ranks first).
    pub fn set_score(&mut self, id: ItemId, score: f64) {
        self.scores.insert(id, score);
    }

    /// Set the lexicographic sort key of an item.
    pub fn set_sort_key(&mut self, id: ItemId, key: impl Into<String>) {
        self.sort_keys.insert(id, key.into());
    }

    /// Set the true entity cluster of an item.
    pub fn set_cluster(&mut self, id: ItemId, cluster: u64) {
        self.clusters.insert(id, cluster);
    }

    /// Set the true value of a named attribute of an item.
    pub fn set_attr(&mut self, id: ItemId, attr: impl Into<String>, value: impl Into<String>) {
        self.attrs
            .entry(attr.into())
            .or_default()
            .insert(id, value.into());
    }

    /// Set the truth of a named predicate for an item.
    pub fn set_flag(&mut self, id: ItemId, predicate: impl Into<String>, value: bool) {
        self.flags
            .entry(predicate.into())
            .or_default()
            .insert(id, value);
    }

    /// Set the surface salience of an item's latent score (clamped to
    /// `[0, 1]`).
    pub fn set_salience(&mut self, id: ItemId, salience: f64) {
        self.salience.insert(id, salience.clamp(0.0, 1.0));
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Display text of the item.
    pub fn text(&self, id: ItemId) -> Option<&str> {
        self.texts.get(&id).map(String::as_str)
    }

    /// Latent score, if registered.
    pub fn score(&self, id: ItemId) -> Option<f64> {
        self.scores.get(&id).copied()
    }

    /// Lexicographic sort key, if registered.
    pub(crate) fn sort_key(&self, id: ItemId) -> Option<&str> {
        self.sort_keys.get(&id).map(String::as_str)
    }

    /// True entity cluster, if registered.
    pub fn cluster(&self, id: ItemId) -> Option<u64> {
        self.clusters.get(&id).copied()
    }

    /// True attribute value, if registered.
    pub fn attr(&self, id: ItemId, attr: &str) -> Option<&str> {
        self.attrs.get(attr)?.get(&id).map(String::as_str)
    }

    /// Predicate truth, if registered.
    pub fn flag(&self, id: ItemId, predicate: &str) -> Option<bool> {
        self.flags.get(predicate)?.get(&id).copied()
    }

    /// Every attribute's distinct registered values, sorted, in one pass.
    ///
    /// The simulator keeps these as the answer pools it draws from when it
    /// imputes a value incorrectly (a wrong-but-plausible value, like a real
    /// model would).
    pub(crate) fn attr_domains(&self) -> HashMap<String, Vec<String>> {
        self.attrs
            .iter()
            .map(|(attr, values)| {
                let mut values: Vec<&str> = values.values().map(String::as_str).collect();
                values.sort_unstable();
                values.dedup();
                let values = values.into_iter().map(str::to_owned).collect();
                (attr.clone(), values)
            })
            .collect()
    }

    /// All distinct registered values of the named attribute, sorted: the
    /// scan [`WorldModel::attr_domains`] does once for every attribute.
    #[cfg(test)]
    pub(crate) fn values_of_attr(&self, attr: &str) -> Vec<&str> {
        let mut vals: Vec<&str> = self
            .attrs
            .get(attr)
            .into_iter()
            .flat_map(HashMap::values)
            .map(String::as_str)
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// Surface salience in `[0,1]`; defaults to `0.5` when unregistered.
    ///
    /// ```
    /// use crowdprompt_oracle::world::WorldModel;
    ///
    /// let mut world = WorldModel::new();
    /// let (plain, loud) = (world.add_item("vanilla"), world.add_item("triple chocolate"));
    /// world.set_salience(loud, 0.95);
    /// assert_eq!(world.salience_of(plain), 0.5);
    /// assert_eq!(world.salience_of(loud), 0.95);
    /// ```
    pub fn salience_of(&self, id: ItemId) -> f64 {
        self.salience.get(&id).copied().unwrap_or(0.5)
    }

    /// Whether two items belong to the same true entity cluster.
    ///
    /// Returns `None` if either item has no registered cluster.
    pub fn same_cluster(&self, a: ItemId, b: ItemId) -> Option<bool> {
        Some(self.cluster(a)? == self.cluster(b)?)
    }

    /// The gold ranking of the given items under the latent score
    /// (descending; ties broken by id for determinism).
    pub fn gold_ranking_by_score(&self, items: &[ItemId]) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items.to_vec();
        v.sort_by(|a, b| {
            let sa = self.score(*a).unwrap_or(f64::NEG_INFINITY);
            let sb = self.score(*b).unwrap_or(f64::NEG_INFINITY);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        v
    }

    /// The gold ranking of the given items under the lexicographic key
    /// (ascending; ties broken by id).
    pub fn gold_ranking_by_key(&self, items: &[ItemId]) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items.to_vec();
        v.sort_by(|a, b| {
            let ka = self.sort_key(*a).unwrap_or("");
            let kb = self.sort_key(*b).unwrap_or("");
            ka.cmp(kb).then(a.cmp(b))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut w = WorldModel::new();
        let a = w.add_item("chocolate fudge");
        let b = w.add_item("lemon sorbet");
        assert_ne!(a, b);
        assert_eq!(w.len(), 2);
        assert_eq!(w.text(a), Some("chocolate fudge"));

        w.set_score(a, 0.95);
        w.set_score(b, 0.02);
        assert_eq!(w.score(a), Some(0.95));
        assert_eq!(w.gold_ranking_by_score(&[b, a]), vec![a, b]);
    }

    #[test]
    fn lexicographic_gold_ranking() {
        let mut w = WorldModel::new();
        let z = w.add_item("zebra");
        let a = w.add_item("apple");
        w.set_sort_key(z, "zebra");
        w.set_sort_key(a, "apple");
        assert_eq!(w.gold_ranking_by_key(&[z, a]), vec![a, z]);
    }

    #[test]
    fn clusters_and_same_cluster() {
        let mut w = WorldModel::new();
        let a = w.add_item("cite A");
        let b = w.add_item("cite A'");
        let c = w.add_item("cite C");
        w.set_cluster(a, 1);
        w.set_cluster(b, 1);
        w.set_cluster(c, 2);
        assert_eq!(w.same_cluster(a, b), Some(true));
        assert_eq!(w.same_cluster(a, c), Some(false));
        let d = w.add_item("unclustered");
        assert_eq!(w.same_cluster(a, d), None);
    }

    #[test]
    fn attrs_and_flags() {
        let mut w = WorldModel::new();
        let a = w.add_item("record");
        w.set_attr(a, "city", "berkeley");
        w.set_flag(a, "is_positive", true);
        assert_eq!(w.attr(a, "city"), Some("berkeley"));
        assert_eq!(w.attr(a, "state"), None);
        assert_eq!(w.flag(a, "is_positive"), Some(true));
        assert_eq!(w.flag(a, "other"), None);
    }

    #[test]
    fn salience_defaults_and_clamps() {
        let mut w = WorldModel::new();
        let a = w.add_item("x");
        assert_eq!(w.salience_of(a), 0.5);
        w.set_salience(a, 7.0);
        assert_eq!(w.salience_of(a), 1.0);
        w.set_salience(a, -1.0);
        assert_eq!(w.salience_of(a), 0.0);
    }
}
