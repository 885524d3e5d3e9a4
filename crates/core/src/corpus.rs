//! The corpus: the *public* text of every item an engine may operate on.
//!
//! Architectural boundary: dataset generators produce a
//! [`crowdprompt_oracle::WorldModel`] whose latent facts only the simulator
//! and metrics may read. Item *texts*, by contrast, are what a production
//! system would actually hold — so they are copied out into a [`Corpus`]
//! and that is all the engine ever sees.

use std::collections::HashMap;
use std::sync::Arc;

use crowdprompt_oracle::hash::prompt_hash;
use crowdprompt_oracle::world::{ItemId, WorldModel};

/// Item texts addressable by [`ItemId`].
///
/// The map is shared: cloning a corpus bumps a reference count, and the
/// first insert into a shared corpus copies it. Each text is fingerprinted
/// once, where it enters the corpus, for the task keys an engine probes
/// its cache by (`Engine::task_key`): a prompt is a function of its task
/// and the texts it names, so a key made of their fingerprints is known
/// before the prompt is rendered.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    texts: Arc<HashMap<ItemId, Text>>,
}

/// One item's text and its fingerprint (`hash::prompt_hash` of its bytes):
/// 24 bytes, a `String`'s size, so the map's entries are no larger for the
/// fingerprint (a large corpus's map is most of its memory).
#[derive(Debug, Clone)]
struct Text {
    text: Box<str>,
    key: u64,
}

const _: () = assert!(std::mem::size_of::<Text>() == std::mem::size_of::<String>());

impl Text {
    fn new(text: String) -> Text {
        let key = prompt_hash(text.as_bytes());
        Text {
            text: text.into_boxed_str(),
            key,
        }
    }
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy the texts of `items` out of a world model.
    ///
    /// # Panics
    /// Panics if an item has no registered text.
    pub fn from_world(world: &WorldModel, items: &[ItemId]) -> Self {
        let mut texts = HashMap::with_capacity(items.len());
        for &id in items {
            let text = world
                .text(id)
                .unwrap_or_else(|| panic!("item {id} has no text in the world model"));
            texts.insert(id, Text::new(text.to_owned()));
        }
        Corpus {
            texts: Arc::new(texts),
        }
    }

    /// Insert (or replace) one item's text.
    pub fn insert(&mut self, id: ItemId, text: impl Into<String>) {
        Arc::make_mut(&mut self.texts).insert(id, Text::new(text.into()));
    }

    /// The text of an item, if present.
    pub fn text(&self, id: ItemId) -> Option<&str> {
        self.texts.get(&id).map(|t| &*t.text)
    }

    /// The fingerprint of an item's text, if present: `hash::prompt_hash`
    /// of its bytes, computed when the text entered the corpus.
    pub(crate) fn text_key(&self, id: ItemId) -> Option<u64> {
        self.texts.get(&id).map(|t| t.key)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Whether the corpus knows this item.
    pub fn contains(&self, id: ItemId) -> bool {
        self.texts.contains_key(&id)
    }

    /// All item ids, sorted for determinism.
    pub fn ids(&self) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = self.texts.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Each text among `items` mapped to the smallest of them holding it:
    /// how the lines of a list answer are matched back to the items the
    /// request named, never to an item outside it.
    pub(crate) fn by_text(&self, items: &[ItemId]) -> HashMap<&str, ItemId> {
        let mut by_text: HashMap<&str, ItemId> = HashMap::with_capacity(items.len());
        for &id in items {
            if let Some(text) = self.text(id) {
                by_text
                    .entry(text)
                    .and_modify(|held| *held = (*held).min(id))
                    .or_insert(id);
            }
        }
        by_text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_world_copies_texts() {
        let mut w = WorldModel::new();
        let a = w.add_item("alpha");
        let b = w.add_item("beta");
        w.set_score(a, 1.0); // latent — must not be visible via corpus
        let c = Corpus::from_world(&w, &[a, b]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.text(a), Some("alpha"));
        assert_eq!(c.text(b), Some("beta"));
        assert!(c.contains(a));
    }

    #[test]
    fn inserting_into_a_clone_leaves_the_original_untouched() {
        let mut original = Corpus::new();
        original.insert(ItemId(1), "alpha");
        let mut copy = original.clone();
        copy.insert(ItemId(1), "changed");
        copy.insert(ItemId(2), "beta");
        assert_eq!(original.text(ItemId(1)), Some("alpha"));
        assert!(!original.contains(ItemId(2)));
        assert_eq!(original.len(), 1);
        assert_eq!(copy.text(ItemId(1)), Some("changed"));
        assert_eq!(copy.len(), 2);
    }

    #[test]
    fn by_text_keeps_the_smallest_requested_id() {
        let mut c = Corpus::new();
        c.insert(ItemId(1), "dup");
        c.insert(ItemId(5), "dup");
        c.insert(ItemId(2), "dup");
        c.insert(ItemId(9), "other");
        let by_text = c.by_text(&[ItemId(5), ItemId(9), ItemId(2), ItemId(7)]);
        assert_eq!(by_text.len(), 2);
        assert_eq!(by_text["dup"], ItemId(2));
        assert_eq!(by_text["other"], ItemId(9));
    }

    #[test]
    fn a_texts_key_is_its_prompt_hash_however_it_entered() {
        let mut w = WorldModel::new();
        let a = w.add_item("alpha");
        let mut c = Corpus::from_world(&w, &[a]);
        c.insert(ItemId(7), "beta");
        assert_eq!(c.text_key(a), Some(prompt_hash(b"alpha")));
        assert_eq!(c.text_key(ItemId(7)), Some(prompt_hash(b"beta")));
        c.insert(ItemId(7), "betb");
        assert_eq!(c.text_key(ItemId(7)), Some(prompt_hash(b"betb")));
        assert_eq!(c.text_key(ItemId(8)), None);
    }

    #[test]
    fn ids_sorted() {
        let mut c = Corpus::new();
        c.insert(ItemId(3), "x");
        c.insert(ItemId(1), "y");
        assert_eq!(c.ids(), vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    #[should_panic(expected = "has no text")]
    fn missing_text_panics() {
        let w = WorldModel::new();
        Corpus::from_world(&w, &[ItemId(99)]);
    }
}
