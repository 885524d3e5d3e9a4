//! Deterministic text embeddings and nearest-neighbor search.
//!
//! Stand-in for the paper's use of `text-embedding-ada-002`: the entity
//! resolution study (Table 3) embeds each citation and expands every
//! validation pair with its k nearest neighbors in embedding space; the
//! imputation study (Table 4) finds a record's k most similar peers.
//!
//! The embedder here hashes character n-grams and word unigrams into a fixed
//! number of dimensions. This has the one property the experiments rely on:
//! *surface-similar strings land close together*, deterministically, with no
//! model weights to ship.
//!
//! The search side is built for batch blocking workloads and has one
//! index, the exact [`BruteForceIndex`]: vectors live in flat contiguous
//! storage ([`VectorStore`]), a candidate's key costs one fused dot
//! product, the tiled scan rules most candidates out on 8-bit codes before
//! paying it ([`knn`] module docs), and top-k is a bounded heap. The index
//! answers one question — `search(queries, k)` over a batch of [`Queries`]
//! (rows of its own store, or free vectors in one flat buffer) —
//! partitioned across threads.

#![warn(missing_docs)]

mod filter;
pub mod hashing;
pub mod knn;
mod parallel;
mod quant;
pub mod store;
pub mod vector;

pub use hashing::{embed_all_flat_with_workers, Embedder, NgramEmbedder};
pub use knn::{BruteForceIndex, Metric, Neighbor, Queries};
pub use store::VectorStore;
pub use vector::{cosine_similarity, dot_unrolled};
