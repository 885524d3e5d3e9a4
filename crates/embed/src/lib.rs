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
//! The search side is built for batch blocking workloads: vectors live in
//! flat contiguous storage ([`VectorStore`]), every candidate costs one
//! fused dot product ([`knn`] module docs), top-k is a bounded heap, and
//! every index answers one question — `search(queries, k)` over a batch of
//! [`Queries`] (rows of its own store, or free vectors in one flat buffer)
//! — partitioned across threads. [`KnnIndex::build`] picks the exact scan
//! or the approximate IVF tier per corpus shape and recall target.

#![warn(missing_docs)]

pub mod hashing;
pub mod ivf;
pub mod knn;
mod parallel;
pub mod quant;
pub mod store;
pub mod vector;

pub use hashing::{embed_all_flat_with_workers, Embedder, NgramEmbedder};
pub use ivf::{IvfIndex, IvfParams};
pub use knn::{
    predict_auto_kind, BruteForceIndex, KnnIndex, Metric, Neighbor, Queries, AUTO_IVF_MIN_DIMS,
    AUTO_IVF_MIN_LEN, DEFAULT_RECALL_TARGET,
};
pub use quant::{approx_l2_sq, quantize_into, QuantMeta, QuantizedBlock, ScanQuery, ScanTerms};
pub use store::VectorStore;
pub use vector::{
    cosine_similarity, dot, dot_u8, dot_u8_many, dot_unrolled, l2_distance, normalize,
};
