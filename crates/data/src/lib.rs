//! Seeded dataset generators with latent ground truth.
//!
//! Each generator builds (a) the item texts the declarative engine sees,
//! (b) a [`crowdprompt_oracle::WorldModel`] holding the latent facts the
//! simulated LLM answers from, and (c) gold labels for scoring. The four
//! families map one-to-one onto the paper's case studies:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`flavors`] | Table 1 — 20 ice-cream flavors ranked by chocolateyness |
//! | [`words`] | Table 2 — 100 dictionary words sorted alphabetically |
//! | [`citations`] | Table 3 — DBLP–Google-Scholar-style citation pairs |
//! | [`products`] | Table 4 — Restaurants & Buy imputation datasets |
//! | [`reviews`] | sentiment snippets (the paper's §2 running example) |

#![warn(missing_docs)]

pub mod citations;
pub mod flavors;
pub mod products;
mod record;
pub mod reviews;
pub mod splits;
mod wordlist;
pub mod words;

pub use citations::{CitationDataset, CitationParams};
pub use flavors::FlavorDataset;
pub use products::{buy, restaurants, ProductDataset};
pub use reviews::ReviewsDataset;
pub use words::WordsDataset;
