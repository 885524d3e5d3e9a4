//! Evaluation metrics and reporting for `crowdprompt` experiments.
//!
//! * [`rank`] — Kendall tau-β (the paper's ranking metric).
//! * [`classify`] — precision / recall / F1 / accuracy and confusion counts
//!   for the entity-resolution and imputation studies.
//! * [`report`] — plain-text and markdown table rendering for the
//!   paper-vs-measured harnesses.
//! * [`stats`] — multi-trial summary statistics (mean, sd, bootstrap CIs).

#![warn(missing_docs)]

pub mod classify;
pub mod rank;
pub mod report;
pub mod stats;

pub use classify::{accuracy, BinaryConfusion};
pub use rank::{kendall_tau_b, kendall_tau_b_rankings};
pub use report::Table;
