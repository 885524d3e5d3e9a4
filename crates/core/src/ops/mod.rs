//! Declarative operators, each with multiple strategies along the
//! cost/accuracy trade-off (paper §3).

pub(crate) mod bill;
pub mod categorize;
pub mod cluster;
pub mod count;
pub mod filter;
pub mod impute;
pub mod join;
pub(crate) mod judge;
pub mod max;
pub mod resolve;
pub mod sort;
pub mod topk;

pub use categorize::categorize;
pub use cluster::cluster;
pub use count::{count, CountStrategy};
pub use filter::{filter, FilterStrategy};
pub use impute::{impute, ImputeStrategy, LabeledPool};
pub use join::{fuzzy_join, JoinResult, JoinStrategy};
pub use max::{find_max, MaxStrategy};
pub use resolve::{resolve_pairs, ResolveStrategy};
pub use sort::{sort, SortResult, SortStrategy};
pub use topk::top_k;
