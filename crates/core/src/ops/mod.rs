//! Declarative operators, each with multiple strategies along the
//! cost/accuracy trade-off (paper §3). An operator runs through
//! [`crate::plan::Query`]; its module here exports its strategy and result
//! types.

pub(crate) mod bill;
pub(crate) mod categorize;
pub(crate) mod cluster;
pub mod count;
pub mod filter;
pub mod impute;
pub mod join;
pub(crate) mod judge;
pub mod max;
pub mod resolve;
pub mod sort;
pub(crate) mod topk;
