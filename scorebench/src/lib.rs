//! Real-clock end-to-end scoring benchmark for `mlscore`.
//!
//! Three workloads drive the real scoring path through its public entry
//! points: `csv_bulk` and `columnar_bulk` stream 100k records through
//! `QueryPipeline::execute_fused`, and `point_mix` sends small
//! `QueryPipeline::execute` queries against a catalog larger than the
//! artifact cache. Every prediction is checked bit-exact against
//! `RandomForest::predict_batch`. A separate traced run breaks each query
//! down by layer. See `README.md` beside this crate for the workloads,
//! metrics and how to run them.

pub mod gen;
pub mod host;
pub mod run;
pub mod stats;
pub mod trace;
