//! Persistent batch-scoring executor.
//!
//! The seed CPU backends spawned scoped threads on every `score()` call and
//! split rows into static `div_ceil` chunks. This crate replaces that with
//! a process-wide, spawn-once [`ExecPool`]: a work-stealing pool whose
//! workers park between calls, claim row ranges in cache-sized blocks from
//! per-worker deques, and steal half of a victim's remaining range when
//! their own deque runs dry. On top of the pool sit two kernels, one per
//! forest representation the paper's CPU libraries score:
//!
//! * [`kernel::score_forest_batch`] walks SKLearn-style pointer trees in
//!   blocked record×tree tiles;
//! * [`score_simd_batch`] is ONNX's side: lowering encodes the trees once
//!   into a [`FlatImage`], an implicit-heap image with no child pointers,
//!   and an explicit-SIMD lane walker scores it at the host's
//!   [`SimdLevel`]. Rows past the last full lane group take a one-lane
//!   step over the same image. [`score_auto_batch`] runs it at the
//!   detected tier, for a whole frame or for one chunk of the fused path
//!   (the chunk loop itself is `ScoringBackend::score_prepared_stream`'s,
//!   in `mlscore-backend`).
//!
//! Both keep per-thread reusable vote scratch and are bit-exact against
//! the sequential `predict_one` / Fig. 4b `FlatForest::score_one` paths: vote
//! counts are commutative integer adds, and regression sums accumulate in
//! ascending tree order — the same floating-point fold the sequential
//! path performs.
//!
//! # Example
//!
//! ```
//! use mlscore_data::Dataset;
//! use mlscore_exec::{score_auto_batch, ExecPool, FlatImage, RunConfig};
//! use mlscore_forest::{ForestConfig, RandomForest};
//!
//! let forest = RandomForest::synthetic_full(
//!     &ForestConfig::classification(8, 4, 3).with_depth(6),
//!     11,
//! );
//! let image = FlatImage::from_forest(&forest, 6).unwrap();
//! let data = Dataset::iris(200, 3).normalized();
//! let cfg = RunConfig::for_threads(4);
//! let (preds, report, _) = score_auto_batch(&image, data.frame(), ExecPool::global(), &cfg);
//! assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
//! assert_eq!(report.rows(), 200);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod kernel_simd;
pub mod pool;
pub mod report;

pub use kernel::score_forest_batch;
pub use kernel_simd::{
    score_auto_batch, score_simd_batch, FlatImage, Kernel, KernelChoice, SimdLevel,
};
pub use pool::{ExecPool, RunConfig};
pub use report::{RunReport, WorkerReport};
