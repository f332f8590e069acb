//! Tier equivalence: the explicit-SIMD lane walker at every tier the host
//! supports must be bit-exact with the sequential pointer-tree reference —
//! over the paper's dataset shapes (iris-like and HIGGS-like), forest
//! sizes {1, 8, 128}, full and leaf-capped (trained-looking) trees,
//! batch-edge record counts {0, 1, odd, LANES±1}, and multiple pool
//! widths.

use std::sync::OnceLock;

use proptest::prelude::*;

use mlscore_data::{Dataset, TabularFrame};
use mlscore_exec::{kernel, score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel};
use mlscore_forest::{ForestConfig, Predictions, RandomForest};

/// Pool widths: serial, small, and wider than any sweep batch shard.
const THREADS: [usize; 3] = [1, 4, 13];

/// One pool per width, spawned once for the whole test binary.
fn pools() -> &'static [ExecPool] {
    static POOLS: OnceLock<Vec<ExecPool>> = OnceLock::new();
    POOLS.get_or_init(|| THREADS.into_iter().map(ExecPool::new).collect())
}

/// Every SIMD tier the host can actually run, weakest first.
fn levels() -> Vec<SimdLevel> {
    [
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ]
    .into_iter()
    .filter(|&l| l <= SimdLevel::supported())
    .collect()
}

/// Predictions as raw bits so regression outputs compare exactly.
fn bits(preds: &Predictions) -> Vec<u32> {
    match preds {
        Predictions::Classes(c) => c.clone(),
        Predictions::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
    }
}

/// A frame in one of the paper's two shapes; `rows` may be zero.
fn shaped_frame(dataset: &str, rows: usize) -> TabularFrame {
    let n_features = if dataset == "iris" { 4 } else { 28 };
    if rows == 0 {
        return TabularFrame::from_rows(vec![], n_features).unwrap();
    }
    let data = if dataset == "iris" {
        Dataset::iris(rows, 3).normalized()
    } else {
        Dataset::higgs(rows, 3).normalized()
    };
    data.frame().clone()
}

/// Runs the walker on `(forest, frame)` at every tier and pool width and
/// asserts each run reproduces the sequential reference bit for bit.
fn assert_all_tiers_exact(forest: &RandomForest, frame: &TabularFrame, what: &str) {
    let image = FlatImage::from_forest(forest, forest.max_depth()).unwrap();
    let reference = bits(&forest.predict_batch(frame.as_slice()));
    for (pool, threads) in pools().iter().zip(THREADS) {
        let cfg = RunConfig::for_threads(threads);
        for level in levels() {
            let (preds, _) = score_simd_batch(&image, frame, pool, &cfg, level);
            assert_eq!(
                bits(&preds),
                reference,
                "{what}: simd/{} @{threads}th",
                level.name()
            );
        }
    }
}

/// Leaf-capped (leaves, depth) shapes: sparse trees encoded far deeper
/// than most of their leaves, where the heap re-encode's payload
/// propagation does most of the work.
const CAPPED: [(usize, usize); 4] = [(8, 8), (16, 8), (8, 10), (16, 10)];

/// The deterministic grid: {iris, higgs} shapes × {1, 8, 128} trees ×
/// {full depth 6, each leaf-capped shape} × batch-edge record counts,
/// classification.
#[test]
fn grid_every_tier_bit_exact() {
    let record_counts = [0, 1, 37, kernel::LANES - 1, kernel::LANES + 1];
    for dataset in ["iris", "higgs"] {
        let (n_features, n_classes) = if dataset == "iris" { (4, 3) } else { (28, 2) };
        for trees in [1usize, 8, 128] {
            let config = ForestConfig::classification(trees, n_features, n_classes);
            let mut forests = vec![(
                "full d6".to_string(),
                RandomForest::synthetic_full(&config.with_depth(6), 11),
            )];
            for (leaves, depth) in CAPPED {
                forests.push((
                    format!("{leaves} leaves d{depth}"),
                    RandomForest::synthetic_capped(&config.with_depth(depth), leaves, 11),
                ));
            }
            for (shape, forest) in &forests {
                for records in record_counts {
                    let frame = shaped_frame(dataset, records);
                    let what = format!("{dataset} x{trees} {shape} trees @{records} records");
                    assert_all_tiers_exact(forest, &frame, &what);
                }
            }
        }
    }
}

/// Regression forests take the ascending-tree-order `f32` fold in every
/// lane-group stride and the scalar tail; they must still agree bit for
/// bit.
#[test]
fn regression_kernels_bit_exact_at_batch_edges() {
    for trees in [1usize, 8] {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::regression(trees, 4).with_depth(6), 23);
        for records in [
            0,
            1,
            kernel::LANES - 1,
            kernel::LANES + 1,
            3 * kernel::LANES,
        ] {
            let frame = shaped_frame("iris", records);
            let what = format!("regression x{trees} trees @{records} records");
            assert_all_tiers_exact(&forest, &frame, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random shapes: every walker tier agrees with the sequential
    /// reference on classification forests, including vote ties (few
    /// trees and classes make them common) and NaN-free random frames.
    #[test]
    fn random_classification_all_kernels_agree(
        trees in 1usize..10,
        depth in 0usize..7,
        n_features in 2usize..6,
        n_classes in 2u32..4,
        rows in 0usize..50,
        model_seed in any::<u64>(),
    ) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(trees, n_features, n_classes).with_depth(depth),
            model_seed,
        );
        let data: Vec<f32> = (0..rows * n_features)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(model_seed)
                    .rotate_left(21);
                (h % 1000) as f32 / 1000.0
            })
            .collect();
        let frame = TabularFrame::from_rows(data, n_features).unwrap();
        let image = FlatImage::from_forest(&forest, forest.max_depth()).unwrap();
        let reference = bits(&forest.predict_batch(frame.as_slice()));
        let pool = &pools()[1];
        let cfg = RunConfig::for_threads(THREADS[1]);
        for level in levels() {
            let (preds, _) = score_simd_batch(&image, &frame, pool, &cfg, level);
            prop_assert_eq!(&bits(&preds), &reference, "simd/{}", level.name());
        }
    }
}
