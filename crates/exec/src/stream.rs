//! Chunked scoring off a [`RecordStream`]: the executor end of the fused
//! scan→featurize→score path.
//!
//! [`score_stream`] pulls cache-sized chunks from a scanner and scores
//! each one with the SIMD lane walker at the detected tier — the same
//! call [`score_auto_batch`](crate::kernel_simd::score_auto_batch) makes
//! for a whole frame.
//!
//! Per-chunk predictions are folded deterministically: every record is
//! fully scored within exactly one chunk, and the walker is bit-exact at
//! any batch size, so appending chunk predictions in pull order
//! reproduces the whole-frame result bit for bit (pinned by
//! `tests/fused_stream.rs`).

use mlscore_data::{RecordStream, TabularFrame};
use mlscore_forest::Predictions;

use crate::kernel_simd::{score_simd_batch, FlatImage, SimdLevel};
use crate::pool::{ExecPool, RunConfig};

/// Summary of one [`score_stream`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamReport {
    rows: usize,
    chunk_rows: Vec<usize>,
}

impl StreamReport {
    /// Total rows scored.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of chunks pulled.
    pub fn n_chunks(&self) -> usize {
        self.chunk_rows.len()
    }

    /// Rows in each scored chunk, in pull order.
    pub fn chunk_rows(&self) -> &[usize] {
        &self.chunk_rows
    }
}

/// Scores every chunk of `stream` against `image`, folding per-chunk
/// predictions in pull order.
///
/// # Panics
///
/// Panics if the stream's feature count differs from the model's (same
/// contract as the whole-frame kernels).
pub fn score_stream(
    image: &FlatImage,
    stream: &mut dyn RecordStream,
    pool: &ExecPool,
    cfg: &RunConfig,
) -> (Predictions, StreamReport) {
    let level = SimdLevel::detect();
    let mut report = StreamReport::default();
    let mut out: Option<Predictions> = None;
    while let Some(chunk) = stream.next_chunk() {
        if chunk.is_empty() {
            continue;
        }
        let (preds, _run) = score_simd_batch(image, chunk, pool, cfg, level);
        report.rows += chunk.n_rows();
        report.chunk_rows.push(chunk.n_rows());
        match &mut out {
            None => out = Some(preds),
            Some(acc) => acc.append(&preds),
        }
    }
    let preds = out.unwrap_or_else(|| {
        let empty = TabularFrame::with_capacity(0, image.n_features());
        score_simd_batch(image, &empty, pool, cfg, level).0
    });
    (preds, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_data::{Dataset, FrameScanner};
    use mlscore_forest::{ForestConfig, RandomForest};

    fn image(trees: usize, depth: usize, classes: u32, seed: u64) -> (RandomForest, FlatImage) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(trees, 4, classes).with_depth(depth),
            seed,
        );
        let image = FlatImage::from_forest(&forest, depth).unwrap();
        (forest, image)
    }

    #[test]
    fn stream_scoring_matches_whole_frame() {
        let (forest, image) = image(16, 6, 3, 7);
        let data = Dataset::iris(333, 9).normalized();
        let want = forest.predict_batch(data.frame().as_slice());
        for chunk_rows in [1, 7, 64, 1000] {
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let (got, report) = score_stream(
                &image,
                &mut scanner,
                ExecPool::global(),
                &RunConfig::default(),
            );
            assert_eq!(got, want, "chunk_rows={chunk_rows}");
            assert_eq!(report.rows(), 333);
            assert_eq!(report.n_chunks(), 333usize.div_ceil(chunk_rows));
        }
    }

    #[test]
    fn empty_stream_yields_empty_predictions_of_the_right_kind() {
        let (_, image) = image(4, 4, 3, 1);
        let frame = TabularFrame::from_rows(vec![], 4).unwrap();
        let mut scanner = FrameScanner::new(&frame, 8);
        let (preds, report) = score_stream(
            &image,
            &mut scanner,
            ExecPool::global(),
            &RunConfig::default(),
        );
        assert_eq!(preds, Predictions::Classes(vec![]));
        assert_eq!(report.rows(), 0);
        assert_eq!(report.n_chunks(), 0);
    }

    #[test]
    fn report_records_each_chunk_in_pull_order() {
        let (_, image) = image(128, 10, 2, 3);
        let data = Dataset::iris(crate::kernel::LANES * 4 + 3, 5).normalized();
        let mut scanner = FrameScanner::new(data.frame(), crate::kernel::LANES * 4);
        let (_, report) = score_stream(
            &image,
            &mut scanner,
            ExecPool::global(),
            &RunConfig::default(),
        );
        assert_eq!(report.chunk_rows(), &[crate::kernel::LANES * 4, 3]);
        assert_eq!(report.rows(), crate::kernel::LANES * 4 + 3);
    }
}
