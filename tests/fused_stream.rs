//! Property tests for the fused scan→featurize→score path: streaming
//! chunks through `score_prepared_stream` must be bit-exact with scoring
//! the staged (materialized, pre-normalized) frame — across backends,
//! chunk sizes, and executor thread counts.

use proptest::prelude::*;

use mlscore::backend::{compile, OnnxCpu, SklearnCpu};
use mlscore::forest::{ModelBundle, Predictions};
use mlscore::prelude::*;
use mlscore::sched::paper_backends;

/// The chunk sizes the contract must hold at: degenerate single-row
/// chunks, a sub-lane tail on every chunk, exactly one SIMD lane group,
/// and a chunk bigger than any test frame (one pull).
const CHUNK_SIZES: [usize; 4] = [
    1,
    mlscore::exec::kernel::LANES - 1,
    mlscore::exec::kernel::LANES,
    4096,
];

fn arb_frame() -> impl Strategy<Value = TabularFrame> {
    (1usize..6).prop_flat_map(|n_features| {
        proptest::collection::vec(-1e6f32..1e6, n_features..n_features * 40).prop_map(
            move |mut v| {
                v.truncate(v.len() / n_features * n_features);
                TabularFrame::from_rows(v, n_features).expect("shape consistent")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused == staged on both CPU backends at every chunk size and two
    /// executor widths. The staged reference materializes the normalized
    /// copy and scores it whole; the fused side streams normalized chunks
    /// off the raw frame.
    #[test]
    fn fused_matches_staged_across_backends_chunks_and_threads(
        frame in arb_frame(),
        seed in 0u64..512,
    ) {
        prop_assume!(!frame.is_empty());
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(12, frame.n_features(), 3).with_depth(6),
            seed,
        );
        let bundle = ModelBundle::serialize(&forest);
        for threads in [1usize, 4] {
            let backends: [Box<dyn ScoringBackend>; 2] = [
                Box::new(SklearnCpu::with_threads(threads)),
                Box::new(OnnxCpu::with_threads(threads)),
            ];
            for backend in &backends {
                let model = compile(&**backend, &bundle).expect("compile");
                let staged = backend
                    .score_prepared(&model, &frame.normalized())
                    .expect("staged scoring");
                for chunk_rows in CHUNK_SIZES {
                    let mut stream = NormalizeStream::new(
                        FrameScanner::new(&frame, chunk_rows),
                        NormParams::fit(&frame),
                    );
                    let out = backend
                        .score_prepared_stream(&model, &mut stream)
                        .expect("fused scoring");
                    prop_assert_eq!(out.rows, frame.n_rows());
                    prop_assert_eq!(
                        &out.predictions,
                        &staged,
                        "fused diverged on {} at chunk_rows={} threads={}",
                        backend.name(),
                        chunk_rows,
                        threads
                    );
                }
            }
        }
    }
}

/// Every paper backend — CPU engines and offload devices alike, all
/// through the trait's one chunk loop — honours the fused bit-exactness
/// contract at every chunk size, and on a zero-row input.
#[test]
fn fused_matches_staged_on_every_paper_backend() {
    let raw = Dataset::higgs(700, 11);
    let frame = raw.frame();
    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(16, frame.n_features(), 2).with_depth(7),
        3,
    );
    let bundle = ModelBundle::serialize(&forest);
    for backend in paper_backends() {
        let model = compile(&*backend, &bundle).expect("compile");
        let staged = backend
            .score_prepared(&model, &frame.normalized())
            .expect("staged scoring");
        for chunk_rows in CHUNK_SIZES {
            let mut stream =
                NormalizeStream::new(FrameScanner::new(frame, chunk_rows), NormParams::fit(frame));
            let out = backend
                .score_prepared_stream(&model, &mut stream)
                .expect("fused scoring");
            assert_eq!(out.rows, frame.n_rows());
            assert_eq!(
                out.predictions,
                staged,
                "fused diverged on {} at chunk_rows={chunk_rows}",
                backend.name()
            );
            // Chunk accounting partitions the rows exactly.
            assert_eq!(
                out.chunks.iter().map(|c| c.rows).sum::<usize>(),
                frame.n_rows()
            );
        }
        // A zero-row input pulls no chunk and still yields the staged
        // result: empty, and of the task's kind.
        let empty = TabularFrame::from_rows(vec![], frame.n_features()).expect("empty frame");
        let staged = backend
            .score_prepared(&model, &empty)
            .expect("staged scoring");
        assert_eq!(staged, Predictions::Classes(vec![]));
        let out = backend
            .score_prepared_stream(&model, &mut FrameScanner::new(&empty, 64))
            .expect("fused scoring");
        assert_eq!(out.predictions, staged, "{}", backend.name());
        assert_eq!(out.rows, 0);
        assert!(out.chunks.is_empty());
    }
}
