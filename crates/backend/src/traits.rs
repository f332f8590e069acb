//! The [`ScoringBackend`] trait.

use std::sync::Arc;

use mlscore_data::{RecordStream, TabularFrame};
use mlscore_forest::{ModelBundle, ModelStats, Predictions, RandomForest};
use mlscore_sim::{SimInstant, TimingBreakdown};
use mlscore_telemetry::Tracer;

use crate::artifact::{compile, CompiledModel, Lowered};
use crate::error::BackendError;
use crate::request::ScoringRequest;

/// One chunk scored off a [`RecordStream`] by
/// [`ScoringBackend::score_prepared_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamChunk {
    /// Rows in the chunk.
    pub rows: usize,
}

/// The result of scoring a [`RecordStream`] against a prepared model.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Folded predictions for every streamed record, in pull order.
    pub predictions: Predictions,
    /// Total rows scored.
    pub rows: usize,
    /// Per-chunk accounting, in pull order.
    pub chunks: Vec<StreamChunk>,
}

/// A hardware backend that can score random forest batches.
///
/// Implementations are *functionally real* — [`ScoringBackend::score_lowered`]
/// computes actual predictions — while [`ScoringBackend::estimate_traced`]
/// reports the backend's deterministic, calibrated timing model. Keeping the
/// two separate lets property tests assert prediction agreement across
/// wildly different execution strategies, while figure generation runs
/// entirely on modelled time.
///
/// # One method per job
///
/// A backend implements three methods and may override three more:
///
/// * [`ScoringBackend::score_lowered`] (required) — the one scoring call;
/// * [`ScoringBackend::estimate_traced`] (required) — the one timing model;
/// * [`ScoringBackend::name`] (required), [`ScoringBackend::supports`],
///   [`ScoringBackend::cache_config`] and [`ScoringBackend::lower`] — what
///   the compile pass needs.
///
/// Everything else is provided on top of those and no backend overrides
/// it: [`ScoringBackend::score`] (compile-per-call),
/// [`ScoringBackend::prepare`] (the cacheable compile pass),
/// [`ScoringBackend::score_prepared`] (the warm path),
/// [`ScoringBackend::score_prepared_stream`] (the fused path's one chunk
/// loop) and [`ScoringBackend::estimate`] (untraced timing).
///
/// # Two-phase scoring
///
/// Scoring splits into a *compile* phase and a *score* phase:
/// [`ScoringBackend::lower`] turns a deserialized model into the backend's
/// scoring representation ([`Lowered`]) once, and
/// [`ScoringBackend::score_lowered`] scores batches against it repeatedly.
/// [`ScoringBackend::prepare`] runs the whole compile pass from a
/// serialized [`ModelBundle`], producing a cacheable [`CompiledModel`]
/// consumed by [`ScoringBackend::score_prepared`].
///
/// The trait is object-safe; schedulers hold `Box<dyn ScoringBackend>`.
pub trait ScoringBackend {
    /// Short name matching the paper's figure legends (e.g.
    /// `"CPU_SKLearn"`, `"GPU-HB"`, `"FPGA"`).
    fn name(&self) -> &str;

    /// Checks whether this backend can run the given model.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Unsupported`] with the reason (e.g.
    /// GPU-RAPIDS rejects non-binary classification; the FPGA engine rejects
    /// trees deeper than its configured capacity).
    fn supports(&self, stats: &ModelStats) -> Result<(), BackendError> {
        let _ = stats;
        Ok(())
    }

    /// Fingerprint of every configuration knob that changes what
    /// [`ScoringBackend::lower`] produces — the third component of the
    /// artifact-cache key. Backends whose lowering has no knobs (the
    /// default) return an empty string.
    fn cache_config(&self) -> String {
        String::new()
    }

    /// Compiles a deserialized model into this backend's scoring
    /// representation.
    ///
    /// The default is [`Lowered::Reference`] — score the pointer trees
    /// as-is, nothing to pre-compute.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the model cannot be lowered (e.g. a
    /// tree exceeds the FPGA engine's depth capacity).
    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        let _ = forest;
        Ok(Lowered::Reference)
    }

    /// Functionally scores the batch against an already-lowered model —
    /// the one scoring call every other scoring method goes through.
    ///
    /// `forest` is the source model `lowered` was compiled from; reference
    /// backends score it directly and ignore `lowered`.
    ///
    /// CPU backends that execute on the shared
    /// [`ExecPool`](mlscore_exec::ExecPool) record one
    /// [`Scope::Detail`](mlscore_telemetry::Scope::Detail) span of
    /// *measured* wall-clock per pool worker on `tracer`, anchored at
    /// `start` on the simulated timeline (1 ns measured ↦ 1 ns simulated),
    /// so a Perfetto trace shows the pool's real occupancy. Detail spans are
    /// ignored by breakdown folds, so modelled accounting is unaffected, and
    /// a disabled tracer records nothing. Offload backends ignore the
    /// tracer.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] when `lowered` is not a form this
    /// backend produces, or [`BackendError::Unsupported`] for models this
    /// backend cannot run.
    fn score_lowered(
        &self,
        forest: &RandomForest,
        lowered: &Lowered,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError>;

    /// Estimates the *overall model scoring time* breakdown (the Fig. 7
    /// quantity: everything from invoking the scoring call to having results
    /// in host memory) for scoring `n_records` with a model of the given
    /// shape, recording the offload stages as
    /// [`Scope::Offload`](mlscore_telemetry::Scope::Offload) spans on
    /// `tracer`, starting at `start` on the simulated timeline.
    ///
    /// The contract every implementation upholds: folding the recorded
    /// `Offload` spans in recording order —
    /// [`Trace::breakdown`](mlscore_telemetry::Trace::breakdown) — yields a
    /// breakdown **equal** to the returned one, stage order and `f64` sums
    /// included, and the returned breakdown does not depend on whether
    /// `tracer` is enabled. Backends with internal structure worth seeing
    /// (FPGA passes, PCIe streams, CPU workers) additionally record
    /// [`Scope::Detail`](mlscore_telemetry::Scope::Detail) spans, which
    /// breakdowns ignore.
    fn estimate_traced(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown;

    /// Functionally scores the batch, compiling on the fly: lowers the
    /// model and scores it through [`ScoringBackend::score_lowered`],
    /// untraced.
    ///
    /// # Errors
    ///
    /// Fails when [`ScoringBackend::lower`] or
    /// [`ScoringBackend::score_lowered`] fails.
    fn score(&self, request: &ScoringRequest<'_>) -> Result<Predictions, BackendError> {
        let lowered = self.lower(request.forest())?;
        self.score_lowered(
            request.forest(),
            &lowered,
            request.frame(),
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// Runs the full compile pass on a serialized bundle: deserialize →
    /// shape stats → [`ScoringBackend::supports`] →
    /// [`ScoringBackend::lower`], tagged with this backend's artifact key.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Forest`] for undeserializable bundles and
    /// propagates `supports`/`lower` failures.
    fn prepare(&self, bundle: &ModelBundle) -> Result<Arc<CompiledModel>, BackendError> {
        compile(self, bundle)
    }

    /// Scores a batch against a prepared model — the warm path that skips
    /// deserialize + lower — through [`ScoringBackend::score_lowered`],
    /// untraced.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] if `model` was compiled for a
    /// different backend or feature width, otherwise fails as
    /// [`ScoringBackend::score_lowered`] does.
    fn score_prepared(
        &self,
        model: &CompiledModel,
        frame: &TabularFrame,
    ) -> Result<Predictions, BackendError> {
        model.ensure_scorable(self.name(), frame.n_features())?;
        self.score_lowered(
            model.forest(),
            model.lowered(),
            frame,
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
    }

    /// Scores every chunk of a pull-based [`RecordStream`] against a
    /// prepared model — the fused warm path: a cache-resident model scores
    /// straight off the scanner, no marshaled batch ever materializes.
    ///
    /// Each non-empty chunk is scored as it lands through
    /// [`ScoringBackend::score_prepared`], and its predictions are appended
    /// in pull order. Every record is fully scored within exactly one
    /// chunk and every backend scores records independently, so the result
    /// is bit-exact with scoring the stream's records as one staged frame.
    /// A stream that yields no chunk scores one empty frame, so the
    /// predictions keep the task's kind. `chunks` reports each scored chunk
    /// in order.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] if `model` was compiled for a
    /// different backend or feature width, otherwise fails as
    /// [`ScoringBackend::score_prepared`] does.
    fn score_prepared_stream(
        &self,
        model: &CompiledModel,
        stream: &mut dyn RecordStream,
    ) -> Result<StreamOutcome, BackendError> {
        model.ensure_scorable(self.name(), stream.n_features())?;
        let mut chunks = Vec::new();
        let mut out: Option<Predictions> = None;
        while let Some(chunk) = stream.next_chunk() {
            if chunk.is_empty() {
                continue;
            }
            let preds = self.score_prepared(model, chunk)?;
            chunks.push(StreamChunk {
                rows: chunk.n_rows(),
            });
            match &mut out {
                None => out = Some(preds),
                Some(acc) => acc.append(&preds),
            }
        }
        let predictions = match out {
            Some(preds) => preds,
            None => {
                let empty = TabularFrame::with_capacity(0, stream.n_features());
                self.score_prepared(model, &empty)?
            }
        };
        Ok(StreamOutcome {
            predictions,
            rows: chunks.iter().map(|c| c.rows).sum(),
            chunks,
        })
    }

    /// [`ScoringBackend::estimate_traced`] without a trace.
    fn estimate(&self, stats: &ModelStats, n_records: u64) -> TimingBreakdown {
        self.estimate_traced(stats, n_records, &Tracer::disabled(), SimInstant::ZERO)
    }
}

/// Blanket impl so `Box<dyn ScoringBackend>` works wherever a backend does.
/// It forwards only the overridable methods; the provided ones run on top
/// of them exactly as they would on the boxed backend.
impl<B: ScoringBackend + ?Sized> ScoringBackend for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn supports(&self, stats: &ModelStats) -> Result<(), BackendError> {
        (**self).supports(stats)
    }

    fn cache_config(&self) -> String {
        (**self).cache_config()
    }

    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        (**self).lower(forest)
    }

    fn score_lowered(
        &self,
        forest: &RandomForest,
        lowered: &Lowered,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        (**self).score_lowered(forest, lowered, frame, tracer, start)
    }

    fn estimate_traced(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        (**self).estimate_traced(stats, n_records, tracer, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sim::{SimDuration, Stage};
    use mlscore_telemetry::Scope;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_b: &dyn ScoringBackend) {}
    }

    /// A minimal backend: scores nothing, charges a fixed overhead plus a
    /// per-record cost, one offload span per stage.
    struct FixedBackend;

    impl ScoringBackend for FixedBackend {
        fn name(&self) -> &str {
            "fixed"
        }

        fn score_lowered(
            &self,
            _forest: &RandomForest,
            _lowered: &Lowered,
            _frame: &TabularFrame,
            _tracer: &Tracer,
            _start: SimInstant,
        ) -> Result<Predictions, BackendError> {
            Ok(Predictions::Classes(vec![]))
        }

        fn estimate_traced(
            &self,
            _stats: &ModelStats,
            n_records: u64,
            tracer: &Tracer,
            start: SimInstant,
        ) -> TimingBreakdown {
            let mut b = TimingBreakdown::new();
            b.add(Stage::SoftwareOverhead, SimDuration::from_micros(150.0));
            b.add(
                Stage::Scoring,
                SimDuration::from_nanos(70.0) * n_records as f64,
            );
            let mut t = start;
            for (stage, d) in b.iter() {
                t = tracer
                    .span(stage.to_string(), t)
                    .stage(stage)
                    .scope(Scope::Offload)
                    .finish_after(d);
            }
            b
        }
    }

    fn fixed_stats() -> ModelStats {
        use mlscore_forest::ForestConfig;
        ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(2, 4, 2).with_depth(3),
            1,
        ))
    }

    #[test]
    fn boxed_backend_forwards_estimate_traced() {
        let boxed: Box<dyn ScoringBackend> = Box::new(FixedBackend);
        let tracer = Tracer::new();
        let stats = fixed_stats();
        let b = boxed.estimate_traced(&stats, 10, &tracer, SimInstant::ZERO);
        assert_eq!(tracer.take().breakdown(Scope::Offload), b);
        // The provided untraced estimate is the same model.
        assert_eq!(boxed.estimate(&stats, 10), b);
    }

    #[test]
    fn score_lowered_backend_gets_two_phase_defaults() {
        use mlscore_forest::{ForestConfig, ModelBundle};

        // FixedBackend implements only `score_lowered`; the provided
        // methods must carry it through the whole prepared path.
        let backend = FixedBackend;
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(2, 4, 2).with_depth(3), 1);
        let bundle = ModelBundle::serialize(&forest);
        let model = backend.prepare(&bundle).unwrap();
        assert_eq!(model.key().backend, "fixed");
        assert!(matches!(model.lowered(), crate::Lowered::Reference));
        let frame = TabularFrame::from_rows(vec![0.0; 8], 4).unwrap();
        let prepared = backend.score_prepared(model.as_ref(), &frame).unwrap();
        let request = ScoringRequest::new(model.forest(), &frame).unwrap();
        assert_eq!(prepared, backend.score(&request).unwrap());
        // Compiled for "fixed" — another backend must refuse it.
        let err = model.ensure_scorable("other", 4).unwrap_err();
        assert!(matches!(err, BackendError::Artifact { .. }));
    }

    #[test]
    fn default_stream_path_scores_each_chunk_and_matches_prepared() {
        use std::cell::Cell;

        use mlscore_data::FrameScanner;
        use mlscore_forest::{ForestConfig, ModelBundle};

        /// Echoes each row's first feature and counts its scoring calls.
        struct Echo {
            calls: Cell<usize>,
        }
        impl ScoringBackend for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn score_lowered(
                &self,
                _forest: &RandomForest,
                _lowered: &Lowered,
                frame: &TabularFrame,
                _tracer: &Tracer,
                _start: SimInstant,
            ) -> Result<Predictions, BackendError> {
                self.calls.set(self.calls.get() + 1);
                // Deterministic per-row output so chunk order matters.
                Ok(Predictions::Values(frame.rows().map(|r| r[0]).collect()))
            }
            fn estimate_traced(
                &self,
                _stats: &ModelStats,
                _n: u64,
                _tracer: &Tracer,
                _start: SimInstant,
            ) -> TimingBreakdown {
                TimingBreakdown::new()
            }
        }

        let backend = Echo {
            calls: Cell::new(0),
        };
        let forest = RandomForest::synthetic_full(&ForestConfig::regression(2, 4).with_depth(3), 1);
        let model = backend.prepare(&ModelBundle::serialize(&forest)).unwrap();
        let frame = TabularFrame::from_rows((0..40).map(|i| i as f32).collect(), 4).unwrap();
        let mut scanner = FrameScanner::new(&frame, 3);
        let outcome = backend
            .score_prepared_stream(model.as_ref(), &mut scanner)
            .unwrap();
        assert_eq!(outcome.rows, 10);
        assert_eq!(outcome.chunks.len(), 4);
        // One scoring call per chunk: the stream is never drained into one
        // frame first.
        assert_eq!(backend.calls.get(), 4);
        assert_eq!(
            outcome.predictions,
            backend.score_prepared(model.as_ref(), &frame).unwrap()
        );
        // A stream with no chunks scores one empty frame of the task's kind.
        let empty = TabularFrame::from_rows(vec![], 4).unwrap();
        let outcome = backend
            .score_prepared_stream(model.as_ref(), &mut FrameScanner::new(&empty, 3))
            .unwrap();
        assert_eq!(outcome.predictions, Predictions::Values(vec![]));
        assert_eq!((outcome.rows, outcome.chunks.len()), (0, 0));
        // Width mismatch is refused before any pull.
        let narrow = TabularFrame::from_rows(vec![0.0; 6], 3).unwrap();
        let mut bad = FrameScanner::new(&narrow, 2);
        assert!(matches!(
            backend.score_prepared_stream(model.as_ref(), &mut bad),
            Err(BackendError::Artifact { .. })
        ));
    }
}
