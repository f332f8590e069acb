//! The [`ScoringBackend`] trait.

use std::sync::Arc;

use mlscore_data::{RecordStream, TabularFrame};
use mlscore_forest::{ModelBundle, ModelStats, Predictions, RandomForest};
use mlscore_sim::{SimInstant, TimingBreakdown};
use mlscore_telemetry::{Scope, Tracer};

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
/// Implementations are *functionally real* — [`ScoringBackend::score`]
/// computes actual predictions — while [`ScoringBackend::estimate`] reports
/// the backend's deterministic, calibrated timing model. Keeping the two
/// separate lets property tests assert prediction agreement across wildly
/// different execution strategies, while figure generation runs entirely on
/// modelled time.
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
/// `score` and `score_lowered` have default implementations defined in
/// terms of each other, mirroring `PartialEq::{eq, ne}`: a backend **must
/// implement at least one** of them (both defaults together recurse
/// forever). Backends with a real lowering step implement `lower` +
/// `score_lowered` and get the one-shot `score` (compile-per-call) for
/// free; trivial backends just implement `score`.
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

    /// Functionally scores the batch, compiling on the fly.
    ///
    /// The default lowers the model and delegates to
    /// [`ScoringBackend::score_lowered`] — the one-shot compose of the two
    /// phases.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Unsupported`] for models this backend cannot
    /// run, or a wrapped model error.
    fn score(&self, request: &ScoringRequest<'_>) -> Result<Predictions, BackendError> {
        let lowered = self.lower(request.forest())?;
        self.score_lowered(request.forest(), &lowered, request.frame())
    }

    /// Functionally scores the batch against an already-lowered model.
    ///
    /// `forest` is the source model `lowered` was compiled from; reference
    /// backends score it directly and ignore `lowered`.
    ///
    /// The default ignores `lowered` and delegates to
    /// [`ScoringBackend::score`] (see the trait docs: implement at least
    /// one of the two).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] when `lowered` is not a form this
    /// backend produces, otherwise fails as [`ScoringBackend::score`] does.
    fn score_lowered(
        &self,
        forest: &RandomForest,
        lowered: &Lowered,
        frame: &TabularFrame,
    ) -> Result<Predictions, BackendError> {
        let _ = lowered;
        let request = ScoringRequest::new(forest, frame)?;
        self.score(&request)
    }

    /// Functionally scores the batch while recording *measured* wall-clock
    /// execution detail on `tracer`.
    ///
    /// CPU backends that execute on the shared
    /// [`ExecPool`](mlscore_exec::ExecPool) record one
    /// [`Scope::Detail`] span per pool worker, anchored at `start` on the
    /// simulated timeline (1 ns measured ↦ 1 ns simulated), so a Perfetto
    /// trace shows the pool's real occupancy. Detail spans are ignored by
    /// breakdown folds, so modelled accounting is unaffected.
    ///
    /// The default lowers and forwards to
    /// [`ScoringBackend::score_lowered_traced`].
    ///
    /// # Errors
    ///
    /// Fails exactly when [`ScoringBackend::score`] fails.
    fn score_traced(
        &self,
        request: &ScoringRequest<'_>,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        let lowered = self.lower(request.forest())?;
        self.score_lowered_traced(request.forest(), &lowered, request.frame(), tracer, start)
    }

    /// [`ScoringBackend::score_lowered`] with measured execution detail, as
    /// in [`ScoringBackend::score_traced`].
    ///
    /// The default drops the tracer and delegates to
    /// [`ScoringBackend::score_lowered`] — it must *not* route back through
    /// `score_traced`, whose default lowers again (and would recurse).
    ///
    /// # Errors
    ///
    /// Fails exactly when [`ScoringBackend::score_lowered`] fails.
    fn score_lowered_traced(
        &self,
        forest: &RandomForest,
        lowered: &Lowered,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        let _ = (tracer, start);
        self.score_lowered(forest, lowered, frame)
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
    /// deserialize + lower.
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
        self.score_lowered(model.forest(), model.lowered(), frame)
    }

    /// Scores every chunk of a pull-based [`RecordStream`] against a
    /// prepared model — the fused warm path: a cache-resident model scores
    /// straight off the scanner, no marshaled batch ever materializes.
    ///
    /// CPU backends override this to feed chunks directly into their
    /// kernels (reusing the stream's scratch); the default — correct for
    /// offload devices whose transfer granularity is the whole batch —
    /// drains the stream into one frame and scores it in a single
    /// [`ScoringBackend::score_prepared`] pass. Either way the contract
    /// is the same: predictions are bit-exact with scoring the stream's
    /// records as one staged frame, and `chunks` reports each pulled
    /// chunk in order.
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
        let (rows_hint, _) = stream.size_hint();
        let n_features = stream.n_features();
        let mut data = Vec::with_capacity(rows_hint * n_features);
        let mut chunks = Vec::new();
        while let Some(chunk) = stream.next_chunk() {
            data.extend_from_slice(chunk.as_slice());
            chunks.push(StreamChunk {
                rows: chunk.n_rows(),
            });
        }
        let frame = TabularFrame::from_rows(data, n_features)
            .map_err(|e| BackendError::unsupported(self.name(), format!("streamed frame: {e}")))?;
        let predictions = self.score_prepared(model, &frame)?;
        Ok(StreamOutcome {
            predictions,
            rows: frame.n_rows(),
            chunks,
        })
    }

    /// [`ScoringBackend::score_prepared`] with measured execution detail,
    /// as in [`ScoringBackend::score_traced`].
    ///
    /// # Errors
    ///
    /// Fails exactly when [`ScoringBackend::score_prepared`] fails.
    fn score_prepared_traced(
        &self,
        model: &CompiledModel,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        model.ensure_scorable(self.name(), frame.n_features())?;
        self.score_lowered_traced(model.forest(), model.lowered(), frame, tracer, start)
    }

    /// Estimates the *overall model scoring time* breakdown (the Fig. 7
    /// quantity: everything from invoking the scoring call to having results
    /// in host memory) for scoring `n_records` with a model of the given
    /// shape.
    fn estimate(&self, stats: &ModelStats, n_records: u64) -> TimingBreakdown;

    /// Like [`ScoringBackend::estimate`], but also records the offload
    /// stages as [`Scope::Offload`] spans on `tracer`, starting at `start`
    /// on the simulated timeline.
    ///
    /// The contract every implementation (and the default) upholds:
    /// folding the recorded `Offload` spans in recording order —
    /// [`Trace::breakdown`](mlscore_telemetry::Trace::breakdown) — yields a
    /// breakdown **equal** to the returned one, stage order and `f64` sums
    /// included. Backends with internal structure worth seeing (FPGA
    /// passes, PCIe streams, CPU workers) additionally record
    /// [`Scope::Detail`] spans, which breakdowns ignore.
    ///
    /// The default implementation replays the direct estimate as one
    /// sequential span per stage.
    fn estimate_traced(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let b = self.estimate(stats, n_records);
        let mut t = start;
        for (stage, d) in b.iter() {
            t = tracer
                .span(stage.to_string(), t)
                .stage(stage)
                .scope(Scope::Offload)
                .track(self.name(), "offload")
                .meta("backend", self.name())
                .finish_after(d);
        }
        b
    }

    /// [`ScoringBackend::estimate`] against a prepared model's shape — the
    /// warm-path timing, which covers scoring only (compile time is paid at
    /// [`ScoringBackend::prepare`] and amortized by the cache).
    fn estimate_prepared(&self, model: &CompiledModel, n_records: u64) -> TimingBreakdown {
        self.estimate(model.stats(), n_records)
    }

    /// Traced variant of [`ScoringBackend::estimate_prepared`]; see
    /// [`ScoringBackend::estimate_traced`] for the span contract.
    fn estimate_prepared_traced(
        &self,
        model: &CompiledModel,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        self.estimate_traced(model.stats(), n_records, tracer, start)
    }
}

/// Blanket impl so `Box<dyn ScoringBackend>` works wherever a backend does.
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

    fn score(&self, request: &ScoringRequest<'_>) -> Result<Predictions, BackendError> {
        (**self).score(request)
    }

    fn score_lowered(
        &self,
        forest: &RandomForest,
        lowered: &Lowered,
        frame: &TabularFrame,
    ) -> Result<Predictions, BackendError> {
        (**self).score_lowered(forest, lowered, frame)
    }

    fn score_traced(
        &self,
        request: &ScoringRequest<'_>,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        (**self).score_traced(request, tracer, start)
    }

    fn score_lowered_traced(
        &self,
        forest: &RandomForest,
        lowered: &Lowered,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        (**self).score_lowered_traced(forest, lowered, frame, tracer, start)
    }

    fn prepare(&self, bundle: &ModelBundle) -> Result<Arc<CompiledModel>, BackendError> {
        (**self).prepare(bundle)
    }

    fn score_prepared(
        &self,
        model: &CompiledModel,
        frame: &TabularFrame,
    ) -> Result<Predictions, BackendError> {
        (**self).score_prepared(model, frame)
    }

    fn score_prepared_stream(
        &self,
        model: &CompiledModel,
        stream: &mut dyn RecordStream,
    ) -> Result<StreamOutcome, BackendError> {
        (**self).score_prepared_stream(model, stream)
    }

    fn score_prepared_traced(
        &self,
        model: &CompiledModel,
        frame: &TabularFrame,
        tracer: &Tracer,
        start: SimInstant,
    ) -> Result<Predictions, BackendError> {
        (**self).score_prepared_traced(model, frame, tracer, start)
    }

    fn estimate(&self, stats: &ModelStats, n_records: u64) -> TimingBreakdown {
        (**self).estimate(stats, n_records)
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

    fn estimate_prepared(&self, model: &CompiledModel, n_records: u64) -> TimingBreakdown {
        (**self).estimate_prepared(model, n_records)
    }

    fn estimate_prepared_traced(
        &self,
        model: &CompiledModel,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        (**self).estimate_prepared_traced(model, n_records, tracer, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sim::{SimDuration, Stage};

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_b: &dyn ScoringBackend) {}
    }

    /// A backend with only `estimate` implemented, to exercise the default
    /// `estimate_traced` replay.
    struct FixedBackend;

    impl ScoringBackend for FixedBackend {
        fn name(&self) -> &str {
            "fixed"
        }

        fn score(&self, _request: &ScoringRequest<'_>) -> Result<Predictions, BackendError> {
            Ok(Predictions::Classes(vec![]))
        }

        fn estimate(&self, _stats: &ModelStats, n_records: u64) -> TimingBreakdown {
            let mut b = TimingBreakdown::new();
            b.add(Stage::SoftwareOverhead, SimDuration::from_micros(150.0));
            b.add(
                Stage::Scoring,
                SimDuration::from_nanos(70.0) * n_records as f64,
            );
            b
        }
    }

    fn fixed_stats() -> ModelStats {
        use mlscore_forest::{ForestConfig, RandomForest};
        ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(2, 4, 2).with_depth(3),
            1,
        ))
    }

    #[test]
    fn default_traced_replay_reconstructs_exactly() {
        let backend = FixedBackend;
        let tracer = Tracer::new();
        let stats = fixed_stats();
        let direct = backend.estimate(&stats, 12_345);
        let traced = backend.estimate_traced(&stats, 12_345, &tracer, SimInstant::ZERO);
        assert_eq!(direct, traced);
        let trace = tracer.take();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.breakdown(Scope::Offload), direct);
        // Spans are laid out back to back.
        assert_eq!(trace.events()[1].start, trace.events()[0].end());
    }

    #[test]
    fn boxed_backend_forwards_estimate_traced() {
        let boxed: Box<dyn ScoringBackend> = Box::new(FixedBackend);
        let tracer = Tracer::new();
        let stats = fixed_stats();
        let b = boxed.estimate_traced(&stats, 10, &tracer, SimInstant::ZERO);
        assert_eq!(tracer.take().breakdown(Scope::Offload), b);
    }

    #[test]
    fn score_only_backend_gets_two_phase_defaults() {
        use mlscore_data::TabularFrame;
        use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};

        // FixedBackend implements only `score`; the mutual defaults must
        // carry it through the whole prepared path.
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
        assert_eq!(
            backend.estimate_prepared(model.as_ref(), 7),
            backend.estimate(model.stats(), 7)
        );
        // Compiled for "fixed" — another backend must refuse it.
        let err = model.ensure_scorable("other", 4).unwrap_err();
        assert!(matches!(err, BackendError::Artifact { .. }));
    }

    #[test]
    fn default_stream_path_materializes_and_matches_prepared() {
        use mlscore_data::{FrameScanner, TabularFrame};
        use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};

        struct Echo;
        impl ScoringBackend for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn score(&self, request: &ScoringRequest<'_>) -> Result<Predictions, BackendError> {
                // Deterministic per-row output so chunk order matters.
                Ok(Predictions::Values(
                    request.frame().rows().map(|r| r[0]).collect(),
                ))
            }
            fn estimate(&self, _stats: &ModelStats, _n: u64) -> TimingBreakdown {
                TimingBreakdown::new()
            }
        }

        let backend = Echo;
        let forest = RandomForest::synthetic_full(&ForestConfig::regression(2, 4).with_depth(3), 1);
        let model = backend.prepare(&ModelBundle::serialize(&forest)).unwrap();
        let frame = TabularFrame::from_rows((0..40).map(|i| i as f32).collect(), 4).unwrap();
        let mut scanner = FrameScanner::new(&frame, 3);
        let outcome = backend
            .score_prepared_stream(model.as_ref(), &mut scanner)
            .unwrap();
        assert_eq!(outcome.rows, 10);
        assert_eq!(outcome.chunks.len(), 4);
        assert_eq!(
            outcome.predictions,
            backend.score_prepared(model.as_ref(), &frame).unwrap()
        );
        // Width mismatch is refused before any pull.
        let narrow = TabularFrame::from_rows(vec![0.0; 6], 3).unwrap();
        let mut bad = FrameScanner::new(&narrow, 2);
        assert!(matches!(
            backend.score_prepared_stream(model.as_ref(), &mut bad),
            Err(BackendError::Artifact { .. })
        ));
    }
}
