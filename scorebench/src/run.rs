//! The workloads, the closed-loop client and the metrics they report.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use mlscore_backend::{
    ArtifactCache, CacheOutcome, CacheStats, CompiledModel, Lowered, OnnxCpu, ScoringBackend,
    SklearnCpu,
};
use mlscore_data::{
    ColumnarFrame, ColumnarScanner, CsvScanner, NormParams, NormalizeStream, RecordStream,
    TabularFrame, DEFAULT_CHUNK_ROWS,
};
use mlscore_exec::{kernel, score_auto_batch, ExecPool, RunConfig, RunReport};
use mlscore_forest::{ModelBundle, Predictions};
use mlscore_pipeline::QueryPipeline;

use crate::gen::{self, BulkInputs, Family, PointInputs, PointQuery, CATALOG};
use crate::host::{self, Host};
use crate::stats::{median, percentile};
use crate::trace::{self_times, Layer, Recorder};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Windows a timed segment is cut into; rates are their median.
pub const WINDOWS: usize = 10;
/// Schedule blocks generated for `point_mix` (wraps around if exhausted).
const POINT_BLOCKS: usize = 4000;
/// Untimed queries before measuring: page in buffers and, for
/// `point_mix`, bring the artifact cache to its steady state.
const WARMUP_BULK: usize = 2;
const WARMUP_POINT: usize = 1000;
/// Timed/traced slice pairs of a traced run.
const TRACE_SLICES: usize = 10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k records arriving as CSV text, streamed through the fused path.
    CsvBulk,
    /// The same records read from a column store.
    ColumnarBulk,
    /// Interactive queries of 1–256 rows against a 16-model catalog.
    PointMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CsvBulk,
        Workload::ColumnarBulk,
        Workload::PointMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CsvBulk => "csv_bulk",
            Workload::ColumnarBulk => "columnar_bulk",
            Workload::PointMix => "point_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile `query_us_tail` reports: the highest one the run's
    /// sample supports with at least ten samples beyond it.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::PointMix => 99.0,
            Workload::CsvBulk | Workload::ColumnarBulk => 75.0,
        }
    }
}

/// One run's settings, straight from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// Where a traced run writes `<workload>.perfetto.json`, relative to the
/// working directory.
pub const OUT_DIR: &str = ".bench_out";

/// A named, unit-carrying result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands back for printing.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Queries executed, warm-up included.
    pub attempted: u64,
    /// Queries that returned an error, mismatched the reference, or read
    /// a truncated CSV scan.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

/// Prints one line of the human-readable report as soon as it is known,
/// so a run that fails later still shows what it measured.
fn say(line: String) {
    println!("{line}");
}

/// The contract every workload implements for the closed-loop client.
trait Bench {
    /// A query's input, built before its timer starts.
    type Input;
    /// Builds query `i`'s input.
    fn input(&self, i: usize) -> Self::Input;
    /// Rows query `input` scores.
    fn rows(&self, input: &Self::Input) -> usize;
    /// Runs the query: the timed part. With a recorder, the query is
    /// decomposed into calls to each layer's public functions, each
    /// recorded as a span.
    fn query(&self, input: &Self::Input, rec: Option<&Recorder>) -> Result<Predictions, String>;
    /// Whether `preds` are bit-exact with the reference.
    fn check(&self, input: &Self::Input, preds: &Predictions) -> bool;
}

/// One timed query.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Start, ns from the segment start.
    start: u64,
    /// Query wall time, ns.
    dur: u64,
    rows: u64,
}

/// A closed-loop segment's measurements.
#[derive(Debug, Default)]
struct Segment {
    samples: Vec<Sample>,
    /// Segment wall time, ns.
    wall: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Segment {
    fn sorted_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.dur as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Per-window `(records/s of query time, queries/s of wall time)`.
    /// A query's wall share is the gap to the next query's start, so
    /// building inputs and checking outputs count against `queries_per_s`
    /// but not against `records_per_s`.
    fn window_rates(&self) -> Vec<(f64, f64)> {
        let mut acc = vec![(0u64, 0u64, 0u64, 0u64); WINDOWS];
        for (i, s) in self.samples.iter().enumerate() {
            let next = self.samples.get(i + 1).map_or(self.wall, |n| n.start);
            let w = ((s.start as u128 * WINDOWS as u128) / self.wall.max(1) as u128) as usize;
            let a = &mut acc[w.min(WINDOWS - 1)];
            a.0 += s.rows;
            a.1 += s.dur;
            a.2 += 1;
            a.3 += next - s.start;
        }
        acc.into_iter()
            .filter(|a| a.2 > 0)
            .map(|(rows, dur, n, cycle)| {
                (
                    rows as f64 / (dur as f64 * 1e-9),
                    n as f64 / (cycle as f64 * 1e-9),
                )
            })
            .collect()
    }
}

/// Runs query `i` and appends it to `seg`; its start is stamped `base`
/// ns plus the time since `clock`.
fn step<B: Bench>(
    bench: &B,
    i: usize,
    rec: Option<&Recorder>,
    seg: &mut Segment,
    clock: Instant,
    base: u64,
) {
    let input = bench.input(i);
    let rows = bench.rows(&input);
    if let Some(r) = rec {
        r.set_query(i as u64);
    }
    let start = clock.elapsed();
    let root = rec.map(|r| r.open("pipeline.query"));
    let result = bench.query(&input, rec);
    if let (Some(r), Some(id)) = (rec, root) {
        r.close(id, rows as u64, "");
    }
    let dur = clock.elapsed() - start;
    let ok = match result {
        Ok(p) => bench.check(&input, &p),
        Err(e) => {
            if seg.errors.len() < 5 {
                seg.errors.push(e);
            }
            false
        }
    };
    seg.attempted += 1;
    seg.failed += u64::from(!ok);
    seg.samples.push(Sample {
        start: base + start.as_nanos() as u64,
        dur: dur.as_nanos() as u64,
        rows: rows as u64,
    });
}

/// Runs queries `*next..` back to back for `seconds`, one client thread,
/// appending to `seg` as if its earlier slices ran just before.
fn drive<B: Bench>(
    bench: &B,
    seg: &mut Segment,
    next: &mut usize,
    seconds: f64,
    rec: Option<&Recorder>,
) {
    let base = seg.wall;
    let clock = Instant::now();
    while clock.elapsed().as_secs_f64() < seconds {
        step(bench, *next, rec, seg, clock, base);
        *next += 1;
    }
    seg.wall = base + clock.elapsed().as_nanos() as u64;
}

/// Artifact-cache counter changes over the slices a segment ran.
#[derive(Debug, Default, Clone, Copy)]
struct CacheDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheDelta {
    fn add(&mut self, before: CacheStats, after: CacheStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
    }

    fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Whether `got` equals `reference[range]` bit for bit.
pub fn same_rows(got: &Predictions, reference: &Predictions, range: Range<usize>) -> bool {
    match (got, reference) {
        (Predictions::Classes(a), Predictions::Classes(b)) => b.get(range).is_some_and(|b| a == b),
        (Predictions::Values(a), Predictions::Values(b)) => b.get(range).is_some_and(|b| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }),
        _ => false,
    }
}

/// The flat image an `OnnxCpu` artifact carries.
fn flat_image(model: &CompiledModel) -> Result<&mlscore_exec::FlatImage, String> {
    match model.lowered() {
        Lowered::Flat(image) => Ok(image),
        other => Err(format!("expected a flat image artifact, got {other:?}")),
    }
}

fn outcome_tag(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Bypass => "bypass",
    }
}

/// Probes the artifact cache inside a `backend.artifact` span.
fn traced_probe<B: ScoringBackend>(
    cache: &ArtifactCache,
    backend: &B,
    bundle: &ModelBundle,
    rec: &Recorder,
) -> Result<(Arc<CompiledModel>, CacheOutcome), String> {
    let span = rec.open("backend.artifact");
    let got = cache.get_or_prepare_timed(backend, bundle);
    let tag = got.as_ref().map_or("error", |(_, o, _)| outcome_tag(*o));
    rec.close(span, 0, tag);
    let (model, outcome, timing) = got.map_err(|e| e.to_string())?;
    if outcome == CacheOutcome::Miss {
        rec.keep_prepare(timing);
    }
    Ok((model, outcome))
}

/// Scores one frame inside an `exec.kernel` span through the executor
/// entry point the model's backend uses, keeping the run report.
fn traced_kernel(
    model: &CompiledModel,
    family: Family,
    frame: &TabularFrame,
    threads: usize,
    rec: &Recorder,
) -> Result<Predictions, String> {
    let pool = ExecPool::global();
    let (preds, report, span) = match family {
        Family::Onnx => {
            let image = flat_image(model)?;
            // `OnnxCpu` caps its workers at the tree count.
            let cfg = RunConfig::for_threads(threads.min(model.stats().n_trees.max(1)));
            let span = rec.open("exec.kernel");
            let (p, r, choice) = score_auto_batch(image, frame, pool, &cfg);
            rec.close(span, frame.n_rows() as u64, choice.kernel.name());
            (p, r, span)
        }
        Family::Sklearn => {
            let cfg = RunConfig::for_threads(threads);
            let span = rec.open("exec.kernel");
            let (p, r) = kernel::score_forest_batch(model.forest(), frame, pool, &cfg);
            rec.close(span, frame.n_rows() as u64, "forest");
            (p, r, span)
        }
    };
    rec.keep_report(span, report);
    Ok(preds)
}

/// Where a bulk query's records come from.
enum Source {
    Csv(Vec<u8>),
    Columnar(ColumnarFrame),
}

/// Program-side state of a bulk workload, built by set-up.
struct BulkState {
    pipeline: QueryPipeline<OnnxCpu>,
    cache: Arc<ArtifactCache>,
    params: NormParams,
}

fn setup_bulk(inputs: &BulkInputs, threads: usize) -> Result<BulkState, String> {
    let _ = ExecPool::global();
    let backend = OnnxCpu::with_threads(threads);
    let cache = Arc::new(ArtifactCache::new(1));
    cache
        .get_or_prepare(&backend, &inputs.bundle)
        .map_err(|e| e.to_string())?;
    let params = NormParams::fit(&inputs.raw);
    Ok(BulkState {
        pipeline: QueryPipeline::new(backend).with_cache(Arc::clone(&cache)),
        cache,
        params,
    })
}

struct Bulk {
    source: Source,
    bundle: ModelBundle,
    reference: Predictions,
    state: BulkState,
    threads: usize,
}

impl Bulk {
    /// Scores `stream`: through `execute_fused` when timed, decomposed into
    /// probe → per-chunk kernel calls → the pipeline's own accounting
    /// when traced.
    fn score(
        &self,
        stream: &mut dyn RecordStream,
        rec: Option<&Recorder>,
    ) -> Result<Predictions, String> {
        let Some(rec) = rec else {
            return self
                .state
                .pipeline
                .execute_fused(&self.bundle, stream)
                .map(|run| run.predictions)
                .map_err(|e| e.to_string());
        };
        let pipeline = &self.state.pipeline;
        let (model, outcome) =
            traced_probe(&self.state.cache, pipeline.backend(), &self.bundle, rec)?;
        let mut out: Option<Predictions> = None;
        let mut rows = 0;
        while let Some(chunk) = stream.next_chunk() {
            rows += chunk.n_rows();
            let preds = traced_kernel(&model, Family::Onnx, chunk, self.threads, rec)?;
            match &mut out {
                None => out = Some(preds),
                Some(acc) => acc.append(&preds),
            }
        }
        let stats = model.stats();
        let bytes = model.model_bytes() as u64;
        black_box(if outcome == CacheOutcome::Hit {
            pipeline.estimate_fused_warm(stats, bytes, rows as u64, DEFAULT_CHUNK_ROWS)
        } else {
            pipeline.estimate_fused(stats, bytes, rows as u64, DEFAULT_CHUNK_ROWS)
        });
        out.ok_or_else(|| "the stream yielded no rows".to_string())
    }
}

impl Bench for Bulk {
    type Input = ();

    fn input(&self, _: usize) {}

    fn rows(&self, _: &()) -> usize {
        self.reference.len()
    }

    fn query(&self, _: &(), rec: Option<&Recorder>) -> Result<Predictions, String> {
        let params = self.state.params.clone();
        match &self.source {
            Source::Csv(bytes) => {
                let open = rec.map(|r| r.open("data.csv"));
                let scanner = CsvScanner::new(bytes.as_slice(), true, DEFAULT_CHUNK_ROWS);
                if let (Some(r), Some(id)) = (rec, open) {
                    r.close(id, 0, "open");
                }
                let mut scanner = scanner.map_err(|e| e.to_string())?;
                let preds = {
                    let mut norm =
                        NormalizeStream::new(Layer::new(&mut scanner, rec, "data.csv"), params);
                    self.score(&mut Layer::new(&mut norm, rec, "data.normalize"), rec)?
                };
                match scanner.error() {
                    Some(e) => Err(format!("CSV scan truncated: {e}")),
                    None => Ok(preds),
                }
            }
            Source::Columnar(frame) => {
                let mut scanner = ColumnarScanner::new(frame, DEFAULT_CHUNK_ROWS);
                let mut norm =
                    NormalizeStream::new(Layer::new(&mut scanner, rec, "data.columnar"), params);
                self.score(&mut Layer::new(&mut norm, rec, "data.normalize"), rec)
            }
        }
    }

    fn check(&self, _: &(), preds: &Predictions) -> bool {
        same_rows(preds, &self.reference, 0..self.reference.len())
    }
}

/// Program-side state of `point_mix`, built by set-up.
struct PointState {
    onnx: QueryPipeline<OnnxCpu>,
    sklearn: QueryPipeline<SklearnCpu>,
    cache: Arc<ArtifactCache>,
}

fn setup_point(inputs: &PointInputs, threads: usize) -> Result<PointState, String> {
    let _ = ExecPool::global();
    let cache = Arc::new(ArtifactCache::new(gen::CACHE_CAPACITY));
    let state = PointState {
        onnx: QueryPipeline::new(OnnxCpu::with_threads(threads)).with_cache(Arc::clone(&cache)),
        sklearn: QueryPipeline::new(SklearnCpu::with_threads(threads))
            .with_cache(Arc::clone(&cache)),
        cache,
    };
    for (m, bundle) in inputs.bundles.iter().enumerate().take(gen::HOT) {
        let got = match CATALOG[m].family {
            Family::Onnx => state.cache.get_or_prepare(state.onnx.backend(), bundle),
            Family::Sklearn => state.cache.get_or_prepare(state.sklearn.backend(), bundle),
        };
        got.map_err(|e| e.to_string())?;
    }
    Ok(state)
}

struct Point {
    inputs: PointInputs,
    reference: Vec<Predictions>,
    state: PointState,
    threads: usize,
}

impl Bench for Point {
    type Input = (PointQuery, TabularFrame);

    fn input(&self, i: usize) -> Self::Input {
        let q = self.inputs.schedule[i % self.inputs.schedule.len()];
        let pool = &self.inputs.pools[gen::pool_index(CATALOG[q.model].data)];
        let nf = pool.n_features();
        let rows = pool.as_slice()[q.offset * nf..(q.offset + q.rows) * nf].to_vec();
        let frame = TabularFrame::from_rows(rows, nf).expect("a whole number of pool rows");
        (q, frame)
    }

    fn rows(&self, (q, _): &Self::Input) -> usize {
        q.rows
    }

    fn query(
        &self,
        (q, frame): &Self::Input,
        rec: Option<&Recorder>,
    ) -> Result<Predictions, String> {
        let family = CATALOG[q.model].family;
        let bundle = &self.inputs.bundles[q.model];
        let s = &self.state;
        let Some(rec) = rec else {
            let run = match family {
                Family::Onnx => s.onnx.execute(bundle, frame),
                Family::Sklearn => s.sklearn.execute(bundle, frame),
            };
            return run.map(|r| r.predictions).map_err(|e| e.to_string());
        };
        let (model, outcome) = match family {
            Family::Onnx => traced_probe(&s.cache, s.onnx.backend(), bundle, rec)?,
            Family::Sklearn => traced_probe(&s.cache, s.sklearn.backend(), bundle, rec)?,
        };
        let preds = traced_kernel(&model, family, frame, self.threads, rec)?;
        let (stats, bytes, n) = (model.stats(), model.model_bytes() as u64, q.rows as u64);
        let warm = outcome == CacheOutcome::Hit;
        black_box(match (family, warm) {
            (Family::Onnx, true) => s.onnx.estimate_warm(stats, bytes, n),
            (Family::Onnx, false) => s.onnx.estimate(stats, bytes, n),
            (Family::Sklearn, true) => s.sklearn.estimate_warm(stats, bytes, n),
            (Family::Sklearn, false) => s.sklearn.estimate(stats, bytes, n),
        });
        Ok(preds)
    }

    fn check(&self, (q, _): &Self::Input, preds: &Predictions) -> bool {
        same_rows(preds, &self.reference[q.model], q.offset..q.offset + q.rows)
    }
}

/// Times `SETUP_REPS` set-ups and keeps the last one's state.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok((state.expect("SETUP_REPS > 0"), secs))
}

/// Runs one workload as `cfg` says.
///
/// # Errors
///
/// Refuses a host whose threads are oversubscribed, a set-up that fails,
/// and a percentile the run's sample cannot support.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let host = Host::check(1)?;
    let threads = host.pool_workers;
    say(host.line());
    match cfg.workload {
        Workload::CsvBulk | Workload::ColumnarBulk => {
            let inputs = gen::bulk_inputs(gen::BULK_RECORDS, cfg.seed);
            let source = match cfg.workload {
                Workload::CsvBulk => Source::Csv(gen::csv_bytes(&inputs.raw)),
                _ => Source::Columnar(ColumnarFrame::from_rows(&inputs.raw)),
            };
            let (state, setup) = timed_setup(|| setup_bulk(&inputs, threads))?;
            let reference = inputs
                .forest
                .predict_batch(inputs.raw.normalized().as_slice());
            let input_bytes = match &source {
                Source::Csv(bytes) => bytes.len() as u64,
                Source::Columnar(frame) => frame.bytes(),
            };
            say(format!(
                "workload: {} seed={} records={} input_bytes={input_bytes} model={} trees x depth {} on {} chunk_rows={}",
                cfg.workload.name(),
                cfg.seed,
                reference.len(),
                gen::BULK_TREES,
                gen::BULK_DEPTH,
                state.pipeline.backend().name(),
                DEFAULT_CHUNK_ROWS
            ));
            let bench = Bulk {
                source,
                bundle: inputs.bundle,
                reference,
                state,
                threads,
            };
            measure(cfg, &bench, WARMUP_BULK, &setup, &bench.state.cache)
        }
        Workload::PointMix => {
            let inputs = gen::point_inputs(cfg.seed, POINT_BLOCKS);
            let (state, setup) = timed_setup(|| setup_point(&inputs, threads))?;
            let reference = inputs
                .forests
                .iter()
                .zip(&CATALOG)
                .map(|(f, m)| f.predict_batch(inputs.pools[gen::pool_index(m.data)].as_slice()))
                .collect();
            say(format!(
                "workload: point_mix seed={} catalog={} models ({} hot) cache_capacity={} rows=1..{} closed loop, 1 client",
                cfg.seed,
                CATALOG.len(),
                gen::HOT,
                gen::CACHE_CAPACITY,
                gen::MAX_QUERY_ROWS
            ));
            let bench = Point {
                inputs,
                reference,
                state,
                threads,
            };
            measure(cfg, &bench, WARMUP_POINT, &setup, &bench.state.cache)
        }
    }
}

fn measure<B: Bench>(
    cfg: &Config,
    bench: &B,
    warmup: usize,
    setup: &[f64],
    cache: &ArtifactCache,
) -> Result<Outcome, String> {
    let setup_s = median(setup);
    say(format!(
        "set-up: median {setup_s:.6} s of {} repetitions: {}",
        setup.len(),
        setup
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut warm = Segment::default();
    let clock = Instant::now();
    for i in 0..warmup {
        step(bench, i, None, &mut warm, clock, 0);
    }
    let mut next = warmup;
    // A traced run alternates short timed and traced slices, so drift in
    // the host's speed affects both sides of `trace.overhead_frac` alike.
    let rec = Recorder::new();
    let (mut timed, mut traced) = (Segment::default(), Segment::default());
    let (mut timed_cache, mut traced_cache) = (CacheDelta::default(), CacheDelta::default());
    let slices = if cfg.trace { TRACE_SLICES } else { 1 };
    let slice = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    } / slices as f64;
    for _ in 0..slices {
        let before = cache.stats();
        drive(bench, &mut timed, &mut next, slice, None);
        let mid = cache.stats();
        timed_cache.add(before, mid);
        if cfg.trace {
            drive(bench, &mut traced, &mut next, slice, Some(&rec));
            traced_cache.add(mid, cache.stats());
        }
    }
    say(format!(
        "latency sample: {} queries; query_us_tail is p{} with {} samples beyond it",
        timed.samples.len(),
        cfg.workload.tail_percentile(),
        timed.samples.len()
            - (cfg.workload.tail_percentile() / 100.0 * timed.samples.len() as f64).ceil() as usize
    ));
    say(format!(
        "timed: {} queries in {:.3} s; artifact cache: {} misses of {} lookups (miss share {:.4}), {} evictions",
        timed.samples.len(),
        timed.wall as f64 * 1e-9,
        timed_cache.misses,
        timed_cache.lookups(),
        timed_cache.misses as f64 / timed_cache.lookups().max(1) as f64,
        timed_cache.evictions
    ));
    let rates = timed.window_rates();
    say(format!(
        "windows: {} of {:.3} s; records_per_s per window: {}",
        rates.len(),
        timed.wall as f64 * 1e-9 / WINDOWS as f64,
        rates
            .iter()
            .map(|r| format!("{:.0}", r.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // A traced run reports per-layer metrics; its shorter timed segment
    // may not support every end-to-end percentile.
    let e2e = match end_to_end(cfg.workload, &timed, setup_s) {
        Ok(e2e) => e2e,
        Err(e) if cfg.trace => {
            say(format!("end-to-end metrics not reported: {e}"));
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    for m in &e2e {
        say(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    let metrics = if cfg.trace {
        let (metrics, table) = per_layer(&rec, &traced, &timed, traced_cache)?;
        table.into_iter().for_each(say);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path =
            std::path::Path::new(OUT_DIR).join(format!("{}.perfetto.json", cfg.workload.name()));
        std::fs::write(&path, rec.to_perfetto()).map_err(|e| format!("{}: {e}", path.display()))?;
        say(format!("perfetto trace: {}", path.display()));
        metrics
    } else {
        e2e
    };
    let segments = [&warm, &timed, &traced];
    let out = Outcome {
        attempted: segments.iter().map(|s| s.attempted).sum(),
        failed: segments.iter().map(|s| s.failed).sum(),
        metrics,
    };
    say(format!(
        "operations: attempted={} failed={}",
        out.attempted, out.failed
    ));
    for e in segments.iter().flat_map(|s| &s.errors).take(5) {
        say(format!("error: {e}"));
    }
    Ok(out)
}

fn end_to_end(workload: Workload, seg: &Segment, setup_s: f64) -> Result<Vec<Metric>, String> {
    let lat = seg.sorted_us();
    let p50 = percentile(&lat, 50.0)?;
    let tail = percentile(&lat, workload.tail_percentile())?;
    let rates = seg.window_rates();
    let records: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let queries: Vec<f64> = rates.iter().map(|r| r.1).collect();
    let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("records_per_s", median(&records), "records/s"),
        metric("queries_per_s", median(&queries), "queries/s"),
        metric("query_us_p50", p50, "us"),
        metric("query_us_tail", tail, "us"),
        metric("peak_rss_mib", rss, "MiB"),
    ])
}

/// The layers a traced query is broken into, in table order.
const LAYERS: [&str; 6] = [
    "pipeline.query",
    "backend.artifact",
    "data.csv",
    "data.columnar",
    "data.normalize",
    "exec.kernel",
];

#[derive(Debug, Default, Clone, Copy)]
struct LayerSum {
    calls: u64,
    self_ns: u64,
    rows: u64,
}

impl LayerSum {
    /// Self time per row handled; 0 when the layer handled no rows.
    fn ns_per_row(&self) -> f64 {
        if self.rows > 0 {
            self.self_ns as f64 / self.rows as f64
        } else {
            0.0
        }
    }
}

fn p50_or_zero(mut v: Vec<f64>) -> (f64, usize) {
    v.sort_by(f64::total_cmp);
    (percentile(&v, 50.0).unwrap_or(0.0), v.len())
}

fn per_layer(
    rec: &Recorder,
    traced: &Segment,
    timed: &Segment,
    cache: CacheDelta,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let spans = rec.spans();
    let selfs = self_times(&spans);
    let total_ns: u64 = traced.samples.iter().map(|s| s.dur).sum();
    let total = total_ns as f64;
    let queries = traced.samples.len().max(1) as f64;
    let mut sums = [LayerSum::default(); LAYERS.len()];
    let mut tiers: BTreeMap<&str, LayerSum> = BTreeMap::new();
    let mut probes = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let Some(l) = LAYERS.iter().position(|n| *n == s.name) else {
            continue;
        };
        let sum = &mut sums[l];
        sum.calls += 1;
        sum.self_ns += own;
        // The CSV scanner's opening call parses no chunk; its rows are 0.
        sum.rows += s.rows;
        if s.name == "exec.kernel" {
            let t = tiers.entry(s.tag).or_default();
            t.calls += 1;
            t.self_ns += own;
            t.rows += s.rows;
        }
        if s.name == "backend.artifact" {
            probes.push((s.end - s.start) as f64 / 1e3);
        }
    }
    let accounted: u64 = sums.iter().map(|s| s.self_ns).sum();
    let unaccounted = total_ns.saturating_sub(accounted);

    // Executor pool: a dispatch is a run that handed rows to more than one
    // worker; single-worker runs execute inline on the caller.
    let reports: Vec<RunReport> = rec.reports();
    let (mut dispatches, mut busy, mut capacity, mut steals, mut overhead) =
        (0u64, 0.0, 0.0, 0u64, 0.0);
    for r in reports.iter().filter(|r| r.workers().len() > 1) {
        let b: Vec<f64> = r.workers().iter().map(|w| w.busy.as_secs_f64()).collect();
        let elapsed = r.elapsed().as_secs_f64();
        dispatches += 1;
        busy += b.iter().sum::<f64>();
        capacity += b.len() as f64 * elapsed;
        steals += r.steals() as u64;
        overhead += elapsed - b.iter().copied().fold(0.0, f64::max);
    }
    let per_dispatch = |x: f64| {
        if dispatches > 0 {
            x / dispatches as f64
        } else {
            0.0
        }
    };
    let prepares = rec.prepares();
    let (deser_ms, n_deser) =
        p50_or_zero(prepares.iter().map(|p| p.deserialize.as_millis()).collect());
    let (lower_ms, _) = p50_or_zero(prepares.iter().map(|p| p.lower.as_millis()).collect());
    let n_probes = probes.len();
    let (probe_us, _) = p50_or_zero(probes);
    let lookups = cache.lookups();
    let hit_rate = cache.hits as f64 / lookups.max(1) as f64;
    let evictions = cache.evictions as f64;
    let traced_p50 = percentile(&traced.sorted_us(), 50.0)?;
    let timed_p50 = percentile(&timed.sorted_us(), 50.0)?;

    let layer = |name: &str| sums[LAYERS.iter().position(|n| *n == name).expect("known layer")];
    let share = |name: &str| layer(name).self_ns as f64 / total;
    let per_row = |name: &str| layer(name).ns_per_row();
    let tier = |name: &str| tiers.get(name).copied().unwrap_or_default();
    let tier_ns = |name: &str| tier(name).ns_per_row();
    let metrics = vec![
        metric("data.csv.share", share("data.csv"), "frac"),
        metric("data.columnar.share", share("data.columnar"), "frac"),
        metric("data.normalize.share", share("data.normalize"), "frac"),
        metric(
            "exec.kernel.simd.ns_per_record",
            tier_ns("simd"),
            "ns/record",
        ),
        metric("exec.kernel.share", share("exec.kernel"), "frac"),
        metric(
            "exec.choice.picks.blocked",
            tier("blocked").calls as f64,
            "count",
        ),
        metric("exec.choice.picks.simd", tier("simd").calls as f64, "count"),
        metric(
            "exec.choice.picks.quickscorer",
            tier("quickscorer").calls as f64,
            "count",
        ),
        metric(
            "exec.pool.dispatches_per_query",
            dispatches as f64 / queries,
            "count",
        ),
        metric(
            "exec.pool.occupancy",
            if capacity > 0.0 { busy / capacity } else { 0.0 },
            "frac",
        ),
        metric(
            "exec.pool.steals_per_dispatch",
            per_dispatch(steals as f64),
            "count",
        ),
        metric(
            "exec.pool.dispatch_overhead_us",
            per_dispatch(overhead) * 1e6,
            "us",
        ),
        metric("backend.artifact.hit_rate", hit_rate, "frac"),
        metric("backend.artifact.evictions", evictions, "count"),
        metric("backend.artifact.probe_us_p50", probe_us, "us"),
        metric("backend.artifact.share", share("backend.artifact"), "frac"),
        metric(
            "pipeline.query.self_us",
            layer("pipeline.query").self_ns as f64 / queries / 1e3,
            "us",
        ),
        metric("pipeline.query.share", share("pipeline.query"), "frac"),
        metric("unaccounted.share", unaccounted as f64 / total, "frac"),
        metric("trace.overhead_frac", traced_p50 / timed_p50 - 1.0, "frac"),
    ];

    let mut t = vec![
        format!(
            "traced: {} queries, {:.3} s of query time, {} spans",
            traced.samples.len(),
            total * 1e-9,
            spans.len()
        ),
        format!(
            "{:<18} {:>9} {:>12} {:>8} {:>14}",
            "layer", "calls", "self_ms", "share", "ns/row"
        ),
    ];
    for (name, l) in LAYERS.iter().zip(&sums) {
        if l.calls == 0 {
            continue;
        }
        let rows = if l.rows > 0 {
            format!("{:.2}", l.ns_per_row())
        } else {
            "-".to_string()
        };
        t.push(format!(
            "{:<18} {:>9} {:>12.3} {:>8.4} {:>14}",
            name,
            l.calls,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 / total,
            rows
        ));
    }
    t.push(format!(
        "{:<18} {:>9} {:>12.3} {:>8.4} {:>14}",
        "unaccounted",
        "-",
        unaccounted as f64 / 1e6,
        unaccounted as f64 / total,
        "-"
    ));
    t.push(format!(
        "sum of rows = {:.3} ms = traced query time {:.3} ms",
        (accounted + unaccounted) as f64 / 1e6,
        total / 1e6
    ));
    for (name, s) in &tiers {
        t.push(format!(
            "exec.kernel tier {name}: {} calls over {} records, {:.2} ns/record",
            s.calls,
            s.rows,
            s.ns_per_row()
        ));
    }
    t.push(format!(
        "exec.pool: {dispatches} dispatches of {} kernel calls ({} per query); occupancy = busy {:.3} ms / capacity {:.3} ms; {steals} steals",
        reports.len(),
        dispatches as f64 / queries,
        busy * 1e3,
        capacity * 1e3
    ));
    t.push(format!(
        "backend.artifact: hit_rate = {} hits / {lookups} lookups = {hit_rate:.4}; {n_probes} probes, probe p50 {probe_us:.3} us; {n_deser} compiles, deserialize p50 {deser_ms:.3} ms, lower p50 {lower_ms:.3} ms",
        cache.hits
    ));
    t.push(format!(
        "trace.overhead_frac = traced p50 {traced_p50:.3} us / timed p50 {timed_p50:.3} us - 1"
    ));
    t.extend(picks_by_size(&spans));
    // Timings of layers a workload may lack: they would read 0 on every
    // run of such a workload, so they are printed when present and kept
    // out of the reported metrics.
    let present = [
        metric("data.csv.ns_per_row", per_row("data.csv"), "ns/row"),
        metric(
            "data.columnar.ns_per_row",
            per_row("data.columnar"),
            "ns/row",
        ),
        metric(
            "data.normalize.ns_per_row",
            per_row("data.normalize"),
            "ns/row",
        ),
        metric(
            "exec.kernel.blocked.ns_per_record",
            tier_ns("blocked"),
            "ns/record",
        ),
        metric(
            "exec.kernel.forest.ns_per_record",
            tier_ns("forest"),
            "ns/record",
        ),
        metric("backend.artifact.deserialize_ms_p50", deser_ms, "ms"),
        metric("backend.artifact.lower_ms_p50", lower_ms, "ms"),
    ];
    for m in metrics
        .iter()
        .chain(present.iter().filter(|m| m.value > 0.0))
    {
        t.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    Ok((metrics, t))
}

/// Kernel picks and cost by query size, for `OnnxCpu` kernel calls.
fn picks_by_size(spans: &[crate::trace::Span]) -> Vec<String> {
    let mut rows: BTreeMap<(u64, &str), (u64, u64, u64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "exec.kernel" && s.tag != "forest")
    {
        let bucket = s.rows.next_power_of_two();
        let e = rows.entry((bucket, s.tag)).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += s.rows;
    }
    if rows.len() <= 1 {
        return Vec::new();
    }
    let mut out = vec![
        "kernel pick by call size (rows <= bucket): bucket tier calls mean_us ns/record"
            .to_string(),
    ];
    for ((bucket, tier), (calls, ns, recs)) in rows {
        out.push(format!(
            "  {bucket:>4} {tier:<8} {calls:>7} {:>9.2} {:>9.2}",
            ns as f64 / calls as f64 / 1e3,
            ns as f64 / recs as f64
        ));
    }
    out
}
