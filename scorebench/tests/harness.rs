//! Tests of the benchmark's own code: the timing adapter, the percentile
//! rule, self-time attribution and the seeded generators.

use std::sync::Arc;

use mlscore_backend::{ArtifactCache, OnnxCpu, SklearnCpu};
use mlscore_data::{
    ColumnarFrame, ColumnarScanner, CsvScanner, NormParams, NormalizeStream, RecordStream,
    TabularFrame, DEFAULT_CHUNK_ROWS,
};
use mlscore_forest::{ForestConfig, ModelBundle, Predictions, RandomForest};
use mlscore_pipeline::QueryPipeline;
use scorebench::gen::{self, Family, CATALOG};
use scorebench::run::same_rows;
use scorebench::stats::percentile;
use scorebench::trace::{self_times, Layer, Recorder, Span};

/// Seed the `point_mix` design was tuned on, and one it never saw.
const TUNING_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 7;

fn drain(stream: &mut dyn RecordStream) -> Vec<TabularFrame> {
    let mut chunks = Vec::new();
    while let Some(c) = stream.next_chunk() {
        chunks.push(c.clone());
    }
    chunks
}

fn small_model() -> ModelBundle {
    let config = ForestConfig::classification(8, 28, 2).with_depth(6);
    ModelBundle::serialize(&RandomForest::synthetic_full(&config, 3))
}

#[test]
fn timing_adapter_is_transparent() {
    let inputs = gen::bulk_inputs(1500, TUNING_SEED);
    let csv = gen::csv_bytes(&inputs.raw);
    let columnar = ColumnarFrame::from_rows(&inputs.raw);
    let params = NormParams::fit(&inputs.raw);
    let bundle = small_model();
    let pipeline =
        QueryPipeline::new(OnnxCpu::with_threads(2)).with_cache(Arc::new(ArtifactCache::new(1)));
    let reference = bundle
        .deserialize()
        .unwrap()
        .predict_batch(inputs.raw.normalized().as_slice());

    // Chunk sequence: plain stream vs. both layers wrapped and recorded.
    let rec = Recorder::new();
    let mut plain = NormalizeStream::new(
        CsvScanner::new(csv.as_slice(), true, DEFAULT_CHUNK_ROWS).unwrap(),
        params.clone(),
    );
    let mut scanner = CsvScanner::new(csv.as_slice(), true, DEFAULT_CHUNK_ROWS).unwrap();
    let mut norm = NormalizeStream::new(
        Layer::new(&mut scanner, Some(&rec), "data.csv"),
        params.clone(),
    );
    let wrapped = drain(&mut Layer::new(&mut norm, Some(&rec), "data.normalize"));
    assert_eq!(drain(&mut plain), wrapped);
    assert!(scanner.error().is_none());
    let rows: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == "data.csv")
        .map(|s| s.rows)
        .sum();
    assert_eq!(rows, 1500);

    let mut plain = NormalizeStream::new(
        ColumnarScanner::new(&columnar, DEFAULT_CHUNK_ROWS),
        params.clone(),
    );
    let mut scanner = ColumnarScanner::new(&columnar, DEFAULT_CHUNK_ROWS);
    let mut norm = NormalizeStream::new(
        Layer::new(&mut scanner, Some(&rec), "data.columnar"),
        params.clone(),
    );
    assert_eq!(
        drain(&mut plain),
        drain(&mut Layer::new(&mut norm, Some(&rec), "data.normalize"))
    );

    // Predictions through the real fused entry point, wrapped or not.
    let score = |stream: &mut dyn RecordStream| {
        pipeline.execute_fused(&bundle, stream).unwrap().predictions
    };
    let mut scanner = CsvScanner::new(csv.as_slice(), true, DEFAULT_CHUNK_ROWS).unwrap();
    let mut norm = NormalizeStream::new(
        Layer::new(&mut scanner, Some(&rec), "data.csv"),
        params.clone(),
    );
    let via_csv = score(&mut Layer::new(&mut norm, Some(&rec), "data.normalize"));
    let mut scanner = ColumnarScanner::new(&columnar, DEFAULT_CHUNK_ROWS);
    let mut norm = NormalizeStream::new(
        Layer::new(&mut scanner, None, "data.columnar"),
        params.clone(),
    );
    let via_columnar = score(&mut Layer::new(&mut norm, None, "data.normalize"));
    let plain = score(&mut NormalizeStream::new(
        ColumnarScanner::new(&columnar, DEFAULT_CHUNK_ROWS),
        params,
    ));
    assert_eq!(via_csv, plain);
    assert_eq!(via_columnar, plain);
    assert!(same_rows(&plain, &reference, 0..1500));
    assert!(!same_rows(&plain, &reference, 0..1499));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
    assert!(percentile(&hundred, 91.0).is_err());
    assert!(percentile(&hundred, 99.0).is_err());
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&twenty, 50.0), Ok(10.0));
    assert!(percentile(&twenty[..19], 50.0).is_err());
    assert!(percentile(&[], 50.0).is_err());
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
}

fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name: "t",
        start,
        end,
        parent,
        query: 0,
        rows: 0,
        tag: "",
    }
}

#[test]
fn self_time_is_span_minus_union_of_children() {
    let spans = vec![
        span(0, 100, None),
        span(10, 30, Some(0)),
        // Overlaps the first child: [10, 50) is covered once, not twice.
        span(20, 50, Some(0)),
        span(60, 70, Some(0)),
        // A grandchild counts against its parent only.
        span(12, 14, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![50, 18, 30, 10, 2]);
    // Self times of properly nested spans add up to the root.
    let nested = vec![
        span(0, 40, None),
        span(5, 15, Some(0)),
        span(20, 30, Some(0)),
        span(22, 24, Some(2)),
    ];
    assert_eq!(self_times(&nested).iter().sum::<u64>(), 40);

    let rec = Recorder::new();
    let root = rec.open("root");
    let child = rec.open("child");
    rec.close(child, 0, "");
    rec.close(root, 0, "");
    let spans = rec.spans();
    assert_eq!(spans[1].parent, Some(0));
    let selfs = self_times(&spans);
    assert_eq!(selfs[0] + selfs[1], spans[0].end - spans[0].start);
}

#[test]
fn generators_are_deterministic_per_seed() {
    let csv = |seed| gen::csv_bytes(&gen::bulk_inputs(400, seed).raw);
    assert_eq!(csv(TUNING_SEED), csv(TUNING_SEED));
    assert_ne!(csv(TUNING_SEED), csv(HELD_OUT_SEED));
    assert_eq!(
        gen::schedule(TUNING_SEED, 200),
        gen::schedule(TUNING_SEED, 200)
    );
    assert_ne!(
        gen::schedule(TUNING_SEED, 200),
        gen::schedule(HELD_OUT_SEED, 200)
    );
    let s = gen::schedule(HELD_OUT_SEED, 200);
    assert!(s.iter().all(|q| q.rows >= 1
        && q.rows <= gen::MAX_QUERY_ROWS
        && q.offset + q.rows <= gen::POOL_ROWS));
    assert!(s.iter().any(|q| q.rows < 8) && s.iter().any(|q| q.rows >= 128));
}

/// Replays a schedule's model sequence through a real `ArtifactCache` of
/// the benchmark's capacity. Misses depend only on which key is asked for
/// when, so one-tree stand-ins keep the test fast.
fn miss_share(seed: u64) -> f64 {
    let onnx = OnnxCpu::with_threads(1);
    let sklearn = SklearnCpu::with_threads(1);
    let bundles: Vec<ModelBundle> = CATALOG
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let config = ForestConfig::classification(1, m.data.n_features(), m.data.n_classes())
                .with_depth(2);
            ModelBundle::serialize(&RandomForest::synthetic_full(&config, i as u64))
        })
        .collect();
    let cache = ArtifactCache::new(gen::CACHE_CAPACITY);
    let probe = |m: usize| match CATALOG[m].family {
        Family::Onnx => cache.get_or_prepare(&onnx, &bundles[m]).unwrap(),
        Family::Sklearn => cache.get_or_prepare(&sklearn, &bundles[m]).unwrap(),
    };
    for m in 0..gen::HOT {
        probe(m);
    }
    let schedule = gen::schedule(seed, 400);
    // The run warms up on its first 1000 queries before measuring.
    for q in &schedule[..1000] {
        probe(q.model);
    }
    let before = cache.stats();
    for q in &schedule[1000..] {
        probe(q.model);
    }
    let after = cache.stats();
    (after.misses - before.misses) as f64 / (after.lookups() - before.lookups()) as f64
}

#[test]
fn point_mix_miss_share_is_in_band_on_both_seeds() {
    for seed in [TUNING_SEED, HELD_OUT_SEED] {
        let share = miss_share(seed);
        assert!(
            (0.03..=0.10).contains(&share),
            "seed {seed}: miss share {share}"
        );
    }
}

#[test]
fn mismatched_prediction_kinds_never_compare_equal() {
    let classes = Predictions::Classes(vec![1, 0]);
    let values = Predictions::Values(vec![1.0, 0.0]);
    assert!(!same_rows(&classes, &values, 0..2));
    assert!(same_rows(&values, &values, 0..2));
    assert!(!same_rows(
        &Predictions::Values(vec![1.0, -0.0]),
        &values,
        0..2
    ));
}
