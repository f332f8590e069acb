//! Seeded input generators. The program under test receives only what
//! these build: CSV bytes, a column store, model bundles and small frames.
//! The same seed always gives the same bytes and the same query schedule.

use mlscore_data::{csv, DatasetSpec, TabularFrame};
use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};

/// Records per bulk query.
pub const BULK_RECORDS: usize = 100_000;
/// Trees in the bulk workloads' classifier.
pub const BULK_TREES: usize = 128;
/// Depth of the bulk workloads' classifier.
pub const BULK_DEPTH: usize = 10;

/// SplitMix64: a tiny seeded generator, so schedules stay byte-stable
/// whatever the vendored `rand` does.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one workload seed.
    fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Seed streams, one per generated artefact.
const STREAM_DATA: u64 = 1;
const STREAM_FOREST: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;

/// Inputs shared by both bulk workloads: HIGGS-like raw records and the
/// 128-tree × depth-10 classifier that scores them.
pub struct BulkInputs {
    /// Raw (unnormalized) records, as the DBMS stores them.
    pub raw: TabularFrame,
    /// The model, for the reference predictions.
    pub forest: RandomForest,
    /// The serialized model the DBMS hands to the scorer.
    pub bundle: ModelBundle,
}

/// Generates `records` HIGGS-like rows and the bulk classifier.
pub fn bulk_inputs(records: usize, seed: u64) -> BulkInputs {
    let raw = DatasetSpec::Higgs
        .generate(records, Rng::new(seed, STREAM_DATA).next_u64())
        .frame()
        .clone();
    let config =
        ForestConfig::classification(BULK_TREES, raw.n_features(), 2).with_depth(BULK_DEPTH);
    let forest = RandomForest::synthetic_full(&config, Rng::new(seed, STREAM_FOREST).next_u64());
    let bundle = ModelBundle::serialize(&forest);
    BulkInputs {
        raw,
        forest,
        bundle,
    }
}

/// The records as CSV text with a header row: the bytes a DBMS marshals to
/// an external scoring process.
pub fn csv_bytes(frame: &TabularFrame) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_frame(frame, &mut out).expect("writing CSV into memory cannot fail");
    out
}

/// Which CPU backend a catalog model is deployed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `OnnxCpu`: flat image, kernel picked per call.
    Onnx,
    /// `SklearnCpu`: pointer-tree batch kernel.
    Sklearn,
}

/// One model of the `point_mix` catalog.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Dataset shape the model scores.
    pub data: DatasetSpec,
    /// Tree count.
    pub trees: usize,
    /// Tree depth.
    pub depth: usize,
    /// Backend the model is deployed on.
    pub family: Family,
}

const fn spec(data: DatasetSpec, trees: usize, depth: usize, family: Family) -> ModelSpec {
    ModelSpec {
        data,
        trees,
        depth,
        family,
    }
}

use DatasetSpec::{Higgs, Iris};
use Family::{Onnx, Sklearn};

/// The catalog, most popular first. The first [`HOT`] models share the
/// hot traffic by a Zipf law; the rest are the cold tail, requested
/// round-robin so that each is evicted before its next request comes.
pub const CATALOG: [ModelSpec; 16] = [
    spec(Higgs, 128, 10, Onnx),
    spec(Iris, 32, 8, Sklearn),
    spec(Higgs, 64, 8, Sklearn),
    spec(Iris, 8, 6, Onnx),
    spec(Higgs, 32, 10, Onnx),
    spec(Iris, 128, 10, Sklearn),
    spec(Higgs, 128, 10, Onnx),
    spec(Higgs, 128, 10, Sklearn),
    spec(Iris, 128, 10, Onnx),
    spec(Iris, 128, 8, Sklearn),
    spec(Higgs, 64, 10, Onnx),
    spec(Higgs, 64, 6, Sklearn),
    spec(Iris, 64, 8, Onnx),
    spec(Iris, 32, 6, Sklearn),
    spec(Higgs, 16, 8, Onnx),
    spec(Iris, 8, 10, Sklearn),
];

/// Hot models: resident after set-up, and hit on almost every request.
pub const HOT: usize = 6;
/// Artifact-cache capacity: all hot models plus four cold slots, fewer
/// than the ten cold models, so a cold model is always gone when its turn
/// comes round again.
pub const CACHE_CAPACITY: usize = 10;
/// Queries per schedule block.
pub const BLOCK: usize = 50;
/// Cold-model queries per block: the designed miss share is
/// `COLD_PER_BLOCK / BLOCK` = 6%, inside the 3–10% band.
pub const COLD_PER_BLOCK: usize = 3;
/// Rows in each dataset's pool that point queries slice from.
pub const POOL_ROWS: usize = 4096;
/// Largest point query.
pub const MAX_QUERY_ROWS: usize = 256;

/// One interactive query: which model, and which pool rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointQuery {
    /// Index into [`CATALOG`].
    pub model: usize,
    /// First pool row.
    pub offset: usize,
    /// Row count, 1 to [`MAX_QUERY_ROWS`].
    pub rows: usize,
}

/// Query size, skewed small: `2^(8u²)` for uniform `u`, so about half
/// the queries have fewer than 8 rows and the largest have 256.
fn query_rows(rng: &mut Rng) -> usize {
    let u = rng.unit();
    (2f64.powf(8.0 * u * u) as usize).clamp(1, MAX_QUERY_ROWS)
}

/// The `point_mix` query schedule: `blocks` blocks of [`BLOCK`] queries.
pub fn schedule(seed: u64, blocks: usize) -> Vec<PointQuery> {
    let mut rng = Rng::new(seed, STREAM_SCHEDULE);
    // Zipf(1) popularity over the hot models.
    let weights: Vec<f64> = (0..HOT).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    // A seeded visiting order over the cold tail, kept for the whole run.
    let mut cold: Vec<usize> = (HOT..CATALOG.len()).collect();
    for i in (1..cold.len()).rev() {
        cold.swap(i, rng.below(i + 1));
    }
    let mut next_cold = 0;
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut cold_slots = [false; BLOCK];
        let mut placed = 0;
        while placed < COLD_PER_BLOCK {
            let slot = rng.below(BLOCK);
            if !cold_slots[slot] {
                cold_slots[slot] = true;
                placed += 1;
            }
        }
        for is_cold in cold_slots {
            let model = if is_cold {
                next_cold += 1;
                cold[(next_cold - 1) % cold.len()]
            } else {
                let mut x = rng.unit() * total;
                let mut pick = HOT - 1;
                for (r, w) in weights.iter().enumerate() {
                    if x < *w {
                        pick = r;
                        break;
                    }
                    x -= w;
                }
                pick
            };
            let rows = query_rows(&mut rng);
            let offset = rng.below(POOL_ROWS - rows + 1);
            out.push(PointQuery {
                model,
                offset,
                rows,
            });
        }
    }
    out
}

/// Inputs of the `point_mix` workload.
pub struct PointInputs {
    /// One forest per catalog entry (for the reference predictions).
    pub forests: Vec<RandomForest>,
    /// One serialized bundle per catalog entry.
    pub bundles: Vec<ModelBundle>,
    /// Normalized row pools, IRIS-like then HIGGS-like.
    pub pools: [TabularFrame; 2],
    /// The closed-loop query schedule.
    pub schedule: Vec<PointQuery>,
}

/// Index of a dataset's pool in [`PointInputs::pools`].
pub fn pool_index(data: DatasetSpec) -> usize {
    match data {
        DatasetSpec::Iris => 0,
        DatasetSpec::Higgs => 1,
    }
}

/// Generates the catalog, the row pools and `blocks` schedule blocks.
pub fn point_inputs(seed: u64, blocks: usize) -> PointInputs {
    let mut rng = Rng::new(seed, STREAM_FOREST);
    let forests: Vec<RandomForest> = CATALOG
        .iter()
        .map(|m| {
            let config =
                ForestConfig::classification(m.trees, m.data.n_features(), m.data.n_classes())
                    .with_depth(m.depth);
            RandomForest::synthetic_full(&config, rng.next_u64())
        })
        .collect();
    let bundles = forests.iter().map(ModelBundle::serialize).collect();
    let mut data = Rng::new(seed, STREAM_DATA);
    let pools = [Iris, Higgs].map(|d| d.generate(POOL_ROWS, data.next_u64()).frame().normalized());
    PointInputs {
        forests,
        bundles,
        pools,
        schedule: schedule(seed, blocks),
    }
}
