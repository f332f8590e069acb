//! Explicit-SIMD lockstep lane walker over a heap-indexed tree image: the
//! executor's one flat-layout kernel.
//!
//! A pointer-chasing walk loads a node's `left`/`right`/`feature`/
//! `threshold` per step and lane, compares, and selects the next child
//! index. This module removes the child-pointer loads entirely: lowering
//! ([`FlatImage::from_forest`]) encodes each tree's nodes straight into an
//! implicit binary heap,
//!
//! ```text
//!   DecisionTree (explicit children)       SimdTree (heap encoding)
//!   Decision { feature, threshold,         ft:      [feat, thr] per slot
//!              left, right }        ==>    payload: f32 per slot
//!   Leaf(class | value)                    slot i children = 2i+1 / 2i+2
//! ```
//!
//! so one traversal step per lane is: gather `feat`, gather `thr`, gather
//! `x[feat]`, compare, and the pure-ALU update `idx = 2·idx + 2 + mask`
//! (`mask` is −1 when `x ≤ thr`, picking the left child `2·idx + 1`).
//! Leaves have their payload *propagated down* into every heap slot of
//! their would-be subtree, so all lanes run the same fixed `steps`
//! iterations with no self-loop bookkeeping and land on the correct
//! payload wherever they exit — the same trick the Fig. 4b capacity
//! padding plays, applied to the payload table.
//!
//! Four instruction tiers implement the identical step ([`SimdLevel`]):
//! AVX-512 and AVX2 (16–64 lanes in flight via hardware gathers), SSE2
//! (4-wide compare/select with scalar gathers), and a hand-unrolled
//! portable u32 fallback. The tier is picked at runtime
//! ([`SimdLevel::detect`]). Rows left over after the last full lane group
//! — and every batch shorter than [`LANES`] — take the one-lane heap step
//! `walk1`, the portable lane's arithmetic on one record. All tiers are
//! bit-exact with each other and with the sequential
//! `FlatForest::score_one`, because the compare (`x <= thr`,
//! ordered-quiet, NaN → right child) and the vote / ascending-tree-order
//! accumulation folds are identical.
//!
//! Build-time validation (every decision node's feature is in range, no
//! decision node sits on the capacity's last level) is what licenses the
//! unchecked loads and gathers in the hot loops.

use std::ops::Range;

use mlscore_data::TabularFrame;
use mlscore_forest::{DecisionTree, ForestError, LeafValue, Node, Predictions, RandomForest, Task};

use crate::kernel::{blocks, SharedOut, LANES, SCRATCH};
use crate::pool::{ExecPool, RunConfig};
use crate::report::RunReport;

/// Instruction tier used by the SIMD lane walker. Ordered weakest→strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Hand-unrolled u32-lane scalar code: no `std::arch`, any target.
    Portable,
    /// SSE2: 4-wide compare/select, scalar feature/threshold gathers.
    Sse2,
    /// AVX2: 8-wide gathers and compares, 16 lanes in flight per tree.
    Avx2,
    /// AVX-512F: 16-wide gathers and mask compares, 64 lanes in flight.
    Avx512,
}

impl SimdLevel {
    /// The strongest tier this host can execute.
    pub fn supported() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            // The AVX-512 tier's tail strides reuse the AVX2 walkers, so
            // it requires both feature bits (every avx512f part ships
            // avx2, but detection is cheap and makes the dependency
            // explicit).
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                SimdLevel::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                // SSE2 is part of the x86_64 baseline.
                SimdLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Portable
        }
    }

    /// The tier the scoring entry points run at: the strongest the host
    /// supports. Tests reach the weaker tiers by passing them to
    /// [`score_simd_batch`] explicitly.
    pub fn detect() -> SimdLevel {
        Self::supported()
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// A forest lowered to the SIMD walker's heap image: one [`SimdTree`] per
/// tree, in order, plus the task and feature width.
///
/// Encoding every tree into the implicit heap is the CPU backend's
/// model-lowering step: one pass over every node array. Building a
/// `FlatImage` once and scoring it repeatedly with [`score_simd_batch`]
/// hoists that pass out of the hot path, which is what the artifact cache
/// stores per bundle.
pub struct FlatImage {
    trees: Vec<SimdTree>,
    n_features: usize,
    task: Task,
}

impl FlatImage {
    /// Encodes every tree of `forest` with capacity for `max_depth` levels.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::DepthExceeded`] if any tree is deeper than
    /// `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if a decision node references a feature outside
    /// `0..n_features` — the check runs once here and licenses the
    /// walkers' unchecked loads.
    pub fn from_forest(forest: &RandomForest, max_depth: usize) -> Result<Self, ForestError> {
        let n_features = forest.n_features();
        let trees = forest
            .trees()
            .iter()
            .map(|t| SimdTree::build(t, max_depth, n_features))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            trees,
            n_features,
            task: forest.task(),
        })
    }
}

impl std::fmt::Debug for FlatImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatImage")
            .field("n_trees", &self.trees.len())
            .field("n_features", &self.n_features)
            .finish_non_exhaustive()
    }
}

/// One tree encoded as an implicit heap for the SIMD walker.
///
/// Slot `i`'s children live at `2i + 1` and `2i + 2`; the arrays span the
/// full capacity `2^(steps+1) − 1` so `steps` descents from the root can
/// never index out of bounds. Decision slots carry `[feature,
/// threshold.to_bits()]` in `ft`; every slot under a leaf carries the
/// leaf's payload in `payload` (see the module docs for why).
struct SimdTree {
    /// Interleaved `[feature, threshold_bits]` per heap slot (`2 × cap`).
    /// Slots that are not live decision nodes keep `feature = 0` — an
    /// always-in-bounds column — and an arbitrary threshold.
    ft: Vec<u32>,
    /// Exit payload per heap slot (`cap`), leaf values propagated down.
    payload: Vec<f32>,
    /// Fixed descent count — the encoded capacity depth.
    steps: usize,
}

impl SimdTree {
    /// Encodes `tree` with capacity for `steps` levels, in one walk over
    /// its nodes.
    fn build(tree: &DecisionTree, steps: usize, n_features: usize) -> Result<Self, ForestError> {
        assert!(
            n_features > 0,
            "SIMD image requires at least one feature column"
        );
        let cap = (1usize << (steps + 1)) - 1;
        let mut ft = vec![0u32; 2 * cap];
        let mut payload = vec![0f32; cap];
        let nodes = tree.nodes();
        // Walk the structure as (node index, heap slot, depth); every heap
        // slot on the last level lies under exactly one leaf, so every
        // payload a walker can exit on is written.
        let mut stack = vec![(0usize, 0usize, 0usize)];
        while let Some((i, h, d)) = stack.pop() {
            match nodes[i] {
                Node::Leaf(LeafValue::Class(c)) => {
                    fill_subtree(&mut payload, h, d, steps, c as f32)
                }
                Node::Leaf(LeafValue::Value(v)) => fill_subtree(&mut payload, h, d, steps, v),
                // A decision node on the last level has children below
                // the capacity: the tree is deeper than `steps`.
                Node::Decision { .. } if d == steps => {
                    return Err(ForestError::DepthExceeded {
                        depth: tree.depth(),
                        max_depth: steps,
                    })
                }
                Node::Decision {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    assert!(
                        (feature as usize) < n_features,
                        "decision node feature {feature} out of range (model has {n_features})"
                    );
                    ft[2 * h] = u32::from(feature);
                    ft[2 * h + 1] = threshold.to_bits();
                    stack.push((left as usize, 2 * h + 1, d + 1));
                    stack.push((right as usize, 2 * h + 2, d + 1));
                }
            }
        }
        Ok(Self { ft, payload, steps })
    }
}

/// Writes `v` into every heap slot of the subtree rooted at `h` (at depth
/// `d`), down to depth `steps`: a lane that reaches this leaf early keeps
/// descending — the heap walker has no self-loops — and must read the same
/// payload wherever it exits.
fn fill_subtree(payload: &mut [f32], h: usize, d: usize, steps: usize, v: f32) {
    let (mut lo, mut hi) = (h, h);
    for _ in d..=steps {
        for slot in payload.iter_mut().take(hi + 1).skip(lo) {
            *slot = v;
        }
        lo = 2 * lo + 1;
        hi = 2 * hi + 2;
    }
}

/// Walks one record (row `row`) through one heap-encoded tree: the
/// portable lane's step on a single lane, for the rows after the last
/// full lane group.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
fn walk1(tree: &SimdTree, data: &[f32], nf: usize, row: usize) -> f32 {
    debug_assert!(data.len() >= (row + 1) * nf);
    let ft = tree.ft.as_slice();
    let base = row * nf;
    let mut idx = 0usize;
    for _ in 0..tree.steps {
        // SAFETY: `SimdTree::build` sized `ft` for `steps` descents
        // (`2i + 2` from depth < steps stays below capacity) and checked
        // every feature against the model width; `score_simd_batch`
        // asserted the frame has that width `nf`, and `walk_block` passes
        // only rows of the frame.
        unsafe {
            let f = *ft.get_unchecked(2 * idx) as usize;
            let t = f32::from_bits(*ft.get_unchecked(2 * idx + 1));
            let x = *data.get_unchecked(base + f);
            idx = 2 * idx + 2 - usize::from(x <= t);
        }
    }
    // SAFETY: the final heap index is below capacity (see above).
    unsafe { *tree.payload.get_unchecked(idx) }
}

/// Walks `LANES` consecutive records (starting at `row0`) through one
/// heap-encoded tree in lockstep at the given tier.
///
/// Bit-exact with [`walk1`] on each of the lanes' records.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
fn walk8(tree: &SimdTree, data: &[f32], nf: usize, row0: usize, level: SimdLevel) -> [f32; LANES] {
    debug_assert!(data.len() >= (row0 + LANES) * nf);
    // SAFETY: the caller passes a frame whose width matched the forest at
    // entry (`score_simd_batch` asserts it) with at least `LANES` full
    // rows at `row0`; tree invariants are established by `SimdTree::build`.
    #[cfg(target_arch = "x86_64")]
    match level {
        // A single 8-lane group can't fill a 512-bit gather; the AVX2
        // walker is the right tool for the tail stride.
        SimdLevel::Avx512 | SimdLevel::Avx2 => {
            return unsafe { x86::walk8_avx2(tree, data, nf, row0) }
        }
        SimdLevel::Sse2 => return unsafe { x86::walk8_sse2(tree, data, nf, row0) },
        SimdLevel::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    // SAFETY: as above.
    unsafe { walk8_portable(tree, data, nf, row0) }
}

/// Walks `2 × LANES` records through one tree: two independent lane groups
/// in flight so the gather latency of one chain hides behind the other.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
fn walk16(
    tree: &SimdTree,
    data: &[f32],
    nf: usize,
    row0: usize,
    level: SimdLevel,
) -> [f32; 2 * LANES] {
    debug_assert!(data.len() >= (row0 + 2 * LANES) * nf);
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: same contract as `walk8`, with `2 × LANES` rows.
        SimdLevel::Avx512 => return unsafe { x86::walk16_avx512(tree, data, nf, row0) },
        SimdLevel::Avx2 => return unsafe { x86::walk16_avx2(tree, data, nf, row0) },
        _ => {}
    }
    let lo = walk8(tree, data, nf, row0, level);
    let hi = walk8(tree, data, nf, row0 + LANES, level);
    let mut out = [0f32; 2 * LANES];
    out[..LANES].copy_from_slice(&lo);
    out[LANES..].copy_from_slice(&hi);
    out
}

/// Walks `4 × LANES` records through one tree — the main-loop stride,
/// enough independent chains to hide the dependent gather latency.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
fn walk32(
    tree: &SimdTree,
    data: &[f32],
    nf: usize,
    row0: usize,
    level: SimdLevel,
) -> [f32; 4 * LANES] {
    debug_assert!(data.len() >= (row0 + 4 * LANES) * nf);
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: same contract as `walk8`, with `4 × LANES` rows.
        SimdLevel::Avx512 => return unsafe { x86::walk32_avx512(tree, data, nf, row0) },
        SimdLevel::Avx2 => return unsafe { x86::walk32_avx2(tree, data, nf, row0) },
        _ => {}
    }
    let lo = walk16(tree, data, nf, row0, level);
    let hi = walk16(tree, data, nf, row0 + 2 * LANES, level);
    let mut out = [0f32; 4 * LANES];
    out[..2 * LANES].copy_from_slice(&lo);
    out[2 * LANES..].copy_from_slice(&hi);
    out
}

/// Walks `8 × LANES` records through one tree — the main-loop stride on
/// AVX2, where eight independent chains saturate the gather ports.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
fn walk64(
    tree: &SimdTree,
    data: &[f32],
    nf: usize,
    row0: usize,
    level: SimdLevel,
) -> [f32; 8 * LANES] {
    debug_assert!(data.len() >= (row0 + 8 * LANES) * nf);
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: same contract as `walk8`, with `8 × LANES` rows.
        SimdLevel::Avx512 => return unsafe { x86::walk64_avx512(tree, data, nf, row0) },
        SimdLevel::Avx2 => return unsafe { x86::walk64_avx2(tree, data, nf, row0) },
        _ => {}
    }
    let lo = walk32(tree, data, nf, row0, level);
    let hi = walk32(tree, data, nf, row0 + 4 * LANES, level);
    let mut out = [0f32; 8 * LANES];
    out[..4 * LANES].copy_from_slice(&lo);
    out[4 * LANES..].copy_from_slice(&hi);
    out
}

/// Hand-unrolled u32-lane portable walker: no `std::arch`, same unchecked
/// loads as the vector tiers.
///
/// # Safety
///
/// `data` must hold at least `(row0 + LANES) * nf` elements and `nf` must
/// equal the feature width the tree was built against.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
unsafe fn walk8_portable(tree: &SimdTree, data: &[f32], nf: usize, row0: usize) -> [f32; LANES] {
    let ft = tree.ft.as_slice();
    let base = row0 * nf;
    let mut idx = [0u32; LANES];
    for _ in 0..tree.steps {
        macro_rules! lane {
            ($l:literal) => {{
                // SAFETY: heap indices stay below capacity by arithmetic
                // (`2i + 2` from depth < steps), features were validated
                // against `nf` at build, and the caller guarantees `data`
                // covers rows `row0 .. row0 + LANES`.
                unsafe {
                    let h = idx[$l] as usize * 2;
                    let f = *ft.get_unchecked(h);
                    let t = f32::from_bits(*ft.get_unchecked(h + 1));
                    let x = *data.get_unchecked(base + $l * nf + f as usize);
                    idx[$l] = 2 * idx[$l] + 2 - (x <= t) as u32;
                }
            }};
        }
        lane!(0);
        lane!(1);
        lane!(2);
        lane!(3);
        lane!(4);
        lane!(5);
        lane!(6);
        lane!(7);
    }
    let mut out = [0f32; LANES];
    for l in 0..LANES {
        // SAFETY: final heap indices are below capacity (see above).
        out[l] = unsafe { *tree.payload.get_unchecked(idx[l] as usize) };
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `std::arch` walkers. All `unsafe` here is (a) intrinsics gated by
    //! `#[target_feature]` — callers go through [`super::walk8`], which
    //! only routes to a tier reported by `SimdLevel::supported()` — and
    //! (b) unchecked loads/gathers licensed by `SimdTree::build`'s
    //! validation plus the caller's row-coverage contract.
    #![allow(unsafe_code)]

    use std::arch::x86_64::*;

    use super::{SimdTree, LANES};

    /// 8-lane AVX2 walker: one gather per field, pure-ALU child step.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `data` must hold `(row0 + LANES) * nf` elements and
    /// `nf` must equal the tree's build-time feature width.
    // analyze: hot
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk8_avx2(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; LANES] {
        let ft = tree.ft.as_ptr() as *const i32;
        let row = data.as_ptr().add(row0 * nf);
        let nf = nf as i32;
        let lane_off = _mm256_setr_epi32(0, nf, 2 * nf, 3 * nf, 4 * nf, 5 * nf, 6 * nf, 7 * nf);
        let one = _mm256_set1_epi32(1);
        let two = _mm256_set1_epi32(2);
        let mut idx = _mm256_setzero_si256();
        for _ in 0..tree.steps {
            let h2 = _mm256_slli_epi32::<1>(idx);
            let feat = _mm256_i32gather_epi32::<4>(ft, h2);
            let thr = _mm256_i32gather_ps::<4>(ft as *const f32, _mm256_add_epi32(h2, one));
            let x = _mm256_i32gather_ps::<4>(row, _mm256_add_epi32(lane_off, feat));
            // Ordered-quiet `x <= thr`: NaN compares false → right child,
            // exactly the scalar walkers' `if x <= t` semantics.
            let go_left = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(x, thr));
            // left = 2i+1, right = 2i+2; `go_left` lanes are −1.
            idx = _mm256_add_epi32(_mm256_add_epi32(idx, idx), _mm256_add_epi32(two, go_left));
        }
        let leaf = _mm256_i32gather_ps::<4>(tree.payload.as_ptr(), idx);
        let mut out = [0f32; LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), leaf);
        out
    }

    /// `G × 8`-lane AVX2 walker: `G` independent 8-lane chains
    /// interleaved in one loop body, so while one chain waits on its
    /// dependent `feature → x[feature]` gather pair the others issue
    /// theirs. The per-step critical path is two gather latencies
    /// (~40 cycles); four chains keep the gather ports saturated.
    ///
    /// # Safety
    ///
    /// As [`walk8_avx2`], with `G × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx2")]
    unsafe fn walk_groups_avx2<const G: usize>(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [[f32; LANES]; G] {
        let ft = tree.ft.as_ptr() as *const i32;
        let row = data.as_ptr().add(row0 * nf);
        let nf = nf as i32;
        let lane0 = _mm256_setr_epi32(0, nf, 2 * nf, 3 * nf, 4 * nf, 5 * nf, 6 * nf, 7 * nf);
        let one = _mm256_set1_epi32(1);
        let two = _mm256_set1_epi32(2);
        let mut lane_off = [lane0; G];
        for (g, off) in lane_off.iter_mut().enumerate() {
            *off = _mm256_add_epi32(lane0, _mm256_set1_epi32(8 * nf * g as i32));
        }
        let mut idx = [_mm256_setzero_si256(); G];
        for _ in 0..tree.steps {
            let mut h2 = [_mm256_setzero_si256(); G];
            let mut feat = h2;
            let mut thr = [_mm256_setzero_ps(); G];
            let mut x = thr;
            for g in 0..G {
                h2[g] = _mm256_slli_epi32::<1>(idx[g]);
            }
            for g in 0..G {
                feat[g] = _mm256_i32gather_epi32::<4>(ft, h2[g]);
            }
            for g in 0..G {
                thr[g] = _mm256_i32gather_ps::<4>(ft as *const f32, _mm256_add_epi32(h2[g], one));
            }
            for g in 0..G {
                x[g] = _mm256_i32gather_ps::<4>(row, _mm256_add_epi32(lane_off[g], feat[g]));
            }
            for g in 0..G {
                let go_left = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(x[g], thr[g]));
                idx[g] = _mm256_add_epi32(
                    _mm256_add_epi32(idx[g], idx[g]),
                    _mm256_add_epi32(two, go_left),
                );
            }
        }
        let mut out = [[0f32; LANES]; G];
        for g in 0..G {
            let leaf = _mm256_i32gather_ps::<4>(tree.payload.as_ptr(), idx[g]);
            _mm256_storeu_ps(out[g].as_mut_ptr(), leaf);
        }
        out
    }

    /// 16-lane AVX2 walker: two independent 8-lane chains.
    ///
    /// # Safety
    ///
    /// As [`walk8_avx2`], with `2 × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk16_avx2(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; 2 * LANES] {
        let groups = walk_groups_avx2::<2>(tree, data, nf, row0);
        let mut out = [0f32; 2 * LANES];
        out[..LANES].copy_from_slice(&groups[0]);
        out[LANES..].copy_from_slice(&groups[1]);
        out
    }

    /// 32-lane AVX2 walker: four independent 8-lane chains.
    ///
    /// # Safety
    ///
    /// As [`walk8_avx2`], with `4 × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk32_avx2(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; 4 * LANES] {
        let groups = walk_groups_avx2::<4>(tree, data, nf, row0);
        let mut out = [0f32; 4 * LANES];
        for (g, group) in groups.iter().enumerate() {
            out[g * LANES..(g + 1) * LANES].copy_from_slice(group);
        }
        out
    }

    /// 64-lane AVX2 walker: eight independent 8-lane chains.
    ///
    /// # Safety
    ///
    /// As [`walk8_avx2`], with `8 × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk64_avx2(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; 8 * LANES] {
        let groups = walk_groups_avx2::<8>(tree, data, nf, row0);
        let mut out = [0f32; 8 * LANES];
        for (g, group) in groups.iter().enumerate() {
            out[g * LANES..(g + 1) * LANES].copy_from_slice(group);
        }
        out
    }

    /// `G × 16`-lane AVX-512 walker: the same step as
    /// [`walk_groups_avx2`] on 512-bit registers — 16 lanes per gather
    /// halve the instruction count, the mask compare
    /// (`_mm512_cmp_ps_mask`, ordered-quiet, NaN → right) replaces the
    /// blend arithmetic with a masked subtract, and 32 zmm registers keep
    /// `G` chains live without spills.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `data` must hold `(row0 + G × 16) * nf`
    /// elements and `nf` must equal the tree's build-time feature width.
    // analyze: hot
    #[target_feature(enable = "avx512f")]
    unsafe fn walk_groups_avx512<const G: usize>(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [[f32; 2 * LANES]; G] {
        let ft = tree.ft.as_ptr() as *const i32;
        let row = data.as_ptr().add(row0 * nf);
        let nf = nf as i32;
        #[rustfmt::skip]
        let lane0 = _mm512_setr_epi32(
            0, nf, 2 * nf, 3 * nf, 4 * nf, 5 * nf, 6 * nf, 7 * nf,
            8 * nf, 9 * nf, 10 * nf, 11 * nf, 12 * nf, 13 * nf, 14 * nf, 15 * nf,
        );
        let one = _mm512_set1_epi32(1);
        let two = _mm512_set1_epi32(2);
        let mut lane_off = [lane0; G];
        for (g, off) in lane_off.iter_mut().enumerate() {
            *off = _mm512_add_epi32(lane0, _mm512_set1_epi32(16 * nf * g as i32));
        }
        let mut idx = [_mm512_setzero_si512(); G];
        for _ in 0..tree.steps {
            let mut h2 = [_mm512_setzero_si512(); G];
            let mut feat = h2;
            let mut thr = [_mm512_setzero_ps(); G];
            let mut x = thr;
            for g in 0..G {
                h2[g] = _mm512_slli_epi32::<1>(idx[g]);
            }
            for g in 0..G {
                feat[g] = _mm512_i32gather_epi32::<4>(h2[g], ft);
            }
            for g in 0..G {
                thr[g] = _mm512_i32gather_ps::<4>(_mm512_add_epi32(h2[g], one), ft as *const f32);
            }
            for g in 0..G {
                x[g] = _mm512_i32gather_ps::<4>(_mm512_add_epi32(lane_off[g], feat[g]), row);
            }
            for g in 0..G {
                // Ordered-quiet `x <= thr`: NaN compares false → right
                // child, matching every scalar walker.
                let go_left = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(x[g], thr[g]);
                let right = _mm512_add_epi32(_mm512_add_epi32(idx[g], idx[g]), two);
                // left = right − 1 on the lanes whose compare succeeded.
                idx[g] = _mm512_mask_sub_epi32(right, go_left, right, one);
            }
        }
        let mut out = [[0f32; 2 * LANES]; G];
        for g in 0..G {
            let leaf = _mm512_i32gather_ps::<4>(idx[g], tree.payload.as_ptr());
            _mm512_storeu_ps(out[g].as_mut_ptr(), leaf);
        }
        out
    }

    /// 16-lane AVX-512 walker: one 16-lane chain.
    ///
    /// # Safety
    ///
    /// As [`walk_groups_avx512`], with `2 × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn walk16_avx512(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; 2 * LANES] {
        walk_groups_avx512::<1>(tree, data, nf, row0)[0]
    }

    /// 32-lane AVX-512 walker: two independent 16-lane chains.
    ///
    /// # Safety
    ///
    /// As [`walk_groups_avx512`], with `4 × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn walk32_avx512(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; 4 * LANES] {
        let groups = walk_groups_avx512::<2>(tree, data, nf, row0);
        let mut out = [0f32; 4 * LANES];
        out[..2 * LANES].copy_from_slice(&groups[0]);
        out[2 * LANES..].copy_from_slice(&groups[1]);
        out
    }

    /// 64-lane AVX-512 walker: four independent 16-lane chains.
    ///
    /// # Safety
    ///
    /// As [`walk_groups_avx512`], with `8 × LANES` rows at `row0`.
    // analyze: hot
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn walk64_avx512(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; 8 * LANES] {
        let groups = walk_groups_avx512::<4>(tree, data, nf, row0);
        let mut out = [0f32; 8 * LANES];
        for (g, group) in groups.iter().enumerate() {
            out[g * 2 * LANES..(g + 1) * 2 * LANES].copy_from_slice(group);
        }
        out
    }

    /// 8-lane SSE2 walker: scalar gathers (SSE2 has none), 4-wide ordered
    /// compare and child-index arithmetic on xmm registers, two halves.
    ///
    /// # Safety
    ///
    /// `data` must hold `(row0 + LANES) * nf` elements and `nf` must equal
    /// the tree's build-time feature width. (SSE2 itself is part of the
    /// x86_64 baseline.)
    // analyze: hot
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn walk8_sse2(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [f32; LANES] {
        let ft = tree.ft.as_slice();
        let base = row0 * nf;
        let two = _mm_set1_epi32(2);
        let mut v0 = _mm_setzero_si128();
        let mut v1 = _mm_setzero_si128();
        let mut hid = [0i32; LANES];
        let mut thr = [0f32; LANES];
        let mut x = [0f32; LANES];
        for _ in 0..tree.steps {
            _mm_storeu_si128(hid.as_mut_ptr() as *mut __m128i, v0);
            _mm_storeu_si128(hid.as_mut_ptr().add(4) as *mut __m128i, v1);
            for l in 0..LANES {
                let h = hid[l] as usize * 2;
                let f = *ft.get_unchecked(h) as usize;
                thr[l] = f32::from_bits(*ft.get_unchecked(h + 1));
                x[l] = *data.get_unchecked(base + l * nf + f);
            }
            let m0 = _mm_castps_si128(_mm_cmple_ps(
                _mm_loadu_ps(x.as_ptr()),
                _mm_loadu_ps(thr.as_ptr()),
            ));
            let m1 = _mm_castps_si128(_mm_cmple_ps(
                _mm_loadu_ps(x.as_ptr().add(4)),
                _mm_loadu_ps(thr.as_ptr().add(4)),
            ));
            v0 = _mm_add_epi32(_mm_add_epi32(v0, v0), _mm_add_epi32(two, m0));
            v1 = _mm_add_epi32(_mm_add_epi32(v1, v1), _mm_add_epi32(two, m1));
        }
        _mm_storeu_si128(hid.as_mut_ptr() as *mut __m128i, v0);
        _mm_storeu_si128(hid.as_mut_ptr().add(4) as *mut __m128i, v1);
        let mut out = [0f32; LANES];
        for l in 0..LANES {
            out[l] = *tree.payload.get_unchecked(hid[l] as usize);
        }
        out
    }
}

/// Walks one record block through every tree of the image, handing each
/// `(row within the block, leaf payload)` pair to `fold` — a vote
/// increment for classification, an accumulate for regression.
///
/// Trees are visited in ascending order, chunk by chunk, for every row, so
/// a regression accumulator adds tree outputs in exactly the sequential
/// fold order.
// analyze: hot
fn walk_block(
    image: &FlatImage,
    frame: &TabularFrame,
    rows: Range<usize>,
    tree_block: usize,
    level: SimdLevel,
    mut fold: impl FnMut(usize, f32),
) {
    let blen = rows.len();
    let nf = frame.n_features();
    let data = frame.as_slice();
    for chunk in image.trees.chunks(tree_block) {
        let mut k = 0;
        while k + 8 * LANES <= blen {
            for tree in chunk {
                let leaves = walk64(tree, data, nf, rows.start + k, level);
                for (l, &leaf) in leaves.iter().enumerate() {
                    fold(k + l, leaf);
                }
            }
            k += 8 * LANES;
        }
        while k + 4 * LANES <= blen {
            for tree in chunk {
                let leaves = walk32(tree, data, nf, rows.start + k, level);
                for (l, &leaf) in leaves.iter().enumerate() {
                    fold(k + l, leaf);
                }
            }
            k += 4 * LANES;
        }
        while k + LANES <= blen {
            for tree in chunk {
                let leaves = walk8(tree, data, nf, rows.start + k, level);
                for (l, &leaf) in leaves.iter().enumerate() {
                    fold(k + l, leaf);
                }
            }
            k += LANES;
        }
        for tree in chunk {
            for r in k..blen {
                fold(r, walk1(tree, data, nf, rows.start + r));
            }
        }
    }
}

/// Scores a frame against a prepared [`FlatImage`] with the explicit-SIMD
/// lane walker at the given tier.
///
/// Bit-exact with the sequential `FlatForest::score_one` at every tier:
/// the traversal decisions, vote counts, and ascending-tree-order
/// regression folds are identical.
///
/// # Panics
///
/// Panics if the frame's feature count differs from the model's, or if
/// `level` is stronger than [`SimdLevel::supported`] — its walkers would
/// execute instructions the host lacks.
pub fn score_simd_batch(
    image: &FlatImage,
    frame: &TabularFrame,
    pool: &ExecPool,
    cfg: &RunConfig,
    level: SimdLevel,
) -> (Predictions, RunReport) {
    assert_eq!(
        frame.n_features(),
        image.n_features,
        "frame/model feature width mismatch: frame has {} features, model expects {}",
        frame.n_features(),
        image.n_features
    );
    assert!(
        level <= SimdLevel::supported(),
        "SIMD tier {} is not supported on this host",
        level.name()
    );
    let n = frame.n_rows();
    match image.task {
        Task::Classification { n_classes } => {
            let n_classes = n_classes as usize;
            let mut out = vec![0u32; n];
            let shared = SharedOut::new(&mut out);
            let report = pool.run(n, cfg, &|_w, range| {
                SCRATCH.with(|s| {
                    let votes = &mut s.borrow_mut().votes;
                    for rows in blocks(range.clone(), cfg.record_block) {
                        votes.clear();
                        votes.resize(rows.len() * n_classes, 0);
                        walk_block(
                            image,
                            frame,
                            rows.clone(),
                            cfg.tree_block,
                            level,
                            |r, leaf| {
                                votes[r * n_classes + leaf as usize] += 1;
                            },
                        );
                        for (r, counts) in votes.chunks_exact(n_classes).enumerate() {
                            shared.write(rows.start + r, RandomForest::majority(counts));
                        }
                    }
                });
            });
            (Predictions::Classes(out), report)
        }
        Task::Regression => {
            let n_trees = image.trees.len() as f32;
            let mut out = vec![0f32; n];
            let shared = SharedOut::new(&mut out);
            let report = pool.run(n, cfg, &|_w, range| {
                SCRATCH.with(|s| {
                    let acc = &mut s.borrow_mut().acc;
                    for rows in blocks(range.clone(), cfg.record_block) {
                        acc.clear();
                        acc.resize(rows.len(), 0.0);
                        walk_block(
                            image,
                            frame,
                            rows.clone(),
                            cfg.tree_block,
                            level,
                            |r, leaf| {
                                acc[r] += leaf;
                            },
                        );
                        for (r, &sum) in acc.iter().enumerate() {
                            shared.write(rows.start + r, sum / n_trees);
                        }
                    }
                });
            });
            (Predictions::Values(out), report)
        }
    }
}

/// The flat-layout kernel a scoring call ran: always the SIMD lane walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Explicit-SIMD lane walk ([`score_simd_batch`]).
    Simd,
}

impl Kernel {
    /// Stable lower-case name, used as a span tag by callers that record
    /// which kernel scored a batch.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Simd => "simd",
        }
    }
}

/// What [`score_auto_batch`] ran: the kernel and the SIMD tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelChoice {
    /// The kernel dispatched.
    pub kernel: Kernel,
    /// The SIMD tier the walker ran at ([`SimdLevel::detect`]).
    pub level: SimdLevel,
}

/// Scores a frame with the SIMD lane walker at the detected tier,
/// returning what ran alongside the predictions.
///
/// # Panics
///
/// Panics if the frame's feature count differs from the model's.
pub fn score_auto_batch(
    image: &FlatImage,
    frame: &TabularFrame,
    pool: &ExecPool,
    cfg: &RunConfig,
) -> (Predictions, RunReport, KernelChoice) {
    let choice = KernelChoice {
        kernel: Kernel::Simd,
        level: SimdLevel::detect(),
    };
    let (preds, report) = score_simd_batch(image, frame, pool, cfg, choice.level);
    (preds, report, choice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_forest::{FlatForest, ForestConfig, RandomForest};

    fn frame(rows: usize, nf: usize, seed: u64) -> TabularFrame {
        let data: Vec<f32> = (0..rows * nf)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed)) % 1000) as f32 / 1000.0
            })
            .collect();
        TabularFrame::from_rows(data, nf).unwrap()
    }

    fn levels() -> Vec<SimdLevel> {
        let mut ls = vec![SimdLevel::Portable];
        if SimdLevel::supported() >= SimdLevel::Sse2 {
            ls.push(SimdLevel::Sse2);
        }
        if SimdLevel::supported() >= SimdLevel::Avx2 {
            ls.push(SimdLevel::Avx2);
        }
        if SimdLevel::supported() >= SimdLevel::Avx512 {
            ls.push(SimdLevel::Avx512);
        }
        ls
    }

    /// Predictions as raw bits so regression outputs compare exactly.
    fn bits(preds: &Predictions) -> Vec<u32> {
        match preds {
            Predictions::Classes(c) => c.clone(),
            Predictions::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// The sequential `FlatForest::score_one` reference, as raw bits.
    fn sequential(forest: &RandomForest, depth: usize, f: &TabularFrame) -> Vec<u32> {
        let flat = FlatForest::from_forest(forest, depth).unwrap();
        f.rows()
            .map(|r| match flat.task() {
                Task::Classification { .. } => flat.score_one(r) as u32,
                Task::Regression => flat.score_one(r).to_bits(),
            })
            .collect()
    }

    /// Lowers `forest` at capacity `depth`, scores `f` at every tier the
    /// host supports, and asserts each one reproduces the sequential
    /// reference bit for bit.
    fn assert_every_level_exact(
        forest: &RandomForest,
        depth: usize,
        f: &TabularFrame,
        pool: &ExecPool,
        cfg: &RunConfig,
    ) {
        let image = FlatImage::from_forest(forest, depth).unwrap();
        let want = sequential(forest, depth, f);
        for level in levels() {
            let (simd, report) = score_simd_batch(&image, f, pool, cfg, level);
            assert_eq!(bits(&simd), want, "{} rows, level {level:?}", f.n_rows());
            assert_eq!(report.rows(), f.n_rows());
        }
    }

    #[test]
    fn every_level_matches_sequential_classification() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(24, 5, 3).with_depth(7), 42);
        let cfg = RunConfig::for_threads(4)
            .with_record_block(32)
            .with_tree_block(5);
        assert_every_level_exact(&forest, 7, &frame(333, 5, 1), &ExecPool::new(4), &cfg);
    }

    #[test]
    fn every_level_matches_sequential_regression_bit_exact() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::regression(17, 4).with_depth(6), 9);
        let cfg = RunConfig::for_threads(3)
            .with_record_block(48)
            .with_tree_block(4);
        assert_every_level_exact(&forest, 6, &frame(203, 4, 7), &ExecPool::new(3), &cfg);
    }

    #[test]
    fn sparse_trained_tree_heap_encoding_matches_scalar() {
        // Trained (non-full) trees exercise the leaf payload propagation:
        // most leaves sit far above the capacity depth.
        use mlscore_forest::{ForestBuilder, TrainOptions};
        let nf = 5usize;
        let train = frame(300, nf, 17);
        let y: Vec<u32> = (0..300)
            .map(|i| ((i * 2654435761usize) >> 7) as u32 % 3)
            .collect();
        let forest = ForestBuilder::new(
            9,
            TrainOptions {
                max_depth: 6,
                ..Default::default()
            },
        )
        .train_classifier(train.as_slice(), nf, &y, 3)
        .unwrap();
        let f = frame(100, nf, 3);
        let (pool, cfg) = (ExecPool::new(2), RunConfig::for_threads(2));
        assert_every_level_exact(&forest, 6, &f, &pool, &cfg);
        let image = FlatImage::from_forest(&forest, 6).unwrap();
        let (preds, _) = score_simd_batch(&image, &f, &pool, &cfg, SimdLevel::detect());
        assert_eq!(preds, forest.predict_batch(f.as_slice()));
    }

    #[test]
    fn short_and_empty_batches() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 3, 2).with_depth(4), 1);
        let pool = ExecPool::new(2);
        for rows in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let f = frame(rows, 3, rows as u64);
            assert_every_level_exact(&forest, 4, &f, &pool, &RunConfig::default());
        }
    }

    #[test]
    fn depth_zero_forest() {
        let forest = RandomForest::synthetic_full(&ForestConfig::regression(3, 2).with_depth(0), 2);
        let (pool, cfg) = (ExecPool::new(2), RunConfig::for_threads(2));
        assert_every_level_exact(&forest, 0, &frame(33, 2, 8), &pool, &cfg);
    }

    #[test]
    fn too_deep_tree_is_rejected_at_lowering() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(2, 3, 2).with_depth(5), 4);
        let err = FlatImage::from_forest(&forest, 4).unwrap_err();
        assert!(matches!(
            err,
            ForestError::DepthExceeded {
                depth: 5,
                max_depth: 4
            }
        ));
    }

    #[test]
    fn nan_features_follow_scalar_semantics() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(6, 4, 3).with_depth(5), 13);
        let (pool, cfg) = (ExecPool::new(2), RunConfig::for_threads(2));
        // Row counts with a 1–7 row tail after every lane-group stride, so
        // NaN rows reach the one-lane tail walk too.
        for rows in [3usize, 24, 3 * LANES + 5, 8 * LANES + 1, 12 * LANES + 7] {
            let mut data = vec![0.4f32; rows * 4];
            for (i, v) in data.iter_mut().enumerate() {
                if i % 5 == 0 {
                    *v = f32::NAN;
                }
            }
            let f = TabularFrame::from_rows(data, 4).unwrap();
            assert_every_level_exact(&forest, 5, &f, &pool, &cfg);
        }
    }

    #[test]
    fn auto_batch_runs_the_walker_at_the_detected_tier() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(8, 4, 3).with_depth(6), 5);
        let image = FlatImage::from_forest(&forest, 6).unwrap();
        let f = frame(77, 4, 2);
        let (preds, report, choice) =
            score_auto_batch(&image, &f, &ExecPool::new(2), &RunConfig::for_threads(2));
        assert_eq!(choice.kernel.name(), "simd");
        assert_eq!(choice.level, SimdLevel::detect());
        assert_eq!(bits(&preds), sequential(&forest, 6, &f));
        assert_eq!(report.rows(), 77);
    }

    #[test]
    fn detect_is_the_strongest_supported_tier() {
        assert_eq!(SimdLevel::detect(), SimdLevel::supported());
    }
}
