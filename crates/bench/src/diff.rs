//! Benchmark regression diffing (`repro bench --diff`).
//!
//! Compares two benchmark documents cell by cell. The old report's
//! `"schema"` key picks the comparison:
//!
//! - `mlscore/bench-cpu-scoring/v1` (`BENCH_cpu_scoring.json`): cases are
//!   keyed by `(dataset, trees, depth, records)` and their thread runs by
//!   thread count; every `*_records_per_sec` number gates.
//! - `mlscore/bench-serving/v1` (`BENCH_serving.json`): sweep points,
//!   the FPGA overload pair, and — schema v3 — the fleet shmoo cells are
//!   flattened to labelled blocks; the higher-is-better metrics
//!   (throughput, attainment, cache hit rate) gate, while latency and
//!   device-seconds (lower is better) stay informational.
//!
//! Each gated number in the new report must come within a relative
//! tolerance of the old one. Missing cases, runs, or blocks are
//! regressions too — a report cannot "improve" by silently dropping the
//! slow cells. The comparison is keyed on the metrics the *old* report
//! carries: cells or per-run metrics that only exist in the new report
//! (a freshly landed kernel tier, a schema bump that adds the fleet
//! block) are informational, never regressions — so a committed v2
//! serving report diffs clean against its v3 successor. Improvements are
//! never flagged; the diff is a one-sided perf gate, wired into CI as a
//! self-diff smoke.

use std::collections::BTreeMap;

use mlscore_telemetry::json::{self, JsonValue};

/// Default relative tolerance: a cell may lose up to 25% throughput
/// before the diff calls it a regression. Wall-clock benchmarks on shared
/// CI hosts jitter; a quarter is far outside noise for the kernels this
/// gate protects.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Per-run metric suffix every compared throughput key shares.
const METRIC_SUFFIX: &str = "_records_per_sec";

/// One case's comparable numbers: throughput metrics per thread count.
#[derive(Debug, Clone, Default)]
struct CaseCells {
    /// `threads -> { metric name -> records/second }`, one entry per
    /// `*_records_per_sec` key the run carries.
    runs: BTreeMap<u64, BTreeMap<String, f64>>,
}

/// `(dataset, trees, depth, records)` -> cells, for one report document.
type CaseMap = BTreeMap<(String, u64, u64, u64), CaseCells>;

fn num(v: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what}: missing numeric \"{key}\""))
}

/// Indexes a CPU-scoring report's cases for comparison.
fn index(text: &str, label: &str) -> Result<CaseMap, String> {
    let doc = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("mlscore/bench-cpu-scoring/v1") => {}
        other => return Err(format!("{label}: unexpected schema {other:?}")),
    }
    let cases = doc
        .get("cases")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{label}: missing \"cases\" array"))?;
    let mut map = CaseMap::new();
    for (i, case) in cases.iter().enumerate() {
        let what = format!("{label}: case {i}");
        let dataset = case
            .get("dataset")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{what}: missing \"dataset\""))?
            .to_string();
        let key = (
            dataset,
            num(case, "trees", &what)? as u64,
            num(case, "depth", &what)? as u64,
            num(case, "records", &what)? as u64,
        );
        let runs = case
            .get("runs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{what}: missing \"runs\" array"))?;
        let mut cells = CaseCells::default();
        for run in runs {
            let JsonValue::Object(fields) = run else {
                return Err(format!("{what}: run is not an object"));
            };
            let mut metrics = BTreeMap::new();
            for (name, value) in fields {
                if !name.ends_with(METRIC_SUFFIX) {
                    continue;
                }
                let v = value
                    .as_f64()
                    .ok_or_else(|| format!("{what}: non-numeric \"{name}\""))?;
                metrics.insert(name.clone(), v);
            }
            if metrics.is_empty() {
                return Err(format!("{what}: run has no {METRIC_SUFFIX} metrics"));
            }
            cells
                .runs
                .insert(num(run, "threads", &what)? as u64, metrics);
        }
        map.insert(key, cells);
    }
    Ok(map)
}

/// Higher-is-better metrics gated on every serving sweep/overload block.
const SERVING_GATED: &[&str] = &[
    "throughput_qps",
    "records_per_sec",
    "interactive_attainment",
    "analytical_attainment",
];

/// Higher-is-better metrics gated on every fleet shmoo cell.
/// `device_seconds` is deliberately absent: lower is better there.
const FLEET_GATED: &[&str] = &["throughput_qps", "interactive_attainment", "cache_hit_rate"];

/// Flat serving-report cells: `block label -> { metric -> value }`.
type ServingMap = BTreeMap<String, BTreeMap<String, f64>>;

/// Collects `keys` out of `block` into `map` under `label`.
fn serving_block(
    map: &mut ServingMap,
    label: String,
    block: &JsonValue,
    keys: &[&str],
) -> Result<(), String> {
    let mut metrics = BTreeMap::new();
    for &key in keys {
        if let Some(v) = block.get(key).and_then(JsonValue::as_f64) {
            metrics.insert(key.to_string(), v);
        }
    }
    if metrics.is_empty() {
        return Err(format!("{label}: no comparable metrics"));
    }
    map.insert(label, metrics);
    Ok(())
}

/// Indexes a serving report's sweep points, overload pair, and (schema
/// v3) fleet cells for comparison.
fn index_serving(text: &str, label: &str) -> Result<ServingMap, String> {
    let doc = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("mlscore/bench-serving/v1") => {}
        other => return Err(format!("{label}: unexpected schema {other:?}")),
    }
    let mut map = ServingMap::new();
    let sweep = doc
        .get("sweep")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{label}: missing \"sweep\" array"))?;
    for (i, point) in sweep.iter().enumerate() {
        let rate = num(point, "rate_qps", &format!("{label}: sweep point {i}"))?;
        for side in ["coalesce_on", "coalesce_off"] {
            let block = point
                .get(side)
                .ok_or_else(|| format!("{label}: sweep point {i}: missing \"{side}\""))?;
            serving_block(
                &mut map,
                format!("sweep @{rate:.0}qps {side}"),
                block,
                SERVING_GATED,
            )?;
        }
    }
    let fo = doc
        .get("fpga_overload")
        .ok_or_else(|| format!("{label}: missing \"fpga_overload\" block"))?;
    for side in ["coalesce_on", "coalesce_off"] {
        let block = fo
            .get(side)
            .ok_or_else(|| format!("{label}: fpga_overload: missing \"{side}\""))?;
        serving_block(
            &mut map,
            format!("fpga_overload {side}"),
            block,
            SERVING_GATED,
        )?;
    }
    if let Some(fleet) = doc.get("fleet") {
        let cells = fleet
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{label}: fleet: missing \"cells\" array"))?;
        for (i, cell) in cells.iter().enumerate() {
            let field = |key: &str| {
                cell.get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{label}: fleet cell {i}: missing \"{key}\""))
            };
            let cell_label = format!(
                "fleet {}/{}/{}",
                field("policy")?,
                field("scale")?,
                field("scenario")?
            );
            serving_block(&mut map, cell_label, cell, FLEET_GATED)?;
        }
    }
    Ok(map)
}

/// One-sided comparison of two flat serving maps.
fn diff_serving(old_text: &str, new_text: &str, tolerance: f64) -> Result<Vec<String>, String> {
    let old = index_serving(old_text, "old")?;
    let new = index_serving(new_text, "new")?;
    let mut regressions = Vec::new();
    for (label, old_metrics) in &old {
        let Some(new_metrics) = new.get(label) else {
            regressions.push(format!("{label}: block missing from new report"));
            continue;
        };
        for (metric, &old_v) in old_metrics {
            let Some(&new_v) = new_metrics.get(metric) else {
                regressions.push(format!("{label}: {metric} missing from new report"));
                continue;
            };
            if new_v < old_v * (1.0 - tolerance) {
                regressions.push(format!(
                    "{label}: {metric} regressed {old_v:.3} -> {new_v:.3} \
                     ({:+.1}%, tolerance {:.0}%)",
                    (new_v / old_v - 1.0) * 100.0,
                    tolerance * 100.0,
                ));
            }
        }
    }
    Ok(regressions)
}

/// Compares `new_text` against `old_text` with relative `tolerance`.
///
/// The old report's schema picks the comparison (CPU scoring or serving;
/// see the module docs). Returns one human-readable line per regression
/// (empty: the gate passes). A cell regresses when its new throughput
/// falls below `old * (1 - tolerance)`; cases, thread runs, blocks, or
/// per-run metrics present in the old report but absent from the new one
/// regress unconditionally. The reverse is informational: cells and
/// metrics that only the *new* report carries (e.g. a kernel tier or
/// fleet block that just landed) are never regressions.
///
/// # Errors
///
/// Returns a description of the first structural problem in either
/// document (bad JSON, wrong or mismatched schemas, missing fields).
pub fn diff(old_text: &str, new_text: &str, tolerance: f64) -> Result<Vec<String>, String> {
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    let old_doc = json::parse(old_text).map_err(|e| format!("old: {e}"))?;
    if let Some("mlscore/bench-serving/v1") = old_doc.get("schema").and_then(JsonValue::as_str) {
        return diff_serving(old_text, new_text, tolerance);
    }
    let old = index(old_text, "old")?;
    let new = index(new_text, "new")?;
    let mut regressions = Vec::new();
    for (key, old_cells) in &old {
        let (dataset, trees, depth, records) = key;
        let label = format!("{dataset} x{trees} trees depth {depth} @{records}");
        let Some(new_cells) = new.get(key) else {
            regressions.push(format!("{label}: case missing from new report"));
            continue;
        };
        for (&threads, old_metrics) in &old_cells.runs {
            let Some(new_metrics) = new_cells.runs.get(&threads) else {
                regressions.push(format!(
                    "{label}: {threads}-thread run missing from new report"
                ));
                continue;
            };
            // Only the old report's metrics gate; new-only metrics are
            // additions, not comparables.
            for (metric, &old_v) in old_metrics {
                let Some(&new_v) = new_metrics.get(metric) else {
                    regressions.push(format!(
                        "{label}: {threads}-thread {metric} missing from new report"
                    ));
                    continue;
                };
                let floor = old_v * (1.0 - tolerance);
                if new_v < floor {
                    regressions.push(format!(
                        "{label}: {threads}-thread {metric} regressed \
                         {old_v:.0} -> {new_v:.0} ({:+.1}%, tolerance {:.0}%)",
                        (new_v / old_v - 1.0) * 100.0,
                        tolerance * 100.0,
                    ));
                }
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(flat: f64, forest: f64) -> String {
        format!(
            "{{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 2,\n\
             \"cases\": [\n\
               {{\"dataset\": \"higgs\", \"trees\": 128, \"depth\": 10, \"records\": 10000,\n\
                \"runs\": [{{\"threads\": 1, \"flat_records_per_sec\": {flat},\n\
                            \"forest_records_per_sec\": {forest}}}]}}\n\
             ]}}"
        )
    }

    #[test]
    fn self_diff_is_clean() {
        let text = report(1e6, 2e6);
        assert_eq!(diff(&text, &text, DEFAULT_TOLERANCE), Ok(vec![]));
    }

    #[test]
    fn losses_beyond_tolerance_regress_and_gains_never_do() {
        let old = report(1e6, 2e6);
        // 10% flat loss: inside the 25% tolerance.
        assert_eq!(diff(&old, &report(0.9e6, 2e6), 0.25), Ok(vec![]));
        // 30% flat loss: regression.
        let r = diff(&old, &report(0.7e6, 2e6), 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("flat_records_per_sec"), "{r:?}");
        assert!(r[0].contains("-30.0%"), "{r:?}");
        // Both metrics can regress independently.
        assert_eq!(diff(&old, &report(0.1e6, 0.1e6), 0.25).unwrap().len(), 2);
        // Improvement is never flagged.
        assert_eq!(diff(&old, &report(9e6, 9e6), 0.25), Ok(vec![]));
    }

    /// A v3-style report: same cell as [`report`] plus the vector-tier
    /// metrics and an extra case the old report never had.
    fn report_with_kernel_tier(flat: f64, simd: f64) -> String {
        format!(
            "{{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 3,\n\
             \"cases\": [\n\
               {{\"dataset\": \"higgs\", \"trees\": 128, \"depth\": 10, \"records\": 10000,\n\
                \"runs\": [{{\"threads\": 1, \"flat_records_per_sec\": {flat},\n\
                            \"forest_records_per_sec\": 2e6,\n\
                            \"simd_records_per_sec\": {simd},\n\
                            \"quickscorer_records_per_sec\": 1700}}]}},\n\
               {{\"dataset\": \"iris\", \"trees\": 8, \"depth\": 10, \"records\": 500,\n\
                \"runs\": [{{\"threads\": 1, \"flat_records_per_sec\": 5e6}}]}}\n\
             ]}}"
        )
    }

    #[test]
    fn missing_cases_and_runs_regress() {
        let old = report(1e6, 2e6);
        let empty = "{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"cases\": []}";
        let r = diff(&old, empty, 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("case missing"), "{r:?}");
        // New cases appearing is fine.
        assert_eq!(diff(empty, &old, 0.25), Ok(vec![]));
    }

    #[test]
    fn added_cells_and_metrics_are_informational() {
        // A schema-bumped report that adds a whole kernel tier (new
        // per-run metrics) and a whole new case must diff clean against
        // the old two-metric report: additions are not regressions.
        let old = report(1e6, 2e6);
        let new = report_with_kernel_tier(1e6, 9e5);
        assert_eq!(diff(&old, &new, 0.25), Ok(vec![]));

        // But once the old report carries the new metrics, they gate like
        // any other: dropping one or regressing it fails.
        let newer_slow = report_with_kernel_tier(1e6, 1e5);
        let r = diff(&new, &newer_slow, 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("simd_records_per_sec regressed"), "{r:?}");
        let r = diff(&new, &old, 0.25).unwrap();
        assert!(
            r.iter().any(|l| l.contains("simd_records_per_sec missing")),
            "{r:?}"
        );
        assert!(r.iter().any(|l| l.contains("case missing")), "{r:?}");
    }

    #[test]
    fn structural_problems_are_errors_not_regressions() {
        assert!(diff("not json", "not json", 0.25).is_err());
        assert!(diff(&report(1.0, 1.0), "{\"schema\": \"wrong\"}", 0.25).is_err());
        assert!(diff(&report(1.0, 1.0), &report(1.0, 1.0), 1.5).is_err());
    }

    /// A minimal serving report: one sweep point, the overload pair, and
    /// optionally a fleet block (making it schema v3).
    fn serving(sweep_qps: f64, fleet: Option<&str>) -> String {
        let block = |qps: f64| {
            format!(
                "{{\"throughput_qps\": {qps}, \"records_per_sec\": 9e5,\n\
                  \"interactive_attainment\": 0.99, \"analytical_attainment\": 1.0,\n\
                  \"p99_ms\": 12.0}}"
            )
        };
        let fleet_block = fleet.map_or(String::new(), |f| format!(",\n \"fleet\": {f}"));
        format!(
            "{{\"schema\": \"mlscore/bench-serving/v1\",\n\
             \"schema_version\": {},\n\
             \"sweep\": [{{\"rate_qps\": 1000,\n\
                \"coalesce_on\": {},\n\
                \"coalesce_off\": {}}}],\n\
             \"fpga_overload\": {{\"coalesce_on\": {}, \"coalesce_off\": {}}}{fleet_block}}}",
            if fleet.is_some() { 3 } else { 2 },
            block(sweep_qps),
            block(sweep_qps * 0.9),
            block(1800.0),
            block(1500.0),
        )
    }

    /// One fleet cell with tunable attainment.
    fn fleet_cells(attainment: f64) -> String {
        format!(
            "{{\"cells\": [{{\"policy\": \"consistent-hash\", \"scale\": \"static\",\n\
              \"scenario\": \"model-release-storm\", \"throughput_qps\": 1400.0,\n\
              \"interactive_attainment\": {attainment:.6}, \"cache_hit_rate\": 0.85,\n\
              \"device_seconds\": 24.0}}]}}"
        )
    }

    #[test]
    fn serving_v2_diffs_clean_against_its_v3_successor() {
        // The committed v2 report vs. a v3 regeneration with the fleet
        // block: additions are informational, so the gate passes.
        let v2 = serving(950.0, None);
        let v3 = serving(950.0, Some(&fleet_cells(0.86)));
        assert_eq!(diff(&v2, &v3, 0.25), Ok(vec![]));
        // Self-diffs on both versions are clean too.
        assert_eq!(diff(&v2, &v2, 0.25), Ok(vec![]));
        assert_eq!(diff(&v3, &v3, 0.25), Ok(vec![]));
    }

    #[test]
    fn serving_regressions_gate_including_fleet_cells() {
        let old = serving(950.0, Some(&fleet_cells(0.86)));
        // Sweep throughput collapses: both sides regress.
        let slow = serving(400.0, Some(&fleet_cells(0.86)));
        let r = diff(&old, &slow, 0.25).unwrap();
        assert_eq!(r.len(), 2, "{r:?}");
        assert!(r.iter().all(|l| l.contains("throughput_qps regressed")));
        // A fleet cell's attainment collapses.
        let cold = serving(950.0, Some(&fleet_cells(0.40)));
        let r = diff(&old, &cold, 0.25).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(
            r[0].contains("fleet consistent-hash/static/model-release-storm"),
            "{r:?}"
        );
        // Dropping the fleet block entirely is a regression per cell.
        let r = diff(&old, &serving(950.0, None), 0.25).unwrap();
        assert!(r.iter().any(|l| l.contains("block missing")), "{r:?}");
        // Mixing schemas is a structural error, not a diff result.
        assert!(diff(&old, &report(1e6, 2e6), 0.25).is_err());
        assert!(diff(&report(1e6, 2e6), &old, 0.25).is_err());
    }
}
