//! Order statistics for the reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier moves it and a regression gate
/// cannot tell noise from change.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `sorted`, which must be
/// ascending.
///
/// # Errors
///
/// Refuses, with the sample count in the message, when fewer than
/// [`MIN_BEYOND`] samples lie above the percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (set-up repetitions,
/// per-window rates): the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
