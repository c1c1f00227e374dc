//! Percentile selection.
//!
//! Percentiles are nearest-rank, averaged over a window of ranks around
//! the selected one: ±10% of the ranks for a percentile, ±2% for a tail
//! percentile. Latency distributions of the store have several modes (a
//! lookup that probes a second SST after a filter false positive is a few
//! µs slower than one that does not), and where the selected rank falls
//! between two modes, a single order statistic jumps from one mode to the
//! other between runs of the same program: the p50 of one workload moved
//! by 30%. The average over a window moves smoothly instead.
//!
//! A tail percentile is only reported where the sample supports it: the
//! reported rank, and its whole window, must leave at least [`MIN_TAIL`]
//! samples above it. With fewer samples than the requested percentile
//! needs, the highest supported percentile is reported instead, together
//! with the sample count.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile read from a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// Mean of the samples in the window around the selected rank.
    pub value: f64,
    /// The percentile actually reported, as a fraction (`0.99` for p99).
    pub quantile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Percentile `q` of an ascending sample. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(window(sorted, nearest_rank(n, q), n - 1, n / 10))
}

/// Tail percentile `q` of an ascending sample, lowered until at least
/// [`MIN_TAIL`] samples lie beyond it. `None` when the sample has no more
/// than [`MIN_TAIL`] values.
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= MIN_TAIL {
        return None;
    }
    let last = n - 1 - MIN_TAIL;
    Some(window(sorted, nearest_rank(n, q).min(last), last, n / 50))
}

/// Zero-based index of the nearest-rank `q` percentile of `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The percentile at rank `idx`, averaged over ±`half` ranks but never
/// past rank `last`.
fn window(sorted: &[u64], idx: usize, last: usize, half: usize) -> Percentile {
    let n = sorted.len();
    let half = half.min(idx).min(last - idx);
    let part = &sorted[idx - half..=idx + half];
    Percentile {
        value: part.iter().map(|&v| v as f64).sum::<f64>() / part.len() as f64,
        quantile: (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}
