//! Percentiles and medians.

/// The `p`-quantile of `v` (nearest rank).
pub fn quantile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut v = v.to_vec();
    v.sort_unstable();
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median_f(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile that one stall cannot move: the median, over
/// consecutive windows of `window` samples, of each window's
/// `p`-quantile. With fewer than two full windows, the quantile of all
/// samples.
pub fn tail(v: &[u64], p: f64, window: usize) -> u64 {
    if v.len() < 2 * window {
        return quantile(v, p);
    }
    let mut per: Vec<f64> = v
        .chunks_exact(window)
        .map(|c| quantile(c, p) as f64)
        .collect();
    median_f(&mut per) as u64
}
