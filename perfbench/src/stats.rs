//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)`. A tail
//! percentile is only worth naming when at least ten samples lie beyond
//! it, so every workload fixes its tail percentile and its run size
//! together ([`tail_is_supported`]).

/// Samples strictly beyond the `p`-th nearest-rank percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// The `p`-th nearest-rank percentile; `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p).min(sorted.len()) - 1])
}

/// The median (nearest-rank p50); `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Median of the first and of the last tenth of `samples` in run order
/// (at least one sample each), so growth over a run shows.
pub fn decile_medians(samples: &[f64]) -> Option<(f64, f64)> {
    let k = (samples.len() / 10).max(1);
    if samples.is_empty() {
        return None;
    }
    Some((
        median(&samples[..k])?,
        median(&samples[samples.len() - k..])?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 95.0), Some(95.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 needs 100 samples, p95 200, p99 1000, p75 40.
        assert!(tail_is_supported(100, 90.0));
        assert!(!tail_is_supported(99, 90.0));
        assert!(tail_is_supported(200, 95.0));
        assert!(!tail_is_supported(199, 95.0));
        assert!(tail_is_supported(1000, 99.0));
        assert!(!tail_is_supported(999, 99.0));
        assert!(tail_is_supported(40, 75.0));
        assert!(!tail_is_supported(39, 75.0));
        assert!(!tail_is_supported(0, 50.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(10, 100.0), 0);
    }

    #[test]
    fn deciles_follow_run_order() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(decile_medians(&s), Some((5.0, 95.0)));
        assert_eq!(decile_medians(&[4.0, 2.0]), Some((4.0, 2.0)));
        assert_eq!(decile_medians(&[]), None);
    }
}
