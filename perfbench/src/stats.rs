//! Order statistics over raw samples.
//!
//! Latency percentiles are taken from raw per-request samples, never from
//! a bucketed histogram, whose log2 buckets are too coarse to resolve a
//! bound of a tenth.

/// Median of `xs`: the middle sample, or the mean of the two middle ones.
/// `None` for an empty slice or one holding NaN.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with at
/// least `p`% of the samples at or below it. `None` for an empty slice, a
/// NaN sample or a `p` outside (0, 100].
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], p: f64) -> Option<T> {
    // Only NaN is not comparable with itself.
    let nan = samples.iter().any(|x| x.partial_cmp(x).is_none());
    if samples.is_empty() || nan || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The time identical work takes on a quiet host: the fastest of its
/// repeated timings. Other tenants of a shared host only ever slow a
/// timing down (on a 2-core VM by up to half, for seconds at a time), so a
/// median follows how busy the host was while the minimum follows the
/// work. `None` for no samples or a NaN.
pub fn quiet(times: &[f64]) -> Option<f64> {
    if times.iter().any(|t| t.is_nan()) {
        return None;
    }
    times.iter().copied().reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn median_rejects_empty_and_nan() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50));
        assert_eq!(percentile(&xs, 99.0), Some(99));
        assert_eq!(percentile(&xs, 100.0), Some(100));
        assert_eq!(percentile(&xs, 0.5), Some(1));
        // Order of the input does not matter.
        let rev: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&rev, 99.0), Some(99));
    }

    #[test]
    fn percentile_of_few_samples_is_an_observed_value() {
        assert_eq!(percentile(&[10, 30, 20], 50.0), Some(20));
        assert_eq!(percentile(&[10, 30, 20], 99.0), Some(30));
        assert_eq!(percentile(&[42], 1.0), Some(42));
    }

    #[test]
    fn quiet_time_ignores_slowed_passes() {
        // Two of ten passes ran on a quiet host; the rest were slowed.
        let xs = [3.9, 2.5, 4.1, 3.8, 2.4, 4.0, 3.7, 3.9, 4.2, 3.6];
        assert_eq!(quiet(&xs), Some(2.4));
        assert!(median(&xs).is_some_and(|m| m > 3.8));
        assert_eq!(quiet(&[]), None);
        assert_eq!(quiet(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        assert_eq!(percentile(&[1, 2], 0.0), None);
        assert_eq!(percentile(&[1, 2], 100.5), None);
        assert_eq!(percentile(&[1, 2], f64::NAN), None);
    }

    #[test]
    fn percentile_resolves_what_log2_buckets_cannot() {
        // 32.8 µs and 60 µs share one log2 bucket (2^15..2^16 ns); raw
        // samples keep them apart.
        let mut xs = vec![32_800u64; 98];
        xs.extend([60_000, 60_000]);
        assert_eq!(percentile(&xs, 50.0), Some(32_800));
        assert_eq!(percentile(&xs, 99.0), Some(60_000));
    }
}
