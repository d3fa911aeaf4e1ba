//! Order statistics over the samples a run collects.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, linearly interpolated
/// between the two nearest ranks. `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// `(max − min) / median`; `0.0` when the median is zero.
pub fn rel_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid
}

/// The `q`-quantile of `sorted` whole-µs samples. A clock that ticks in
/// µs turns every latency in `[v, v + 1)` into the sample `v`, so the
/// estimate spreads the samples equal to the ranked value evenly over that
/// µs (the grouped-data quantile) instead of answering in whole µs.
pub fn quantile_us(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let rank = (target as usize).min(sorted.len() - 1);
    let value = sorted[rank];
    let below = sorted.partition_point(|&v| v < value);
    let equal = sorted.partition_point(|&v| v <= value) - below;
    f64::from(value) + ((target - below as f64) / equal as f64).clamp(0.0, 1.0)
}

/// p50 and p99 of latency samples in whole µs (sorts them).
pub fn p50_p99(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    (quantile_us(samples, 0.50), quantile_us(samples, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(rel_spread(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn whole_us_quantiles_resolve_below_a_microsecond() {
        // 100 samples all reading 1010 µs: the median sits mid-way through
        // that µs, p99 at its far end.
        let flat = vec![1010u32; 100];
        assert_eq!(quantile_us(&flat, 0.50), 1010.5);
        assert_eq!(quantile_us(&flat, 0.99), 1010.99);
        // 1..=100: rank 50 is the sample 51, untied.
        let mut ramp: Vec<u32> = (1..=100).collect();
        assert_eq!(p50_p99(&mut ramp), (51.0, 100.0));
        assert_eq!(quantile_us(&[], 0.5), 0.0);
    }
}
