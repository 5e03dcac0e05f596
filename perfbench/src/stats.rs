//! Order statistics for the latency metrics, and the spread summary the
//! repeatability report uses.

/// The fewest samples that must lie strictly above a reported tail
/// percentile; with fewer, the percentile is not supported by the data.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank (for `q = 0.9`
/// that means at least 100 samples).
///
/// The median (`q = 0.5`) of any sample of 20 or more is supported.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for even counts);
/// `None` when empty. Unlike [`percentile`] it needs no tail support, so
/// it also summarizes short per-pass series.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Element by element, the smallest value over `series` (which must
/// have equal lengths): per step, the fastest of the passes that replayed
/// it. Disturbances from the host only ever add time, so the fastest
/// replay is the steadiest estimate of what the step costs. Empty when
/// `series` is.
pub fn fastest_per_step<'a>(series: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut it = series.into_iter();
    let Some(first) = it.next() else {
        return Vec::new();
    };
    let mut best = first.to_vec();
    for s in it {
        assert_eq!(s.len(), best.len(), "passes replayed different steps");
        for (b, &v) in best.iter_mut().zip(s) {
            *b = b.min(v);
        }
    }
    best
}

/// Range and largest difference of one wall-clock metric across passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// `max - min`.
    pub max_delta: f64,
    /// `max_delta` as a share of the median.
    pub rel_delta: f64,
}

/// The [`Spread`] of `values`; `None` when empty.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let med = median(values)?;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let max_delta = max - min;
    let rel_delta = if med != 0.0 { max_delta / med } else { 0.0 };
    Some(Spread {
        min,
        max,
        max_delta,
        rel_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&one_to(20), 0.5), Some(10.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples leave exactly 10 above p90; 99 leave only 9.
        assert!(percentile(&one_to(100), 0.9).is_some());
        assert_eq!(percentile(&one_to(99), 0.9), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&one_to(999), 0.99), None);
        assert_eq!(percentile(&one_to(1000), 0.99), Some(990.0));
        // A median of 19 samples has only 9 beyond it.
        assert_eq!(percentile(&one_to(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fastest_per_step_takes_each_steps_minimum() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 5.0];
        let c = [9.0, 9.0, 0.5];
        assert_eq!(
            fastest_per_step([&a[..], &b[..], &c[..]]),
            vec![2.0, 1.0, 0.5]
        );
        assert_eq!(fastest_per_step([&a[..]]), a.to_vec());
        assert!(fastest_per_step(std::iter::empty::<&[f64]>()).is_empty());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let s = spread(&[10.0, 12.0, 11.0]).expect("non-empty");
        assert_eq!((s.min, s.max, s.max_delta), (10.0, 12.0, 2.0));
        assert!((s.rel_delta - 2.0 / 11.0).abs() < 1e-12);
    }
}
