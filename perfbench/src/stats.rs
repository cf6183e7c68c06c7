//! Order statistics and the span arithmetic the reports share.

/// Median of `samples` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[len / 2],
        len => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The samples beyond a tail value: the tail percentile is the highest one
/// that still has this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples`: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)`.
///
/// With `N` samples sorted ascending that is the value at 0-based index
/// `N − 11`, labelled `100·(N − 10)/N`: p90 for 100 samples, p99 for 1 000.
/// With 10 or fewer samples no percentile qualifies and the maximum is
/// returned, labelled 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n <= TAIL_BEYOND {
        return (100.0, sorted[n - 1]);
    }
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    (pct, sorted[n - TAIL_BEYOND - 1])
}

/// A span's self time: its duration minus the busy time of its child spans,
/// floored at zero. Children recorded on the span's own thread are
/// sequential calls, so their busy times never overlap and their sum is the
/// part of the span they cover.
pub fn self_ns(span_ns: u64, child_busy_ns: &[u64]) -> u64 {
    span_ns.saturating_sub(child_busy_ns.iter().sum())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11, 20, 80, 100, 1000, 1537] {
            let samples = ramp(n);
            let (pct, value) = tail(&samples);
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert!((pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_is_p90_at_100_and_p99_at_1000_samples() {
        let (pct, value) = tail(&ramp(100));
        assert_eq!((pct, value), (90.0, 89.0));
        let (pct, value) = tail(&ramp(1000));
        assert_eq!((pct, value), (99.0, 989.0));
    }

    #[test]
    fn tail_of_ten_or_fewer_samples_is_the_maximum() {
        assert_eq!(tail(&ramp(10)), (100.0, 9.0));
        assert_eq!(tail(&[3.0]), (100.0, 3.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert_eq!(self_ns(1_000, &[]), 1_000);
        assert_eq!(self_ns(1_000, &[200, 300]), 500);
        assert_eq!(self_ns(1_000, &[600, 400]), 0);
        // Clock granularity can make children sum past the parent.
        assert_eq!(self_ns(1_000, &[900, 200]), 0);
    }
}
