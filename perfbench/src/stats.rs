//! Order statistics for the benchmark's reports.

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `percentile` (0–100] of ascending `sorted` values.
pub fn percentile(sorted: &[f64], percentile: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((percentile / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail is read at, highest last.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A timing's tail: the highest percentile with at least ten samples
/// beyond it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile read.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// strictly beyond its rank; `None` when even the median does not.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= 10
        })
        .map(|&p| Tail {
            percentile: p,
            value: percentile(&sorted, p),
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 1 000 samples: p99 has exactly ten beyond it, p99.9 only one.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);

        // 999 samples: p99 leaves nine, so the tail falls back to p90.
        let t = tail(&values[..999]).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 999);

        // 20 samples support the median (ten beyond), 19 do not.
        assert_eq!(tail(&values[..20]).unwrap().percentile, 50.0);
        assert_eq!(tail(&values[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_reads_the_deep_percentile_when_the_sample_allows() {
        let values: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 99.99);
        assert_eq!(t.value, 99_990.0);
    }
}
