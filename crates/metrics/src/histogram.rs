//! A simple fixed-range histogram used for response-time distributions.

/// A histogram over a fixed `[min, max)` range with equally sized buckets,
/// plus overflow/underflow counters. Also tracks exact count/sum/min/max so
/// means are not subject to bucketing error.
#[derive(Debug, Clone)]
pub struct Histogram {
    min: f64,
    max: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    observed_min: f64,
    observed_max: f64,
}

impl Histogram {
    /// Creates a histogram over `[min, max)` with `buckets` equally sized
    /// buckets. Panics if `max <= min` or `buckets == 0`.
    pub fn new(min: f64, max: f64, buckets: usize) -> Self {
        assert!(max > min, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            min,
            max,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            observed_min: f64::INFINITY,
            observed_max: f64::NEG_INFINITY,
        }
    }

    /// Records a value.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.observed_min = self.observed_min.min(value);
        self.observed_max = self.observed_max.max(value);
        if value < self.min {
            self.underflow += 1;
        } else if value >= self.max {
            self.overflow += 1;
        } else {
            let width = (self.max - self.min) / self.buckets.len() as f64;
            let idx = ((value - self.min) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values (exact, not bucketed). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.observed_min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.observed_max)
    }

    /// Approximate quantile (0 ≤ q ≤ 1) computed from bucket boundaries.
    /// Underflow values are attributed to the range minimum and overflow
    /// values to the range maximum. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = self.underflow;
        if cumulative >= target {
            return Some(self.min);
        }
        let width = (self.max - self.min) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(self.min + width * (i as f64 + 1.0));
            }
        }
        Some(self.max)
    }

    /// Per-bucket counts (excluding under/overflow).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Count of values below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(5.5);
        h.record(9.99);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[5], 1);
        assert_eq!(h.bucket_counts()[9], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn handles_under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-1.0);
        h.record(2.0);
        h.record(f64::NAN); // ignored
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = Histogram::new(0.0, 100.0, 4);
        for v in [1.0, 2.0, 3.0, 94.0] {
            h.record(v);
        }
        assert!((h.mean() - 25.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(94.0));
    }

    #[test]
    fn empty_histogram_reports_defaults() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new(0.0, 10.0, 100);
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q90 = h.quantile(0.9).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q90 && q90 <= q99);
        assert!((q50 - 5.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "range must be non-empty")]
    fn rejects_empty_range() {
        Histogram::new(1.0, 1.0, 4);
    }

    proptest! {
        #[test]
        fn prop_count_matches_records(values in proptest::collection::vec(-5.0f64..15.0, 0..200)) {
            let mut h = Histogram::new(0.0, 10.0, 20);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            let bucketed: u64 = h.bucket_counts().iter().sum::<u64>() + h.underflow() + h.overflow();
            prop_assert_eq!(bucketed, values.len() as u64);
        }

        #[test]
        fn prop_quantile_within_observed_range(values in proptest::collection::vec(0.0f64..10.0, 1..200), q in 0.0f64..1.0) {
            let mut h = Histogram::new(0.0, 10.0, 50);
            for &v in &values {
                h.record(v);
            }
            let quant = h.quantile(q).unwrap();
            prop_assert!((0.0..=10.0).contains(&quant));
        }
    }
}
