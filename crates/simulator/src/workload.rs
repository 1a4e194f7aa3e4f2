//! Workload patterns and the Poisson arrival process.
//!
//! "We assume that queries arrive to the system in a Poisson distribution,
//! as found in dynamic autonomous environments" (Section 6.1). The workload
//! intensity is expressed as a fraction of the *total system capacity*; the
//! captive experiments of Figure 4 ramp it uniformly from 30 % to 100 %
//! over the course of the run, while the response-time and autonomy
//! experiments use a fixed fraction per run.

use rand::Rng;

/// How the workload fraction evolves over the simulated time horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadPattern {
    /// A constant fraction of the total system capacity.
    Fixed(f64),
    /// A fraction that increases linearly from `from` to `to` over the run
    /// ("each \[experiment\] starts with a workload of 30 % that uniformly
    /// increases up to 100 % of the total system capacity").
    Ramp {
        /// Fraction at the start of the run.
        from: f64,
        /// Fraction at the end of the run.
        to: f64,
    },
}

impl WorkloadPattern {
    /// The paper's Figure 4 ramp (30 % → 100 %).
    pub fn paper_ramp() -> Self {
        WorkloadPattern::Ramp { from: 0.3, to: 1.0 }
    }

    /// The workload fraction at time `t` of a run lasting `duration`
    /// seconds. Clamped to be non-negative; fractions above 1 are allowed
    /// (overload experiments).
    pub fn fraction_at(&self, t_secs: f64, duration_secs: f64) -> f64 {
        let f = match *self {
            WorkloadPattern::Fixed(fraction) => fraction,
            WorkloadPattern::Ramp { from, to } => {
                if duration_secs <= 0.0 {
                    from
                } else {
                    let progress = (t_secs / duration_secs).clamp(0.0, 1.0);
                    from + (to - from) * progress
                }
            }
        };
        f.max(0.0)
    }

    /// The mean fraction over the whole run (used to size pre-allocated
    /// statistics buffers).
    pub fn mean_fraction(&self) -> f64 {
        match *self {
            WorkloadPattern::Fixed(fraction) => fraction.max(0.0),
            WorkloadPattern::Ramp { from, to } => ((from + to) / 2.0).max(0.0),
        }
    }
}

/// Converts a workload fraction into a query arrival rate (queries per
/// second): the fraction of the total capacity (work units per second)
/// divided by the mean query cost (work units per query).
pub fn arrival_rate(workload_fraction: f64, total_capacity: f64, mean_query_cost: f64) -> f64 {
    if mean_query_cost <= 0.0 {
        return 0.0;
    }
    (workload_fraction.max(0.0) * total_capacity / mean_query_cost).max(0.0)
}

/// Samples an exponential inter-arrival time for a Poisson process of the
/// given rate (queries per second). Returns `f64::INFINITY` when the rate
/// is zero (no arrivals).
pub fn sample_interarrival<R: Rng + ?Sized>(rng: &mut R, rate_per_sec: f64) -> f64 {
    if rate_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    // Inverse-CDF sampling; `random::<f64>()` is in [0, 1), so `1 - u` is in
    // (0, 1] and the logarithm is finite.
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_pattern_is_constant() {
        let w = WorkloadPattern::Fixed(0.8);
        assert_eq!(w.fraction_at(0.0, 100.0), 0.8);
        assert_eq!(w.fraction_at(50.0, 100.0), 0.8);
        assert_eq!(w.mean_fraction(), 0.8);
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let w = WorkloadPattern::paper_ramp();
        assert!((w.fraction_at(0.0, 10_000.0) - 0.3).abs() < 1e-12);
        assert!((w.fraction_at(5_000.0, 10_000.0) - 0.65).abs() < 1e-12);
        assert!((w.fraction_at(10_000.0, 10_000.0) - 1.0).abs() < 1e-12);
        // Beyond the end of the run the ramp saturates.
        assert!((w.fraction_at(20_000.0, 10_000.0) - 1.0).abs() < 1e-12);
        assert!((w.mean_fraction() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn ramp_with_zero_duration_uses_start() {
        let w = WorkloadPattern::Ramp { from: 0.4, to: 0.9 };
        assert_eq!(w.fraction_at(5.0, 0.0), 0.4);
    }

    #[test]
    fn negative_fractions_are_clamped() {
        let w = WorkloadPattern::Fixed(-0.5);
        assert_eq!(w.fraction_at(0.0, 1.0), 0.0);
        assert_eq!(w.mean_fraction(), 0.0);
    }

    #[test]
    fn arrival_rate_matches_paper_calibration() {
        // 400 paper providers: 120×100 + 240×33.33 + 40×14.29 ≈ 20 571 u/s.
        let total_capacity = 120.0 * 100.0 + 240.0 * (100.0 / 3.0) + 40.0 * (100.0 / 7.0);
        let rate = arrival_rate(1.0, total_capacity, 140.0);
        assert!((rate - total_capacity / 140.0).abs() < 1e-9);
        assert!(rate > 140.0 && rate < 150.0);
        // Zero mean cost degenerates to no arrivals instead of dividing by
        // zero.
        assert_eq!(arrival_rate(1.0, total_capacity, 0.0), 0.0);
    }

    #[test]
    fn interarrival_sampling_matches_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let rate = 20.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| sample_interarrival(&mut rng, rate)).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.005,
            "empirical mean {mean} far from {}",
            1.0 / rate
        );
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_interarrival(&mut rng, 0.0).is_infinite());
        assert!(sample_interarrival(&mut rng, -3.0).is_infinite());
    }

    proptest! {
        #[test]
        fn prop_fraction_never_negative(t in 0.0f64..1e5, d in 1.0f64..1e5, from in -1.0f64..2.0, to in -1.0f64..2.0) {
            let w = WorkloadPattern::Ramp { from, to };
            prop_assert!(w.fraction_at(t, d) >= 0.0);
        }

        #[test]
        fn prop_interarrival_positive(seed in 0u64..1000, rate in 0.001f64..1000.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dt = sample_interarrival(&mut rng, rate);
            prop_assert!(dt >= 0.0);
            prop_assert!(dt.is_finite());
        }
    }
}
