//! Sliding-window utilization tracking.
//!
//! The paper defines `Ut(p)` as "how much [a provider] is loaded w.r.t. its
//! capacity" and assumes providers "work out their utilization as in \[16\]".
//! The property the evaluation relies on is that a provider receiving its
//! fair share of an `x %` workload has utilization ≈ `x/100` ("With a
//! workload of 80 % of the total system capacity, the optimal utilization
//! of a provider is 0.8", Section 6.3.2).
//!
//! [`UtilizationWindow`] satisfies that property directly: it remembers the
//! work (in units) assigned to the provider during the last `window`
//! seconds and reports
//!
//! ```text
//! Ut(p) = assigned_work(now − window, now) / (capacity × window)
//! ```

use sqlb_types::{Capacity, SimDuration, SimTime, Utilization, WorkUnits};
use std::collections::VecDeque;

/// Sliding-window utilization estimator.
#[derive(Debug, Clone)]
pub struct UtilizationWindow {
    capacity: Capacity,
    window: SimDuration,
    assignments: VecDeque<(f64, f64)>, // (time seconds, work units)
    total_in_window: f64,
    lifetime_assigned: f64,
}

impl UtilizationWindow {
    /// Default window length used by the simulator (seconds of virtual
    /// time). Long enough to smooth out individual allocations, short
    /// enough to track the workload ramp of Figure 4.
    pub const DEFAULT_WINDOW_SECS: f64 = 60.0;

    /// Creates a window for a provider of the given capacity.
    pub fn new(capacity: Capacity, window: SimDuration) -> Self {
        assert!(
            window.as_secs() > 0.0,
            "utilization window must be positive"
        );
        UtilizationWindow {
            capacity,
            window,
            assignments: VecDeque::new(),
            total_in_window: 0.0,
            lifetime_assigned: 0.0,
        }
    }

    /// Creates a window with the default length.
    pub fn with_default_window(capacity: Capacity) -> Self {
        UtilizationWindow::new(capacity, SimDuration::from_secs(Self::DEFAULT_WINDOW_SECS))
    }

    /// Records work assigned to the provider at `time`.
    pub fn record_assignment(&mut self, time: SimTime, work: WorkUnits) {
        self.expire(time);
        self.assignments.push_back((time.as_secs(), work.value()));
        self.total_in_window += work.value();
        self.lifetime_assigned += work.value();
    }

    /// Current utilization at `now`.
    pub fn utilization(&mut self, now: SimTime) -> Utilization {
        self.expire(now);
        let denominator = self.capacity.units_per_sec() * self.window.as_secs();
        Utilization::new(self.total_in_window / denominator)
    }

    /// Utilization without mutating the window (slightly conservative: work
    /// older than the window but not yet expired is still counted).
    pub fn utilization_unexpired(&self) -> Utilization {
        let denominator = self.capacity.units_per_sec() * self.window.as_secs();
        Utilization::new(self.total_in_window / denominator)
    }

    /// Total work assigned over the provider's lifetime, in units.
    pub fn lifetime_assigned(&self) -> WorkUnits {
        WorkUnits::new(self.lifetime_assigned)
    }

    /// The provider capacity this window is calibrated against.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn expire(&mut self, now: SimTime) {
        let cutoff = now.as_secs() - self.window.as_secs();
        while let Some(&(t, w)) = self.assignments.front() {
            if t < cutoff {
                self.assignments.pop_front();
                self.total_in_window -= w;
            } else {
                break;
            }
        }
        if self.assignments.is_empty() {
            self.total_in_window = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn idle_provider_has_zero_utilization() {
        let mut w = UtilizationWindow::new(Capacity::new(100.0), SimDuration::from_secs(60.0));
        assert_eq!(w.utilization(t(0.0)).value(), 0.0);
        assert_eq!(w.utilization(t(1000.0)).value(), 0.0);
    }

    #[test]
    fn fair_share_workload_gives_matching_utilization() {
        // A provider of 100 units/s receiving 80 units/s of work over the
        // window should sit at utilization 0.8 (the "optimal utilization at
        // 80 % workload" of Section 6.3.2).
        let mut w = UtilizationWindow::new(Capacity::new(100.0), SimDuration::from_secs(60.0));
        // 60 s × 80 u/s = 4800 units spread over the window.
        for i in 0..60 {
            w.record_assignment(t(i as f64), WorkUnits::new(80.0));
        }
        let u = w.utilization(t(59.0)).value();
        assert!((u - 0.8).abs() < 0.02, "got {u}");
    }

    #[test]
    fn old_work_expires() {
        let mut w = UtilizationWindow::new(Capacity::new(100.0), SimDuration::from_secs(10.0));
        w.record_assignment(t(0.0), WorkUnits::new(1000.0));
        assert!(w.utilization(t(1.0)).value() > 0.9);
        assert_eq!(w.utilization(t(20.0)).value(), 0.0);
        assert_eq!(w.lifetime_assigned().value(), 1000.0);
    }

    #[test]
    fn overload_reports_above_one() {
        let mut w = UtilizationWindow::new(Capacity::new(10.0), SimDuration::from_secs(10.0));
        w.record_assignment(t(5.0), WorkUnits::new(500.0));
        assert!(w.utilization(t(5.0)).value() > 2.0);
        assert!(w.utilization(t(5.0)).is_overloaded());
    }

    #[test]
    fn unexpired_view_does_not_mutate() {
        let mut w = UtilizationWindow::with_default_window(Capacity::new(100.0));
        w.record_assignment(t(0.0), WorkUnits::new(600.0));
        let before = w.utilization_unexpired().value();
        assert!(before > 0.0);
        // Reading far in the future with the mutating accessor expires it.
        assert_eq!(w.utilization(t(1000.0)).value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_is_rejected() {
        UtilizationWindow::new(Capacity::new(1.0), SimDuration::ZERO);
    }

    proptest! {
        #[test]
        fn prop_utilization_never_negative(
            assignments in proptest::collection::vec((0.0f64..1000.0, 0.0f64..500.0), 0..100),
            probe in 0.0f64..2000.0,
        ) {
            let mut w = UtilizationWindow::new(Capacity::new(50.0), SimDuration::from_secs(30.0));
            let mut sorted = assignments.clone();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (time, work) in sorted {
                w.record_assignment(t(time), WorkUnits::new(work));
            }
            prop_assert!(w.utilization(t(probe)).value() >= 0.0);
        }

        #[test]
        fn prop_more_work_means_no_less_utilization(
            base in 0.0f64..200.0,
            extra in 0.0f64..200.0,
        ) {
            let mut a = UtilizationWindow::new(Capacity::new(100.0), SimDuration::from_secs(10.0));
            let mut b = UtilizationWindow::new(Capacity::new(100.0), SimDuration::from_secs(10.0));
            a.record_assignment(t(5.0), WorkUnits::new(base));
            b.record_assignment(t(5.0), WorkUnits::new(base));
            b.record_assignment(t(5.0), WorkUnits::new(extra));
            prop_assert!(b.utilization(t(5.0)).value() >= a.utilization(t(5.0)).value());
        }
    }
}
