//! Bounded interaction memories.
//!
//! The paper's characteristics are computed "over the k last interactions
//! with the system" (Section 3); `k` "may be different for each participant
//! depending on its storage capacity, or strategy" (footnote 3).
//! [`InteractionMemory`] is the fixed-capacity ring buffer backing every
//! such window.

use std::collections::VecDeque;

/// A fixed-capacity FIFO memory of `f64` observations with O(1) incremental
/// mean maintenance.
///
/// Pushing beyond the capacity evicts the oldest observation, so the memory
/// always reflects the `k` most recent interactions.
#[derive(Debug, Clone)]
pub struct InteractionMemory {
    capacity: usize,
    values: VecDeque<f64>,
    sum: f64,
}

impl InteractionMemory {
    /// Creates a memory remembering at most `capacity` observations.
    /// Panics if `capacity` is zero.
    ///
    /// The backing deque starts unallocated and grows with the actual
    /// fill: at 10⁶ participants, eagerly reserving every window (500
    /// slots × 8 bytes per provider, Table 2) would cost gigabytes before
    /// a single query flows. Eviction keys on `capacity`, not the deque's
    /// allocation, so behaviour is unchanged.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "interaction memory capacity must be positive");
        InteractionMemory {
            capacity,
            values: VecDeque::new(),
            sum: 0.0,
        }
    }

    /// Records an observation, evicting the oldest one if the memory is
    /// full. Returns the evicted observation, if any.
    ///
    /// A non-finite observation is recorded as indifference (0.5, the
    /// unit-space image of `Intention::new`'s neutral value): a NaN in the
    /// running sum could never be subtracted out again, so every later
    /// mean would be NaN.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let value = if value.is_finite() {
            value
        } else {
            crate::INDIFFERENCE
        };
        let evicted = if self.values.len() == self.capacity {
            let old = self.values.pop_front();
            if let Some(old) = old {
                self.sum -= old;
            }
            old
        } else {
            None
        };
        self.values.push_back(value);
        self.sum += value;
        evicted
    }

    /// Number of remembered observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the memory holds no observation yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The configured capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the memory has reached its capacity (the window is "full").
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Mean of the remembered observations, or `None` when empty.
    ///
    /// The mean divides the running sum, which is maintained incrementally
    /// (add on push, subtract on eviction) and never recomputed on its
    /// own: recomputing on a schedule would change the low bits of every
    /// later mean. [`InteractionMemory::rebalance`] recomputes it on
    /// request.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum / self.values.len() as f64)
        }
    }

    /// Mean of the remembered observations, falling back to `initial` when
    /// the memory is empty. This implements the paper's "initialized with a
    /// satisfaction value of 0.5, which evolves with their last k queries".
    pub fn mean_or(&self, initial: f64) -> f64 {
        self.mean().unwrap_or(initial)
    }

    /// The remembered observations, oldest first.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Removes all observations.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sum = 0.0;
    }

    /// Recomputes the running sum from the stored values, discarding the
    /// floating-point drift accumulated by incremental updates. Nothing in
    /// the allocation pipeline calls it: calling it there would change the
    /// low bits of later means and with them every report digest.
    pub fn rebalance(&mut self) {
        self.sum = self.values.iter().sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        InteractionMemory::new(0);
    }

    #[test]
    fn empty_memory_reports_none() {
        let m = InteractionMemory::new(3);
        assert!(m.is_empty());
        assert_eq!(m.mean(), None);
        assert_eq!(m.mean_or(0.5), 0.5);
        assert_eq!(m.len(), 0);
        assert!(!m.is_full());
    }

    #[test]
    fn mean_over_window() {
        let mut m = InteractionMemory::new(3);
        m.push(1.0);
        m.push(0.0);
        assert!((m.mean().unwrap() - 0.5).abs() < 1e-12);
        m.push(0.5);
        assert!(m.is_full());
        assert!((m.mean().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_keeps_only_last_k() {
        let mut m = InteractionMemory::new(2);
        assert_eq!(m.push(1.0), None);
        assert_eq!(m.push(2.0), None);
        assert_eq!(m.push(3.0), Some(1.0));
        assert_eq!(m.len(), 2);
        assert!((m.mean().unwrap() - 2.5).abs() < 1e-12);
        let vals: Vec<f64> = m.values().collect();
        assert_eq!(vals, vec![2.0, 3.0]);
    }

    #[test]
    fn clear_resets_state() {
        let mut m = InteractionMemory::new(4);
        m.push(1.0);
        m.push(1.0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.mean(), None);
        m.push(0.25);
        assert!((m.mean().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rebalance_matches_running_sum() {
        let mut m = InteractionMemory::new(8);
        for i in 0..100 {
            m.push(i as f64 * 0.01);
        }
        let before = m.mean().unwrap();
        m.rebalance();
        let after = m.mean().unwrap();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn non_finite_observation_does_not_poison_the_window() {
        let mut m = InteractionMemory::new(2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            m.push(bad);
            assert_eq!(m.mean(), Some(0.5), "{bad} is recorded as indifference");
        }
        // Evicting the sanitized entries leaves a finite, exact sum.
        m.push(1.0);
        assert_eq!(m.mean(), Some(0.75));
        m.push(0.0);
        assert_eq!(m.mean(), Some(0.5));
        m.push(1.0);
        m.push(1.0);
        assert_eq!(m.mean(), Some(1.0));
    }

    proptest! {
        #[test]
        fn prop_len_never_exceeds_capacity(
            capacity in 1usize..64,
            values in proptest::collection::vec(-1.0f64..1.0, 0..256),
        ) {
            let mut m = InteractionMemory::new(capacity);
            for &v in &values {
                m.push(v);
            }
            prop_assert!(m.len() <= capacity);
            prop_assert_eq!(m.len(), values.len().min(capacity));
        }

        #[test]
        fn prop_mean_matches_naive_window_mean(
            capacity in 1usize..32,
            values in proptest::collection::vec(-1.0f64..1.0, 1..128),
        ) {
            let mut m = InteractionMemory::new(capacity);
            for &v in &values {
                m.push(v);
            }
            let window: Vec<f64> = values[values.len().saturating_sub(capacity)..].to_vec();
            let expected = window.iter().sum::<f64>() / window.len() as f64;
            prop_assert!((m.mean().unwrap() - expected).abs() < 1e-9);
        }

        #[test]
        fn prop_mean_stays_within_value_bounds(
            capacity in 1usize..32,
            values in proptest::collection::vec(0.0f64..1.0, 1..128),
        ) {
            let mut m = InteractionMemory::new(capacity);
            for &v in &values {
                m.push(v);
            }
            let mean = m.mean().unwrap();
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&mean));
        }
    }
}
