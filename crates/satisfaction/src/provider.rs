//! Provider characterization (Section 3.2).

use sqlb_types::Intention;

use crate::memory::InteractionMemory;
use crate::{allocation_satisfaction, unit_observation};

/// Tracks a provider's characteristics.
///
/// * Adequation `δa(p)` (Definition 4) is computed over the provider's shown
///   values for the `k_proposed` last *proposed* queries (the set
///   `PQ^k_p`, whether allocated to it or not).
/// * Satisfaction `δs(p)` (Definition 5) is computed over the shown values
///   of the queries the provider actually *performed*. Following Table 2
///   (`proSatSize`: "k last treated queries") this uses a dedicated memory
///   of the last `k_performed` performed queries; see the crate-level
///   documentation for why the literal `SQ^k_p ⊆ PQ^k_p` reading is not
///   usable with the paper's own experimental parameters. The literal
///   variant is exposed as [`ProviderTracker::satisfaction_strict`].
/// * Allocation satisfaction `δas(p)` (Definition 6) is the ratio of the
///   two.
///
/// Like [`crate::ConsumerTracker`], the tracker is value-agnostic: feed it
/// intentions for the public view or preferences for the provider's private
/// view (the private view is what Definition 8 uses to balance preferences
/// against utilization).
#[derive(Debug, Clone)]
pub struct ProviderTracker {
    /// Shown values of every proposed query (performed or not), bounded
    /// by the proposed window, with the performed flag packed into the
    /// sign bit: a slot holds `v` for a rejected proposal and `-v` for a
    /// performed one. Stored values are `[+0, 1]` (clamped, `-0.0`
    /// normalised to `+0.0`), so the sign is free and `abs()` recovers
    /// the value exactly: a slot is half the size of an `(f64, bool)`
    /// pair, which keeps the per-candidate update in cache.
    /// One ring backs both Definition 4 (adequation, through the running
    /// `proposed_sum`) and the strict Definition 5 variant. Once full the
    /// vector becomes a ring: `proposed_head` is the oldest entry, and
    /// eviction overwrites in place.
    proposed: Vec<f64>,
    /// Index of the oldest entry once `proposed` is at capacity (0 while
    /// still filling, so insertion order equals slice order).
    proposed_head: usize,
    /// Window bound of `proposed` (eviction keys on this, not on the
    /// vector's allocation, which grows lazily with the fill).
    proposed_capacity: usize,
    /// Running sum of the values in `proposed`, maintained with the
    /// subtract-then-add order of a plain evict-and-push memory, so
    /// adequation stays bit-identical to it.
    proposed_sum: f64,
    /// Shown values for performed queries only (Table 2 semantics).
    performed: InteractionMemory,
    initial: f64,
    proposed_total: u64,
    performed_total: u64,
}

impl ProviderTracker {
    /// Creates a tracker with a `k_proposed`-query adequation window and a
    /// `k_performed`-query satisfaction window, reporting `initial` until
    /// observations exist.
    pub fn new(k_proposed: usize, k_performed: usize, initial: f64) -> Self {
        assert!(k_proposed > 0, "proposed window capacity must be positive");
        ProviderTracker {
            // Grows with the actual fill, like the interaction memory:
            // eviction keys on `proposed_capacity`, so starting
            // unallocated changes nothing but the idle footprint.
            proposed: Vec::new(),
            proposed_head: 0,
            proposed_capacity: k_proposed,
            proposed_sum: 0.0,
            performed: InteractionMemory::new(k_performed),
            initial,
            proposed_total: 0,
            performed_total: 0,
        }
    }

    /// Creates a tracker with the paper's default configuration
    /// (`proSatSize = 500`, initial satisfaction 0.5). The proposal window
    /// uses the same size.
    pub fn paper_default() -> Self {
        ProviderTracker::new(500, 500, 0.5)
    }

    /// Records a query that was proposed to the provider, together with the
    /// value the provider showed for it (its intention, or its preference
    /// for the private view) and whether the query was allocated to it.
    ///
    /// The value is mapped from `[-1, 1]` to `[0, 1]` via `(x + 1)/2` as in
    /// Definitions 4–5.
    pub fn record_proposal(&mut self, shown: Intention, performed: bool) {
        let mapped = shown.to_unit().value();
        self.record_mapped(mapped, performed);
    }

    /// Records a proposal with an already-mapped `[0, 1]` value. Used when
    /// the caller applies its own mapping (e.g. preference-based private
    /// tracking). The value is clamped into `[0, 1]`; a non-finite value
    /// is recorded as indifference (0.5), as `Intention::new` would map it.
    pub fn record_mapped(&mut self, mapped: f64, performed: bool) {
        // `+ 0.0` turns a `-0.0` into `+0.0` (and changes no other value),
        // so the sign bit of a stored slot is exactly the performed flag.
        // Sums start at `+0.0` and only ever add `[+0, 1]` values or
        // subtract stored ones, so they never see the difference.
        let mapped = unit_observation(mapped) + 0.0;
        let packed = if performed { -mapped } else { mapped };
        if self.proposed.len() == self.proposed_capacity {
            // Steady state: overwrite the oldest entry in place. Same
            // subtract-then-add order as an evict-and-push, so adequation
            // stays bit-identical.
            let slot = &mut self.proposed[self.proposed_head];
            self.proposed_sum -= slot.abs();
            *slot = packed;
            self.proposed_head += 1;
            if self.proposed_head == self.proposed_capacity {
                self.proposed_head = 0;
            }
        } else {
            self.proposed.push(packed);
        }
        self.proposed_sum += mapped;
        self.proposed_total += 1;
        if performed {
            self.performed.push(mapped);
            self.performed_total += 1;
        }
    }

    /// Provider adequation `δa(p)` (Definition 4). Returns the configured
    /// initial value until the provider has been proposed at least one
    /// query.
    pub fn adequation(&self) -> f64 {
        if self.proposed.is_empty() {
            self.initial
        } else {
            self.proposed_sum / self.proposed.len() as f64
        }
    }

    /// Provider satisfaction `δs(p)` over the last `k_performed` performed
    /// queries (Table 2 semantics). Returns the configured initial value
    /// until the provider has performed at least one query.
    pub fn satisfaction(&self) -> f64 {
        self.performed.mean_or(self.initial)
    }

    /// Provider satisfaction computed strictly as Definition 5: the average
    /// over the performed subset of the *proposed* window, and 0 when that
    /// subset is empty. A provider that has not been proposed anything yet
    /// reports the configured initial value (Table 2's
    /// `iniSatisfaction = 0.5`).
    ///
    /// This is the value the SQLB feedback loop relies on: a provider whose
    /// strict satisfaction collapses to 0 immediately receives a large `ω`
    /// weight in Equation 6, which is what "reduces starvation" in the
    /// paper's words.
    pub fn satisfaction_strict(&self) -> f64 {
        if self.proposed.is_empty() {
            return self.initial;
        }
        // One pass over the window, no intermediate vector: the additions
        // happen oldest-first ([head..] then [..head], which is insertion
        // order while filling since head stays 0), starting from `+0.0`,
        // so the (sample- and assessment-path) callers do not allocate
        // per read.
        let (wrapped, oldest) = self.proposed.split_at(self.proposed_head);
        let mut sum = 0.0;
        let mut count = 0usize;
        for &slot in oldest.iter().chain(wrapped) {
            if slot.is_sign_negative() {
                sum += slot.abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Provider allocation satisfaction `δas(p)` (Definition 6).
    pub fn allocation_satisfaction(&self) -> f64 {
        allocation_satisfaction(self.satisfaction(), self.adequation())
    }

    /// Total number of proposals recorded over the tracker's lifetime.
    pub fn proposed_queries(&self) -> u64 {
        self.proposed_total
    }

    /// Total number of performed queries recorded over the tracker's
    /// lifetime.
    pub fn performed_queries(&self) -> u64 {
        self.performed_total
    }

    /// Number of proposals currently remembered.
    pub fn proposal_window_len(&self) -> usize {
        self.proposed.len()
    }

    /// Number of performed queries currently remembered.
    pub fn performed_window_len(&self) -> usize {
        self.performed.len()
    }

    /// The configured initial (pre-observation) value.
    pub fn initial(&self) -> f64 {
        self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn reports_initial_before_observations() {
        let t = ProviderTracker::paper_default();
        assert_eq!(t.adequation(), 0.5);
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.allocation_satisfaction(), 1.0);
        assert_eq!(
            t.satisfaction_strict(),
            0.5,
            "no proposals yet: the initial value applies"
        );
    }

    #[test]
    fn adequation_follows_proposed_queries() {
        let mut t = ProviderTracker::new(10, 10, 0.5);
        t.record_proposal(Intention::new(1.0), false);
        t.record_proposal(Intention::new(-1.0), false);
        // Mapped values 1.0 and 0.0 → adequation 0.5.
        assert!((t.adequation() - 0.5).abs() < 1e-12);
        // No performed query yet → satisfaction stays at the initial value.
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.proposed_queries(), 2);
        assert_eq!(t.performed_queries(), 0);
    }

    #[test]
    fn satisfaction_follows_performed_queries_only() {
        let mut t = ProviderTracker::new(10, 10, 0.5);
        // The provider is proposed queries it likes but performs only the
        // ones it dislikes: satisfaction < adequation.
        for _ in 0..5 {
            t.record_proposal(Intention::new(0.9), false);
            t.record_proposal(Intention::new(-0.9), true);
        }
        assert!(t.satisfaction() < t.adequation());
        assert!(t.allocation_satisfaction() < 1.0);
        assert_eq!(t.performed_window_len(), 5);
        assert_eq!(t.proposal_window_len(), 10);
    }

    #[test]
    fn performing_desired_queries_raises_allocation_satisfaction() {
        let mut t = ProviderTracker::new(10, 10, 0.5);
        for _ in 0..5 {
            t.record_proposal(Intention::new(0.9), true);
            t.record_proposal(Intention::new(-0.9), false);
        }
        assert!(t.satisfaction() > t.adequation());
        assert!(t.allocation_satisfaction() > 1.0);
    }

    #[test]
    fn strict_satisfaction_matches_definition_5() {
        let mut t = ProviderTracker::new(3, 10, 0.5);
        t.record_proposal(Intention::new(1.0), true); // mapped 1.0
        t.record_proposal(Intention::new(0.0), false);
        t.record_proposal(Intention::new(-1.0), true); // mapped 0.0
        assert!((t.satisfaction_strict() - 0.5).abs() < 1e-12);
        // Pushing a fourth proposal evicts the first performed entry from
        // the proposed window; the strict value now only sees the third.
        t.record_proposal(Intention::new(0.5), false);
        assert!((t.satisfaction_strict() - 0.0).abs() < 1e-12);
        // The Table-2-style satisfaction still remembers both performed
        // queries.
        assert!((t.satisfaction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mapped_values_are_clamped() {
        let mut t = ProviderTracker::new(4, 4, 0.5);
        t.record_mapped(4.0, true);
        t.record_mapped(-2.0, true);
        assert!((t.satisfaction() - 0.5).abs() < 1e-12);
        assert_eq!(t.adequation(), 0.5);
    }

    #[test]
    fn non_finite_value_does_not_poison_the_windows() {
        let mut t = ProviderTracker::new(2, 2, 0.5);
        t.record_mapped(f64::NAN, true);
        t.record_mapped(f64::INFINITY, false);
        assert_eq!(t.adequation(), 0.5);
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.satisfaction_strict(), 0.5);
        // Push both sanitized entries out of both windows: the running
        // sums are exact again (a NaN would have stayed in them for good).
        for _ in 0..2 {
            t.record_mapped(1.0, true);
        }
        assert_eq!(t.adequation(), 1.0);
        assert_eq!(t.satisfaction(), 1.0);
        assert_eq!(t.satisfaction_strict(), 1.0);
    }

    #[test]
    fn negative_zero_is_not_read_back_as_performed() {
        let mut t = ProviderTracker::new(4, 4, 0.5);
        t.record_mapped(-0.0, false);
        t.record_mapped(0.25, true);
        // Only the second proposal was performed.
        assert_eq!(t.satisfaction_strict(), 0.25);
        assert_eq!(t.adequation(), 0.125);
        assert_eq!(t.adequation().to_bits(), 0.125f64.to_bits());
    }

    /// The tracker as it was before the sign-packed ring: a plain deque of
    /// `(value, performed)` pairs with the same running-sum discipline.
    struct ReferenceTracker {
        proposed: VecDeque<(f64, bool)>,
        proposed_capacity: usize,
        proposed_sum: f64,
        performed: VecDeque<f64>,
        performed_capacity: usize,
        performed_sum: f64,
        initial: f64,
    }

    impl ReferenceTracker {
        fn new(k_proposed: usize, k_performed: usize, initial: f64) -> Self {
            ReferenceTracker {
                proposed: VecDeque::new(),
                proposed_capacity: k_proposed,
                proposed_sum: 0.0,
                performed: VecDeque::new(),
                performed_capacity: k_performed,
                performed_sum: 0.0,
                initial,
            }
        }

        fn record_mapped(&mut self, mapped: f64, performed: bool) {
            let mapped = mapped.clamp(0.0, 1.0);
            if self.proposed.len() == self.proposed_capacity {
                let (old, _) = self.proposed.pop_front().unwrap();
                self.proposed_sum -= old;
            }
            self.proposed.push_back((mapped, performed));
            self.proposed_sum += mapped;
            if performed {
                if self.performed.len() == self.performed_capacity {
                    self.performed_sum -= self.performed.pop_front().unwrap();
                }
                self.performed.push_back(mapped);
                self.performed_sum += mapped;
            }
        }

        fn adequation(&self) -> f64 {
            if self.proposed.is_empty() {
                self.initial
            } else {
                self.proposed_sum / self.proposed.len() as f64
            }
        }

        fn satisfaction(&self) -> f64 {
            if self.performed.is_empty() {
                self.initial
            } else {
                self.performed_sum / self.performed.len() as f64
            }
        }

        fn satisfaction_strict(&self) -> f64 {
            if self.proposed.is_empty() {
                return self.initial;
            }
            let performed: Vec<f64> = self
                .proposed
                .iter()
                .filter(|(_, p)| *p)
                .map(|(v, _)| *v)
                .collect();
            if performed.is_empty() {
                0.0
            } else {
                // An explicit `+0.0` start, as the tracker's loop has:
                // `Iterator::sum` starts from `-0.0` instead.
                performed.iter().fold(0.0, |sum, v| sum + v) / performed.len() as f64
            }
        }
    }

    /// Shown values with the edge cases the sign packing must survive.
    fn shown_value() -> impl Strategy<Value = f64> {
        (0u8..5, -2.0f64..=2.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => x.abs() / 2.0,
            _ => x,
        })
    }

    proptest! {
        #[test]
        fn prop_sign_packed_ring_is_bit_identical_to_pair_deque(
            k_proposed in 1usize..64,
            k_performed in 1usize..64,
            entries in proptest::collection::vec((shown_value(), proptest::bool::ANY), 0..400),
        ) {
            let mut packed = ProviderTracker::new(k_proposed, k_performed, 0.5);
            let mut reference = ReferenceTracker::new(k_proposed, k_performed, 0.5);
            for (step, &(v, performed)) in entries.iter().enumerate() {
                packed.record_mapped(v, performed);
                reference.record_mapped(v, performed);
                prop_assert_eq!(
                    packed.adequation().to_bits(),
                    reference.adequation().to_bits(),
                    "adequation at step {}", step
                );
                prop_assert_eq!(
                    packed.satisfaction().to_bits(),
                    reference.satisfaction().to_bits(),
                    "satisfaction at step {}", step
                );
                prop_assert_eq!(
                    packed.satisfaction_strict().to_bits(),
                    reference.satisfaction_strict().to_bits(),
                    "strict satisfaction at step {}", step
                );
            }
            prop_assert_eq!(packed.proposal_window_len(), reference.proposed.len());
            prop_assert_eq!(packed.performed_window_len(), reference.performed.len());
        }

        #[test]
        fn prop_outputs_in_unit_interval(
            entries in proptest::collection::vec((-1.0f64..=1.0, proptest::bool::ANY), 0..200),
        ) {
            let mut t = ProviderTracker::new(16, 16, 0.5);
            for (v, performed) in &entries {
                t.record_proposal(Intention::new(*v), *performed);
            }
            prop_assert!((0.0..=1.0).contains(&t.adequation()));
            prop_assert!((0.0..=1.0).contains(&t.satisfaction()));
            prop_assert!((0.0..=1.0).contains(&t.satisfaction_strict()));
            prop_assert!(t.allocation_satisfaction() >= 0.0);
        }

        #[test]
        fn prop_counters_are_consistent(
            entries in proptest::collection::vec((-1.0f64..=1.0, proptest::bool::ANY), 0..200),
        ) {
            let mut t = ProviderTracker::new(8, 8, 0.5);
            for (v, performed) in &entries {
                t.record_proposal(Intention::new(*v), *performed);
            }
            let performed_count = entries.iter().filter(|(_, p)| *p).count() as u64;
            prop_assert_eq!(t.proposed_queries(), entries.len() as u64);
            prop_assert_eq!(t.performed_queries(), performed_count);
            prop_assert!(t.performed_window_len() <= 8);
            prop_assert!(t.proposal_window_len() <= 8);
        }
    }
}
