//! # sqlb-satisfaction
//!
//! The participant characterization model of Section 3 of the SQLB paper.
//!
//! The model defines, for both consumers and providers, three quantities
//! computed over the participant's `k` last interactions with the system:
//!
//! * **adequation** `δa` — how well the system *could* serve the
//!   participant ("How well do my expectations correspond to the providers
//!   that were able to deal with my last queries?" / "… to the last queries
//!   that have been proposed to me?");
//! * **satisfaction** `δs` — how well the system *actually* served it
//!   ("How far the providers that have dealt with my last queries meet my
//!   expectations?" / "How well the last queries I have treated meet my
//!   expectations?");
//! * **allocation satisfaction** `δas = δs / δa` — how well the query
//!   allocation *method* works for the participant, independently of whether
//!   the system contains interesting counterparts at all.
//!
//! The model is deliberately value-agnostic: the same trackers can be fed
//! with *intentions* (public — this is what the mediator can observe) or
//! with *preferences* (private — only the participant itself can do this),
//! which is exactly how the paper distinguishes Figure 4(a) from
//! Figure 4(b).
//!
//! ## Window semantics
//!
//! Section 3 defines provider satisfaction over `SQ^k_p ⊆ PQ^k_p`, the
//! performed subset of the `k` last *proposed* queries, and Definition 5
//! assigns satisfaction 0 when that subset is empty; Table 2 additionally
//! initializes every participant at 0.5 before it has any history.
//! [`provider::ProviderTracker`] therefore exposes two readings:
//!
//! * [`provider::ProviderTracker::satisfaction_strict`] — the literal
//!   Definition 5 (0 on an empty performed subset, the initial value before
//!   any proposal). This is the value SQLB's Equation 6 feedback and the
//!   departure rules operate on: a provider whose performed subset dries up
//!   is exactly the punished/starved provider the framework must react to.
//! * [`provider::ProviderTracker::satisfaction`] — a smoothed variant over
//!   a dedicated memory of the last `k` *performed* queries (Table 2's
//!   `proSatSize`, "k last treated queries"), useful when a long-run
//!   average is wanted rather than the instantaneous Definition 5 signal.

#![warn(missing_docs)]

pub mod consumer;
pub mod memory;
pub mod provider;

pub use consumer::{
    consumer_query_adequation, consumer_query_outcome, consumer_query_satisfaction, ConsumerTracker,
};
pub use memory::InteractionMemory;
pub use provider::ProviderTracker;

/// The unit-space value of indifference: `Intention::new` maps a
/// non-finite input to the neutral intention 0, which `(x + 1)/2` turns
/// into 0.5. Every window records a non-finite observation as this value,
/// so one bad input cannot poison a running sum.
pub(crate) const INDIFFERENCE: f64 = 0.5;

/// Sanitizes a `[0, 1]` observation before it enters a window: finite
/// values are clamped into the unit interval, non-finite ones become
/// [`INDIFFERENCE`].
#[inline]
pub(crate) fn unit_observation(value: f64) -> f64 {
    if value.is_finite() {
        value.clamp(0.0, 1.0)
    } else {
        INDIFFERENCE
    }
}

/// Computes an allocation satisfaction `δas = δs / δa` (Definitions 3
/// and 6), handling the degenerate `δa = 0` case.
///
/// The paper gives `δas` the range `[0, ∞]`: when the system is completely
/// inadequate to a participant (`δa = 0`) but the participant is
/// nevertheless satisfied, the method is doing infinitely well by it; when
/// both are zero the method is neutral (1).
pub fn allocation_satisfaction(satisfaction: f64, adequation: f64) -> f64 {
    if adequation > 0.0 {
        satisfaction / adequation
    } else if satisfaction > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_satisfaction_ratio() {
        assert!((allocation_satisfaction(0.8, 0.4) - 2.0).abs() < 1e-12);
        assert!((allocation_satisfaction(0.3, 0.6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn allocation_satisfaction_neutral_when_equal() {
        assert!((allocation_satisfaction(0.5, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_satisfaction_degenerate_cases() {
        assert_eq!(allocation_satisfaction(0.5, 0.0), f64::INFINITY);
        assert_eq!(allocation_satisfaction(0.0, 0.0), 1.0);
        assert_eq!(allocation_satisfaction(0.0, 0.5), 0.0);
    }
}
