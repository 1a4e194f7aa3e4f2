//! Departure rules (Section 6.3.2).
//!
//! "Participants are given the autonomy to leave the system. … we assume
//! that participants support high degrees of dissatisfaction, starvation,
//! and overutilization. Thus, a consumer leaves the system, by
//! dissatisfaction, if its satisfaction is smaller than its adequation …
//! A provider leaves the system (i) by dissatisfaction, if its satisfaction
//! is smaller than its adequation minus 0.15, (ii) by starvation, if its
//! utilization is smaller than 20 % of its optimal utilization, and
//! (iii) by overutilization, if its utilization is greater than 220 % of
//! its optimal utilization. With a workload of 80 % of the total system
//! capacity, the optimal utilization of a provider is 0.8."
//!
//! The rules are pure functions over the relevant characteristics; the
//! simulator decides which satisfaction basis to feed them (it uses the
//! strict Definition 5, intention-based values for providers, mirroring the
//! quantities the model makes observable) and how often to evaluate them.

use std::fmt;

/// Why a participant left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepartureReason {
    /// The allocation method punished the participant
    /// (satisfaction below adequation, beyond the tolerated margin).
    Dissatisfaction,
    /// The provider received far too little work.
    Starvation,
    /// The provider received far too much work.
    Overutilization,
}

impl fmt::Display for DepartureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepartureReason::Dissatisfaction => write!(f, "dissatisfaction"),
            DepartureReason::Starvation => write!(f, "starvation"),
            DepartureReason::Overutilization => write!(f, "overutilization"),
        }
    }
}

/// The consumer departure rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerDepartureRule {
    /// Tolerated dissatisfaction margin: the consumer leaves when
    /// `δs(c) < δa(c) − margin`. The paper uses 0 (any punishment at all).
    pub margin: f64,
    /// Minimum number of issued queries before the rule is evaluated, so a
    /// consumer is not judged on an empty or nearly empty memory.
    pub min_issued_queries: u64,
    /// Number of consecutive assessments at which the rule must fire before
    /// the consumer actually leaves ("participants support high degrees of
    /// dissatisfaction" — a momentary dip is tolerated, persistent
    /// punishment is not).
    pub required_consecutive: u32,
}

impl Default for ConsumerDepartureRule {
    fn default() -> Self {
        ConsumerDepartureRule {
            margin: 0.0,
            min_issued_queries: 50,
            required_consecutive: 3,
        }
    }
}

impl ConsumerDepartureRule {
    /// Evaluates the rule. Returns the departure reason if the consumer
    /// decides to leave.
    pub fn evaluate(
        &self,
        satisfaction: f64,
        adequation: f64,
        issued_queries: u64,
    ) -> Option<DepartureReason> {
        if issued_queries < self.min_issued_queries {
            return None;
        }
        if satisfaction < adequation - self.margin {
            Some(DepartureReason::Dissatisfaction)
        } else {
            None
        }
    }
}

/// The provider departure rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderDepartureRule {
    /// Dissatisfaction margin: the provider leaves when
    /// `δs(p) < δa(p) − margin` (paper: 0.15).
    pub dissatisfaction_margin: f64,
    /// Starvation threshold as a fraction of the optimal utilization
    /// (paper: 0.2).
    pub starvation_fraction: f64,
    /// Overutilization threshold as a fraction of the optimal utilization
    /// (paper: 2.2).
    pub overutilization_fraction: f64,
    /// Minimum number of proposals the provider must have seen before the
    /// rule is evaluated.
    pub min_proposed_queries: u64,
    /// Number of consecutive assessments at which the rule must fire before
    /// the provider actually leaves.
    pub required_consecutive: u32,
    /// Which departure reasons are enabled. Figure 5(a) enables only
    /// dissatisfaction and starvation; Figure 5(b) enables all three.
    pub enabled: EnabledReasons,
}

/// Which provider departure reasons are active in a given experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnabledReasons {
    /// Dissatisfaction departures are possible.
    pub dissatisfaction: bool,
    /// Starvation departures are possible.
    pub starvation: bool,
    /// Overutilization departures are possible.
    pub overutilization: bool,
}

impl EnabledReasons {
    /// All three reasons enabled (Figure 5(b)).
    pub const ALL: EnabledReasons = EnabledReasons {
        dissatisfaction: true,
        starvation: true,
        overutilization: true,
    };
    /// Only dissatisfaction and starvation (Figure 5(a)).
    pub const DISSATISFACTION_AND_STARVATION: EnabledReasons = EnabledReasons {
        dissatisfaction: true,
        starvation: true,
        overutilization: false,
    };
    /// No departures at all (captive participants, Section 6.3.1).
    pub const NONE: EnabledReasons = EnabledReasons {
        dissatisfaction: false,
        starvation: false,
        overutilization: false,
    };
}

impl Default for ProviderDepartureRule {
    fn default() -> Self {
        ProviderDepartureRule {
            dissatisfaction_margin: 0.15,
            starvation_fraction: 0.2,
            overutilization_fraction: 2.2,
            min_proposed_queries: 500,
            required_consecutive: 3,
            enabled: EnabledReasons::ALL,
        }
    }
}

impl ProviderDepartureRule {
    /// Creates the paper's rule with an explicit set of enabled reasons.
    pub fn with_enabled(enabled: EnabledReasons) -> Self {
        ProviderDepartureRule {
            enabled,
            ..ProviderDepartureRule::default()
        }
    }

    /// Evaluates the rule.
    ///
    /// * `satisfaction`, `adequation` — the provider's characteristics (the
    ///   simulator passes the strict Definition 5 satisfaction);
    /// * `utilization` — current `Ut(p)`;
    /// * `optimal_utilization` — the utilization a provider would have if
    ///   the workload were spread exactly proportionally to capacity (the
    ///   workload fraction);
    /// * `proposed_queries` — how many proposals the provider has seen.
    ///
    /// Overutilization is checked first, then dissatisfaction, then
    /// starvation: an overloaded provider leaves because of the overload
    /// even if it is also dissatisfied.
    pub fn evaluate(
        &self,
        satisfaction: f64,
        adequation: f64,
        utilization: f64,
        optimal_utilization: f64,
        proposed_queries: u64,
    ) -> Option<DepartureReason> {
        if proposed_queries < self.min_proposed_queries {
            return None;
        }
        if self.enabled.overutilization
            && utilization > self.overutilization_fraction * optimal_utilization
        {
            return Some(DepartureReason::Overutilization);
        }
        if self.enabled.dissatisfaction && satisfaction < adequation - self.dissatisfaction_margin {
            return Some(DepartureReason::Dissatisfaction);
        }
        if self.enabled.starvation && utilization < self.starvation_fraction * optimal_utilization {
            return Some(DepartureReason::Starvation);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn consumer_leaves_when_punished() {
        let rule = ConsumerDepartureRule::default();
        assert_eq!(
            rule.evaluate(0.4, 0.6, 100),
            Some(DepartureReason::Dissatisfaction)
        );
        assert_eq!(rule.evaluate(0.6, 0.6, 100), None);
        assert_eq!(rule.evaluate(0.7, 0.6, 100), None);
    }

    #[test]
    fn consumer_needs_enough_history() {
        let rule = ConsumerDepartureRule::default();
        assert_eq!(rule.evaluate(0.0, 1.0, 10), None);
        assert_eq!(
            rule.evaluate(0.0, 1.0, 50),
            Some(DepartureReason::Dissatisfaction)
        );
    }

    #[test]
    fn provider_thresholds_match_paper() {
        let rule = ProviderDepartureRule::default();
        // 80 % workload → optimal utilization 0.8.
        let optimal = 0.8;
        // Dissatisfaction requires a gap larger than 0.15.
        assert_eq!(rule.evaluate(0.50, 0.60, 0.8, optimal, 1000), None);
        assert_eq!(
            rule.evaluate(0.40, 0.60, 0.8, optimal, 1000),
            Some(DepartureReason::Dissatisfaction)
        );
        // Starvation below 20 % of optimal = 0.16.
        assert_eq!(
            rule.evaluate(0.6, 0.6, 0.10, optimal, 1000),
            Some(DepartureReason::Starvation)
        );
        assert_eq!(rule.evaluate(0.6, 0.6, 0.20, optimal, 1000), None);
        // Overutilization above 220 % of optimal = 1.76.
        assert_eq!(
            rule.evaluate(0.6, 0.6, 1.8, optimal, 1000),
            Some(DepartureReason::Overutilization)
        );
        assert_eq!(rule.evaluate(0.6, 0.6, 1.7, optimal, 1000), None);
    }

    #[test]
    fn provider_needs_enough_history() {
        let rule = ProviderDepartureRule::default();
        assert_eq!(rule.evaluate(0.0, 1.0, 0.0, 0.8, 10), None);
    }

    #[test]
    fn overutilization_takes_precedence_over_dissatisfaction() {
        let rule = ProviderDepartureRule::default();
        assert_eq!(
            rule.evaluate(0.1, 0.9, 2.0, 0.8, 1000),
            Some(DepartureReason::Overutilization)
        );
    }

    #[test]
    fn disabled_reasons_are_ignored() {
        let rule =
            ProviderDepartureRule::with_enabled(EnabledReasons::DISSATISFACTION_AND_STARVATION);
        assert_eq!(rule.evaluate(0.6, 0.6, 5.0, 0.8, 1000), None);
        assert_eq!(
            rule.evaluate(0.1, 0.6, 5.0, 0.8, 1000),
            Some(DepartureReason::Dissatisfaction)
        );
        let rule = ProviderDepartureRule::with_enabled(EnabledReasons::NONE);
        assert_eq!(rule.evaluate(0.0, 1.0, 100.0, 0.8, 1000), None);
    }

    #[test]
    fn reasons_display() {
        assert_eq!(
            DepartureReason::Dissatisfaction.to_string(),
            "dissatisfaction"
        );
        assert_eq!(DepartureReason::Starvation.to_string(), "starvation");
        assert_eq!(
            DepartureReason::Overutilization.to_string(),
            "overutilization"
        );
    }

    proptest! {
        #[test]
        fn prop_captive_rule_never_fires(
            s in 0.0f64..1.0,
            a in 0.0f64..1.0,
            u in 0.0f64..5.0,
            o in 0.1f64..1.0,
        ) {
            let rule = ProviderDepartureRule::with_enabled(EnabledReasons::NONE);
            prop_assert_eq!(rule.evaluate(s, a, u, o, u64::MAX), None);
        }

        #[test]
        fn prop_satisfied_balanced_provider_stays(
            a in 0.0f64..1.0,
            o in 0.2f64..1.0,
        ) {
            // A provider whose satisfaction matches its adequation and whose
            // utilization sits exactly at the optimum never leaves.
            let rule = ProviderDepartureRule::default();
            prop_assert_eq!(rule.evaluate(a, a, o, o, u64::MAX), None);
        }
    }
}
