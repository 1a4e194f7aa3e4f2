//! Declarative scenario descriptions: arrival-rate schedules, correlated
//! provider churn and transport faults as seeded, reproducible data.
//!
//! The paper evaluates the allocation methods under a steady Poisson ramp
//! (Figures 4–6); an open system instead faces diurnal cycles, flash
//! crowds, correlated churn with re-joins and degraded transport. A
//! [`Scenario`] names one such regime declaratively:
//!
//! * **arrival modifiers** reshape the base arrival rate over virtual
//!   time (diurnal sine, flash-crowd burst, linear ramp) without
//!   consuming extra randomness — the factor multiplies the Poisson rate
//!   inside the engine's inter-arrival draw;
//! * **churn groups** take a correlated fraction of the providers down
//!   at a scheduled instant and optionally bring them back, with an
//!   explicit [`RejoinPolicy`] answering "does a re-joining provider's
//!   satisfaction history resume or reset?" (see the policy docs for the
//!   committed answer);
//! * **transport faults** stall, drop or delay one participant host,
//!   keyed by the same host partition the socket backend uses
//!   (`raw id % socket_hosts`), so the in-process backends can model the
//!   identical fault and stay digest-comparable.
//!
//! Everything is driven from the deterministic seed and the virtual
//! clock — never from wall time — so a same-seed scenario run is
//! bit-identical, which is what lets `BENCH_campaign.json` pin campaign
//! digests the way `BENCH_allocation.json` pins perf.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlb_types::{ProviderId, SimTime, SqlbError};

use crate::config::SimulationConfig;

/// A multiplicative reshaping of the base arrival rate over virtual
/// time. Modifiers compose by multiplication ([`Scenario::rate_factor_at`]),
/// so a diurnal cycle and a flash crowd can overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModifier {
    /// A diurnal sine: factor `1 + amplitude · sin(2π · now / period)`.
    Diurnal {
        /// Period of one cycle in virtual seconds.
        period_secs: f64,
        /// Peak deviation from the base rate (`0.6` swings between 0.4×
        /// and 1.6×). Must stay within `[0, 1]` so the rate never goes
        /// negative.
        amplitude: f64,
    },
    /// A flash crowd: the rate jumps to `multiplier`× inside
    /// `[at_secs, at_secs + duration_secs)` and is untouched outside.
    Burst {
        /// Burst onset in virtual seconds.
        at_secs: f64,
        /// Burst length in virtual seconds.
        duration_secs: f64,
        /// Rate multiplier during the burst (e.g. `10.0` for a 10×
        /// crowd).
        multiplier: f64,
    },
    /// A linear ramp of the factor from `from` to `to` across the whole
    /// run.
    Ramp {
        /// Factor at `t = 0`.
        from: f64,
        /// Factor at `t = duration`.
        to: f64,
    },
}

impl ArrivalModifier {
    /// The modifier's rate factor at virtual time `now_secs` of a run
    /// lasting `duration_secs`.
    pub fn factor_at(&self, now_secs: f64, duration_secs: f64) -> f64 {
        match *self {
            ArrivalModifier::Diurnal {
                period_secs,
                amplitude,
            } => 1.0 + amplitude * (std::f64::consts::TAU * now_secs / period_secs).sin(),
            ArrivalModifier::Burst {
                at_secs,
                duration_secs: len,
                multiplier,
            } => {
                if now_secs >= at_secs && now_secs < at_secs + len {
                    multiplier
                } else {
                    1.0
                }
            }
            ArrivalModifier::Ramp { from, to } => {
                let progress = (now_secs / duration_secs).clamp(0.0, 1.0);
                from + (to - from) * progress
            }
        }
    }

    /// An upper bound of [`ArrivalModifier::factor_at`] over any run.
    pub fn max_factor(&self) -> f64 {
        match *self {
            ArrivalModifier::Diurnal { amplitude, .. } => 1.0 + amplitude,
            ArrivalModifier::Burst { multiplier, .. } => multiplier.max(1.0),
            ArrivalModifier::Ramp { from, to } => from.max(to),
        }
    }
}

/// What happens to a re-joining provider's satisfaction history.
///
/// This is the committed answer to the open semantic question: **by
/// default, history resumes.** The provider agent keeps its own
/// satisfaction trackers while away (departure only flags it inactive),
/// and the mediator's intention-based tracker is parked at churn-out and
/// absorbed back at re-join
/// ([`crate::shard::ShardRouter::churn_depart`] /
/// [`crate::shard::ShardRouter::readmit_provider`]) — a provider that
/// left dissatisfied comes back dissatisfied, which is what the paper's
/// departure model implies for a *temporary* disconnection. `Reset`
/// models a re-join as a fresh identity instead: both agent-side
/// trackers rebuild at the configured initial satisfaction and the
/// mediator registers the provider fresh. Under both policies the
/// utilization window and outstanding backlog are kept — work already
/// accepted is physical state and does not vanish with the bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejoinPolicy {
    /// Satisfaction history continues where it left off (the default).
    Resume,
    /// Satisfaction history restarts at the initial satisfaction.
    Reset,
}

/// A correlated churn group: a fraction of the providers that leaves
/// together and optionally re-joins together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnGroup {
    /// Fraction of the initial provider population in the group,
    /// `(0, 1]`. Membership is drawn from the scenario's seeded RNG at
    /// start-up (a partial Fisher–Yates over the provider ids), so it is
    /// reproducible and disjoint across groups.
    pub fraction: f64,
    /// When the group leaves, in virtual seconds.
    pub depart_at_secs: f64,
    /// When the group returns (`None`: it never does). Must be after
    /// `depart_at_secs`.
    pub rejoin_at_secs: Option<f64>,
    /// Re-join semantics for the group's satisfaction history.
    pub rejoin: RejoinPolicy,
}

/// A transport fault on one participant host, in the socket backend's
/// host partition (`raw id % socket_hosts`). On the in-process backends
/// the same fault is modeled at the mediation seam (skipped agent calls
/// / `Never` endpoint latencies), which is observably identical — both
/// degrade the host's replies to indifference — so Inline and Reactor
/// runs of a fault scenario stay digest-identical while the Socket run
/// exercises the genuine wire-level misbehavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportFault {
    /// The host answers nothing in waves issued within
    /// `[from_secs, until_secs)`: each such wave pays the deadline and
    /// degrades the host's replies to indifference.
    StallHost {
        /// Faulted host index, `< socket_hosts`.
        host: usize,
        /// Fault onset in virtual seconds.
        from_secs: f64,
        /// Fault end in virtual seconds.
        until_secs: f64,
    },
    /// The host's connection drops mid-wave in the first wave issued at
    /// or after `at_secs` and stays down for the rest of the run: that
    /// wave's replies time out, and every later wave skips the host's
    /// endpoints at fan-out (instant indifference).
    DropHost {
        /// Faulted host index, `< socket_hosts`.
        host: usize,
        /// Drop instant in virtual seconds.
        at_secs: f64,
    },
    /// The host's replies lag by `delay_ms` in waves issued within
    /// `[from_secs, until_secs)`. A delay at or beyond the wave timeout
    /// behaves exactly like [`TransportFault::StallHost`]; a shorter one
    /// still makes the deadline and is absorbed by the wave semantics
    /// (no observable change to the report — pinned by tests).
    DelayHost {
        /// Faulted host index, `< socket_hosts`.
        host: usize,
        /// Fault onset in virtual seconds.
        from_secs: f64,
        /// Fault end in virtual seconds.
        until_secs: f64,
        /// Reply lag in milliseconds.
        delay_ms: u64,
    },
}

impl TransportFault {
    /// The faulted host index.
    pub fn host(&self) -> usize {
        match *self {
            TransportFault::StallHost { host, .. }
            | TransportFault::DropHost { host, .. }
            | TransportFault::DelayHost { host, .. } => host,
        }
    }
}

/// A named, declarative scenario: arrival reshaping, correlated churn
/// and transport faults, compiled into the engine's event queue at
/// start-up so same-seed runs stay bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The scenario's name (campaign entries are keyed by it).
    pub name: String,
    /// Arrival-rate modifiers, composed multiplicatively.
    pub arrival: Vec<ArrivalModifier>,
    /// Correlated churn groups.
    pub churn: Vec<ChurnGroup>,
    /// Transport faults.
    pub faults: Vec<TransportFault>,
}

impl Scenario {
    /// A scenario that changes nothing — the baseline row of a campaign
    /// matrix.
    pub fn steady(name: &str) -> Self {
        Scenario {
            name: name.to_string(),
            arrival: Vec::new(),
            churn: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// The product of all arrival modifiers at `now_secs`, clamped to be
    /// non-negative (a rate factor of zero silences arrivals; the
    /// engine's inter-arrival sampler returns infinity there and the
    /// next modifier window revives them).
    pub fn rate_factor_at(&self, now_secs: f64, duration_secs: f64) -> f64 {
        self.arrival
            .iter()
            .map(|m| m.factor_at(now_secs, duration_secs))
            .product::<f64>()
            .max(0.0)
    }

    /// An upper bound of [`Scenario::rate_factor_at`] over any instant
    /// of any run — the thinning envelope the engine samples candidate
    /// arrivals at. The bound is the product of the per-modifier maxima
    /// (each factor is non-negative, so the product of bounds bounds the
    /// product).
    pub fn max_rate_factor(&self) -> f64 {
        self.arrival.iter().map(|m| m.max_factor()).product()
    }

    /// Checks the scenario against a simulation configuration.
    pub fn validate(&self, config: &SimulationConfig) -> Result<(), SqlbError> {
        let invalid = |reason: String| SqlbError::InvalidConfig { reason };
        for modifier in &self.arrival {
            match *modifier {
                ArrivalModifier::Diurnal {
                    period_secs,
                    amplitude,
                } => {
                    if period_secs <= 0.0 {
                        return Err(invalid(format!(
                            "diurnal period must be positive, got {period_secs}"
                        )));
                    }
                    if !(0.0..=1.0).contains(&amplitude) {
                        return Err(invalid(format!(
                            "diurnal amplitude must be in [0, 1], got {amplitude}"
                        )));
                    }
                }
                ArrivalModifier::Burst {
                    duration_secs,
                    multiplier,
                    ..
                } => {
                    if duration_secs <= 0.0 || multiplier < 0.0 {
                        return Err(invalid(
                            "burst needs a positive duration and a non-negative multiplier"
                                .to_string(),
                        ));
                    }
                }
                ArrivalModifier::Ramp { from, to } => {
                    if from < 0.0 || to < 0.0 {
                        return Err(invalid("ramp factors must be non-negative".to_string()));
                    }
                }
            }
        }
        for group in &self.churn {
            if !(group.fraction > 0.0 && group.fraction <= 1.0) {
                return Err(invalid(format!(
                    "churn fraction must be in (0, 1], got {}",
                    group.fraction
                )));
            }
            if let Some(rejoin_at) = group.rejoin_at_secs {
                if rejoin_at <= group.depart_at_secs {
                    return Err(invalid(format!(
                        "churn re-join at {rejoin_at}s must come after departure at {}s",
                        group.depart_at_secs
                    )));
                }
            }
        }
        for fault in &self.faults {
            if fault.host() >= config.socket_hosts {
                return Err(invalid(format!(
                    "fault host {} out of range (socket_hosts = {})",
                    fault.host(),
                    config.socket_hosts
                )));
            }
            match *fault {
                TransportFault::StallHost {
                    from_secs,
                    until_secs,
                    ..
                }
                | TransportFault::DelayHost {
                    from_secs,
                    until_secs,
                    ..
                } => {
                    if until_secs <= from_secs {
                        return Err(invalid(format!(
                            "fault window [{from_secs}, {until_secs}) is empty"
                        )));
                    }
                }
                TransportFault::DropHost { .. } => {}
            }
        }
        Ok(())
    }

    /// Compiles the scenario for a run: draws the churn-group membership
    /// from a seeded RNG (salted so the base run's random streams are
    /// untouched) and freezes depart/re-join instants as virtual times.
    pub fn compile(&self, seed: u64, providers: &[ProviderId]) -> CompiledScenario {
        // splitmix64 over a scenario-only salt: the scenario draws must
        // not perturb (or correlate with) the engine's arrival RNG or
        // any shard method seed derived from the same run seed.
        let mut z = seed ^ 0x5CEA_A210_57A6_E5ED;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut rng = StdRng::seed_from_u64(z ^ (z >> 31));

        // One partial Fisher–Yates pass over the provider ids; groups
        // take consecutive chunks of the shuffled prefix, so they are
        // disjoint by construction.
        let mut pool: Vec<ProviderId> = providers.to_vec();
        let takes: Vec<usize> = self
            .churn
            .iter()
            .map(|g| ((g.fraction * providers.len() as f64).round() as usize).max(1))
            .collect();
        let total: usize = takes.iter().sum::<usize>().min(pool.len());
        for i in 0..total {
            let j = i + rng.random_range(0..pool.len() - i);
            pool.swap(i, j);
        }
        let mut offset = 0;
        let groups = self
            .churn
            .iter()
            .zip(takes)
            .map(|(group, take)| {
                let take = take.min(pool.len().saturating_sub(offset));
                let mut members = pool[offset..offset + take].to_vec();
                offset += take;
                members.sort_unstable();
                CompiledChurnGroup {
                    members,
                    depart_at: SimTime::from_secs(group.depart_at_secs),
                    rejoin_at: group.rejoin_at_secs.map(SimTime::from_secs),
                    policy: group.rejoin,
                }
            })
            .collect();
        CompiledScenario {
            groups,
            faults: self.faults.clone(),
        }
    }
}

/// A churn group with its membership drawn and its schedule frozen
/// ([`Scenario::compile`]).
#[derive(Debug, Clone)]
pub struct CompiledChurnGroup {
    /// The group's providers, ascending by id.
    pub members: Vec<ProviderId>,
    /// Departure instant.
    pub depart_at: SimTime,
    /// Re-join instant, if the group returns.
    pub rejoin_at: Option<SimTime>,
    /// Re-join semantics.
    pub policy: RejoinPolicy,
}

/// The run-ready part of a scenario: churn groups with drawn membership
/// plus the fault list. Arrival modifiers need no compilation — the
/// engine evaluates [`Scenario::rate_factor_at`] directly.
#[derive(Debug, Clone, Default)]
pub struct CompiledScenario {
    /// Compiled churn groups, in scenario order.
    pub groups: Vec<CompiledChurnGroup>,
    /// The scenario's transport faults.
    pub faults: Vec<TransportFault>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<ProviderId> {
        (0..n).map(ProviderId::new).collect()
    }

    #[test]
    fn modifiers_compose_multiplicatively() {
        let mut s = Scenario::steady("s");
        assert_eq!(s.rate_factor_at(10.0, 100.0), 1.0);
        s.arrival.push(ArrivalModifier::Burst {
            at_secs: 5.0,
            duration_secs: 10.0,
            multiplier: 4.0,
        });
        s.arrival.push(ArrivalModifier::Ramp { from: 0.5, to: 1.5 });
        assert_eq!(s.rate_factor_at(0.0, 100.0), 0.5);
        // Inside the burst at mid-ramp-ish point: 4 × (0.5 + 0.1).
        let f = s.rate_factor_at(10.0, 100.0);
        assert!((f - 4.0 * 0.6).abs() < 1e-12, "got {f}");
        // Burst is half-open: its end instant is back to the ramp alone.
        assert!((s.rate_factor_at(15.0, 100.0) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn diurnal_swings_and_never_goes_negative() {
        let s = Scenario {
            name: "d".into(),
            arrival: vec![ArrivalModifier::Diurnal {
                period_secs: 100.0,
                amplitude: 1.0,
            }],
            churn: Vec::new(),
            faults: Vec::new(),
        };
        assert!((s.rate_factor_at(25.0, 1000.0) - 2.0).abs() < 1e-12);
        // sin(3π/2) = −1 → factor 0, clamped non-negative.
        assert!(s.rate_factor_at(75.0, 1000.0).abs() < 1e-12);
    }

    #[test]
    fn compile_is_deterministic_and_groups_are_disjoint() {
        let s = Scenario {
            name: "churny".into(),
            arrival: Vec::new(),
            churn: vec![
                ChurnGroup {
                    fraction: 0.25,
                    depart_at_secs: 10.0,
                    rejoin_at_secs: Some(20.0),
                    rejoin: RejoinPolicy::Resume,
                },
                ChurnGroup {
                    fraction: 0.25,
                    depart_at_secs: 30.0,
                    rejoin_at_secs: None,
                    rejoin: RejoinPolicy::Reset,
                },
            ],
            faults: Vec::new(),
        };
        let a = s.compile(7, &ids(32));
        let b = s.compile(7, &ids(32));
        assert_eq!(a.groups.len(), 2);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ga.members, gb.members);
            assert_eq!(ga.members.len(), 8);
            assert!(ga.members.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<_> = a
            .groups
            .iter()
            .flat_map(|g| g.members.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16, "groups must not overlap");
        // A different seed draws a different membership.
        let c = s.compile(8, &ids(32));
        assert_ne!(a.groups[0].members, c.groups[0].members);
    }

    #[test]
    fn compile_handles_tiny_populations() {
        let s = Scenario {
            name: "tiny".into(),
            arrival: Vec::new(),
            churn: vec![ChurnGroup {
                fraction: 0.9,
                depart_at_secs: 1.0,
                rejoin_at_secs: Some(2.0),
                rejoin: RejoinPolicy::Resume,
            }],
            faults: Vec::new(),
        };
        let compiled = s.compile(3, &ids(1));
        assert_eq!(compiled.groups[0].members.len(), 1);
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        let config = SimulationConfig::scaled(8, 16, 10.0, 1);
        let mut s = Scenario::steady("ok");
        assert!(s.validate(&config).is_ok());

        s.churn.push(ChurnGroup {
            fraction: 0.0,
            depart_at_secs: 1.0,
            rejoin_at_secs: None,
            rejoin: RejoinPolicy::Resume,
        });
        assert!(s.validate(&config).is_err());
        s.churn.clear();

        s.churn.push(ChurnGroup {
            fraction: 0.5,
            depart_at_secs: 5.0,
            rejoin_at_secs: Some(4.0),
            rejoin: RejoinPolicy::Resume,
        });
        assert!(s.validate(&config).is_err());
        s.churn.clear();

        s.faults.push(TransportFault::StallHost {
            host: config.socket_hosts + 1,
            from_secs: 0.0,
            until_secs: 1.0,
        });
        assert!(s.validate(&config).is_err());
        s.faults.clear();

        s.faults.push(TransportFault::DelayHost {
            host: 0,
            from_secs: 5.0,
            until_secs: 5.0,
            delay_ms: 10,
        });
        assert!(s.validate(&config).is_err());
        s.faults.clear();

        s.arrival.push(ArrivalModifier::Diurnal {
            period_secs: 10.0,
            amplitude: 1.5,
        });
        assert!(s.validate(&config).is_err());
    }
}
