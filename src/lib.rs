//! # SQLB — Satisfaction-based Query Load Balancing
//!
//! A Rust reproduction of *"SQLB: A Query Allocation Framework for
//! Autonomous Consumers and Providers"* (Quiané-Ruiz, Lamarre, Valduriez —
//! VLDB 2007).
//!
//! SQLB allocates queries at a mediator sitting between **autonomous
//! consumers and providers**. Instead of only balancing load, it balances
//! the *intentions* of both sides — what consumers want from providers and
//! what providers want to work on — weighted by how satisfied each side has
//! been recently, so nobody is punished for long and nobody starves.
//!
//! This facade crate re-exports the individual crates of the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | identifiers, the query model `q = <c, d, n>`, bounded value domains |
//! | [`metrics`] | mean / Jain fairness / min–max balance (Section 4), time series |
//! | [`obs`] | zero-overhead-when-off observability: counters, histograms, flight recorder |
//! | [`satisfaction`] | adequation, satisfaction, allocation satisfaction (Section 3) |
//! | [`matchmaking`] | capability registry and matchmakers producing `P_q` |
//! | [`reputation`] | provider reputation used by consumer intentions |
//! | [`core`] | intention functions, scoring, Algorithm 1, the SQLB allocator |
//! | [`baselines`] | Capacity based, Mariposa-like, Random, Round-robin |
//! | [`agents`] | consumer/provider agents, utilization, departures, populations |
//! | [`mediation`] | asynchronous mediation reactor and wire protocol (fork / waituntil / timeout) |
//! | [`transport`] | socket-backed mediation: TCP/UDS wave server and participant hosts |
//! | [`sim`] | discrete-event simulator and per-figure experiment drivers |
//!
//! ## Quick start
//!
//! Score and allocate a query with SQLB directly:
//!
//! ```
//! use sqlb::prelude::*;
//!
//! // A query from consumer c0 asking for one provider.
//! let query = Query::single(QueryId::new(1), ConsumerId::new(0), QueryClass::Light, SimTime::ZERO);
//!
//! // What the mediation gathered about the two candidates: the consumer's
//! // intention for each provider and each provider's intention for the query.
//! let candidates = vec![
//!     CandidateInfo::new(ProviderId::new(0))
//!         .with_consumer_intention(0.8)
//!         .with_provider_intention(-0.4), // the consumer's favourite does not want it
//!     CandidateInfo::new(ProviderId::new(1))
//!         .with_consumer_intention(0.6)
//!         .with_provider_intention(0.7), // both sides are happy with this one
//! ];
//!
//! let mut sqlb = SqlbAllocator::new();
//! let mut state = MediatorState::paper_default();
//! let allocation = sqlb.allocate(&query, &candidates, &state);
//! state.record_allocation(&query, &candidates, &allocation);
//! assert_eq!(allocation.selected, vec![ProviderId::new(1)]);
//! ```
//!
//! Or run a full simulated system (the paper's evaluation substrate):
//!
//! ```
//! use sqlb::sim::{engine::run_simulation, Method, SimulationConfig, WorkloadPattern};
//!
//! let config = SimulationConfig::scaled(8, 16, 60.0, 7)
//!     .with_workload(WorkloadPattern::Fixed(0.5));
//! let report = run_simulation(config, Method::Sqlb).unwrap();
//! assert!(report.completed_queries > 0);
//! ```

#![warn(missing_docs)]

pub use sqlb_agents as agents;
pub use sqlb_baselines as baselines;
pub use sqlb_core as core;
pub use sqlb_matchmaking as matchmaking;
pub use sqlb_mediation as mediation;
pub use sqlb_metrics as metrics;
pub use sqlb_obs as obs;
pub use sqlb_reputation as reputation;
pub use sqlb_satisfaction as satisfaction;
pub use sqlb_sim as sim;
pub use sqlb_transport as transport;
pub use sqlb_types as types;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use sqlb_agents::{
        AdaptationClass, CapacityClass, ConsumerAgent, ConsumerConfig, ConsumerDepartureRule,
        DepartureReason, EnabledReasons, InterestClass, Population, PopulationConfig,
        ProviderAgent, ProviderConfig, ProviderDepartureRule, UtilizationWindow,
    };
    pub use sqlb_baselines::{CapacityBased, MariposaLike, RandomAllocator, RoundRobinAllocator};
    pub use sqlb_core::allocation::{
        Allocation, AllocationMethod, Bid, CandidateInfo, MediatorView, UniformView,
    };
    pub use sqlb_core::scoring::{omega, provider_score, rank_candidates, RankedProvider};
    pub use sqlb_core::{
        consumer_intention, provider_intention, IntentionParams, MediatorState, OmegaPolicy,
        QueryAllocationModule, SqlbAllocator, SqlbConfig,
    };
    pub use sqlb_matchmaking::{Capability, CapabilityRegistry, Matchmaker, UniversalMatchmaker};
    pub use sqlb_metrics::{fairness, mean, min_max_ratio, Summary, TimeSeries};
    pub use sqlb_reputation::ReputationStore;
    pub use sqlb_satisfaction::{allocation_satisfaction, ConsumerTracker, ProviderTracker};
    pub use sqlb_sim::{Method, SimulationConfig, Simulator, WorkloadPattern};
    pub use sqlb_types::{
        Capacity, ConsumerId, Intention, Preference, ProviderId, Query, QueryClass,
        QueryDescription, QueryId, Reputation, SimDuration, SimTime, Utilization, WorkUnits,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_end_to_end_path() {
        let query = Query::single(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryClass::Heavy,
            SimTime::ZERO,
        );
        let candidates = vec![
            CandidateInfo::new(ProviderId::new(0))
                .with_consumer_intention(0.9)
                .with_provider_intention(0.9),
            CandidateInfo::new(ProviderId::new(1))
                .with_consumer_intention(-0.9)
                .with_provider_intention(-0.9),
        ];
        let mut sqlb = SqlbAllocator::new();
        let state = MediatorState::paper_default();
        let allocation = sqlb.allocate(&query, &candidates, &state);
        assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
    }
}
