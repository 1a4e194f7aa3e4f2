//! # sqlb-sim
//!
//! The discrete-event simulator used to reproduce the evaluation of the
//! SQLB paper (Section 6), plus the experiment drivers that regenerate
//! every figure and table.
//!
//! The simulated system follows the paper's setup — a mediation layer
//! allocating every incoming query, a population of heterogeneous consumers
//! and providers (crate `sqlb-agents`), Poisson query arrivals whose rate
//! is expressed as a fraction of the total system capacity, provider queue
//! servers with finite capacity, and optional participant departures — but
//! is mediator-count-agnostic: the [`shard`] module partitions providers
//! across K mediator shards, with K = 1 (the default) reproducing the
//! paper's mono-mediator results bit-for-bit.
//!
//! * [`config`] — simulation configuration (Table 2 defaults plus scaled
//!   variants), the [`config::Method`] selector for the allocation method
//!   under test and the [`config::MediationMode`] selector for the
//!   mediation backend intentions are gathered through (inline calls, the
//!   asynchronous reactor, or the loopback socket transport —
//!   bit-identical reports either way);
//! * [`workload`] — workload patterns (fixed or ramping fraction of the
//!   total system capacity) and the Poisson arrival process;
//! * [`events`] — the event queue of the discrete-event engine;
//! * [`scenario`] — declarative scenario descriptions (arrival-rate
//!   schedules, correlated provider churn with re-join semantics,
//!   seeded transport faults), compiled into the event queue so
//!   same-seed scenario runs stay bit-identical;
//! * [`campaign`] — the named scenario-campaign matrix (scenarios ×
//!   allocation methods) behind the committed `BENCH_campaign.json`
//!   digest gate;
//! * [`matchmaking`] — opt-in capability matchmaking for the candidate
//!   set `P_q` (the default remains the paper's all-providers behaviour);
//! * [`routing`] — consumer-routing policies (static `consumer % K` or
//!   least-loaded) selecting the mediator shard of each query;
//! * [`shard`] — the mediator shard router, its satisfaction-view
//!   synchronization and cross-shard provider migration;
//! * [`stats`] — measurement collection: per-sample metric snapshots,
//!   response times, departure records and the final [`stats::SimulationReport`];
//! * [`engine`] — the simulator itself;
//! * [`experiments`] — one driver per paper figure/table (Figures 2–6,
//!   Tables 2–3), returning printable results.

#![deny(missing_docs)]

pub mod campaign;
pub mod config;
pub mod engine;
pub mod events;
pub mod experiments;
pub mod matchmaking;
pub mod routing;
pub mod scenario;
pub mod shard;
pub mod stats;
pub mod workload;

pub use config::{MediationMode, Method, SimulationConfig};
pub use engine::Simulator;
pub use routing::{
    LeastLoadedRouting, RoutingPolicy, RoutingPolicyKind, ShardLoadView, StaticRouting,
};
pub use scenario::{ArrivalModifier, ChurnGroup, RejoinPolicy, Scenario, TransportFault};
pub use shard::ShardRouter;
pub use stats::{DepartureRecord, MigrationRecord, SimulationReport};
pub use workload::WorkloadPattern;
