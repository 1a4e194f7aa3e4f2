//! The discrete-event simulation engine.
//!
//! The engine reproduces the system of Section 6.1, generalized to be
//! mediator-count-agnostic: queries arrive following a Poisson process
//! whose intensity is a fraction of the total system capacity, the
//! responsible mediator shard gathers intentions (and bids, for the
//! economic method) from the issuing consumer and every candidate provider
//! it owns, the allocation method under test picks the providers, and the
//! selected providers treat the query on a FIFO queue bounded only by
//! their capacity. Metrics are sampled periodically; in autonomous
//! experiments a periodic assessment lets dissatisfied, starved or
//! overutilized participants leave the system.
//!
//! With `mediator_shards = 1` (the default, and the paper's setup) a
//! single shard owns every provider and the engine is exactly the
//! mono-mediator pipeline. With `K > 1`, providers are partitioned across
//! `K` [`sqlb_core::Mediator`]s by the [`crate::shard::ShardRouter`],
//! queries route to the shard of their consumer, and a periodic
//! [`Event::SyncViews`] exchanges satisfaction digests between shards.
//!
//! All per-participant engine state (queue drain times, departure strikes)
//! lives in [`ParticipantTable`]s keyed by stable ids, never in vectors
//! indexed by a participant's initial position: a departure can therefore
//! never redirect state updates to the wrong survivor.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqlb_agents::Population;
use sqlb_core::allocation::{CandidateInfo, MediatorView, SelectionSet};
use sqlb_core::mediator_state::MediatorStateConfig;
use sqlb_mediation::{IntentionWave, Latency, ProviderAnswer, Reactor, RuntimeConfig};
use sqlb_metrics::{fairness, mean, spread, Histogram, Summary, TimeSeries};
use sqlb_obs::{Counter as ObsCounter, EventKind, Histogram as ObsHistogram, Obs};
use sqlb_reputation::ReputationStore;
use sqlb_transport::{HostFault, ServerConfig, SocketMediator, WaveJobs};
use sqlb_types::{
    ConsumerId, ParticipantTable, ProviderId, Query, QueryClass, QueryId, SimTime, SlotColumn,
    SqlbError,
};

use crate::config::{MediationMode, Method, SimulationConfig};
use crate::events::{Event, EventQueue};
use crate::matchmaking::{class_topic, intersect_sorted, ClassMatchmaker};
use crate::routing::{RoutingPolicy, ShardLoadView};
use crate::scenario::{CompiledChurnGroup, RejoinPolicy, Scenario, TransportFault};
use crate::shard::ShardRouter;
use crate::stats::{
    ConsumerDepartureRecord, DepartureRecord, MetricSeries, MigrationRecord, SimulationReport,
};
use crate::workload::{arrival_rate, sample_interarrival};

/// Reusable per-simulator buffers for the arrival hot path. Every arrival
/// used to allocate ~5 fresh vectors before computing a single intention;
/// with the arena, steady-state arrivals gather intentions, run the
/// allocation decision and record the outcome without touching the heap
/// (buffers grow to the candidate-set high-water mark and stay there).
#[derive(Debug, Default)]
struct ArrivalScratch {
    /// The filtered candidate set, when capability matchmaking is on.
    candidates: Vec<ProviderId>,
    /// Candidate information gathered for the current query (`P_q`).
    infos: Vec<CandidateInfo>,
    /// Consumer intentions shown over `P_q`, in candidate order.
    shown_cis: Vec<f64>,
    /// Indices into `infos` of the selected providers.
    selected_indices: Vec<usize>,
    /// Id-sorted index over the allocation's selected providers.
    selection: SelectionSet,
}

/// The candidate set `P_q` of a query of `class` routed to `shard`: the
/// shard's provider list, optionally narrowed by capability matchmaking
/// to the providers whose declared capabilities cover the class. An
/// empty filtered set falls back to the whole shard — a query must not be
/// dropped while capable-ish providers remain (documented fall-back of
/// the opt-in mode). Takes the simulator's fields separately so the
/// borrowed slice leaves the rest of the simulator usable, and the
/// per-arrival path allocates nothing.
fn candidate_set<'a>(
    router: &'a ShardRouter,
    matchmaker: Option<&ClassMatchmaker>,
    filtered: &'a mut Vec<ProviderId>,
    shard: usize,
    class: QueryClass,
) -> &'a [ProviderId] {
    let shard_providers = router.providers_of_shard(shard);
    let Some(matchmaker) = matchmaker else {
        return shard_providers;
    };
    intersect_sorted(shard_providers, matchmaker.matching(class), filtered);
    if filtered.is_empty() {
        shard_providers
    } else {
        filtered
    }
}

/// Gathers one arrival's candidate information through one reactor wave
/// into `infos`: a batched intention request to the issuing consumer
/// (covering all candidates) and one request per candidate provider,
/// with per-endpoint deadline tracking. Returns how many replies the
/// scenario's faulted hosts degrade to indifference.
///
/// Out of line, so the inline backend's arm of the arrival path keeps
/// its own code generation whatever the wave's jobs inline into.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn gather_by_reactor_wave(
    reactor: &mut Reactor,
    population: &mut Population,
    reputation: &ReputationStore,
    conditions: &WaveConditions,
    query: &Query,
    candidates: &[ProviderId],
    uses_bids: bool,
    now: SimTime,
    infos: &mut Vec<CandidateInfo>,
) -> u64 {
    let mut fabricated = 0u64;
    let consumer = query.consumer;
    let consumer_agent = &population.consumers[consumer];
    let mut wave = IntentionWave::new();
    // Scenario faults ride in as per-wave latency overrides: an
    // unresponsive host's endpoints miss the deadline (`Never`), a
    // delayed host's lag by the configured amount — the wave machinery
    // then fabricates the exact indifference the inline backend models
    // directly.
    let consumer_condition = conditions.consumer(consumer);
    if matches!(consumer_condition, HostCondition::Unresponsive) {
        fabricated += 1;
    }
    wave.consumer(consumer, consumer_condition.latency_override(), move || {
        vec![(
            query.id,
            candidates
                .iter()
                .map(|&p| (p, consumer_agent.intention_for(query, p, reputation)))
                .collect(),
        )]
    });
    // The table hands out one disjoint `&mut` per candidate agent in
    // O(candidates) — the wave never walks the rest of the population.
    // With shard-major storage a shard's own candidates sit in one
    // contiguous block.
    for (p, agent) in population.providers.iter_mut_of(candidates) {
        let condition = conditions.provider(p);
        if matches!(condition, HostCondition::Unresponsive) {
            fabricated += 1;
        }
        wave.provider(p, condition.latency_override(), move || {
            let (intention, utilization) = agent.intention_and_utilization(query, now);
            vec![ProviderAnswer {
                query: query.id,
                intention,
                utilization,
                bid: uses_bids.then(|| agent.bid_for(query, now)),
            }]
        });
    }

    let replies = reactor.run_wave(wave);

    // Assemble the replies through the shared routine (indifference
    // filled in for anything that missed the deadline), so the timeout
    // semantics live in exactly one place.
    infos.clear();
    replies.append_candidate_infos(query, candidates, infos);
    fabricated
}

/// Pre-resolved engine-level observability instruments (`sqlb-obs`).
/// Resolved once at build time; when the run's [`Obs`] handle is
/// disabled every handle is a no-op, so each hot-path site pays a
/// single predictable branch and nothing else.
#[derive(Debug, Default)]
struct EngineMetrics {
    /// Queries issued by consumers (mirrors the report counter).
    queries_issued: ObsCounter,
    /// Queries whose results were delivered.
    queries_completed: ObsCounter,
    /// Queries no provider-bearing shard could take.
    queries_unallocated: ObsCounter,
    /// Replies degraded to indifference, unified across backends: wire
    /// timeouts and dead connections on the socket transport, the
    /// fabricated indifference of scenario-faulted endpoints on the
    /// in-process backends. One counter, whatever the backend — the
    /// per-backend split stays visible through the transport's own
    /// `replies_timed_out` and the scenario accounting.
    indifferent_replies: ObsCounter,
    /// Mediation waves that completed with at least one degraded reply.
    degraded_waves: ObsCounter,
    /// Providers taken down by scenario churn groups.
    churn_departures: ObsCounter,
    /// Providers brought back by scenario churn groups.
    churn_rejoins: ObsCounter,
    /// Cross-shard provider migrations performed by rebalancing.
    migrations: ObsCounter,
    /// Response-time distribution of completed queries (virtual
    /// seconds).
    response_time_seconds: ObsHistogram,
}

impl EngineMetrics {
    fn resolve(obs: &Obs) -> Self {
        EngineMetrics {
            queries_issued: obs.counter("queries_issued"),
            queries_completed: obs.counter("queries_completed"),
            queries_unallocated: obs.counter("queries_unallocated"),
            indifferent_replies: obs.counter("indifferent_replies"),
            degraded_waves: obs.counter("degraded_waves"),
            churn_departures: obs.counter("churn_departures"),
            churn_rejoins: obs.counter("churn_rejoins"),
            migrations: obs.counter("provider_migrations"),
            response_time_seconds: obs.histogram("response_time_seconds"),
        }
    }
}

/// Run state of an attached [`Scenario`]: the declarative description
/// (arrival modifiers are evaluated from it directly), the compiled
/// churn groups, the fault list with its one-shot drop bookkeeping, and
/// the accounting the report carries.
struct ScenarioState {
    description: Scenario,
    groups: Vec<CompiledChurnGroup>,
    /// Per churn group: the members this run actually took down (a
    /// member that had already departed behaviorally is skipped and
    /// must not re-join).
    departed_members: Vec<Vec<ProviderId>>,
    faults: Vec<TransportFault>,
    /// Per entry of `faults`: whether a [`TransportFault::DropHost`]
    /// already severed its connection. Socket backend only — the
    /// in-process backends derive the permanent post-drop condition
    /// from the virtual clock alone.
    drop_fired: Vec<bool>,
    churn_departures: u64,
    churn_rejoins: u64,
    /// Indifference fabricated for scenario-faulted endpoints on the
    /// in-process backends (the socket backend counts real wire
    /// timeouts instead — see
    /// [`SimulationReport::indifferent_replies`]).
    fault_indifference: u64,
}

/// The engine-side condition of one loopback host for the wave being
/// issued now, derived from the scenario's fault windows and the
/// virtual clock.
#[derive(Debug, Clone, Copy)]
enum HostCondition {
    /// No active fault.
    Healthy,
    /// Stalled, dropped, or delayed past the wave deadline: the host's
    /// replies degrade to indifference.
    Unresponsive,
    /// Delayed but inside the deadline: the reply still counts.
    Delayed(Duration),
}

impl HostCondition {
    /// The per-wave latency override modelling this condition on the
    /// in-process mediated backends (`None`: the endpoint's registered
    /// latency stands).
    fn latency_override(self) -> Option<Latency> {
        match self {
            HostCondition::Healthy => None,
            HostCondition::Unresponsive => Some(Latency::Never),
            HostCondition::Delayed(delay) => Some(Latency::After(delay)),
        }
    }
}

/// The fault condition of `host` for a wave issued at `now_secs`. The
/// worst active fault wins: `Unresponsive` beats a sub-deadline delay,
/// and a delay at or past the deadline *is* unresponsiveness.
fn host_condition_at(
    faults: &[TransportFault],
    host: usize,
    now_secs: f64,
    timeout_ms: u64,
) -> HostCondition {
    let mut condition = HostCondition::Healthy;
    for fault in faults {
        match *fault {
            TransportFault::StallHost {
                host: h,
                from_secs,
                until_secs,
            } if h == host && now_secs >= from_secs && now_secs < until_secs => {
                return HostCondition::Unresponsive;
            }
            TransportFault::DropHost { host: h, at_secs } if h == host && now_secs >= at_secs => {
                return HostCondition::Unresponsive;
            }
            TransportFault::DelayHost {
                host: h,
                from_secs,
                until_secs,
                delay_ms,
            } if h == host && now_secs >= from_secs && now_secs < until_secs => {
                if delay_ms >= timeout_ms {
                    return HostCondition::Unresponsive;
                }
                condition = HostCondition::Delayed(Duration::from_millis(delay_ms));
            }
            _ => {}
        }
    }
    condition
}

/// Per-host fault conditions of the wave being issued now, keyed by the
/// socket backend's host partition (`raw id % socket_hosts`). The
/// in-process backends model scenario transport faults against the
/// same partition, which is what keeps fault runs digest-comparable
/// across backends. An empty table means every host is healthy — the
/// common case, costing no allocation.
struct WaveConditions {
    hosts: Vec<HostCondition>,
}

impl WaveConditions {
    fn consumer(&self, id: ConsumerId) -> HostCondition {
        self.of_raw(id.raw())
    }

    fn provider(&self, id: ProviderId) -> HostCondition {
        self.of_raw(id.raw())
    }

    fn of_raw(&self, raw: u32) -> HostCondition {
        if self.hosts.is_empty() {
            HostCondition::Healthy
        } else {
            self.hosts[raw as usize % self.hosts.len()]
        }
    }
}

/// The mediation backend the engine gathers intentions through — the
/// runtime realization of [`MediationMode`]. All three backends ask the
/// same agents the same questions in the same per-participant order, so
/// reports are bit-identical across them for a given seed.
enum MediationDriver {
    /// Direct in-process calls on the arrival hot path (the default).
    Inline,
    /// The asynchronous reactor: the engine registers every participant
    /// as a polled endpoint at start-up, deregisters it on departure, and
    /// runs each arrival's gather as one reactor wave.
    Reactor(Box<Reactor>),
    /// The socket transport: a loopback wave server plus participant-host
    /// connections (`sqlb-transport`). Every arrival's gather crosses
    /// real TCP sockets as framed bytes; endpoints are announced at
    /// start-up and deregistered on departure, and a host whose last
    /// endpoint departs has its connection closed.
    Socket(Box<SocketMediator>),
}

/// One arrival of a socket wave, prepared (drawn, routed, candidates
/// resolved) but not yet mediated or allocated.
struct PreparedArrival {
    query: Query,
    shard: usize,
    /// The candidate set `P_q`, owned: the socket path clones it into
    /// the wave request anyway, and a batch outlives the borrow the
    /// in-process backends get away with.
    candidates: Vec<ProviderId>,
}

/// The simulator for one `(configuration, method)` pair.
pub struct Simulator {
    config: SimulationConfig,
    method_kind: Method,
    /// The mediation layer: one or more mediator shards plus the
    /// provider-to-shard assignment.
    router: ShardRouter,
    /// How arriving queries pick their preferred mediator shard.
    routing: Box<dyn RoutingPolicy>,
    /// Outstanding work (in work units) currently enqueued at providers of
    /// each shard — the load signal
    /// [`crate::routing::LeastLoadedRouting`] reads. Migrations and
    /// departures move a provider's outstanding backlog with it, so the
    /// totals stay consistent; tiny floating-point residue from the
    /// differing summation order can still leave a value fractionally
    /// negative, which readers clamp at zero.
    shard_backlog: Vec<f64>,
    /// Total provider capacity per shard (units per second), maintained
    /// incrementally on departures and migrations so routing never scans
    /// providers on the arrival path.
    shard_capacity: Vec<f64>,
    population: Population,
    reputation: ReputationStore,
    rng: StdRng,
    queue: EventQueue,
    /// Per-provider time at which its FIFO queue drains (seconds), keyed
    /// by stable provider id. A dense struct-of-arrays column (8 bytes
    /// per slot, no `Option` wrapper): departed providers just keep a
    /// stale drain time that is never read again.
    busy_until: SlotColumn<ProviderId, f64>,
    now: SimTime,
    next_query_id: u32,
    /// Tick counters of the periodic events. Every periodic occurrence is
    /// scheduled at `tick × interval` rather than `previous + interval`:
    /// repeated addition accumulates floating-point drift for non-dyadic
    /// intervals (e.g. 0.1 s), which can change how many samples or sync
    /// rounds a run performs. For dyadic intervals the two schedules are
    /// bit-identical, which keeps old seeds reproducible.
    next_sample_tick: u64,
    next_assessment_tick: u64,
    next_sync_tick: u64,
    next_rebalance_tick: u64,
    total_capacity: f64,
    initial_consumers: usize,
    initial_providers: usize,
    /// Consecutive assessments at which each provider's departure rule
    /// fired (the rule only takes effect after `required_consecutive`
    /// strikes). Dense columns like `busy_until`.
    provider_strikes: SlotColumn<ProviderId, u32>,
    /// Consecutive assessments at which each consumer's departure rule
    /// fired.
    consumer_strikes: SlotColumn<ConsumerId, u32>,
    // Statistics.
    series: MetricSeries,
    response_times: Histogram,
    issued: u64,
    completed: u64,
    unallocated: u64,
    provider_departures: Vec<DepartureRecord>,
    consumer_departures: Vec<ConsumerDepartureRecord>,
    /// Cross-shard provider migrations, in chronological order.
    migrations: Vec<MigrationRecord>,
    /// Rebalancing rounds evaluated (whether or not they migrated).
    rebalance_rounds: u64,
    /// Per-shard allocation counters as of the previous rebalancing round,
    /// so each round sees the mediation load of its own window only.
    allocations_at_last_rebalance: Vec<u64>,
    /// Per-provider performed-query counters as of the previous
    /// rebalancing round: the windowed difference is a provider's observed
    /// mediation throughput, the quantity the load-adaptive rule moves.
    performed_at_last_rebalance: ParticipantTable<ProviderId, u64>,
    /// Reusable arrival-path buffers (see [`ArrivalScratch`]).
    scratch: ArrivalScratch,
    /// The mediation backend intentions are gathered through.
    mediation: MediationDriver,
    /// The capability matchmaker (registry + cached per-class matching
    /// lists), when capability matchmaking is enabled (`None` reproduces
    /// the paper's all-providers candidate sets).
    matchmaker: Option<ClassMatchmaker>,
    /// Scenario run state (`None` for plain runs — the default).
    scenario: Option<ScenarioState>,
    /// The run's observability handle: live when
    /// [`SimulationConfig::observability`] is set, a no-op shell
    /// otherwise. Clones of it are planted in the mediator shards and
    /// the mediation backend at build time, so one snapshot covers the
    /// whole run.
    obs: Obs,
    /// Pre-resolved engine instruments (see [`EngineMetrics`]).
    metrics: EngineMetrics,
    /// Waves that completed with at least one reply degraded to
    /// indifference, on any backend — the report's `degraded_waves`.
    /// Plain engine accounting, maintained whether or not observability
    /// is on (like `issued`/`completed`).
    degraded_waves: u64,
    /// Socket-backend wire timeouts already folded into the unified
    /// indifference accounting (delta tracking against the transport's
    /// accumulated `timed_out_total`).
    socket_timeouts_seen: u64,
}

impl Simulator {
    /// Builds a simulator for the given configuration and allocation
    /// method.
    pub fn new(config: SimulationConfig, method: Method) -> Result<Self, SqlbError> {
        Self::build(config, method, None)
    }

    /// Builds a simulator executing `scenario` on top of the configured
    /// setup: arrival modifiers reshape the Poisson rate, churn groups
    /// are compiled into [`Event::ChurnDepart`]/[`Event::ChurnRejoin`]
    /// occurrences on the ordinary event queue, and transport faults
    /// degrade the affected hosts' replies on every mediation backend.
    /// Same seed, same scenario → bit-identical report.
    pub fn with_scenario(
        config: SimulationConfig,
        method: Method,
        scenario: &Scenario,
    ) -> Result<Self, SqlbError> {
        Self::build(config, method, Some(scenario))
    }

    fn build(
        config: SimulationConfig,
        method: Method,
        scenario: Option<&Scenario>,
    ) -> Result<Self, SqlbError> {
        config.validate()?;
        if let Some(scenario) = scenario {
            scenario.validate(&config)?;
        }
        // Shard-major agent storage: each shard's providers (`id mod K`,
        // the router's round-robin partition) sit in one contiguous
        // block, so an arrival's candidates are neighbours in memory.
        let population =
            Population::generate_shard_major(&config.population, config.mediator_shards)?;
        let total_capacity = population.total_capacity();
        let initial_consumers = population.consumers.len();
        let initial_providers = population.providers.len();
        // Every generated provider is active, so the active index lists
        // the table's keys in the same ascending order — as a compact
        // id column instead of a walk over the agent table.
        let provider_ids = population.active_provider_ids();
        debug_assert_eq!(provider_ids.len(), initial_providers);
        let state_config = MediatorStateConfig {
            consumer_window: config.population.consumer_config.memory,
            provider_proposed_window: config.population.provider_config.proposed_memory,
            provider_performed_window: config.population.provider_config.performed_memory,
            initial_satisfaction: config.population.provider_config.initial_satisfaction,
        };
        let mut router = ShardRouter::new(
            config.mediator_shards,
            method,
            config.seed,
            state_config,
            provider_ids.iter().copied(),
        );
        router.set_scoring_threads(config.scoring_threads);

        // Observation only: a disabled handle records nothing, an
        // enabled one observes without feeding anything back, so
        // same-seed reports are bit-identical either way (pinned by the
        // observability integration tests).
        let obs = Obs::when(config.observability);
        if obs.is_enabled() {
            for shard in 0..router.shard_count() {
                router.mediator_mut(shard).set_obs(&obs);
            }
        }

        // The wave deadline is only a guard on the simulated topologies
        // (in-process participants answer as soon as they are polled);
        // scenario fault runs shrink it so stalled hosts do not make
        // every wave pay the full default five seconds.
        let wave_timeout = Duration::from_millis(config.wave_timeout_ms);
        let mediation = match config.mediation {
            MediationMode::Inline => MediationDriver::Inline,
            MediationMode::Reactor => {
                // The engine drives the reactor: every participant is
                // registered as a polled endpoint up front (a lightweight
                // profile, not a thread) and deregistered on departure.
                let mut reactor = Reactor::new(RuntimeConfig {
                    timeout: wave_timeout,
                    request_bids: method.uses_bids(),
                });
                for id in population.consumers.keys() {
                    reactor.register_consumer(id, Latency::Immediate);
                }
                for &id in provider_ids {
                    reactor.register_provider(id, Latency::Immediate);
                }
                reactor.set_obs(&obs);
                MediationDriver::Reactor(Box::new(reactor))
            }
            MediationMode::Socket => {
                // The engine hosts the whole loopback topology: a wave
                // server on 127.0.0.1 and `socket_hosts` participant-host
                // connections announcing the population's endpoints.
                let mut mediator = SocketMediator::loopback(
                    config.socket_hosts,
                    ServerConfig {
                        timeout: wave_timeout,
                        request_bids: method.uses_bids(),
                    },
                    population.consumers.keys(),
                    provider_ids.iter().copied(),
                )
                .map_err(|e| SqlbError::InvalidConfig {
                    reason: format!("socket mediation bring-up failed: {e}"),
                })?;
                mediator.set_obs(obs.clone());
                MediationDriver::Socket(Box::new(mediator))
            }
        };

        // Capability matchmaking (opt-in): derive the provider
        // capability registry and the per-class matching lists once;
        // candidate sets then intersect each shard's provider list with
        // the cached class list — no per-arrival registry scan.
        let matchmaker = config
            .capability_matchmaking
            .then(|| ClassMatchmaker::new(&population));

        // Compile the scenario against the generated population: churn
        // membership is drawn from the salted scenario RNG (the engine's
        // own random streams are untouched), schedules are frozen as
        // virtual times.
        let scenario = scenario.map(|s| {
            let compiled = s.compile(config.seed, provider_ids);
            ScenarioState {
                description: s.clone(),
                departed_members: vec![Vec::new(); compiled.groups.len()],
                drop_fired: vec![false; compiled.faults.len()],
                groups: compiled.groups,
                faults: compiled.faults,
                churn_departures: 0,
                churn_rejoins: 0,
                fault_indifference: 0,
            }
        });

        let routing = config.routing.build();
        let shard_backlog = vec![0.0f64; router.shard_count()];
        let shard_capacity: Vec<f64> = (0..router.shard_count())
            .map(|shard| {
                router
                    .providers_of_shard(shard)
                    .iter()
                    .map(|&p| population.providers[p].capacity().units_per_sec())
                    .sum()
            })
            .collect();
        let mut sim = Simulator {
            method_kind: method,
            router,
            routing,
            shard_backlog,
            shard_capacity,
            reputation: ReputationStore::neutral(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17)),
            queue: EventQueue::new(),
            busy_until: SlotColumn::with_len(initial_providers, 0.0),
            provider_strikes: SlotColumn::with_len(initial_providers, 0),
            consumer_strikes: SlotColumn::with_len(initial_consumers, 0),
            now: SimTime::ZERO,
            next_query_id: 0,
            next_sample_tick: 1,
            next_assessment_tick: 1,
            next_sync_tick: 1,
            next_rebalance_tick: 1,
            total_capacity,
            initial_consumers,
            initial_providers,
            series: MetricSeries::default(),
            response_times: Histogram::new(0.0, 120.0, 240),
            issued: 0,
            completed: 0,
            unallocated: 0,
            provider_departures: Vec::new(),
            consumer_departures: Vec::new(),
            migrations: Vec::new(),
            rebalance_rounds: 0,
            allocations_at_last_rebalance: Vec::new(),
            performed_at_last_rebalance: ParticipantTable::new(),
            scratch: ArrivalScratch::default(),
            mediation,
            matchmaker,
            scenario,
            metrics: EngineMetrics::resolve(&obs),
            obs,
            degraded_waves: 0,
            socket_timeouts_seen: 0,
            population,
            config,
        };
        sim.schedule_initial_events();
        Ok(sim)
    }

    /// The allocation method under test.
    pub fn method(&self) -> Method {
        self.method_kind
    }

    /// Total system capacity (work units per second) at the start of the
    /// run.
    pub fn total_capacity(&self) -> f64 {
        self.total_capacity
    }

    /// The number of mediator shards this simulator runs.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// The run's observability handle — disabled (a no-op shell) unless
    /// [`SimulationConfig::observability`] is set. Clone it *before*
    /// [`Simulator::run`] (which consumes the simulator) to snapshot
    /// counters or dump the flight recorder afterwards: every clone
    /// shares the same storage.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn schedule_initial_events(&mut self) {
        let first_arrival = self.next_interarrival();
        if first_arrival.is_finite() {
            self.queue
                .schedule(SimTime::from_secs(first_arrival), Event::QueryArrival);
        }
        // Periodic events are scheduled at `tick × interval` (see the tick
        // counter fields); the first occurrence is tick 1.
        self.queue.schedule(
            SimTime::from_secs(self.config.sample_interval_secs),
            Event::Sample,
        );
        self.queue.schedule(
            SimTime::from_secs(self.config.assessment_interval_secs),
            Event::Assessment,
        );
        // A mono-mediator run schedules no synchronization and no
        // rebalancing at all, keeping its event stream identical to the
        // pre-sharding engine.
        if self.router.shard_count() > 1 {
            self.queue.schedule(
                SimTime::from_secs(self.config.sync_interval_secs),
                Event::SyncViews,
            );
            if self.config.migration_enabled {
                self.queue.schedule(
                    SimTime::from_secs(self.config.rebalance_interval_secs),
                    Event::Rebalance,
                );
            }
        }
        // Scenario churn is compiled into the same queue, so same-seed
        // runs pop the identical event sequence; occurrences beyond the
        // horizon are dropped like any other event.
        if let Some(state) = &self.scenario {
            for (group, compiled) in state.groups.iter().enumerate() {
                if compiled.depart_at.as_secs() <= self.config.duration_secs {
                    self.queue
                        .schedule(compiled.depart_at, Event::ChurnDepart { group });
                }
                if let Some(rejoin_at) = compiled.rejoin_at {
                    if rejoin_at.as_secs() <= self.config.duration_secs {
                        self.queue.schedule(rejoin_at, Event::ChurnRejoin { group });
                    }
                }
            }
        }
    }

    /// Schedules the next occurrence of a periodic event from its tick
    /// counter: occurrence `tick` runs at `tick × interval`, so the
    /// schedule never accumulates floating-point drift no matter how many
    /// rounds have passed.
    fn schedule_periodic(
        queue: &mut EventQueue,
        duration_secs: f64,
        next_tick: &mut u64,
        interval_secs: f64,
        event: Event,
    ) {
        *next_tick += 1;
        let at = *next_tick as f64 * interval_secs;
        if at <= duration_secs {
            queue.schedule(SimTime::from_secs(at), event);
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimulationReport {
        while let Some((time, event)) = self.queue.pop() {
            if time.as_secs() > self.config.duration_secs {
                break;
            }
            self.now = time;
            match event {
                Event::QueryArrival => self.handle_arrival(),
                Event::QueryCompletion {
                    provider,
                    query: _,
                    issued_at,
                    work,
                } => self.handle_completion(provider, issued_at, work),
                Event::Sample => self.handle_sample(),
                Event::Assessment => self.handle_assessment(),
                Event::SyncViews => self.handle_sync(),
                Event::Rebalance => self.handle_rebalance(),
                Event::ChurnDepart { group } => self.handle_churn_depart(group),
                Event::ChurnRejoin { group } => self.handle_churn_rejoin(group),
            }
        }
        self.finish()
    }

    fn workload_fraction(&self) -> f64 {
        self.config
            .workload
            .fraction_at(self.now.as_secs(), self.config.duration_secs)
    }

    fn next_interarrival(&mut self) -> f64 {
        // The active-consumer count is maintained incrementally by the
        // population (updated only on departure) — no per-draw scan.
        let active_consumers = self.population.active_consumer_count();
        let consumer_fraction = if self.initial_consumers == 0 {
            0.0
        } else {
            active_consumers as f64 / self.initial_consumers as f64
        };
        let rate = arrival_rate(
            self.workload_fraction(),
            self.total_capacity,
            Population::mean_query_cost(),
        ) * consumer_fraction;
        match &self.scenario {
            Some(state) if !state.description.arrival.is_empty() => {
                // Thinning (Lewis–Shedler): candidate arrivals are drawn
                // at the scenario's envelope rate and accepted with
                // probability `factor(t) / max`, so the modifier shape is
                // honoured at the *candidate's* instant — a burst ramps
                // on at its exact onset, and arrivals revive by
                // themselves after a zero-factor window. Plain runs
                // (no scenario) take the single-draw path below and keep
                // their historical random stream bit-for-bit.
                let max = state.description.max_rate_factor();
                if rate <= 0.0 || max <= 0.0 {
                    return f64::INFINITY;
                }
                let duration = self.config.duration_secs;
                let start = self.now.as_secs();
                let mut t = start;
                loop {
                    let dt = sample_interarrival(&mut self.rng, rate * max);
                    if !dt.is_finite() {
                        return f64::INFINITY;
                    }
                    t += dt;
                    if t > duration {
                        // Past the horizon the event would be dropped
                        // anyway; stop consuming random draws.
                        return f64::INFINITY;
                    }
                    let accept = state.description.rate_factor_at(t, duration) / max;
                    if accept >= 1.0 || self.rng.random_bool(accept.clamp(0.0, 1.0)) {
                        return t - start;
                    }
                }
            }
            _ => sample_interarrival(&mut self.rng, rate),
        }
    }

    fn schedule_next_arrival(&mut self) {
        let dt = self.next_interarrival();
        if dt.is_finite() {
            let at = self.now + sqlb_types::SimDuration::from_secs(dt);
            if at.as_secs() <= self.config.duration_secs {
                self.queue.schedule(at, Event::QueryArrival);
            }
        }
    }

    /// The preferred shard if it still has active providers, otherwise the
    /// next shard (in wrap-around order) that does. `None` only when every
    /// provider of the whole system has departed. With one shard this
    /// reduces to "the shard, or nothing" — the mono-mediator behaviour.
    ///
    /// The candidate set of a shard is its router-maintained provider
    /// list: providers are removed from it exactly when they depart, so
    /// the list always equals "the shard's providers that have not
    /// departed, ascending" without any per-arrival filtering.
    fn first_shard_with_candidates(&self, preferred: usize) -> Option<usize> {
        let shard_count = self.router.shard_count();
        (0..shard_count)
            .map(|offset| (preferred + offset) % shard_count)
            .find(|&shard| !self.router.providers_of_shard(shard).is_empty())
    }

    fn handle_arrival(&mut self) {
        if matches!(self.mediation, MediationDriver::Socket(_)) {
            return self.handle_socket_arrivals();
        }
        let Some((query, shard)) = self.draw_and_route() else {
            return;
        };
        let consumer = query.consumer;

        // Gather intentions (Algorithm 1, lines 2–5) into the reusable
        // arena. The consumer's intentions come from its preferences (and
        // provider reputation); each provider's intention balances its
        // preference for the query class against its current utilization
        // (computed once and reused for the mediator's view of `Ut(p)`).
        // The reactor runs the exact same per-participant computations,
        // only multiplexed through a mediation wave instead of direct
        // calls — which is why reports are bit-identical across backends
        // for a given seed.
        //
        // The transport-fault seam: the condition of every loopback host
        // for a wave issued at this instant (all-healthy outside scenario
        // fault windows). A fault models the *reply* going missing, not
        // the work: every backend degrades a faulted host's answers to
        // the same indifference the wave timeout semantics fabricate.
        let conditions = self.wave_conditions();
        let candidates = candidate_set(
            &self.router,
            self.matchmaker.as_ref(),
            &mut self.scratch.candidates,
            shard,
            query.class(),
        );

        let uses_bids = self.method_kind.uses_bids();
        let now = self.now;
        let mut fabricated = 0u64;
        match &mut self.mediation {
            MediationDriver::Inline => {
                let consumer_agent = &self.population.consumers[consumer];
                let infos = &mut self.scratch.infos;
                infos.clear();
                let consumer_down =
                    matches!(conditions.consumer(consumer), HostCondition::Unresponsive);
                if consumer_down {
                    fabricated += 1;
                }
                for &p in candidates {
                    // Mirror the mediated indifference exactly: consumer
                    // intentions 0.0 when the consumer's host is down,
                    // provider intention/utilization 0.0 and no bid when
                    // the provider's is. The skipped agent calls are pure
                    // reads, so skipping them is unobservable elsewhere.
                    let ci = if consumer_down {
                        0.0
                    } else {
                        consumer_agent.intention_for(&query, p, &self.reputation)
                    };
                    if matches!(conditions.provider(p), HostCondition::Unresponsive) {
                        fabricated += 1;
                        infos.push(
                            CandidateInfo::new(p)
                                .with_consumer_intention(ci)
                                .with_provider_intention(0.0)
                                .with_utilization(0.0),
                        );
                        continue;
                    }
                    let provider_agent = &mut self.population.providers[p];
                    let (pi, utilization) = provider_agent.intention_and_utilization(&query, now);
                    let mut info = CandidateInfo::new(p)
                        .with_consumer_intention(ci)
                        .with_provider_intention(pi)
                        .with_utilization(utilization);
                    if uses_bids {
                        info = info.with_bid(provider_agent.bid_for(&query, now));
                    }
                    infos.push(info);
                }
            }
            MediationDriver::Reactor(reactor) => {
                fabricated += gather_by_reactor_wave(
                    reactor,
                    &mut self.population,
                    &self.reputation,
                    &conditions,
                    &query,
                    candidates,
                    uses_bids,
                    now,
                    &mut self.scratch.infos,
                );
            }
            MediationDriver::Socket(_) => {
                unreachable!("socket arrivals are mediated by handle_socket_arrivals")
            }
        }
        // The in-process backends fabricate the indifference of faulted
        // hosts; the socket backend credits real wire timeouts instead
        // (see `mediate_socket_batch`).
        if fabricated > 0 {
            if let Some(state) = &mut self.scenario {
                state.fault_indifference += fabricated;
            }
            self.note_degraded_wave(u64::from(query.id.raw()), fabricated);
        }

        self.allocate_and_record(&query, shard);
    }

    /// Allocation decision (Algorithm 1, lines 6–9) over the candidate
    /// infos sitting in `self.scratch.infos`, recorded in the shard's
    /// satisfaction state, followed by the participant-side bookkeeping
    /// and the enqueueing of the query at the selected providers. Shared
    /// by the per-arrival path and the socket backend's coalesced path
    /// (which mediates a batch first, then allocates each query of the
    /// batch through here, in arrival order).
    fn allocate_and_record(&mut self, query: &Query, shard: usize) {
        let now = self.now;
        let consumer = query.consumer;
        let allocation = self.router.allocate(shard, query, &self.scratch.infos);

        // Participant-side bookkeeping (the mediation result is sent to all
        // candidates, line 10), answering "was p selected?" through the
        // id-sorted selection index instead of a linear scan per candidate.
        let scratch = &mut self.scratch;
        scratch.selection.rebuild(&allocation);
        scratch.shown_cis.clear();
        scratch
            .shown_cis
            .extend(scratch.infos.iter().map(|i| i.consumer_intention));
        scratch.selected_indices.clear();
        scratch.selected_indices.extend(
            scratch
                .infos
                .iter()
                .enumerate()
                .filter(|(_, i)| scratch.selection.contains(i.provider))
                .map(|(idx, _)| idx),
        );
        self.population.consumers[consumer].record_allocation(
            &scratch.shown_cis,
            &scratch.selected_indices,
            query.n,
        );
        for info in &scratch.infos {
            let performed = scratch.selection.contains(info.provider);
            self.population.providers[info.provider].record_proposal(
                query,
                info.provider_intention,
                performed,
            );
        }

        // Enqueue the query at the selected providers.
        self.shard_backlog[shard] += query.cost().value() * allocation.selected.len() as f64;
        for &p in &allocation.selected {
            let provider_agent = &mut self.population.providers[p];
            let processing = provider_agent.assign(query, now);
            let start = self.busy_until[p].max(now.as_secs());
            let finish = start + processing.as_secs();
            self.busy_until[p] = finish;
            self.queue.schedule(
                SimTime::from_secs(finish),
                Event::QueryCompletion {
                    provider: p,
                    query: query.id,
                    issued_at: query.issued_at,
                    work: query.cost(),
                },
            );
        }
    }

    /// Credits `count` replies degraded to indifference on the wave
    /// that mediated query `wave` — the unified accounting every
    /// backend funnels through. The plain `degraded_waves` report
    /// counter always moves; the obs counters and the flight-recorder
    /// event only when observability is on (and a disabled handle makes
    /// them single-branch no-ops anyway).
    fn note_degraded_wave(&mut self, wave: u64, count: u64) {
        self.degraded_waves += 1;
        self.metrics.indifferent_replies.add(count);
        self.metrics.degraded_waves.inc();
        if self.obs.is_enabled() {
            self.obs.record(
                self.now.as_secs(),
                EventKind::TimeoutIndifference { wave, count },
            );
        }
    }

    /// The socket backend's arrival handler: prepares the arrival at
    /// hand and, when coalescing is engaged, every further arrival
    /// scheduled for this same virtual instant (popping them off the event
    /// queue in their normal order), and mediates them as *one* socket
    /// wave — one frame fan-out, one reply collection — instead of one
    /// wave each. Without coalescing the batch is the single arrival.
    ///
    /// Coalescing needs the knob on and load-blind routing: a
    /// load-reactive policy reads allocation state between arrivals, so
    /// its runs stay strictly sequential. With a single shard, though,
    /// every route is shard 0 no matter what the policy observes, so
    /// least-loaded K = 1 runs keep the batched fan-out.
    ///
    /// Bit-identity with the sequential path is preserved by
    /// construction. Preparation (the arrival-process reschedule and the
    /// consumer/class draws) is a pure function of the rng stream and of
    /// state no allocation of the batch can touch, so performing it for
    /// arrival `t + 1` before arrival `t`'s allocation consumes exactly
    /// the random values the sequential interleaving would. Mediated
    /// answers *can* observe earlier allocations, so a prepared arrival
    /// sharing a consumer or a shard with the batch flushes the batch
    /// first — the wave only ever carries arrivals whose answers are
    /// mutually independent. Allocation then runs per query, in arrival
    /// order, exactly like the sequential path.
    fn handle_socket_arrivals(&mut self) {
        let coalesce = self.config.socket_wave_coalescing
            && (!self.routing.reacts_to_load() || self.router.shard_count() == 1);
        let mut batch: Vec<PreparedArrival> = Vec::new();
        if let Some(first) = self.prepare_arrival() {
            batch.push(first);
        }
        while coalesce
            && matches!(
                self.queue.peek(),
                Some((time, Event::QueryArrival)) if time == self.now
            )
        {
            self.queue.pop();
            let Some(prepared) = self.prepare_arrival() else {
                continue;
            };
            let conflicts = batch.iter().any(|earlier| {
                earlier.query.consumer == prepared.query.consumer || earlier.shard == prepared.shard
            });
            if conflicts {
                let flushed = std::mem::take(&mut batch);
                self.mediate_socket_batch(flushed);
            }
            batch.push(prepared);
        }
        if !batch.is_empty() {
            self.mediate_socket_batch(batch);
        }
    }

    /// The per-arrival work that precedes mediation: reschedule the
    /// arrival process, draw the consumer and the query class, and route
    /// the query to a shard. Returns `None` when no consumer or no
    /// provider-bearing shard remains (an unroutable query is counted as
    /// unallocated).
    fn draw_and_route(&mut self) -> Option<(Query, usize)> {
        // Always keep the arrival process alive (its rate follows the
        // workload pattern and the number of remaining consumers).
        self.schedule_next_arrival();

        // The active-consumer index presents the surviving consumers in
        // ascending id order — the same sequence the per-arrival
        // filter-and-collect used to produce, so the random draw picks the
        // same consumer for the same seed.
        let consumers = self.population.active_consumer_ids();
        if consumers.is_empty() {
            return None;
        }
        let consumer = consumers[self.rng.random_range(0..consumers.len())];
        let class = if self.rng.random_bool(0.5) {
            QueryClass::Light
        } else {
            QueryClass::Heavy
        };
        let mut query = Query::single(QueryId::new(self.next_query_id), consumer, class, self.now);
        query.n = self.config.query_n;
        if self.matchmaker.is_some() {
            // Capability matchmaking matches on the description topic;
            // tag the query with its class topic so providers' declared
            // class capabilities can cover it.
            query.description.topic = class_topic(class);
        }
        self.next_query_id = self.next_query_id.wrapping_add(1);
        self.issued += 1;
        self.metrics.queries_issued.inc();

        // Route the query to its mediator shard; the candidate set is the
        // providers that shard owns. Routing is deterministic (a pure
        // function of the consumer id and the observed per-shard load), so
        // a mono-mediator run consumes exactly the same random stream as
        // the pre-sharding engine. A query is only unallocated when *no*
        // shard has an active provider left: departures can empty one
        // shard while the system still has capacity, in which case the
        // query falls over to the next non-empty shard (deterministically,
        // so runs stay reproducible).
        let preferred = self.routing.route(
            consumer,
            &self.router,
            ShardLoadView {
                backlog: &self.shard_backlog,
                capacity: &self.shard_capacity,
            },
        );
        let Some(shard) = self.first_shard_with_candidates(preferred) else {
            self.unallocated += 1;
            self.metrics.queries_unallocated.inc();
            return None;
        };
        Some((query, shard))
    }

    /// [`Simulator::draw_and_route`] plus an owned copy of the candidate
    /// set, for the socket backend's batches.
    fn prepare_arrival(&mut self) -> Option<PreparedArrival> {
        let (query, shard) = self.draw_and_route()?;
        let candidates = candidate_set(
            &self.router,
            self.matchmaker.as_ref(),
            &mut self.scratch.candidates,
            shard,
            query.class(),
        )
        .to_vec();
        Some(PreparedArrival {
            query,
            shard,
            candidates,
        })
    }

    /// Mediates one batch as a single wave over real loopback sockets,
    /// then allocates each query of the batch in arrival order. The
    /// request is framed, fanned out by the wave server, decoded by the
    /// participant-host threads, and answered by jobs that compute the
    /// same Definition 7/8 values as the in-process backends — on the
    /// *decoded* queries, so the replies derive from the bytes that
    /// actually travelled. The batch invariant (distinct consumers,
    /// distinct shards — hence disjoint candidate sets) is established by
    /// [`Simulator::handle_socket_arrivals`].
    fn mediate_socket_batch(&mut self, batch: Vec<PreparedArrival>) {
        let now = self.now;
        let fault_plan = self.socket_fault_plan();
        let requests: Vec<(Query, Vec<ProviderId>)> = batch
            .iter()
            .map(|a| (a.query.clone(), a.candidates.clone()))
            .collect();
        // The union of the batch's candidate sets, ascending: the sets
        // are disjoint (distinct shards), so sorting the concatenation
        // yields a duplicate-free list, and the provider jobs are
        // registered in id order.
        let mut all_candidates: Vec<ProviderId> =
            Vec::with_capacity(batch.iter().map(|a| a.candidates.len()).sum());
        for arrival in &batch {
            all_candidates.extend_from_slice(&arrival.candidates);
        }
        all_candidates.sort_unstable();

        let MediationDriver::Socket(socket) = &mut self.mediation else {
            unreachable!("socket batches are mediated only on the socket backend");
        };
        let reputation = &self.reputation;
        let mut jobs = WaveJobs::new();
        for arrival in &batch {
            let consumer_agent = &self.population.consumers[arrival.query.consumer];
            jobs.consumer(arrival.query.consumer, move |decoded| {
                decoded
                    .iter()
                    .map(|(q, cands)| {
                        (
                            q.id,
                            cands
                                .iter()
                                .map(|&p| (p, consumer_agent.intention_for(q, p, reputation)))
                                .collect(),
                        )
                    })
                    .collect()
            });
        }
        // One provider job answers every query of the wave addressed to
        // it — the wire request already carries the provider's full query
        // list, so the same batch closure serves waves of any width.
        for (p, agent) in self.population.providers.iter_mut_of(&all_candidates) {
            jobs.provider(p, move |decoded, request_bids| {
                decoded
                    .iter()
                    .map(|q| {
                        let (intention, utilization) = agent.intention_and_utilization(q, now);
                        ProviderAnswer {
                            query: q.id,
                            intention,
                            utilization,
                            bid: request_bids.then(|| agent.bid_for(q, now)),
                        }
                    })
                    .collect()
            });
        }
        let gathered = socket.gather_with_faults(&requests, jobs, &fault_plan);
        // The wave's wire timeouts (delta of the accumulated total),
        // credited exactly like the indifference the in-process backends
        // fabricate.
        let wire_timeouts = socket.timed_out_total() - self.socket_timeouts_seen;
        self.socket_timeouts_seen = socket.timed_out_total();
        if wire_timeouts > 0 {
            // One wave, one degraded-wave credit — stamped with the first
            // query of the batch.
            self.note_degraded_wave(u64::from(batch[0].query.id.raw()), wire_timeouts);
        }
        for (arrival, infos) in batch.iter().zip(gathered) {
            self.scratch.infos.clear();
            self.scratch.infos.extend(infos);
            self.allocate_and_record(&arrival.query, arrival.shard);
        }
    }

    /// The per-host fault conditions of a wave issued at this instant
    /// (see [`WaveConditions`]); an empty table outside scenario fault
    /// runs.
    fn wave_conditions(&self) -> WaveConditions {
        let hosts = match &self.scenario {
            Some(state) if !state.faults.is_empty() => (0..self.config.socket_hosts)
                .map(|host| {
                    host_condition_at(
                        &state.faults,
                        host,
                        self.now.as_secs(),
                        self.config.wave_timeout_ms,
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        WaveConditions { hosts }
    }

    /// The wire-fault plan of a socket wave issued at this instant: one
    /// entry per faulted host. A stall (or a delay at/past the deadline)
    /// is injected for every wave of its window; a [`TransportFault::DropHost`]
    /// severs the connection in the first wave at or after its instant
    /// and is spent thereafter — later waves skip the dead host's
    /// endpoints at fan-out, which the wave server already degrades to
    /// indifference on its own.
    fn socket_fault_plan(&mut self) -> Vec<(usize, HostFault)> {
        let now = self.now.as_secs();
        let timeout_ms = self.config.wave_timeout_ms;
        let Some(state) = &mut self.scenario else {
            return Vec::new();
        };
        let mut plan: Vec<(usize, HostFault)> = Vec::new();
        for (index, fault) in state.faults.iter().enumerate() {
            let injected = match *fault {
                TransportFault::StallHost {
                    host,
                    from_secs,
                    until_secs,
                } if now >= from_secs && now < until_secs => Some((host, HostFault::Stall)),
                TransportFault::DelayHost {
                    host,
                    from_secs,
                    until_secs,
                    delay_ms,
                } if now >= from_secs && now < until_secs && delay_ms >= timeout_ms => {
                    Some((host, HostFault::Stall))
                }
                TransportFault::DropHost { host, at_secs }
                    if now >= at_secs && !state.drop_fired[index] =>
                {
                    state.drop_fired[index] = true;
                    Some((host, HostFault::Drop))
                }
                _ => None,
            };
            if let Some((host, fault)) = injected {
                if !plan.iter().any(|&(h, _)| h == host) {
                    plan.push((host, fault));
                }
            }
        }
        plan
    }

    /// Takes a churn group's members down, mirroring the assessment
    /// departure machinery (capacity/backlog write-off, mediation and
    /// matchmaking deregistration) with two deliberate differences: the
    /// mediator-side satisfaction tracker is *parked* for a possible
    /// re-join instead of destroyed, and the exit is counted as a churn
    /// departure, not as a behavioral [`DepartureRecord`] — churn is
    /// imposed by the scenario, not chosen by the agent, so it must not
    /// pollute the retention metrics of Table 3.
    fn handle_churn_depart(&mut self, group: usize) {
        let members = match &self.scenario {
            Some(state) => state.groups[group].members.clone(),
            None => return,
        };
        let mut departed = Vec::new();
        for id in members {
            if self.population.providers[id].has_departed() {
                continue;
            }
            self.population.depart_provider(id);
            if let Some(shard) = self.router.shard_of_provider(id) {
                let agent = &self.population.providers[id];
                self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                // In-flight completions of a parked provider are not
                // credited anywhere, so its outstanding work comes off
                // the books now (and goes back on at re-join, for
                // whatever is still outstanding then).
                self.shard_backlog[shard] -= agent.backlog().value();
            }
            self.router.churn_depart(id);
            match &mut self.mediation {
                MediationDriver::Reactor(reactor) => reactor.deregister_provider(id),
                MediationDriver::Socket(socket) => socket.deregister_provider(id),
                _ => {}
            }
            if let Some(matchmaker) = &mut self.matchmaker {
                matchmaker.deregister(id);
            }
            self.metrics.churn_departures.inc();
            if self.obs.is_enabled() {
                self.obs.record(
                    self.now.as_secs(),
                    EventKind::ChurnDepart {
                        participant: u64::from(id.raw()),
                        provider: true,
                    },
                );
            }
            departed.push(id);
        }
        self.population.debug_assert_active_indices_consistent();
        if let Some(state) = &mut self.scenario {
            state.churn_departures += departed.len() as u64;
            state.departed_members[group] = departed;
        }
    }

    /// Brings a churn group's members back: the population re-activates
    /// the agent, the router readmits it to its home shard (`slot % K`)
    /// with its parked satisfaction view under [`RejoinPolicy::Resume`]
    /// or a fresh registration under [`RejoinPolicy::Reset`], capacity
    /// and outstanding backlog go back on the books, departure strikes
    /// restart from zero, and the mediation backend re-announces the
    /// endpoint (the socket backend reconnects the host if the drop-out
    /// closed its last connection).
    fn handle_churn_rejoin(&mut self, group: usize) {
        let (members, policy) = match &mut self.scenario {
            Some(state) => (
                std::mem::take(&mut state.departed_members[group]),
                state.groups[group].policy,
            ),
            None => return,
        };
        let mut rejoined = 0u64;
        for id in members {
            let Some(shard) = self
                .router
                .readmit_provider(id, policy == RejoinPolicy::Resume)
            else {
                continue;
            };
            self.population.rejoin_provider(id);
            if policy == RejoinPolicy::Reset {
                self.population.providers[id].reset_satisfaction_history();
            }
            let agent = &self.population.providers[id];
            self.shard_capacity[shard] += agent.capacity().units_per_sec();
            self.shard_backlog[shard] += agent.backlog().value();
            self.provider_strikes[id] = 0;
            match &mut self.mediation {
                MediationDriver::Reactor(reactor) => {
                    reactor.register_provider(id, Latency::Immediate);
                }
                MediationDriver::Socket(socket) => socket
                    .register_provider(id)
                    .expect("socket re-registration of a re-joining provider failed"),
                _ => {}
            }
            if let Some(matchmaker) = &mut self.matchmaker {
                matchmaker.register(&self.population.providers[id]);
            }
            self.metrics.churn_rejoins.inc();
            if self.obs.is_enabled() {
                self.obs.record(
                    self.now.as_secs(),
                    EventKind::ChurnRejoin {
                        participant: u64::from(id.raw()),
                        provider: true,
                    },
                );
            }
            rejoined += 1;
        }
        self.population.debug_assert_active_indices_consistent();
        if let Some(state) = &mut self.scenario {
            state.churn_rejoins += rejoined;
        }
    }

    fn handle_completion(
        &mut self,
        provider: ProviderId,
        issued_at: SimTime,
        work: sqlb_types::WorkUnits,
    ) {
        self.population.providers[provider].complete(work);
        // Credit the shard that owns the provider *now*: a migration moves
        // the provider's outstanding backlog to the new owner, which is
        // where the remaining queue drains. A departed provider has no
        // shard; its outstanding work was already written off when it
        // left.
        if let Some(shard) = self.router.shard_of_provider(provider) {
            self.shard_backlog[shard] -= work.value();
        }
        let response_time = (self.now - issued_at).as_secs();
        self.response_times.record(response_time);
        self.completed += 1;
        self.metrics.queries_completed.inc();
        self.metrics.response_time_seconds.record(response_time);
    }

    fn handle_sample(&mut self) {
        let now = self.now;
        let mut sat_intention = Vec::new();
        let mut sat_preference = Vec::new();
        let mut alloc_sat_pref = Vec::new();
        let mut alloc_sat_int = Vec::new();
        let mut utilizations = Vec::new();
        for p in self
            .population
            .providers
            .values_mut()
            .filter(|p| !p.has_departed())
        {
            // Figure 4(a) reports the provider's long-run feeling about the
            // queries it performs, so the smoothed (Table 2) reading is
            // plotted; the strict Definition 5 value drives departures.
            sat_intention.push(p.smoothed_satisfaction());
            sat_preference.push(p.preference_satisfaction());
            alloc_sat_pref.push(p.preference_allocation_satisfaction());
            alloc_sat_int.push(p.allocation_satisfaction());
            utilizations.push(p.utilization(now).value());
        }
        let mut consumer_alloc_sat = Vec::new();
        let mut consumer_sat = Vec::new();
        for c in self
            .population
            .consumers
            .values()
            .filter(|c| !c.has_departed())
        {
            consumer_alloc_sat.push(c.allocation_satisfaction());
            consumer_sat.push(c.satisfaction());
        }

        let workload_fraction = self.workload_fraction();
        let s = &mut self.series;
        s.provider_satisfaction_intention_mean
            .push(now, mean(&sat_intention));
        s.provider_satisfaction_preference_mean
            .push(now, mean(&sat_preference));
        s.provider_allocation_satisfaction_preference_mean
            .push(now, mean(&alloc_sat_pref));
        s.provider_allocation_satisfaction_intention_mean
            .push(now, mean(&alloc_sat_int));
        s.provider_satisfaction_fairness
            .push(now, fairness(&sat_intention));
        s.consumer_allocation_satisfaction_mean
            .push(now, mean(&consumer_alloc_sat));
        s.consumer_satisfaction_mean.push(now, mean(&consumer_sat));
        s.consumer_satisfaction_fairness
            .push(now, fairness(&consumer_sat));
        s.utilization_mean.push(now, mean(&utilizations));
        s.utilization_fairness.push(now, fairness(&utilizations));
        s.workload_fraction.push(now, workload_fraction);
        s.active_providers.push(now, sat_intention.len() as f64);
        s.active_consumers
            .push(now, consumer_alloc_sat.len() as f64);

        // Per-shard load and satisfaction: the imbalance the routing
        // policy and the rebalancer act on, recorded so shard skew is
        // visible in experiment output and not just in the final
        // `shard_allocations` totals. Calling `utilization(now)` a second
        // time for the same instant is free of side effects (the sliding
        // window expires by time).
        let shard_count = self.router.shard_count();
        let series = &mut self.series;
        if series.shard_utilization.len() != shard_count {
            series
                .shard_utilization
                .resize_with(shard_count, TimeSeries::new);
            series
                .shard_satisfaction
                .resize_with(shard_count, TimeSeries::new);
            series
                .shard_allocation_counts
                .resize_with(shard_count, TimeSeries::new);
        }
        let mut shard_means = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let providers = self.router.providers_of_shard(shard);
            let mut utilization_sum = 0.0;
            let mut satisfaction_sum = 0.0;
            for &p in providers {
                let provider = &mut self.population.providers[p];
                utilization_sum += provider.utilization(now).value();
                satisfaction_sum += provider.smoothed_satisfaction();
            }
            let count = providers.len();
            let (utilization, satisfaction) = if count == 0 {
                // An emptied shard carries no load; report it as idle.
                (0.0, 0.0)
            } else {
                (
                    utilization_sum / count as f64,
                    satisfaction_sum / count as f64,
                )
            };
            series.shard_utilization[shard].push(now, utilization);
            series.shard_satisfaction[shard].push(now, satisfaction);
            series.shard_allocation_counts[shard].push(
                now,
                self.router.mediator(shard).state().allocations() as f64,
            );
            if count > 0 {
                shard_means.push(utilization);
            }
        }
        series
            .shard_utilization_spread
            .push(now, spread(&shard_means));

        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_sample_tick,
            self.config.sample_interval_secs,
            Event::Sample,
        );
    }

    fn handle_sync(&mut self) {
        self.router.sync_views();
        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_sync_tick,
            self.config.sync_interval_secs,
            Event::SyncViews,
        );
    }

    /// How much busier (in allocations per rebalancing window) the busiest
    /// shard must be than the idlest before the mediation-load rule
    /// migrates a provider.
    const ALLOCATION_IMBALANCE_TRIGGER: f64 = 1.25;
    /// Minimum allocations the busiest shard must have mediated in the
    /// window before its imbalance is considered signal rather than noise.
    const MIN_ALLOCATION_DELTA: u64 = 8;
    /// Weight of the satisfaction term in the load-adaptive donor score
    /// (see [`donor_score`]): a fully satisfied donor is penalized by this
    /// fraction of the throughput target, so satisfaction arbitrates
    /// between donors whose windowed throughput is comparably close to
    /// half the gap without overriding a decisively better throughput
    /// match.
    const MIGRATION_SATISFACTION_WEIGHT: f64 = 0.25;

    /// One cross-shard rebalancing round. Which imbalance signal drives it
    /// depends on whether routed demand can follow the migrated capacity
    /// ([`RoutingPolicy::reacts_to_load`]):
    ///
    /// * **Static routing — utilization spread.** Each shard's query
    ///   volume is pinned by `consumer % K`, so the only actionable lever
    ///   is capacity: if the gap between the hottest and coldest shard's
    ///   mean provider utilization exceeds the configured threshold, the
    ///   coldest shard's least-utilized provider (its most spare capacity)
    ///   migrates to the hottest shard — capacity follows demand, the hot
    ///   shard's load spreads over more providers, the spread shrinks.
    /// * **Load-adaptive routing — mediation load.** Routing already
    ///   equalizes utilization by construction (arrivals seek the least
    ///   relative load), but shards still mediate query volumes
    ///   proportional to their effective drain rate. If the busiest shard
    ///   mediated ≥ 1.25× the allocations of the idlest over the last
    ///   window, the throughput gap behind that skew is closed by
    ///   migrating the provider whose *observed* windowed performed-query
    ///   count best matches half the gap, busiest → idlest; the routed
    ///   demand follows the drain rate it brings along. Moves are only
    ///   made when they strictly shrink the gap, which rules out
    ///   oscillation. Running the utilization rule here instead would
    ///   chase sampling noise that routing self-corrects, and the two
    ///   rules would fight.
    ///
    /// One provider per round keeps rebalancing gentle; the interval
    /// controls how fast it converges. Every input is a deterministic
    /// function of observed state: shard lists are iterated in ascending
    /// provider-id order and ties break toward the lowest shard index /
    /// provider id, so two runs with the same seed perform the identical
    /// migration sequence.
    fn handle_rebalance(&mut self) {
        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_rebalance_tick,
            self.config.rebalance_interval_secs,
            Event::Rebalance,
        );
        self.rebalance_rounds += 1;

        // Roll the allocation window: a round judges mediation load by
        // what happened since the previous round only.
        let shard_count = self.router.shard_count();
        let allocations = self.router.allocations_per_shard();
        self.allocations_at_last_rebalance.resize(shard_count, 0);
        let window: Vec<u64> = allocations
            .iter()
            .zip(&self.allocations_at_last_rebalance)
            .map(|(current, previous)| current.saturating_sub(*previous))
            .collect();
        self.allocations_at_last_rebalance = allocations;

        if self.routing.reacts_to_load() {
            self.rebalance_mediation_load(&window);
            // Roll the per-provider throughput window for the next round
            // (after the rule, which reads the previous round's baseline).
            for shard in 0..shard_count {
                for &p in self.router.providers_of_shard(shard) {
                    let performed = self.population.providers[p].performed_queries();
                    self.performed_at_last_rebalance.insert(p, performed);
                }
            }
        } else {
            self.rebalance_utilization();
        }
    }

    /// The static-routing rebalancing rule: migrate spare capacity from
    /// the utilization-coldest shard to the hottest.
    fn rebalance_utilization(&mut self) {
        let now = self.now;
        let shard_count = self.router.shard_count();
        // Hottest and coldest shard by mean provider utilization; shards
        // with no providers left carry no load and take no part.
        let mut hottest: Option<(usize, f64)> = None;
        let mut coldest: Option<(usize, f64)> = None;
        for shard in 0..shard_count {
            let providers = self.router.providers_of_shard(shard);
            if providers.is_empty() {
                continue;
            }
            let mut sum = 0.0;
            for &p in providers {
                sum += self.population.providers[p].utilization(now).value();
            }
            let utilization = sum / providers.len() as f64;
            if hottest.is_none_or(|(_, u)| utilization > u) {
                hottest = Some((shard, utilization));
            }
            if coldest.is_none_or(|(_, u)| utilization < u) {
                coldest = Some((shard, utilization));
            }
        }
        let (Some((hot, hot_utilization)), Some((cold, cold_utilization))) = (hottest, coldest)
        else {
            return;
        };
        let imbalance = hot_utilization - cold_utilization;
        if hot == cold || imbalance < self.config.migration_min_spread {
            return;
        }
        self.migrate_spare_provider(cold, hot, imbalance);
    }

    /// The load-adaptive rebalancing rule: close the throughput gap behind
    /// a mediation-load skew. `window` is the per-shard allocation count
    /// since the previous round.
    fn rebalance_mediation_load(&mut self, window: &[u64]) {
        let mut busiest: Option<(usize, u64)> = None;
        let mut idlest: Option<(usize, u64)> = None;
        for (shard, &mediated) in window.iter().enumerate() {
            if self.router.providers_of_shard(shard).is_empty() {
                continue;
            }
            if busiest.is_none_or(|(_, m)| mediated > m) {
                busiest = Some((shard, mediated));
            }
            if idlest.is_none_or(|(_, m)| mediated < m) {
                idlest = Some((shard, mediated));
            }
        }
        let (Some((busy, busy_count)), Some((idle, idle_count))) = (busiest, idlest) else {
            return;
        };
        if busy == idle || busy_count < Self::MIN_ALLOCATION_DELTA {
            return;
        }
        if (busy_count as f64) < Self::ALLOCATION_IMBALANCE_TRIGGER * idle_count.max(1) as f64 {
            return;
        }
        // The busy shard mediates more because its providers collectively
        // win more queries (the allocation method concentrates work on
        // attractive, fast-draining providers — raw capacity is a poor
        // predictor of this). Move the *observed* throughput instead:
        // among providers whose windowed performed-query count would
        // strictly shrink the gap (the monotone-convergence guard), pick
        // the lowest [`donor_score`] — closeness to half the gap, with
        // the donor shard's satisfaction reading for the provider folded
        // in so that of comparably-matched donors the under-served one
        // moves: its proposals mostly lose on the contended shard, so it
        // both frees the least won throughput there and stands to gain
        // the most on the receiving shard. Demand follows the move,
        // because routed arrivals seek the drain rate it brings along.
        let gap = busy_count - idle_count;
        let donors = self.router.providers_of_shard(busy);
        if donors.len() < 2 {
            return;
        }
        let busy_state = self.router.mediator(busy).state();
        let mut pick = None;
        let mut pick_score = f64::INFINITY;
        for &p in donors {
            let performed = self.population.providers[p].performed_queries();
            let previous = self
                .performed_at_last_rebalance
                .get(p)
                .copied()
                .unwrap_or(0);
            let throughput = performed.saturating_sub(previous);
            let satisfaction = busy_state.provider_satisfaction(p);
            let Some(score) = donor_score(
                throughput,
                gap,
                satisfaction,
                Self::MIGRATION_SATISFACTION_WEIGHT,
            ) else {
                continue;
            };
            if score < pick_score {
                pick_score = score;
                pick = Some(p);
            }
        }
        if let Some(provider) = pick {
            let spread_before = (busy_count as f64) / idle_count.max(1) as f64;
            self.migrate_provider_with_record(provider, idle, spread_before);
        }
    }

    /// Migrates the least-utilized provider of `from` to `to`, unless
    /// `from` would be left empty (an emptied shard would bounce every
    /// routed query to fall-over). Ties break toward the lowest provider
    /// id (the shard lists are ascending).
    fn migrate_spare_provider(&mut self, from: usize, to: usize, spread_before: f64) {
        let now = self.now;
        let donors = self.router.providers_of_shard(from);
        if donors.len() < 2 {
            return;
        }
        let mut pick = donors[0];
        let mut pick_utilization = f64::INFINITY;
        for &p in donors {
            let utilization = self.population.providers[p].utilization(now).value();
            if utilization < pick_utilization {
                pick_utilization = utilization;
                pick = p;
            }
        }
        self.migrate_provider_with_record(pick, to, spread_before);
    }

    /// Performs one recorded migration of `provider` to shard `to`,
    /// keeping the incremental per-shard capacity totals in step.
    fn migrate_provider_with_record(
        &mut self,
        provider: ProviderId,
        to: usize,
        spread_before: f64,
    ) {
        // Read the donor shard's satisfaction view before the move: the
        // export wipes it there.
        let donor_satisfaction = self
            .router
            .shard_of_provider(provider)
            .map(|shard| {
                self.router
                    .mediator(shard)
                    .state()
                    .provider_satisfaction(provider)
            })
            .unwrap_or(0.0);
        if let Some(migration) = self.router.migrate_provider(provider, to) {
            let agent = &self.population.providers[provider];
            let capacity = agent.capacity().units_per_sec();
            self.shard_capacity[migration.from] -= capacity;
            self.shard_capacity[migration.to] += capacity;
            // The provider's outstanding work moves with it: completions
            // will be credited to the receiving shard from now on, so the
            // backlog must be too, or the donor would carry phantom load.
            let backlog = agent.backlog().value();
            self.shard_backlog[migration.from] -= backlog;
            self.shard_backlog[migration.to] += backlog;
            self.migrations.push(MigrationRecord {
                provider: migration.provider,
                time_secs: self.now.as_secs(),
                from_shard: migration.from,
                to_shard: migration.to,
                spread_before,
                donor_satisfaction,
            });
            self.metrics.migrations.inc();
            if self.obs.is_enabled() {
                self.obs.record(
                    self.now.as_secs(),
                    EventKind::Rebalance {
                        provider: u64::from(migration.provider.raw()),
                        from: migration.from as u64,
                        to: migration.to as u64,
                    },
                );
            }
        }
    }

    fn handle_assessment(&mut self) {
        let now = self.now;
        let optimal_utilization = self.workload_fraction().max(0.05);

        // Departures are only assessed once the sliding utilization windows
        // and satisfaction memories have had time to fill; judging the
        // system on a cold start would make every method shed providers.
        let warmed_up = now.as_secs() >= self.config.departure_warmup_secs;

        if warmed_up && self.config.providers_may_leave {
            let rule = self.config.provider_departure;
            let ids: Vec<ProviderId> = self.population.providers.keys().collect();
            for id in ids {
                let provider = &mut self.population.providers[id];
                if provider.has_departed() {
                    continue;
                }
                let utilization = provider.utilization(now).value();
                let reason = rule.evaluate(
                    provider.strict_satisfaction(),
                    provider.adequation(),
                    utilization,
                    optimal_utilization,
                    provider.proposed_queries(),
                );
                match reason {
                    Some(reason) => {
                        self.provider_strikes[id] += 1;
                        // Overutilization is already smoothed by the sliding
                        // utilization window, so it takes effect at the first
                        // assessment that observes it; dissatisfaction and
                        // starvation must persist across assessments.
                        let required = if reason == sqlb_agents::DepartureReason::Overutilization {
                            1
                        } else {
                            rule.required_consecutive.max(1)
                        };
                        if self.provider_strikes[id] >= required {
                            self.population.depart_provider(id);
                            if let Some(shard) = self.router.shard_of_provider(id) {
                                let agent = &self.population.providers[id];
                                self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                                // Its in-flight completions will no longer
                                // be credited anywhere (the provider has
                                // no shard), so take the outstanding work
                                // off the books now or the shard would
                                // carry phantom load forever.
                                self.shard_backlog[shard] -= agent.backlog().value();
                            }
                            self.router.remove_provider(id);
                            match &mut self.mediation {
                                MediationDriver::Reactor(reactor) => {
                                    reactor.deregister_provider(id)
                                }
                                MediationDriver::Socket(socket) => socket.deregister_provider(id),
                                _ => {}
                            }
                            if let Some(matchmaker) = &mut self.matchmaker {
                                matchmaker.deregister(id);
                            }
                            let profile = self.population.profiles[id];
                            self.provider_departures.push(DepartureRecord {
                                provider: id,
                                time_secs: now.as_secs(),
                                reason,
                                profile,
                            });
                        }
                    }
                    None => self.provider_strikes[id] = 0,
                }
            }
        }

        if warmed_up && self.config.consumers_may_leave {
            let rule = self.config.consumer_departure;
            let ids: Vec<ConsumerId> = self.population.consumers.keys().collect();
            for id in ids {
                let consumer = &mut self.population.consumers[id];
                if consumer.has_departed() {
                    continue;
                }
                let reason = rule.evaluate(
                    consumer.satisfaction(),
                    consumer.adequation(),
                    consumer.issued_queries(),
                );
                match reason {
                    Some(_) => {
                        self.consumer_strikes[id] += 1;
                        if self.consumer_strikes[id] >= rule.required_consecutive.max(1) {
                            self.population.depart_consumer(id);
                            self.router.remove_consumer(id);
                            match &mut self.mediation {
                                MediationDriver::Reactor(reactor) => {
                                    reactor.deregister_consumer(id)
                                }
                                MediationDriver::Socket(socket) => socket.deregister_consumer(id),
                                _ => {}
                            }
                            self.consumer_departures.push(ConsumerDepartureRecord {
                                consumer: id,
                                time_secs: now.as_secs(),
                            });
                        }
                    }
                    None => self.consumer_strikes[id] = 0,
                }
            }
        }

        // Departures are the only place the active indices shrink; in
        // debug builds cross-check them against the departed flags after
        // every assessment (a no-op in release).
        self.population.debug_assert_active_indices_consistent();

        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_assessment_tick,
            self.config.assessment_interval_secs,
            Event::Assessment,
        );
    }

    fn finish(mut self) -> SimulationReport {
        let now = SimTime::from_secs(self.config.duration_secs);
        let utilizations: Vec<f64> = self
            .population
            .providers
            .values_mut()
            .filter(|p| !p.has_departed())
            .map(|p| p.utilization(now).value())
            .collect();
        let provider_satisfaction: Vec<f64> = self
            .population
            .providers
            .values()
            .filter(|p| !p.has_departed())
            .map(|p| p.smoothed_satisfaction())
            .collect();
        let consumer_satisfaction: Vec<f64> = self
            .population
            .consumers
            .values()
            .filter(|c| !c.has_departed())
            .map(|c| c.satisfaction())
            .collect();

        // Scenario fault accounting: the socket backend counts the
        // replies that really timed out (or found a dead connection) on
        // the wire; the in-process backends count the indifference they
        // fabricated for scenario-faulted endpoints.
        let indifferent_replies = match &self.mediation {
            MediationDriver::Socket(socket) => socket.timed_out_total(),
            _ => self.scenario.as_ref().map_or(0, |s| s.fault_indifference),
        };

        SimulationReport {
            method: self.method_kind.name().to_string(),
            seed: self.config.seed,
            scenario: self
                .scenario
                .as_ref()
                .map_or_else(String::new, |s| s.description.name.clone()),
            churn_departures: self.scenario.as_ref().map_or(0, |s| s.churn_departures),
            churn_rejoins: self.scenario.as_ref().map_or(0, |s| s.churn_rejoins),
            indifferent_replies,
            degraded_waves: self.degraded_waves,
            series: self.series,
            issued_queries: self.issued,
            completed_queries: self.completed,
            unallocated_queries: self.unallocated,
            response_times: self.response_times,
            provider_departures: self.provider_departures,
            consumer_departures: self.consumer_departures,
            initial_providers: self.initial_providers,
            initial_consumers: self.initial_consumers,
            mediator_shards: self.router.shard_count(),
            shard_allocations: self.router.allocations_per_shard(),
            sync_rounds: self.router.sync_rounds(),
            routing_policy: self.routing.name().to_string(),
            migrations: self.migrations,
            rebalance_rounds: self.rebalance_rounds,
            final_utilization: Summary::of(&utilizations),
            final_provider_satisfaction: Summary::of(&provider_satisfaction),
            final_consumer_satisfaction: Summary::of(&consumer_satisfaction),
        }
    }
}

/// Scores one donor candidate for the load-adaptive migration rule, or
/// `None` when moving it could not strictly shrink the allocation gap
/// (`throughput` must lie strictly between 0 and `gap` — the
/// monotone-convergence guard). Lower scores are better.
///
/// The score is the distance of the donor's windowed throughput from half
/// the gap (the move that splits the imbalance evenly), plus a
/// satisfaction penalty: `satisfaction × (gap / 2) × weight`. An
/// under-served donor — a low mediator-side satisfaction reading means
/// its proposals mostly lose on the contended shard — therefore wins
/// against a comparably-matched but well-served one: it frees the least
/// won throughput where it is, and stands to gain the most on the
/// receiving shard, where its proposals face less competition. The
/// bounded weight keeps the penalty a fraction of the target, so
/// satisfaction arbitrates near-ties without overriding a decisively
/// better throughput match.
fn donor_score(throughput: u64, gap: u64, satisfaction: f64, weight: f64) -> Option<f64> {
    if throughput == 0 || throughput >= gap {
        return None;
    }
    let target = gap as f64 / 2.0;
    let distance = (throughput as f64 - target).abs();
    Some(distance + satisfaction.clamp(0.0, 1.0) * target * weight)
}

/// Convenience: builds and runs one simulation.
pub fn run_simulation(
    config: SimulationConfig,
    method: Method,
) -> Result<SimulationReport, SqlbError> {
    Ok(Simulator::new(config, method)?.run())
}

/// Convenience: builds and runs one simulation under a scenario.
pub fn run_scenario(
    config: SimulationConfig,
    method: Method,
    scenario: &Scenario,
) -> Result<SimulationReport, SqlbError> {
    Ok(Simulator::with_scenario(config, method, scenario)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadPattern;
    use sqlb_agents::{EnabledReasons, ProviderDepartureRule};

    fn small_config(duration: f64, seed: u64) -> SimulationConfig {
        SimulationConfig::scaled(16, 32, duration, seed)
    }

    #[test]
    fn donor_score_guards_convergence_and_prefers_the_under_served() {
        let weight = Simulator::MIGRATION_SATISFACTION_WEIGHT;
        // The monotone-convergence guard: a zero-throughput donor moves
        // nothing, a ≥gap donor would overshoot and oscillate.
        assert_eq!(donor_score(0, 10, 0.5, weight), None);
        assert_eq!(donor_score(10, 10, 0.5, weight), None);
        assert_eq!(donor_score(15, 10, 0.5, weight), None);

        // Equal distance from half the gap: the lower-satisfaction donor
        // scores strictly better.
        let served = donor_score(5, 10, 0.9, weight).unwrap();
        let under_served = donor_score(5, 10, 0.1, weight).unwrap();
        assert!(under_served < served);

        // The satisfaction penalty is bounded by `weight × gap/2`, so it
        // cannot overturn a decisively better throughput match: a donor on
        // target with satisfaction 1.0 still beats one a full half-gap off
        // target with satisfaction 0.0.
        let on_target_served = donor_score(5, 10, 1.0, weight).unwrap();
        let off_target_under_served = donor_score(1, 10, 0.0, weight).unwrap();
        assert!(on_target_served < off_target_under_served);

        // Out-of-range satisfaction readings are clamped, not amplified.
        assert_eq!(
            donor_score(3, 10, -4.0, weight),
            donor_score(3, 10, 0.0, weight)
        );
        assert_eq!(
            donor_score(3, 10, 7.0, weight),
            donor_score(3, 10, 1.0, weight)
        );
    }

    #[test]
    fn captive_run_completes_and_accounts_for_queries() {
        let report = run_simulation(
            small_config(300.0, 1).with_workload(WorkloadPattern::Fixed(0.5)),
            Method::Sqlb,
        )
        .unwrap();
        assert!(report.issued_queries > 100, "got {}", report.issued_queries);
        assert!(report.completed_queries > 0);
        assert!(report.completed_queries <= report.issued_queries);
        assert_eq!(report.unallocated_queries, 0);
        assert!(report.mean_response_time() > 0.0);
        assert!(report.provider_departures.is_empty());
        assert!(report.consumer_departures.is_empty());
        assert!(!report.series.utilization_mean.is_empty());
        assert_eq!(report.method, "SQLB");
        assert_eq!(report.mediator_shards, 1);
        assert_eq!(report.sync_rounds, 0, "a mono-mediator run never syncs");
        assert_eq!(report.shard_allocations.len(), 1);
        assert_eq!(report.shard_allocations[0], report.issued_queries);
    }

    #[test]
    fn runs_are_deterministic_for_a_given_seed() {
        let a = run_simulation(small_config(200.0, 3), Method::CapacityBased).unwrap();
        let b = run_simulation(small_config(200.0, 3), Method::CapacityBased).unwrap();
        assert_eq!(a.issued_queries, b.issued_queries);
        assert_eq!(a.completed_queries, b.completed_queries);
        assert_eq!(
            a.series.utilization_mean.values(),
            b.series.utilization_mean.values()
        );
        let c = run_simulation(small_config(200.0, 4), Method::CapacityBased).unwrap();
        assert_ne!(a.issued_queries, c.issued_queries);
    }

    #[test]
    fn explicit_k1_is_bit_identical_to_the_default_mono_engine() {
        // The acceptance bar for the sharding refactor: asking for one
        // shard must reproduce the mono-mediator pipeline exactly, sample
        // by sample.
        let mono = run_simulation(small_config(300.0, 9), Method::Sqlb).unwrap();
        let k1 = run_simulation(
            small_config(300.0, 9)
                .with_mediator_shards(1)
                .with_sync_interval(10.0),
            Method::Sqlb,
        )
        .unwrap();
        assert_eq!(mono.issued_queries, k1.issued_queries);
        assert_eq!(mono.completed_queries, k1.completed_queries);
        assert_eq!(
            mono.series.utilization_mean.values(),
            k1.series.utilization_mean.values()
        );
        assert_eq!(
            mono.series.consumer_allocation_satisfaction_mean.values(),
            k1.series.consumer_allocation_satisfaction_mean.values()
        );
        assert_eq!(mono.response_times.mean(), k1.response_times.mean(),);
    }

    #[test]
    fn sharded_runs_complete_and_spread_allocations() {
        for shards in [2usize, 4] {
            let report = run_simulation(
                small_config(300.0, 21)
                    .with_workload(WorkloadPattern::Fixed(0.5))
                    .with_mediator_shards(shards),
                Method::Sqlb,
            )
            .unwrap();
            assert_eq!(report.mediator_shards, shards);
            assert_eq!(report.shard_allocations.len(), shards);
            assert!(
                report.shard_allocations.iter().all(|&a| a > 0),
                "every shard should mediate some queries: {:?}",
                report.shard_allocations
            );
            assert_eq!(
                report.shard_allocations.iter().sum::<u64>(),
                report.issued_queries - report.unallocated_queries
            );
            assert!(report.sync_rounds > 0, "sharded runs synchronize views");
            assert!(report.completion_rate() > 0.5);
        }
    }

    #[test]
    fn per_shard_series_are_recorded() {
        for shards in [1usize, 4] {
            let report = run_simulation(
                small_config(300.0, 21)
                    .with_workload(WorkloadPattern::Fixed(0.5))
                    .with_mediator_shards(shards),
                Method::Sqlb,
            )
            .unwrap();
            let series = &report.series;
            assert_eq!(series.shard_utilization.len(), shards);
            assert_eq!(series.shard_satisfaction.len(), shards);
            let samples = series.utilization_mean.len();
            for shard in 0..shards {
                assert_eq!(series.shard_utilization[shard].len(), samples);
                assert_eq!(series.shard_satisfaction[shard].len(), samples);
                assert!(series.shard_utilization[shard].mean_after(100.0) > 0.0);
            }
            assert_eq!(series.shard_utilization_spread.len(), samples);
            if shards == 1 {
                // One shard owns everything: its series equals the global
                // mean and the spread is identically zero.
                assert_eq!(
                    series.shard_utilization[0].values(),
                    series.utilization_mean.values()
                );
                assert!(series
                    .shard_utilization_spread
                    .values()
                    .iter()
                    .all(|&v| v == 0.0));
            } else {
                assert!(series.shard_utilization_spread.mean_after(100.0) > 0.0);
            }
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_too() {
        let config = small_config(250.0, 33).with_mediator_shards(4);
        let a = run_simulation(config, Method::Sqlb).unwrap();
        let b = run_simulation(config, Method::Sqlb).unwrap();
        assert_eq!(a.issued_queries, b.issued_queries);
        assert_eq!(a.shard_allocations, b.shard_allocations);
        assert_eq!(
            a.series.consumer_satisfaction_mean.values(),
            b.series.consumer_satisfaction_mean.values()
        );
    }

    #[test]
    fn queries_fall_over_to_other_shards_when_one_empties() {
        // One provider per shard: any single departure empties a shard.
        // An aggressive starvation rule makes the under-utilized
        // high-capacity providers leave while the small ones stay busy and
        // survive. Captive consumers routed to an emptied shard must fall
        // over to a surviving shard instead of being dropped — unallocated
        // queries are only legitimate once *every* provider has left.
        let aggressive_starvation = ProviderDepartureRule {
            starvation_fraction: 0.9,
            min_proposed_queries: 1,
            required_consecutive: 1,
            enabled: EnabledReasons {
                dissatisfaction: false,
                starvation: true,
                overutilization: false,
            },
            ..ProviderDepartureRule::default()
        };
        let config = SimulationConfig::scaled(8, 4, 900.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_provider_departures(aggressive_starvation)
            .with_mediator_shards(4);
        let report = run_simulation(config, Method::MariposaLike).unwrap();
        assert!(
            !report.provider_departures.is_empty(),
            "the scenario needs at least one emptied shard to be meaningful"
        );
        assert!(
            report.provider_departures.len() < report.initial_providers,
            "some provider must survive for fall-over to have a target"
        );
        assert_eq!(
            report.unallocated_queries, 0,
            "queries to an emptied shard must fall over while providers remain"
        );
    }

    #[test]
    fn all_methods_run_at_moderate_workload() {
        for method in [
            Method::Sqlb,
            Method::CapacityBased,
            Method::MariposaLike,
            Method::Random,
            Method::RoundRobin,
        ] {
            let report = run_simulation(
                small_config(150.0, 5).with_workload(WorkloadPattern::Fixed(0.6)),
                method,
            )
            .unwrap();
            assert!(report.issued_queries > 0, "{method:?} issued no query");
            assert!(
                report.completion_rate() > 0.5,
                "{method:?} completed only {}",
                report.completion_rate()
            );
        }
    }

    #[test]
    fn sqlb_satisfies_consumers_more_than_capacity_based() {
        let config = small_config(400.0, 11).with_workload(WorkloadPattern::Fixed(0.6));
        let sqlb = run_simulation(config, Method::Sqlb).unwrap();
        let capacity = run_simulation(config, Method::CapacityBased).unwrap();
        let sqlb_cas = sqlb
            .series
            .consumer_allocation_satisfaction_mean
            .last_value()
            .unwrap();
        let cap_cas = capacity
            .series
            .consumer_allocation_satisfaction_mean
            .last_value()
            .unwrap();
        assert!(
            sqlb_cas > 1.0,
            "SQLB should satisfy consumers (δas > 1), got {sqlb_cas}"
        );
        assert!(
            sqlb_cas > cap_cas,
            "SQLB {sqlb_cas} should beat Capacity based {cap_cas}"
        );
    }

    #[test]
    fn capacity_based_balances_load_best() {
        let config = small_config(400.0, 13).with_workload(WorkloadPattern::Fixed(0.7));
        let capacity = run_simulation(config, Method::CapacityBased).unwrap();
        let mariposa = run_simulation(config, Method::MariposaLike).unwrap();
        let cap_fair = capacity.series.utilization_fairness.mean_after(100.0);
        let mar_fair = mariposa.series.utilization_fairness.mean_after(100.0);
        assert!(
            cap_fair > mar_fair,
            "Capacity based fairness {cap_fair} should exceed Mariposa-like {mar_fair}"
        );
    }

    #[test]
    fn autonomous_run_records_departures() {
        let config = small_config(600.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL));
        let report = run_simulation(config, Method::MariposaLike).unwrap();
        assert!(
            !report.provider_departures.is_empty(),
            "Mariposa-like at 80% workload should lose providers"
        );
        assert!(report.provider_departure_fraction() <= 1.0);
        // Departed providers are reflected in the active-provider series.
        let last_active = report.series.active_providers.last_value().unwrap();
        assert!(last_active < report.initial_providers as f64);
    }

    #[test]
    fn non_dyadic_intervals_do_not_drift() {
        // Regression: periodic events used to be scheduled at
        // `previous + interval`, so a non-dyadic interval like 0.1 s
        // accumulated rounding drift and could change the number of
        // samples a run records. Tick-based scheduling pins sample `k` at
        // exactly `k × interval`.
        let mut config = small_config(100.0, 7).with_workload(WorkloadPattern::Fixed(0.4));
        config.sample_interval_secs = 0.1;
        let report = run_simulation(config, Method::Sqlb).unwrap();
        let points = report.series.utilization_mean.points();
        assert_eq!(
            points.len(),
            1000,
            "100 s at a 0.1 s cadence is exactly 1000 samples"
        );
        for (i, point) in points.iter().enumerate() {
            let expected = (i + 1) as f64 * 0.1;
            assert_eq!(
                point.time.to_bits(),
                expected.to_bits(),
                "sample {i} drifted: {} != {expected}",
                point.time
            );
        }
    }

    #[test]
    fn tick_scheduling_matches_repeated_addition_for_dyadic_intervals() {
        // The flip side of the drift fix: for dyadic intervals (every
        // committed configuration) the tick schedule is bit-identical to
        // the old one, which is what keeps historical seeds reproducible.
        let report = run_simulation(
            small_config(300.0, 1).with_workload(WorkloadPattern::Fixed(0.5)),
            Method::Sqlb,
        )
        .unwrap();
        let interval = 3.0; // 300 s / 100 samples
        for (i, point) in report.series.utilization_mean.points().iter().enumerate() {
            let mut by_addition = 0.0f64;
            for _ in 0..=i {
                by_addition += interval;
            }
            assert_eq!(point.time.to_bits(), by_addition.to_bits());
        }
    }

    #[test]
    fn every_mediation_backend_reproduces_the_same_run_bit_for_bit() {
        // Routing the gather step through the asynchronous reactor or the
        // socket transport must not change a single bit of the report —
        // the backends ask the same agents the same questions in the same
        // order.
        let config = small_config(150.0, 9).with_workload(WorkloadPattern::Fixed(0.6));
        let inline = run_simulation(config, Method::Sqlb).unwrap();
        for mode in [crate::MediationMode::Reactor, crate::MediationMode::Socket] {
            let mediated = run_simulation(config.with_mediation(mode), Method::Sqlb).unwrap();
            assert_eq!(inline.digest(), mediated.digest(), "{}", mode.name());
            assert_eq!(
                inline.series.utilization_mean.values(),
                mediated.series.utilization_mean.values()
            );
        }
    }

    #[test]
    fn the_reactor_backend_supports_bids_and_shards() {
        // The economic method gathers bids through the wave, and K>1 runs
        // mediate per-shard candidate sets through it.
        let config = small_config(150.0, 5)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_mediator_shards(2);
        let inline = run_simulation(config, Method::MariposaLike).unwrap();
        let reactor = run_simulation(
            config.with_mediation(crate::MediationMode::Reactor),
            Method::MariposaLike,
        )
        .unwrap();
        assert_eq!(inline.digest(), reactor.digest());
        assert_eq!(inline.shard_allocations, reactor.shard_allocations);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = small_config(100.0, 0);
        config.duration_secs = -1.0;
        assert!(Simulator::new(config, Method::Sqlb).is_err());
    }

    #[test]
    fn the_socket_backend_reproduces_the_run_bit_for_bit() {
        // The acceptance bar for the transport: gathering over real
        // loopback TCP sockets (frames out, frames back, replies
        // computed from the decoded wire content) must not change a
        // single bit of the report relative to the in-process backends.
        let config = small_config(150.0, 9).with_workload(WorkloadPattern::Fixed(0.6));
        let inline = run_simulation(config, Method::Sqlb).unwrap();
        let socket = run_simulation(
            config.with_mediation(crate::MediationMode::Socket),
            Method::Sqlb,
        )
        .unwrap();
        let reactor = run_simulation(
            config.with_mediation(crate::MediationMode::Reactor),
            Method::Sqlb,
        )
        .unwrap();
        assert_eq!(socket.digest(), inline.digest());
        assert_eq!(socket.digest(), reactor.digest());
        assert_eq!(
            socket.series.utilization_mean.values(),
            inline.series.utilization_mean.values()
        );
    }

    #[test]
    fn same_instant_socket_arrivals_coalesce_into_one_wave() {
        // Force a burst of arrivals onto one virtual instant (the Poisson
        // process essentially never produces dt = 0 on its own) and check
        // the socket backend mediates them in fewer waves than arrivals —
        // while still issuing and allocating every one of them.
        let config = small_config(60.0, 23)
            .with_workload(WorkloadPattern::Fixed(0.5))
            .with_mediator_shards(2)
            .with_mediation(crate::MediationMode::Socket);
        let mut sim = Simulator::new(config, Method::Sqlb).unwrap();
        for _ in 0..8 {
            sim.queue
                .schedule(SimTime::from_secs(0.0), Event::QueryArrival);
        }
        let (time, event) = sim.queue.pop().unwrap();
        assert_eq!(time.as_secs(), 0.0);
        assert!(matches!(event, Event::QueryArrival));
        sim.now = time;
        sim.handle_arrival();

        assert_eq!(sim.issued, 8, "the whole burst is drained in one turn");
        let MediationDriver::Socket(socket) = &sim.mediation else {
            unreachable!("the test runs the socket backend");
        };
        let waves = socket.last_round().wave;
        assert!(
            waves < 8,
            "8 same-instant arrivals should coalesce into fewer waves, ran {waves}"
        );
        assert!(
            waves >= 4,
            "2 shards bound the batch width at 2, so at least 4 waves must run, ran {waves}"
        );
    }

    #[test]
    fn single_shard_least_loaded_runs_keep_the_coalesced_arrival_path() {
        // Regression: load-reactive routing used to suspend the coalesced
        // socket-arrival path unconditionally, K = 1 included. With a
        // single shard every route is shard 0 no matter what the policy
        // observes, so there is nothing for the batched drain to get
        // wrong — the guard now keeps the path engaged, and this pins
        // that it stays bit-identical to the sequential interleaving and
        // to the inline engine (same-instant bursts included).
        let run = |mode: crate::MediationMode, coalesce: bool| {
            let config = small_config(90.0, 23)
                .with_workload(WorkloadPattern::Fixed(0.5))
                .with_routing(crate::RoutingPolicyKind::LeastLoaded)
                .with_mediation(mode)
                .with_socket_wave_coalescing(coalesce);
            let mut sim = Simulator::new(config, Method::Sqlb).unwrap();
            for _ in 0..6 {
                sim.queue
                    .schedule(SimTime::from_secs(0.5), Event::QueryArrival);
            }
            sim.run()
        };
        let coalesced = run(crate::MediationMode::Socket, true);
        let sequential = run(crate::MediationMode::Socket, false);
        let inline = run(crate::MediationMode::Inline, true);
        assert_eq!(coalesced.digest(), sequential.digest());
        assert_eq!(coalesced.digest(), inline.digest());
        assert_eq!(coalesced.issued_queries, sequential.issued_queries);
    }

    #[test]
    fn coalesced_socket_waves_stay_bit_identical() {
        // Same forced burst, full runs: coalescing on vs. off must agree
        // bit for bit — the draws, the mediated answers and the
        // allocation order all line up with the sequential interleaving.
        let run = |coalesce: bool| {
            let config = small_config(120.0, 11)
                .with_workload(WorkloadPattern::Fixed(0.6))
                .with_mediator_shards(2)
                .with_mediation(crate::MediationMode::Socket)
                .with_socket_wave_coalescing(coalesce);
            let mut sim = Simulator::new(config, Method::Sqlb).unwrap();
            for _ in 0..6 {
                sim.queue
                    .schedule(SimTime::from_secs(0.5), Event::QueryArrival);
            }
            sim.run()
        };
        let coalesced = run(true);
        let sequential = run(false);
        assert_eq!(coalesced.digest(), sequential.digest());
        assert_eq!(coalesced.issued_queries, sequential.issued_queries);
        assert_eq!(
            coalesced.series.utilization_mean.values(),
            sequential.series.utilization_mean.values()
        );
    }

    #[test]
    fn the_socket_backend_supports_bids_shards_and_many_hosts() {
        let config = small_config(150.0, 5)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_mediator_shards(2);
        let inline = run_simulation(config, Method::MariposaLike).unwrap();
        for hosts in [1usize, 4] {
            let socket = run_simulation(
                config
                    .with_mediation(crate::MediationMode::Socket)
                    .with_socket_hosts(hosts),
                Method::MariposaLike,
            )
            .unwrap();
            assert_eq!(socket.digest(), inline.digest(), "hosts={hosts}");
            assert_eq!(socket.shard_allocations, inline.shard_allocations);
        }
    }

    #[test]
    fn the_socket_backend_survives_departures() {
        // Departures deregister endpoints from the wave server and close
        // emptied host connections; the run must stay bit-identical to
        // the inline engine throughout.
        let config = small_config(600.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL));
        let inline = run_simulation(config, Method::MariposaLike).unwrap();
        assert!(!inline.provider_departures.is_empty());
        let socket = run_simulation(
            config.with_mediation(crate::MediationMode::Socket),
            Method::MariposaLike,
        )
        .unwrap();
        assert_eq!(socket.digest(), inline.digest());
        assert_eq!(
            socket.provider_departures.len(),
            inline.provider_departures.len()
        );
    }

    #[test]
    fn capability_matchmaking_is_off_by_default_and_changes_candidates_when_on() {
        let config = small_config(300.0, 21).with_workload(WorkloadPattern::Fixed(0.5));
        let default_run = run_simulation(config, Method::Sqlb).unwrap();
        let filtered =
            run_simulation(config.with_capability_matchmaking(true), Method::Sqlb).unwrap();
        // The filtered run completes every query (the class-capable
        // subset is never empty at this scale) and is deterministic.
        assert_eq!(filtered.unallocated_queries, 0);
        assert_eq!(filtered.issued_queries, default_run.issued_queries);
        let filtered_again =
            run_simulation(config.with_capability_matchmaking(true), Method::Sqlb).unwrap();
        assert_eq!(filtered.digest(), filtered_again.digest());
        // And it genuinely narrows candidate sets: the allocation
        // outcomes differ from the all-providers run.
        assert_ne!(
            filtered.digest(),
            default_run.digest(),
            "capability filtering should exclude class-averse providers"
        );
    }

    #[test]
    fn capability_matchmaking_agrees_across_mediation_backends() {
        // The filtered candidate set feeds every backend identically —
        // including over sockets, where the class topic travels in the
        // query description.
        let config = small_config(150.0, 13)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_capability_matchmaking(true);
        let inline = run_simulation(config, Method::Sqlb).unwrap();
        let socket = run_simulation(
            config.with_mediation(crate::MediationMode::Socket),
            Method::Sqlb,
        )
        .unwrap();
        let reactor = run_simulation(
            config.with_mediation(crate::MediationMode::Reactor),
            Method::Sqlb,
        )
        .unwrap();
        assert_eq!(inline.digest(), socket.digest());
        assert_eq!(inline.digest(), reactor.digest());
    }
}
