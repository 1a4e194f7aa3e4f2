//! A replay of one workload through the layers' public functions.
//!
//! The replay drives the same arrivals, completions, samples, sync
//! rounds, migrations and churn events as `Simulator::run`, in the same
//! order and from the same random stream, but it calls each layer
//! itself, so it can record a span around every call: routing, agent
//! intentions, the mediation wave, the socket gather, Definition 9
//! scoring, the satisfaction record and the agents' notification. Its
//! report digest must equal the engine's; the trace run checks it.
//!
//! Only the features the benchmark's workloads use are mirrored:
//! captive participants, no transport faults, no arrival modifiers, no
//! capability matchmaking and a method without bids.
//! [`Replay::supports`] refuses anything else.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqlb_agents::Population;
use sqlb_core::allocation::{AllocationMethod, CandidateInfo, MediatorView, SelectionSet};
use sqlb_core::mediator_state::MediatorStateConfig;
use sqlb_mediation::{IntentionWave, Latency, ProviderAnswer, Reactor, RuntimeConfig};
use sqlb_metrics::{fairness, mean, spread, Histogram, Summary, TimeSeries};
use sqlb_obs::Obs;
use sqlb_reputation::ReputationStore;
use sqlb_sim::events::{Event, EventQueue};
use sqlb_sim::routing::{RoutingPolicy, ShardLoadView};
use sqlb_sim::scenario::CompiledChurnGroup;
use sqlb_sim::shard::shard_seed;
use sqlb_sim::stats::MetricSeries;
use sqlb_sim::workload::{arrival_rate, sample_interarrival};
use sqlb_sim::{
    MediationMode, MigrationRecord, RejoinPolicy, ShardRouter, SimulationConfig, SimulationReport,
};
use sqlb_transport::{ServerConfig, SocketMediator, WaveJobs};
use sqlb_types::{
    ParticipantTable, ProviderId, Query, QueryClass, QueryId, SimDuration, SimTime, SlotColumn,
};

use crate::trace;
use crate::workloads::Workload;

/// Counts the replay makes where the work happens; the per-layer ratios
/// divide span time by these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Queries issued.
    pub issued: u64,
    /// Queries no shard could take.
    pub unallocated: u64,
    /// Candidates offered over all allocated queries.
    pub candidates: u64,
    /// Mediation waves (reactor waves or socket gathers).
    pub waves: u64,
    /// Requests delivered over all waves.
    pub delivered: u64,
    /// Requests degraded to indifference.
    pub timed_out: u64,
    /// Wall time the socket server spent waiting for replies.
    pub wave_wait: Duration,
    /// Waves with at least one degraded reply.
    pub degraded_waves: u64,
    /// Sync rounds.
    pub sync_rounds: u64,
    /// Digest entries absorbed over all sync rounds.
    pub sync_entries: u64,
    /// Provider migrations.
    pub migrations: u64,
    /// Churn departures plus re-joins.
    pub churn_events: u64,
    /// Transport bytes in plus out (socket backend).
    pub transport_bytes: u64,
    /// Waves whose delivered count differed from answered + timed out.
    pub unbalanced_waves: u64,
}

/// Set-up times of the replay's layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Population::generate`.
    pub population: Duration,
    /// `ShardRouter::new`.
    pub router: Duration,
    /// `SocketMediator::loopback` (zero on other backends).
    pub transport: Duration,
}

/// The result of one replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Digest of the report the replay assembles, comparable with the
    /// engine's `SimulationReport::digest`.
    pub digest: u64,
    /// Counts made during the run.
    pub counts: ReplayCounts,
    /// Layer set-up times.
    pub setup: SetupTimes,
    /// Wall time of the event loop (set-up excluded).
    pub run_wall: Duration,
}

enum Backend {
    Inline,
    Reactor(Box<Reactor>),
    Socket(Box<SocketMediator>),
}

struct Prepared {
    query: Query,
    shard: usize,
    candidates: Vec<ProviderId>,
}

/// The replay's state: the same pieces the engine holds, driven from
/// outside.
pub struct Replay {
    config: SimulationConfig,
    router: ShardRouter,
    allocators: Vec<Box<dyn AllocationMethod>>,
    routing: Box<dyn RoutingPolicy>,
    shard_backlog: Vec<f64>,
    shard_capacity: Vec<f64>,
    population: Population,
    reputation: ReputationStore,
    rng: StdRng,
    queue: EventQueue,
    busy_until: SlotColumn<ProviderId, f64>,
    now: SimTime,
    next_query_id: u32,
    next_sample_tick: u64,
    next_assessment_tick: u64,
    next_sync_tick: u64,
    next_rebalance_tick: u64,
    total_capacity: f64,
    initial_consumers: usize,
    initial_providers: usize,
    series: MetricSeries,
    response_times: Histogram,
    completed: u64,
    migrations: Vec<MigrationRecord>,
    rebalance_rounds: u64,
    allocations_at_last_rebalance: Vec<u64>,
    performed_at_last_rebalance: ParticipantTable<ProviderId, u64>,
    groups: Vec<CompiledChurnGroup>,
    departed_members: Vec<Vec<ProviderId>>,
    churn_departures: u64,
    churn_rejoins: u64,
    backend: Backend,
    obs: Obs,
    socket_timeouts_seen: u64,
    infos: Vec<CandidateInfo>,
    selection: SelectionSet,
    shown_cis: Vec<f64>,
    selected_indices: Vec<usize>,
    counts: ReplayCounts,
    setup: SetupTimes,
}

/// Span query id of events that belong to no query.
const NO_QUERY: u64 = u64::MAX;

impl Replay {
    /// Why the replay cannot mirror `workload`, if it cannot.
    pub fn supports(workload: &Workload) -> Result<(), String> {
        let c = &workload.config;
        let s = &workload.scenario;
        let refusals = [
            (
                c.providers_may_leave || c.consumers_may_leave,
                "autonomous departures",
            ),
            (!s.faults.is_empty(), "transport faults"),
            (!s.arrival.is_empty(), "arrival modifiers"),
            (c.capability_matchmaking, "capability matchmaking"),
            (Workload::METHOD.uses_bids(), "bidding methods"),
            (
                !matches!(
                    c.mediation,
                    MediationMode::Inline | MediationMode::Reactor | MediationMode::Socket
                ),
                "this mediation backend",
            ),
        ];
        match refusals.iter().find(|(refused, _)| *refused) {
            Some((_, what)) => Err(format!("the replay does not mirror {what}")),
            None => Ok(()),
        }
    }

    /// Builds the replay's state the way `Simulator::with_scenario` does,
    /// timing the layers' set-up calls.
    pub fn new(workload: &Workload) -> Result<Replay, String> {
        Self::supports(workload)?;
        let config = workload.config;
        let method = Workload::METHOD;
        let mut setup = SetupTimes::default();

        let started = Instant::now();
        let population = trace::span("sim.setup.population", NO_QUERY, || {
            Population::generate(&config.population)
        })
        .map_err(|e| e.to_string())?;
        setup.population = started.elapsed();

        let total_capacity = population.total_capacity();
        let initial_consumers = population.consumers.len();
        let initial_providers = population.providers.len();
        let state_config = MediatorStateConfig {
            consumer_window: config.population.consumer_config.memory,
            provider_proposed_window: config.population.provider_config.proposed_memory,
            provider_performed_window: config.population.provider_config.performed_memory,
            initial_satisfaction: config.population.provider_config.initial_satisfaction,
        };
        let started = Instant::now();
        let router = trace::span("sim.setup.router", NO_QUERY, || {
            let mut router = ShardRouter::new(
                config.mediator_shards,
                method,
                config.seed,
                state_config,
                population.providers.keys(),
            );
            router.set_scoring_threads(config.scoring_threads);
            router
        });
        setup.router = started.elapsed();
        // The engine scores through each shard's own method instance;
        // the replay keeps identical instances (same seeds, ranking off)
        // so scoring and recording can be timed apart.
        let allocators = (0..router.shard_count())
            .map(|shard| {
                let mut allocator = method.build(shard_seed(config.seed, shard));
                allocator.set_record_ranking(false);
                allocator.set_scoring_threads(config.scoring_threads);
                allocator
            })
            .collect();

        // Observability only on the replay's socket server, for its byte
        // counters; nothing reads it back into the run.
        let obs = Obs::when(matches!(config.mediation, MediationMode::Socket));
        let timeout = Duration::from_millis(config.wave_timeout_ms);
        let backend = match config.mediation {
            MediationMode::Inline => Backend::Inline,
            MediationMode::Reactor => trace::span("mediation.setup", NO_QUERY, || {
                let mut reactor = Reactor::new(RuntimeConfig {
                    timeout,
                    request_bids: method.uses_bids(),
                });
                for id in population.consumers.keys() {
                    reactor.register_consumer(id, Latency::Immediate);
                }
                for id in population.providers.keys() {
                    reactor.register_provider(id, Latency::Immediate);
                }
                Backend::Reactor(Box::new(reactor))
            }),
            MediationMode::Socket => {
                let started = Instant::now();
                let mut socket = trace::span("transport.setup", NO_QUERY, || {
                    SocketMediator::loopback(
                        config.socket_hosts,
                        ServerConfig {
                            timeout,
                            request_bids: method.uses_bids(),
                        },
                        population.consumers.keys(),
                        population.providers.keys(),
                    )
                })
                .map_err(|e| format!("socket bring-up failed: {e}"))?;
                setup.transport = started.elapsed();
                socket.set_obs(obs.clone());
                Backend::Socket(Box::new(socket))
            }
            _ => unreachable!("Replay::supports refuses other backends"),
        };

        let providers: Vec<ProviderId> = population.providers.keys().collect();
        let groups = workload.scenario.compile(config.seed, &providers).groups;
        let routing = config.routing.build();
        let shard_capacity = (0..router.shard_count())
            .map(|shard| {
                router
                    .providers_of_shard(shard)
                    .iter()
                    .map(|&p| population.providers[p].capacity().units_per_sec())
                    .sum()
            })
            .collect();
        let mut replay = Replay {
            shard_backlog: vec![0.0; router.shard_count()],
            shard_capacity,
            allocators,
            routing,
            router,
            reputation: ReputationStore::neutral(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17)),
            queue: EventQueue::new(),
            busy_until: SlotColumn::with_len(initial_providers, 0.0),
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
            completed: 0,
            migrations: Vec::new(),
            rebalance_rounds: 0,
            allocations_at_last_rebalance: Vec::new(),
            performed_at_last_rebalance: ParticipantTable::new(),
            departed_members: vec![Vec::new(); groups.len()],
            groups,
            churn_departures: 0,
            churn_rejoins: 0,
            backend,
            obs,
            socket_timeouts_seen: 0,
            infos: Vec::new(),
            selection: SelectionSet::new(),
            shown_cis: Vec::new(),
            selected_indices: Vec::new(),
            counts: ReplayCounts::default(),
            setup,
            population,
            config,
        };
        replay.schedule_initial_events();
        Ok(replay)
    }

    fn schedule_initial_events(&mut self) {
        let first = self.next_interarrival();
        if first.is_finite() {
            self.queue
                .schedule(SimTime::from_secs(first), Event::QueryArrival);
        }
        self.queue.schedule(
            SimTime::from_secs(self.config.sample_interval_secs),
            Event::Sample,
        );
        self.queue.schedule(
            SimTime::from_secs(self.config.assessment_interval_secs),
            Event::Assessment,
        );
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
        for (group, compiled) in self.groups.iter().enumerate() {
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

    /// Runs the event loop to the horizon and assembles the outcome.
    pub fn run(mut self) -> ReplayOutcome {
        let started = Instant::now();
        while let Some((time, event)) = self.queue.pop() {
            if time.as_secs() > self.config.duration_secs {
                break;
            }
            self.now = time;
            match event {
                Event::QueryArrival => {
                    if matches!(self.backend, Backend::Socket(_))
                        && self.config.socket_wave_coalescing
                        && (!self.routing.reacts_to_load() || self.router.shard_count() == 1)
                    {
                        self.socket_arrivals();
                    } else {
                        self.arrival();
                    }
                }
                Event::QueryCompletion {
                    provider,
                    query,
                    issued_at,
                    work,
                } => {
                    let open = trace::begin("sim.completion", u64::from(query.raw()));
                    self.population.providers[provider].complete(work);
                    if let Some(shard) = self.router.shard_of_provider(provider) {
                        self.shard_backlog[shard] -= work.value();
                    }
                    self.response_times.record((self.now - issued_at).as_secs());
                    self.completed += 1;
                    trace::end(open);
                }
                Event::Sample => trace::span("sim.sample", NO_QUERY, || self.sample()),
                Event::Assessment => {
                    // Captive participants: an assessment only reschedules.
                    Self::schedule_periodic(
                        &mut self.queue,
                        self.config.duration_secs,
                        &mut self.next_assessment_tick,
                        self.config.assessment_interval_secs,
                        Event::Assessment,
                    );
                }
                Event::SyncViews => self.sync(),
                Event::Rebalance => trace::span("sim.rebalance", NO_QUERY, || self.rebalance()),
                Event::ChurnDepart { group } => self.churn_depart(group),
                Event::ChurnRejoin { group } => self.churn_rejoin(group),
            }
        }
        let run_wall = started.elapsed();
        self.counts.transport_bytes =
            self.obs.counter("bytes_in").value() + self.obs.counter("bytes_out").value();
        let report = self.finish();
        ReplayOutcome {
            digest: report.digest(),
            counts: self.counts,
            setup: self.setup,
            run_wall,
        }
    }

    fn workload_fraction(&self) -> f64 {
        self.config
            .workload
            .fraction_at(self.now.as_secs(), self.config.duration_secs)
    }

    fn next_interarrival(&mut self) -> f64 {
        let active = self.population.active_consumer_count();
        let consumer_fraction = if self.initial_consumers == 0 {
            0.0
        } else {
            active as f64 / self.initial_consumers as f64
        };
        let rate = arrival_rate(
            self.workload_fraction(),
            self.total_capacity,
            Population::mean_query_cost(),
        ) * consumer_fraction;
        sample_interarrival(&mut self.rng, rate)
    }

    fn schedule_next_arrival(&mut self) {
        let dt = self.next_interarrival();
        if dt.is_finite() {
            let at = self.now + SimDuration::from_secs(dt);
            if at.as_secs() <= self.config.duration_secs {
                self.queue.schedule(at, Event::QueryArrival);
            }
        }
    }

    /// Draws the next query and routes it: the engine's arrival prologue.
    /// `None` when no consumer or no provider-bearing shard remains.
    fn prepare(&mut self) -> Option<(Query, usize)> {
        self.schedule_next_arrival();
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
        self.next_query_id = self.next_query_id.wrapping_add(1);
        self.counts.issued += 1;

        let open = trace::begin("sim.route", u64::from(query.id.raw()));
        let preferred = self.routing.route(
            consumer,
            &self.router,
            ShardLoadView {
                backlog: &self.shard_backlog,
                capacity: &self.shard_capacity,
            },
        );
        let count = self.router.shard_count();
        let shard = (0..count)
            .map(|offset| (preferred + offset) % count)
            .find(|&shard| !self.router.providers_of_shard(shard).is_empty());
        trace::end(open);
        match shard {
            Some(shard) => Some((query, shard)),
            None => {
                self.counts.unallocated += 1;
                None
            }
        }
    }

    /// One arrival on the inline or reactor backend.
    fn arrival(&mut self) {
        let root = trace::begin("arrival", u64::from(self.next_query_id));
        let Some((query, shard)) = self.prepare() else {
            trace::end(root);
            return;
        };
        let qid = u64::from(query.id.raw());
        let now = self.now;
        let candidates = self.router.providers_of_shard(shard);
        self.counts.candidates += candidates.len() as u64;
        match &mut self.backend {
            Backend::Inline => {
                let open = trace::begin("agents.intent", qid);
                let consumer = &self.population.consumers[query.consumer];
                self.infos.clear();
                for &p in candidates {
                    let ci = consumer.intention_for(&query, p, &self.reputation);
                    let (pi, utilization) =
                        self.population.providers[p].intention_and_utilization(&query, now);
                    self.infos.push(
                        CandidateInfo::new(p)
                            .with_consumer_intention(ci)
                            .with_provider_intention(pi)
                            .with_utilization(utilization),
                    );
                }
                trace::end(open);
            }
            Backend::Reactor(reactor) => {
                let open = trace::begin("mediation.wave", qid);
                let consumer = &self.population.consumers[query.consumer];
                let reputation = &self.reputation;
                let query_ref = &query;
                let mut wave = IntentionWave::new();
                wave.consumer(query.consumer, None, move || {
                    trace::span("agents.intent", qid, || {
                        vec![(
                            query_ref.id,
                            candidates
                                .iter()
                                .map(|&p| (p, consumer.intention_for(query_ref, p, reputation)))
                                .collect(),
                        )]
                    })
                });
                for (p, agent) in self.population.providers.iter_mut_of(candidates) {
                    wave.provider(p, None, move || {
                        trace::span("agents.intent", qid, || {
                            let (intention, utilization) =
                                agent.intention_and_utilization(query_ref, now);
                            vec![ProviderAnswer {
                                query: query_ref.id,
                                intention,
                                utilization,
                                bid: None,
                            }]
                        })
                    });
                }
                let replies = reactor.run_wave(wave);
                let round = reactor.last_round();
                let requests = [(query.clone(), candidates.to_vec())];
                self.infos.clear();
                self.infos.extend(
                    replies
                        .into_candidate_infos(&requests)
                        .into_iter()
                        .flatten(),
                );
                trace::end(open);
                self.counts.waves += 1;
                self.counts.delivered += round.delivered as u64;
                self.counts.timed_out += round.timed_out as u64;
                if round.delivered != round.answered + round.timed_out {
                    self.counts.unbalanced_waves += 1;
                }
                if round.timed_out > 0 {
                    self.counts.degraded_waves += 1;
                }
            }
            Backend::Socket(_) => unreachable!("socket arrivals take the coalesced path"),
        }
        self.allocate_and_record(&query, shard);
        trace::end(root);
    }

    /// The socket backend's coalesced arrivals: every arrival at this
    /// instant joins one wave unless it shares a consumer or a shard with
    /// the batch, which flushes the batch first.
    fn socket_arrivals(&mut self) {
        let root = trace::begin("arrival", u64::from(self.next_query_id));
        let mut batch: Vec<Prepared> = Vec::new();
        if let Some(first) = self.prepare_socket() {
            batch.push(first);
        }
        while matches!(
            self.queue.peek(),
            Some((time, Event::QueryArrival)) if time == self.now
        ) {
            self.queue.pop();
            let Some(prepared) = self.prepare_socket() else {
                continue;
            };
            let conflicts = batch.iter().any(|earlier| {
                earlier.query.consumer == prepared.query.consumer || earlier.shard == prepared.shard
            });
            if conflicts {
                let flushed = std::mem::take(&mut batch);
                self.socket_batch(flushed);
            }
            batch.push(prepared);
        }
        if !batch.is_empty() {
            self.socket_batch(batch);
        }
        trace::end(root);
    }

    fn prepare_socket(&mut self) -> Option<Prepared> {
        let (query, shard) = self.prepare()?;
        let candidates = self.router.providers_of_shard(shard).to_vec();
        self.counts.candidates += candidates.len() as u64;
        Some(Prepared {
            query,
            shard,
            candidates,
        })
    }

    fn socket_batch(&mut self, batch: Vec<Prepared>) {
        let qid = u64::from(batch[0].query.id.raw());
        let now = self.now;
        let open = trace::begin("transport.gather", qid);
        let requests: Vec<(Query, Vec<ProviderId>)> = batch
            .iter()
            .map(|a| (a.query.clone(), a.candidates.clone()))
            .collect();
        let mut all_candidates: Vec<ProviderId> = batch
            .iter()
            .flat_map(|a| a.candidates.iter().copied())
            .collect();
        all_candidates.sort_unstable();
        let Backend::Socket(socket) = &mut self.backend else {
            unreachable!("socket batches run on the socket backend");
        };
        let reputation = &self.reputation;
        let mut jobs = WaveJobs::new();
        for arrival in &batch {
            let consumer = &self.population.consumers[arrival.query.consumer];
            jobs.consumer(arrival.query.consumer, move |decoded| {
                decoded
                    .iter()
                    .map(|(q, cands)| {
                        (
                            q.id,
                            cands
                                .iter()
                                .map(|&p| (p, consumer.intention_for(q, p, reputation)))
                                .collect(),
                        )
                    })
                    .collect()
            });
        }
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
        let gathered = socket.gather(&requests, jobs);
        trace::end(open);
        let round = socket.last_round();
        self.counts.waves += 1;
        self.counts.delivered += round.delivered as u64;
        self.counts.timed_out += round.timed_out as u64;
        self.counts.wave_wait += round.elapsed;
        if round.delivered != round.answered + round.timed_out {
            self.counts.unbalanced_waves += 1;
        }
        let wire_timeouts = socket.timed_out_total() - self.socket_timeouts_seen;
        self.socket_timeouts_seen = socket.timed_out_total();
        if wire_timeouts > 0 {
            self.counts.degraded_waves += 1;
        }
        for (arrival, infos) in batch.iter().zip(gathered) {
            self.infos.clear();
            self.infos.extend(infos);
            self.allocate_and_record(&arrival.query, arrival.shard);
        }
    }

    /// Definition 9 scoring, the mediator's satisfaction record, the
    /// agents' notification and the enqueueing at the selected providers.
    fn allocate_and_record(&mut self, query: &Query, shard: usize) {
        let qid = u64::from(query.id.raw());
        let now = self.now;
        let allocation = trace::span("core.score", qid, || {
            self.allocators[shard].allocate(query, &self.infos, self.router.mediator(shard).state())
        });
        trace::span("core.record", qid, || {
            self.router
                .mediator_mut(shard)
                .state_mut()
                .record_allocation(query, &self.infos, &allocation)
        });

        self.selection.rebuild(&allocation);
        self.shown_cis.clear();
        self.shown_cis
            .extend(self.infos.iter().map(|i| i.consumer_intention));
        self.selected_indices.clear();
        let selection = &self.selection;
        self.selected_indices.extend(
            self.infos
                .iter()
                .enumerate()
                .filter(|(_, i)| selection.contains(i.provider))
                .map(|(idx, _)| idx),
        );
        let open = trace::begin("agents.notify", qid);
        self.population.consumers[query.consumer].record_allocation(
            &self.shown_cis,
            &self.selected_indices,
            query.n,
        );
        for info in &self.infos {
            let performed = self.selection.contains(info.provider);
            self.population.providers[info.provider].record_proposal(
                query,
                info.provider_intention,
                performed,
            );
        }
        let processing: Vec<(ProviderId, SimDuration)> = allocation
            .selected
            .iter()
            .map(|&p| (p, self.population.providers[p].assign(query, now)))
            .collect();
        trace::end(open);

        self.shard_backlog[shard] += query.cost().value() * allocation.selected.len() as f64;
        for (p, processing) in processing {
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

    fn sample(&mut self) {
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

    fn sync(&mut self) {
        // Entries each round exchanges: every shard absorbs every other
        // shard's digest. Counted before the round, outside its span.
        let shards = self.router.shard_count() as u64;
        let exported: u64 = (0..self.router.shard_count())
            .map(|shard| self.router.mediator(shard).export_digest().consumers.len() as u64)
            .sum();
        self.counts.sync_entries += exported * shards.saturating_sub(1);
        trace::span("sim.sync", NO_QUERY, || self.router.sync_views());
        self.counts.sync_rounds += 1;
        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_sync_tick,
            self.config.sync_interval_secs,
            Event::SyncViews,
        );
    }

    const ALLOCATION_IMBALANCE_TRIGGER: f64 = 1.25;
    const MIN_ALLOCATION_DELTA: u64 = 8;
    const MIGRATION_SATISFACTION_WEIGHT: f64 = 0.25;

    fn rebalance(&mut self) {
        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_rebalance_tick,
            self.config.rebalance_interval_secs,
            Event::Rebalance,
        );
        self.rebalance_rounds += 1;
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

    fn rebalance_utilization(&mut self) {
        let now = self.now;
        let mut hottest: Option<(usize, f64)> = None;
        let mut coldest: Option<(usize, f64)> = None;
        for shard in 0..self.router.shard_count() {
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
        let donors = self.router.providers_of_shard(cold);
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
        self.migrate(pick, hot, imbalance);
    }

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
            self.migrate(provider, idle, spread_before);
        }
    }

    fn migrate(&mut self, provider: ProviderId, to: usize, spread_before: f64) {
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
        let migration = trace::span("sim.migrate", u64::from(provider.raw()), || {
            self.router.migrate_provider(provider, to)
        });
        if let Some(migration) = migration {
            let agent = &self.population.providers[provider];
            let capacity = agent.capacity().units_per_sec();
            self.shard_capacity[migration.from] -= capacity;
            self.shard_capacity[migration.to] += capacity;
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
            self.counts.migrations += 1;
        }
    }

    fn churn_depart(&mut self, group: usize) {
        let members = self.groups[group].members.clone();
        let mut departed = Vec::new();
        for id in members {
            if self.population.providers[id].has_departed() {
                continue;
            }
            let open = trace::begin("sim.churn", u64::from(id.raw()));
            self.population.depart_provider(id);
            if let Some(shard) = self.router.shard_of_provider(id) {
                let agent = &self.population.providers[id];
                self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                self.shard_backlog[shard] -= agent.backlog().value();
            }
            self.router.churn_depart(id);
            match &mut self.backend {
                Backend::Reactor(reactor) => reactor.deregister_provider(id),
                Backend::Socket(socket) => socket.deregister_provider(id),
                Backend::Inline => {}
            }
            trace::end(open);
            departed.push(id);
        }
        self.churn_departures += departed.len() as u64;
        self.counts.churn_events += departed.len() as u64;
        self.departed_members[group] = departed;
    }

    fn churn_rejoin(&mut self, group: usize) {
        let members = std::mem::take(&mut self.departed_members[group]);
        let policy = self.groups[group].policy;
        for id in members {
            let open = trace::begin("sim.churn", u64::from(id.raw()));
            let Some(shard) = self
                .router
                .readmit_provider(id, policy == RejoinPolicy::Resume)
            else {
                trace::end(open);
                continue;
            };
            self.population.rejoin_provider(id);
            if policy == RejoinPolicy::Reset {
                self.population.providers[id].reset_satisfaction_history();
            }
            let agent = &self.population.providers[id];
            self.shard_capacity[shard] += agent.capacity().units_per_sec();
            self.shard_backlog[shard] += agent.backlog().value();
            match &mut self.backend {
                Backend::Reactor(reactor) => reactor.register_provider(id, Latency::Immediate),
                Backend::Socket(socket) => socket
                    .register_provider(id)
                    .expect("socket re-registration of a re-joining provider failed"),
                Backend::Inline => {}
            }
            trace::end(open);
            self.churn_rejoins += 1;
            self.counts.churn_events += 1;
        }
    }

    fn finish(&mut self) -> SimulationReport {
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
        let indifferent_replies = match &self.backend {
            Backend::Socket(socket) => socket.timed_out_total(),
            _ => 0,
        };
        SimulationReport {
            method: Workload::METHOD.name().to_string(),
            seed: self.config.seed,
            scenario: String::new(),
            churn_departures: self.churn_departures,
            churn_rejoins: self.churn_rejoins,
            indifferent_replies,
            degraded_waves: self.counts.degraded_waves,
            series: std::mem::take(&mut self.series),
            issued_queries: self.counts.issued,
            completed_queries: self.completed,
            unallocated_queries: self.counts.unallocated,
            response_times: self.response_times.clone(),
            provider_departures: Vec::new(),
            consumer_departures: Vec::new(),
            initial_providers: self.initial_providers,
            initial_consumers: self.initial_consumers,
            mediator_shards: self.router.shard_count(),
            shard_allocations: self.router.allocations_per_shard(),
            sync_rounds: self.router.sync_rounds(),
            routing_policy: self.routing.name().to_string(),
            migrations: std::mem::take(&mut self.migrations),
            rebalance_rounds: self.rebalance_rounds,
            final_utilization: Summary::of(&utilizations),
            final_provider_satisfaction: Summary::of(&provider_satisfaction),
            final_consumer_satisfaction: Summary::of(&consumer_satisfaction),
        }
    }
}

/// The engine's load-adaptive donor score: distance of the donor's
/// windowed throughput from half the gap plus a bounded satisfaction
/// penalty; `None` when moving it could not strictly shrink the gap.
fn donor_score(throughput: u64, gap: u64, satisfaction: f64, weight: f64) -> Option<f64> {
    if throughput == 0 || throughput >= gap {
        return None;
    }
    let target = gap as f64 / 2.0;
    let distance = (throughput as f64 - target).abs();
    Some(distance + satisfaction.clamp(0.0, 1.0) * target * weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_sim::{ChurnGroup, RoutingPolicyKind, Scenario, Simulator, WorkloadPattern};

    fn small(mediation: MediationMode, shards: usize, churn: bool) -> Workload {
        let config = SimulationConfig::scaled(12, 24, 40.0, 5)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_mediation(mediation)
            .with_socket_hosts(1)
            .with_mediator_shards(shards)
            .with_routing(if shards > 1 {
                RoutingPolicyKind::LeastLoaded
            } else {
                RoutingPolicyKind::Static
            })
            .with_migration(shards > 1)
            .with_sync_interval(2.0);
        let mut scenario = Scenario::steady("small");
        if churn {
            scenario.churn.push(ChurnGroup {
                fraction: 0.25,
                depart_at_secs: 10.0,
                rejoin_at_secs: Some(20.0),
                rejoin: RejoinPolicy::Resume,
            });
        }
        Workload {
            name: "small",
            config,
            scenario,
        }
    }

    #[test]
    fn replay_reproduces_the_engine_on_every_backend() {
        let variants = [
            small(MediationMode::Inline, 1, false),
            small(MediationMode::Reactor, 1, false),
            small(MediationMode::Socket, 1, false),
            small(MediationMode::Inline, 4, true),
            small(MediationMode::Reactor, 4, true),
        ];
        for workload in variants {
            let label = format!(
                "{} K={}",
                workload.config.mediation.name(),
                workload.config.mediator_shards
            );
            let engine =
                Simulator::with_scenario(workload.config, Workload::METHOD, &workload.scenario)
                    .unwrap()
                    .run();
            let replay = Replay::new(&workload).unwrap().run();
            assert_eq!(replay.digest, engine.digest(), "{label}");
            assert_eq!(replay.counts.issued, engine.issued_queries, "{label}");
            assert_eq!(replay.counts.sync_rounds, engine.sync_rounds, "{label}");
            assert_eq!(
                replay.counts.migrations,
                engine.migrations.len() as u64,
                "{label}"
            );
            assert_eq!(
                replay.counts.churn_events,
                engine.churn_departures + engine.churn_rejoins,
                "{label}"
            );
            assert_eq!(replay.counts.unbalanced_waves, 0, "{label}");
        }
    }

    #[test]
    fn replay_refuses_what_it_does_not_mirror() {
        let mut workload = small(MediationMode::Inline, 1, false);
        workload.config.providers_may_leave = true;
        assert!(Replay::supports(&workload).is_err());
        let mut workload = small(MediationMode::Inline, 1, false);
        workload.config.capability_matchmaking = true;
        assert!(Replay::new(&workload).is_err());
        assert!(Replay::supports(&small(MediationMode::Socket, 1, false)).is_ok());
    }
}
