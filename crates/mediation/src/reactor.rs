//! The asynchronous mediation reactor.
//!
//! Participant endpoints are *polled state machines* driven by a single
//! event loop rather than one OS thread each, so one host can run tens of
//! thousands of endpoints in one thread.
//!
//! # How a wave runs
//!
//! One mediation round ("wave") multiplexes one batched intention request
//! per distinct participant (Algorithm 1, lines 2–5, over a whole batch of
//! queries). Each endpoint touched by the wave enters a tiny state
//! machine:
//!
//! ```text
//!            deliver                 poll               reply
//!   Idle ──────────────▶ Pending ──────────▶ Ready ────────────▶ Answered
//!                           │ (readiness queue / timer heap)
//!                           │ deadline passes
//!                           ▼
//!                        TimedOut   →   reply read as indifference (0)
//! ```
//!
//! * endpoints whose reply is available immediately go straight onto the
//!   **readiness queue** and are polled by the event loop in FIFO order;
//! * endpoints with a modelled latency ([`Latency::After`]) are parked in
//!   a **timer heap** and re-queued when the reactor's clock reaches their
//!   readiness instant;
//! * endpoints that never answer ([`Latency::Never`]) stay `Pending` until
//!   the **per-wave deadline** (the configured timeout) passes, at which
//!   point every outstanding reply degrades to indifference — exactly the
//!   *waituntil / timeout* step of Algorithm 1, line 5.
//!
//! The reactor clock is **virtual**: it advances to the next timer (or to
//! the deadline) instead of sleeping, so a 50 000-endpoint wave with a
//! 200 ms timeout completes in microseconds of wall time and the
//! timeout-to-indifference transition happens at *exactly* the configured
//! deadline, reproducibly.
//!
//! # Entry points
//!
//! [`AsyncMediator`] is the owned-endpoint facade over
//! [`ConsumerEndpoint`] / [`ProviderEndpoint`] implementations: register
//! endpoints, then call
//! [`AsyncMediator::gather_batch`] / [`AsyncMediator::mediate_batch`] —
//! the native entry points — or the single-query conveniences built on
//! them. Embedders that already own their participants (the simulator
//! engine) build an [`IntentionWave`] directly, borrowing their agents in
//! the wave's jobs, and hand it to [`Reactor::run_wave`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

use sqlb_core::allocation::{Allocation, AllocationMethod, Bid, CandidateInfo};
use sqlb_core::{Mediator, MediatorState};
use sqlb_obs::{Counter, EventKind, Histogram, Obs};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryId};

use crate::runtime::{ConsumerEndpoint, ProviderEndpoint, RuntimeConfig};

/// Pre-resolved observability instruments of a [`Reactor`] — no-op
/// handles until [`Reactor::set_obs`] installs an enabled
/// [`sqlb_obs::Obs`], so the event loop pays one predictable branch per
/// wave when observability is off. Flight-recorder events are stamped
/// with the reactor's *virtual* clock, so a recorded trace lines up
/// with the deterministic simulation timeline rather than wall time.
#[derive(Debug, Default)]
struct ReactorMetrics {
    /// Waves the event loop has run.
    waves: Counter,
    /// Requests delivered to endpoint state machines.
    requests_delivered: Counter,
    /// Replies that arrived before (or exactly at) a deadline.
    replies_answered: Counter,
    /// Requests that degraded to indifference at a deadline.
    replies_timed_out: Counter,
    /// Per-wave virtual gather latency, seconds.
    wave_virtual_seconds: Histogram,
}

impl ReactorMetrics {
    /// Resolves every instrument from `obs` (no-ops when disabled).
    fn resolve(obs: &Obs) -> Self {
        ReactorMetrics {
            waves: obs.counter("reactor_waves"),
            requests_delivered: obs.counter("reactor_requests_delivered"),
            replies_answered: obs.counter("reactor_replies_answered"),
            replies_timed_out: obs.counter("reactor_replies_timed_out"),
            wave_virtual_seconds: obs.histogram("reactor_wave_virtual_seconds"),
        }
    }
}

/// When an endpoint's reply becomes available after a request is
/// delivered to it.
///
/// The reactor interprets delays in *virtual* time (its clock jumps, it
/// never sleeps); a reply that would land after the wave deadline is read
/// as indifference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Latency {
    /// The reply is available as soon as the event loop polls the
    /// endpoint (an in-process participant).
    #[default]
    Immediate,
    /// The reply becomes available after the given delay (a remote or
    /// busy participant). A delay at or under the wave timeout arrives; a
    /// longer one degrades to indifference.
    After(Duration),
    /// The endpoint never answers (crashed or partitioned participant);
    /// every reply expected from it degrades to indifference when the
    /// deadline passes.
    Never,
}

/// A consumer's reply to one wave: per query, its intention towards every
/// candidate provider of that query (the vector `CI_q`, Definition 7).
pub type ConsumerBatchAnswer = Vec<(QueryId, Vec<(ProviderId, f64)>)>;

/// A provider's reply to one wave: one [`ProviderAnswer`] per query of the
/// wave that listed it as a candidate.
pub type ProviderBatchAnswer = Vec<ProviderAnswer>;

/// One provider's answer for one query of a wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderAnswer {
    /// The query the answer is about.
    pub query: QueryId,
    /// The provider's intention `pi_p(q)` (Definition 8).
    pub intention: f64,
    /// The provider's current utilization, as shown to the mediator
    /// (methods that do not read it ignore it; the Capacity-based
    /// baseline relies on it).
    pub utilization: f64,
    /// The provider's bid, when the wave requested one (economic
    /// methods).
    pub bid: Option<Bid>,
}

type ConsumerJob<'a> = Box<dyn FnOnce() -> ConsumerBatchAnswer + 'a>;
type ProviderJob<'a> = Box<dyn FnOnce() -> ProviderBatchAnswer + 'a>;

/// A consumer endpoint temporarily detached from the facade for one wave,
/// together with its share of the wave's requests.
type DetachedConsumer = (
    ConsumerId,
    Box<dyn ConsumerEndpoint>,
    Vec<(Query, Vec<ProviderId>)>,
);
/// A provider endpoint temporarily detached from the facade for one wave.
type DetachedProvider = (ProviderId, Box<dyn ProviderEndpoint>, Vec<Query>);

struct ConsumerTask<'a> {
    id: ConsumerId,
    latency: Option<Latency>,
    job: ConsumerJob<'a>,
}

struct ProviderTask<'a> {
    id: ProviderId,
    latency: Option<Latency>,
    job: ProviderJob<'a>,
}

/// One wave of intention requests: at most one batched request per
/// distinct participant, each carried by a *job* (the closure that
/// computes the participant's reply when its state machine reaches
/// `Ready`).
///
/// Jobs may borrow the caller's participant state — the simulator builds
/// waves whose jobs borrow its agents directly — which is why the wave is
/// lifetime-parameterized and consumed by a single run.
#[derive(Default)]
pub struct IntentionWave<'a> {
    consumers: Vec<ConsumerTask<'a>>,
    providers: Vec<ProviderTask<'a>>,
}

impl<'a> IntentionWave<'a> {
    /// Creates an empty wave.
    pub fn new() -> Self {
        IntentionWave::default()
    }

    /// Adds a consumer's batched intention request. `latency` overrides
    /// the endpoint's latency for this wave; `None` means the reactor
    /// falls back to the endpoint's registered profile.
    pub fn consumer(
        &mut self,
        id: ConsumerId,
        latency: Option<Latency>,
        job: impl FnOnce() -> ConsumerBatchAnswer + 'a,
    ) {
        self.consumers.push(ConsumerTask {
            id,
            latency,
            job: Box::new(job),
        });
    }

    /// Adds a provider's batched intention request. `latency` overrides
    /// the endpoint's latency for this wave; `None` resolves as described
    /// on [`IntentionWave::consumer`].
    pub fn provider(
        &mut self,
        id: ProviderId,
        latency: Option<Latency>,
        job: impl FnOnce() -> ProviderBatchAnswer + 'a,
    ) {
        self.providers.push(ProviderTask {
            id,
            latency,
            job: Box::new(job),
        });
    }

    /// Number of participant requests in the wave.
    pub fn len(&self) -> usize {
        self.consumers.len() + self.providers.len()
    }

    /// Whether the wave carries no request at all.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty() && self.providers.is_empty()
    }
}

/// The replies of one wave, in the order the requests were added.
/// `None` marks a participant whose reply missed the deadline (or that
/// never answers): every value expected from it is read as indifference.
pub struct WaveReplies {
    /// Per consumer request: the consumer and its reply, if it arrived.
    pub consumers: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)>,
    /// Per provider request: the provider and its reply, if it arrived.
    pub providers: Vec<(ProviderId, Option<ProviderBatchAnswer>)>,
}

impl WaveReplies {
    /// Assembles the candidate information of a batch of queries from the
    /// wave's replies — one [`CandidateInfo`] vector per input query, in
    /// input order, with indifference (`0`) filled in for every missing
    /// answer (Algorithm 1, line 5).
    pub fn into_candidate_infos(
        self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<Vec<CandidateInfo>> {
        let mut consumer_intentions: HashMap<(QueryId, ProviderId), f64> = HashMap::new();
        for (_, reply) in self.consumers {
            let Some(reply) = reply else { continue };
            for (query, per_provider) in reply {
                for (provider, intention) in per_provider {
                    consumer_intentions.insert((query, provider), intention);
                }
            }
        }
        let mut provider_answers: HashMap<(QueryId, ProviderId), ProviderAnswer> = HashMap::new();
        for (provider, reply) in self.providers {
            let Some(reply) = reply else { continue };
            for answer in reply {
                provider_answers.insert((answer.query, provider), answer);
            }
        }
        requests
            .iter()
            .map(|(query, candidates)| {
                candidates
                    .iter()
                    .map(|&p| {
                        let ci = consumer_intentions
                            .get(&(query.id, p))
                            .copied()
                            .unwrap_or(0.0);
                        let answer = provider_answers.get(&(query.id, p));
                        let mut info = CandidateInfo::new(p)
                            .with_consumer_intention(ci)
                            .with_provider_intention(answer.map_or(0.0, |a| a.intention))
                            .with_utilization(answer.map_or(0.0, |a| a.utilization));
                        if let Some(bid) = answer.and_then(|a| a.bid) {
                            info = info.with_bid(bid);
                        }
                        info
                    })
                    .collect()
            })
            .collect()
    }
}

/// What happened during one wave, in the reactor's virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStats {
    /// Identifier of the wave (1-based, monotonically increasing).
    pub wave: u64,
    /// Requests delivered to endpoints.
    pub delivered: usize,
    /// Replies that arrived before (or exactly at) the deadline.
    pub answered: usize,
    /// Requests still outstanding when the deadline passed; their values
    /// were read as indifference.
    pub timed_out: usize,
    /// Virtual time the wave took: the arrival instant of the last reply,
    /// or exactly the configured timeout when any endpoint timed out.
    pub virtual_elapsed: Duration,
    /// Whether the wave ran into its deadline (`timed_out > 0`).
    pub hit_deadline: bool,
}

/// Per-endpoint bookkeeping the reactor keeps for registered endpoints.
#[derive(Debug, Clone, Copy, Default)]
struct EndpointProfile {
    latency: Latency,
    waves_served: u64,
    timeouts: u64,
}

/// The mediation reactor: a single-threaded event loop driving
/// participant-endpoint state machines over a virtual clock.
///
/// Registration is light (one small profile per endpoint, no thread, no
/// channel), which is what lets one reactor track tens of thousands of
/// endpoints. Waves reference endpoints by id; an id that was never
/// registered is served with the default profile (its reply is
/// [`Latency::Immediate`]).
pub struct Reactor {
    config: RuntimeConfig,
    consumers: HashMap<ConsumerId, EndpointProfile>,
    providers: HashMap<ProviderId, EndpointProfile>,
    /// Virtual clock, in nanoseconds. Advances monotonically across waves.
    now_nanos: u64,
    waves: u64,
    last_round: RoundStats,
    /// Observability sink (disabled by default).
    obs: Obs,
    /// Pre-resolved instruments (see [`ReactorMetrics`]).
    metrics: ReactorMetrics,
}

impl Reactor {
    /// Creates a reactor with the given timeout/bid configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Reactor {
            config,
            consumers: HashMap::new(),
            providers: HashMap::new(),
            now_nanos: 0,
            waves: 0,
            last_round: RoundStats::default(),
            obs: Obs::disabled(),
            metrics: ReactorMetrics::default(),
        }
    }

    /// The reactor's configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// Installs an observability sink and resolves the reactor's
    /// instruments against it. Wave events recorded from here on are
    /// stamped with the reactor's virtual clock. With a disabled sink
    /// (the default) every instrument stays a no-op and the event loop
    /// is unchanged.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.metrics = ReactorMetrics::resolve(obs);
        self.obs = obs.clone();
    }

    /// Registers a consumer endpoint with a latency profile.
    pub fn register_consumer(&mut self, id: ConsumerId, latency: Latency) {
        self.consumers.insert(
            id,
            EndpointProfile {
                latency,
                ..EndpointProfile::default()
            },
        );
    }

    /// Registers a provider endpoint with a latency profile.
    pub fn register_provider(&mut self, id: ProviderId, latency: Latency) {
        self.providers.insert(
            id,
            EndpointProfile {
                latency,
                ..EndpointProfile::default()
            },
        );
    }

    /// Removes a consumer endpoint (e.g. on departure).
    pub fn deregister_consumer(&mut self, id: ConsumerId) {
        self.consumers.remove(&id);
    }

    /// Removes a provider endpoint (e.g. on departure).
    pub fn deregister_provider(&mut self, id: ProviderId) {
        self.providers.remove(&id);
    }

    /// Number of registered consumer endpoints.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// Number of registered provider endpoints.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Number of waves the reactor has run.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// The reactor's virtual clock (total virtual time across all waves).
    pub fn virtual_now(&self) -> Duration {
        Duration::from_nanos(self.now_nanos)
    }

    /// Statistics of the most recent wave.
    pub fn last_round(&self) -> RoundStats {
        self.last_round
    }

    /// How many waves a registered provider endpoint missed the deadline
    /// of (0 for unregistered ids).
    pub fn provider_timeouts(&self, id: ProviderId) -> u64 {
        self.providers.get(&id).map_or(0, |p| p.timeouts)
    }

    /// Runs one wave to completion on the event loop and returns its
    /// replies.
    ///
    /// The loop drains the readiness queue, advancing the virtual clock
    /// to the next parked timer whenever the queue runs dry, until every
    /// reply has arrived or the clock reaches the wave deadline — at
    /// which point every outstanding request is marked timed out and its
    /// values degrade to indifference.
    pub fn run_wave(&mut self, wave: IntentionWave<'_>) -> WaveReplies {
        self.waves += 1;
        let start = self.now_nanos;
        let timeout_nanos = duration_nanos(self.config.timeout);
        let deadline = start.saturating_add(timeout_nanos);

        let consumer_count = wave.consumers.len();
        let total = wave.consumers.len() + wave.providers.len();
        self.metrics.waves.inc();
        self.metrics.requests_delivered.add(total as u64);
        if self.obs.is_enabled() {
            self.obs.record(
                Duration::from_nanos(start).as_secs_f64(),
                EventKind::WaveBegun {
                    wave: self.waves,
                    delivered: total as u64,
                },
            );
        }

        // Per-task job + reply storage. Tokens < consumer_count index the
        // consumer tasks; the rest index the provider tasks.
        let mut consumer_jobs: Vec<Option<ConsumerJob<'_>>> = Vec::with_capacity(consumer_count);
        let mut consumer_replies: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)> =
            Vec::with_capacity(consumer_count);
        let mut provider_jobs: Vec<Option<ProviderJob<'_>>> =
            Vec::with_capacity(wave.providers.len());
        let mut provider_replies: Vec<(ProviderId, Option<ProviderBatchAnswer>)> =
            Vec::with_capacity(wave.providers.len());

        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut timers: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut pending = vec![true; total];

        // Delivery: every task enters the state machine according to its
        // effective latency (wave override, else registered profile).
        for (token, task) in wave.consumers.into_iter().enumerate() {
            let profile = self.consumers.get(&task.id).copied().unwrap_or_default();
            Self::deliver(
                token,
                task.latency.unwrap_or(profile.latency),
                start,
                deadline,
                &mut ready,
                &mut timers,
            );
            consumer_jobs.push(Some(task.job));
            consumer_replies.push((task.id, None));
        }
        for (i, task) in wave.providers.into_iter().enumerate() {
            let token = consumer_count + i;
            let profile = self.providers.get(&task.id).copied().unwrap_or_default();
            Self::deliver(
                token,
                task.latency.unwrap_or(profile.latency),
                start,
                deadline,
                &mut ready,
                &mut timers,
            );
            provider_jobs.push(Some(task.job));
            provider_replies.push((task.id, None));
        }

        // The event loop.
        let mut answered = 0usize;
        let mut clock = start;
        loop {
            while let Some(token) = ready.pop_front() {
                if token < consumer_count {
                    let job = consumer_jobs[token].take().expect("job polled once");
                    consumer_replies[token].1 = Some(job());
                } else {
                    let job = provider_jobs[token - consumer_count]
                        .take()
                        .expect("job polled once");
                    provider_replies[token - consumer_count].1 = Some(job());
                }
                pending[token] = false;
                answered += 1;
            }
            if answered == total {
                break;
            }
            match timers.pop() {
                // A parked endpoint becomes ready: advance the clock to
                // its readiness instant and poll it on the next turn.
                Some(Reverse((at, token))) => {
                    clock = at;
                    ready.push_back(token);
                }
                // Nothing can become ready before the deadline: the wave
                // times out *exactly* at the deadline.
                None => {
                    clock = deadline;
                    break;
                }
            }
        }

        let timed_out = total - answered;
        self.now_nanos = clock;
        self.last_round = RoundStats {
            wave: self.waves,
            delivered: total,
            answered,
            timed_out,
            virtual_elapsed: Duration::from_nanos(clock - start),
            hit_deadline: timed_out > 0,
        };
        self.metrics.replies_answered.add(answered as u64);
        self.metrics
            .wave_virtual_seconds
            .record(self.last_round.virtual_elapsed.as_secs_f64());
        if timed_out > 0 {
            self.metrics.replies_timed_out.add(timed_out as u64);
            if self.obs.is_enabled() {
                self.obs.record(
                    Duration::from_nanos(clock).as_secs_f64(),
                    EventKind::TimeoutIndifference {
                        wave: self.waves,
                        count: timed_out as u64,
                    },
                );
            }
        }

        // Lifetime bookkeeping on the registered profiles.
        for (token, (id, reply)) in consumer_replies.iter().enumerate() {
            if let Some(profile) = self.consumers.get_mut(id) {
                profile.waves_served += 1;
                if pending[token] && reply.is_none() {
                    profile.timeouts += 1;
                }
            }
        }
        for (i, (id, reply)) in provider_replies.iter().enumerate() {
            if let Some(profile) = self.providers.get_mut(id) {
                profile.waves_served += 1;
                if pending[consumer_count + i] && reply.is_none() {
                    profile.timeouts += 1;
                }
            }
        }

        WaveReplies {
            consumers: consumer_replies,
            providers: provider_replies,
        }
    }

    /// Enters one task into the wave's scheduling structures.
    fn deliver(
        token: usize,
        latency: Latency,
        start: u64,
        deadline: u64,
        ready: &mut VecDeque<usize>,
        timers: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ) {
        match latency {
            Latency::Immediate => ready.push_back(token),
            Latency::After(delay) => {
                let at = start.saturating_add(duration_nanos(delay));
                // A reply landing exactly at the deadline still counts as
                // arrived; anything later can never be polled in time.
                if at <= deadline {
                    timers.push(Reverse((at, token)));
                }
            }
            Latency::Never => {}
        }
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("consumers", &self.consumers.len())
            .field("providers", &self.providers.len())
            .field("waves", &self.waves)
            .field("virtual_now", &self.virtual_now())
            .finish()
    }
}

fn duration_nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// The owned-endpoint facade over the reactor, with
/// [`AsyncMediator::gather_batch`] and [`AsyncMediator::mediate_batch`]
/// as the native entry points.
///
/// Endpoints implement [`ConsumerEndpoint`] / [`ProviderEndpoint`]; their
/// [`ConsumerEndpoint::latency`] / [`ProviderEndpoint::latency`] hooks
/// tell the reactor when each reply becomes available.
///
/// ```
/// use sqlb_mediation::{AsyncMediator, ConsumerEndpoint, ProviderEndpoint, RuntimeConfig};
/// use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};
///
/// struct Eager(f64);
/// impl ConsumerEndpoint for Eager {
///     fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
///         candidates.iter().map(|&p| (p, self.0)).collect()
///     }
/// }
/// impl ProviderEndpoint for Eager {
///     fn intention(&mut self, _q: &Query) -> f64 {
///         self.0
///     }
/// }
///
/// let mut mediator = AsyncMediator::new(RuntimeConfig::default());
/// mediator.register_consumer(ConsumerId::new(0), Eager(0.5));
/// mediator.register_provider(ProviderId::new(0), Eager(0.8));
/// mediator.register_provider(ProviderId::new(1), Eager(-0.2));
///
/// let query = Query::single(QueryId::new(1), ConsumerId::new(0), QueryClass::Light, SimTime::ZERO);
/// let candidates = vec![ProviderId::new(0), ProviderId::new(1)];
/// let infos = mediator.gather_batch(&[(query, candidates)]);
/// assert_eq!(infos[0][0].provider_intention, 0.8);
/// assert_eq!(infos[0][1].provider_intention, -0.2);
/// assert_eq!(infos[0][0].consumer_intention, 0.5);
/// ```
pub struct AsyncMediator {
    reactor: Reactor,
    consumers: BTreeMap<ConsumerId, Box<dyn ConsumerEndpoint>>,
    providers: BTreeMap<ProviderId, Box<dyn ProviderEndpoint>>,
}

impl AsyncMediator {
    /// Creates an empty asynchronous mediator.
    pub fn new(config: RuntimeConfig) -> Self {
        AsyncMediator {
            reactor: Reactor::new(config),
            consumers: BTreeMap::new(),
            providers: BTreeMap::new(),
        }
    }

    /// Registers a consumer endpoint. No thread is spawned: the endpoint
    /// becomes a state machine polled by the reactor's event loop.
    pub fn register_consumer(&mut self, id: ConsumerId, endpoint: impl ConsumerEndpoint) {
        self.reactor.register_consumer(id, Latency::Immediate);
        self.consumers.insert(id, Box::new(endpoint));
    }

    /// Registers a provider endpoint.
    pub fn register_provider(&mut self, id: ProviderId, endpoint: impl ProviderEndpoint) {
        self.reactor.register_provider(id, Latency::Immediate);
        self.providers.insert(id, Box::new(endpoint));
    }

    /// Removes a provider endpoint (e.g. on departure).
    pub fn deregister_provider(&mut self, id: ProviderId) {
        self.reactor.deregister_provider(id);
        self.providers.remove(&id);
    }

    /// Removes a consumer endpoint.
    pub fn deregister_consumer(&mut self, id: ConsumerId) {
        self.reactor.deregister_consumer(id);
        self.consumers.remove(&id);
    }

    /// Number of registered providers.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Number of registered consumers.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// The underlying reactor (wave statistics, virtual clock).
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Gathers the candidate information for a batch of queries in one
    /// wave: one batched request per distinct consumer and per distinct
    /// candidate provider, multiplexed by the reactor, with per-endpoint
    /// deadline tracking. Missing answers (unregistered endpoints,
    /// replies past the deadline) are read as indifference (`0`).
    ///
    /// Returns one candidate-info vector per input query, in input order.
    pub fn gather_batch(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<Vec<CandidateInfo>> {
        if requests.is_empty() {
            return Vec::new();
        }
        // One request per distinct participant (BTreeMaps keep delivery
        // order deterministic).
        let mut by_consumer: BTreeMap<ConsumerId, Vec<(Query, Vec<ProviderId>)>> = BTreeMap::new();
        let mut by_provider: BTreeMap<ProviderId, Vec<Query>> = BTreeMap::new();
        for (query, candidates) in requests {
            by_consumer
                .entry(query.consumer)
                .or_default()
                .push((query.clone(), candidates.clone()));
            for provider in candidates {
                by_provider
                    .entry(*provider)
                    .or_default()
                    .push(query.clone());
            }
        }

        // Detach exactly the endpoints the wave addresses, so a wave
        // costs O(participants · log registered) — a single-query gather
        // against 50 000 registered endpoints must not walk all 50 000.
        // Detached endpoints are reattached after the wave; an id with no
        // registered endpoint simply yields no job (→ indifference).
        let request_bids = self.reactor.config.request_bids;
        let mut consumer_tasks: Vec<DetachedConsumer> = by_consumer
            .into_iter()
            .filter_map(|(id, reqs)| self.consumers.remove(&id).map(|e| (id, e, reqs)))
            .collect();
        let mut provider_tasks: Vec<DetachedProvider> = by_provider
            .into_iter()
            .filter_map(|(id, queries)| self.providers.remove(&id).map(|e| (id, e, queries)))
            .collect();

        let mut wave = IntentionWave::new();
        for (id, endpoint, consumer_requests) in consumer_tasks.iter_mut() {
            let latency = endpoint.latency();
            wave.consumer(*id, Some(latency), move || {
                endpoint.intentions_batch(consumer_requests)
            });
        }
        for (id, endpoint, queries) in provider_tasks.iter_mut() {
            let latency = endpoint.latency();
            wave.provider(*id, Some(latency), move || {
                let utilization = endpoint.utilization();
                endpoint
                    .intention_batch(queries, request_bids)
                    .into_iter()
                    .map(|(query, intention, bid)| ProviderAnswer {
                        query,
                        intention,
                        utilization,
                        bid,
                    })
                    .collect()
            });
        }

        let replies = self.reactor.run_wave(wave);
        for (id, endpoint, _) in consumer_tasks {
            self.consumers.insert(id, endpoint);
        }
        for (id, endpoint, _) in provider_tasks {
            self.providers.insert(id, endpoint);
        }
        replies.into_candidate_infos(requests)
    }

    /// Single-query convenience over [`AsyncMediator::gather_batch`].
    pub fn gather(&mut self, query: &Query, candidates: &[ProviderId]) -> Vec<CandidateInfo> {
        let requests = [(query.clone(), candidates.to_vec())];
        self.gather_batch(&requests)
            .into_iter()
            .next()
            .unwrap_or_default()
    }

    /// Runs Algorithm 1 for a whole batch of queries: one gather wave,
    /// then an allocation decision per query (recorded in the mediator
    /// state) and the result notifications. Returns one allocation per
    /// input query, in input order.
    pub fn mediate_batch<M: AllocationMethod>(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
        method: &mut M,
        state: &mut MediatorState,
    ) -> Vec<Allocation> {
        let infos = self.gather_batch(requests);
        requests
            .iter()
            .zip(&infos)
            .map(|((query, candidates), query_infos)| {
                let allocation = method.allocate(query, query_infos, state);
                state.record_allocation(query, query_infos, &allocation);
                self.notify(query, candidates, &allocation);
                allocation
            })
            .collect()
    }

    /// Runs Algorithm 1 for a whole batch against a [`Mediator`] (the
    /// packaged method + satisfaction state of `sqlb-core`): one gather
    /// wave, then [`Mediator::allocate_batch`], then the notifications.
    pub fn mediate_batch_with(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
        mediator: &mut Mediator,
    ) -> Vec<Allocation> {
        let infos = self.gather_batch(requests);
        let queries: Vec<&Query> = requests.iter().map(|(query, _)| query).collect();
        let allocations = mediator.allocate_batch(&queries, &infos);
        for ((query, candidates), allocation) in requests.iter().zip(&allocations) {
            self.notify(query, candidates, allocation);
        }
        allocations
    }

    /// Single-query convenience over [`AsyncMediator::mediate_batch`].
    pub fn mediate<M: AllocationMethod>(
        &mut self,
        query: &Query,
        candidates: &[ProviderId],
        method: &mut M,
        state: &mut MediatorState,
    ) -> Allocation {
        let requests = [(query.clone(), candidates.to_vec())];
        self.mediate_batch(&requests, method, state)
            .into_iter()
            .next()
            .expect("one allocation per query")
    }

    /// Notifies every candidate of the mediation result and the consumer
    /// of its allocation (Algorithm 1, lines 9–10). Delivery is
    /// synchronous and in candidate order — the reactor has no detached
    /// threads for notices to trail behind on.
    pub fn notify(&mut self, query: &Query, candidates: &[ProviderId], allocation: &Allocation) {
        for provider in candidates {
            if let Some(endpoint) = self.providers.get_mut(provider) {
                endpoint.allocation_notice(query.id, allocation.is_selected(*provider));
            }
        }
        if let Some(endpoint) = self.consumers.get_mut(&query.consumer) {
            endpoint.allocation_result(query.id, &allocation.selected);
        }
    }
}

impl std::fmt::Debug for AsyncMediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncMediator")
            .field("consumers", &self.consumers.len())
            .field("providers", &self.providers.len())
            .field("reactor", &self.reactor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_core::mediator_state::MediatorStateConfig;
    use sqlb_core::SqlbAllocator;
    use sqlb_types::{MediatorId, QueryClass, SimTime};

    struct CannedConsumer {
        values: Vec<f64>,
        results: Vec<Vec<ProviderId>>,
    }

    impl ConsumerEndpoint for CannedConsumer {
        fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
            candidates
                .iter()
                .map(|&p| (p, self.values.get(p.index()).copied().unwrap_or(0.0)))
                .collect()
        }
        fn allocation_result(&mut self, _query: QueryId, providers: &[ProviderId]) {
            self.results.push(providers.to_vec());
        }
    }

    struct CannedProvider {
        value: f64,
        latency: Latency,
        bid: Option<Bid>,
        notices: Vec<(QueryId, bool)>,
    }

    impl ProviderEndpoint for CannedProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn bid(&mut self, _q: &Query) -> Option<Bid> {
            self.bid
        }
        fn latency(&mut self) -> Latency {
            self.latency
        }
        fn allocation_notice(&mut self, query: QueryId, selected: bool) {
            self.notices.push((query, selected));
        }
    }

    fn query(id: u32) -> Query {
        Query::single(
            QueryId::new(id),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    fn mediator_with(
        provider_values: &[(f64, Latency)],
        consumer_values: Vec<f64>,
        config: RuntimeConfig,
    ) -> AsyncMediator {
        let mut mediator = AsyncMediator::new(config);
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: consumer_values,
                results: Vec::new(),
            },
        );
        for (i, &(value, latency)) in provider_values.iter().enumerate() {
            mediator.register_provider(
                ProviderId::new(i as u32),
                CannedProvider {
                    value,
                    latency,
                    bid: Some(Bid::new(100.0 * (i as f64 + 1.0), 1.0)),
                    notices: Vec::new(),
                },
            );
        }
        mediator
    }

    #[test]
    fn immediate_endpoints_answer_in_zero_virtual_time() {
        let mut mediator = mediator_with(
            &[(0.8, Latency::Immediate), (-0.2, Latency::Immediate)],
            vec![0.5, 0.9],
            RuntimeConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.8);
        assert_eq!(infos[1].provider_intention, -0.2);
        assert_eq!(infos[0].consumer_intention, 0.5);
        assert!(infos[0].bid.is_none(), "bids are not requested by default");
        let round = mediator.reactor().last_round();
        assert_eq!(round.answered, 3);
        assert_eq!(round.timed_out, 0);
        assert_eq!(round.virtual_elapsed, Duration::ZERO);
        assert!(!round.hit_deadline);
    }

    #[test]
    fn modelled_latency_below_the_timeout_arrives_at_its_instant() {
        let mut mediator = mediator_with(
            &[
                (0.7, Latency::Immediate),
                (1.0, Latency::After(Duration::from_millis(150))),
            ],
            vec![0.9, 0.9],
            RuntimeConfig::default(), // 200 ms timeout
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(
            infos[1].provider_intention, 1.0,
            "150 ms beats the 200 ms deadline"
        );
        let round = mediator.reactor().last_round();
        assert_eq!(round.virtual_elapsed, Duration::from_millis(150));
        assert!(!round.hit_deadline);
    }

    #[test]
    fn never_answering_endpoint_degrades_at_exactly_the_deadline() {
        let timeout = Duration::from_millis(80);
        let mut mediator = mediator_with(
            &[(0.7, Latency::Immediate), (1.0, Latency::Never)],
            vec![0.9, 0.9],
            RuntimeConfig {
                timeout,
                request_bids: false,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.7);
        assert_eq!(
            infos[1].provider_intention, 0.0,
            "a silent endpoint is read as indifferent"
        );
        let round = mediator.reactor().last_round();
        assert_eq!(round.timed_out, 1);
        assert!(round.hit_deadline);
        assert_eq!(
            round.virtual_elapsed, timeout,
            "the degradation happens at exactly the configured deadline"
        );
        assert_eq!(mediator.reactor().provider_timeouts(ProviderId::new(1)), 1);
        assert_eq!(mediator.reactor().provider_timeouts(ProviderId::new(0)), 0);
    }

    #[test]
    fn latency_beyond_the_timeout_degrades_to_indifference() {
        let mut mediator = mediator_with(
            &[
                (0.7, Latency::Immediate),
                (1.0, Latency::After(Duration::from_millis(500))),
            ],
            vec![0.9, 0.9],
            RuntimeConfig {
                timeout: Duration::from_millis(50),
                request_bids: false,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[1].provider_intention, 0.0);
        assert_eq!(
            mediator.reactor().last_round().virtual_elapsed,
            Duration::from_millis(50)
        );
    }

    #[test]
    fn a_reply_landing_exactly_at_the_deadline_still_counts() {
        let timeout = Duration::from_millis(100);
        let mut mediator = mediator_with(
            &[(0.6, Latency::After(timeout))],
            vec![0.5],
            RuntimeConfig {
                timeout,
                request_bids: false,
            },
        );
        let infos = mediator.gather(&query(1), &[ProviderId::new(0)]);
        assert_eq!(infos[0].provider_intention, 0.6);
        assert!(!mediator.reactor().last_round().hit_deadline);
    }

    #[test]
    fn virtual_clock_accumulates_across_waves() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::After(Duration::from_millis(30)))],
            vec![0.5],
            RuntimeConfig::default(),
        );
        for i in 0..3 {
            mediator.gather(&query(i), &[ProviderId::new(0)]);
        }
        assert_eq!(mediator.reactor().waves(), 3);
        assert_eq!(mediator.reactor().virtual_now(), Duration::from_millis(90));
    }

    /// A provider endpoint that counts batched requests, to pin the
    /// one-round-trip-per-participant property of a wave.
    struct CountingProvider {
        value: f64,
        requests: u32,
    }

    impl ProviderEndpoint for CountingProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn intention_batch(
            &mut self,
            queries: &[Query],
            request_bids: bool,
        ) -> Vec<(QueryId, f64, Option<Bid>)> {
            self.requests += 1;
            queries
                .iter()
                .map(|q| {
                    (
                        q.id,
                        self.value,
                        if request_bids { self.bid(q) } else { None },
                    )
                })
                .collect()
        }
    }

    #[test]
    fn gather_batch_multiplexes_one_request_per_participant() {
        let mut mediator = AsyncMediator::new(RuntimeConfig::default());
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.5, -0.25],
                results: Vec::new(),
            },
        );
        for (i, value) in [0.8, -0.2].into_iter().enumerate() {
            mediator.register_provider(
                ProviderId::new(i as u32),
                CountingProvider { value, requests: 0 },
            );
        }
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..5).map(|i| (query(i), candidates.clone())).collect();
        let infos = mediator.gather_batch(&batch);
        assert_eq!(infos.len(), 5);
        for per_query in &infos {
            assert_eq!(per_query[0].provider_intention, 0.8);
            assert_eq!(per_query[1].provider_intention, -0.2);
            assert_eq!(per_query[0].consumer_intention, 0.5);
            assert_eq!(per_query[1].consumer_intention, -0.25);
        }
        // 5 queries, 2 candidate providers: exactly 3 requests delivered
        // (1 consumer + 2 providers), each answered in one reply.
        assert_eq!(mediator.reactor().last_round().delivered, 3);
        assert_eq!(mediator.reactor().last_round().answered, 3);
    }

    #[test]
    fn gather_batch_of_nothing_is_empty() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate)],
            vec![0.5],
            RuntimeConfig::default(),
        );
        assert!(mediator.gather_batch(&[]).is_empty());
    }

    #[test]
    fn unknown_participants_default_to_indifference() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate)],
            vec![0.5],
            RuntimeConfig::default(),
        );
        let candidates = vec![ProviderId::new(0), ProviderId::new(9)];
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.5);
        assert_eq!(infos[1].provider_intention, 0.0);
        assert_eq!(infos[1].consumer_intention, 0.0);
    }

    #[test]
    fn mediate_batch_allocates_and_notifies_synchronously() {
        let mut mediator = mediator_with(
            &[(0.9, Latency::Immediate), (0.4, Latency::Immediate)],
            vec![0.8, 0.8],
            RuntimeConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..3).map(|i| (query(i), candidates.clone())).collect();
        let mut method = SqlbAllocator::new();
        let mut state = MediatorState::paper_default();
        let allocations = mediator.mediate_batch(&batch, &mut method, &mut state);
        assert_eq!(allocations.len(), 3);
        for allocation in &allocations {
            assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
        }
        assert_eq!(state.allocations(), 3);
        // Notices are delivered synchronously: no waiting, no threads.
        // (Endpoints are owned by the mediator; drop it to inspect them is
        // not needed — the counters live in the reactor.)
        assert_eq!(mediator.reactor().waves(), 1, "one wave serves the batch");
    }

    #[test]
    fn mediate_batch_with_a_core_mediator_uses_the_batched_seam() {
        let mut mediator = mediator_with(
            &[(0.9, Latency::Immediate), (0.4, Latency::Immediate)],
            vec![0.8, 0.8],
            RuntimeConfig::default(),
        );
        let mut core = Mediator::new(
            MediatorId::new(0),
            Box::new(SqlbAllocator::new()),
            MediatorStateConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..4).map(|i| (query(i), candidates.clone())).collect();
        let allocations = mediator.mediate_batch_with(&batch, &mut core);
        assert_eq!(allocations.len(), 4);
        assert_eq!(core.state().allocations(), 4);
    }

    /// A provider endpoint that reports a non-idle utilization.
    struct BusyProvider {
        value: f64,
        utilization: f64,
    }

    impl ProviderEndpoint for BusyProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn utilization(&mut self) -> f64 {
            self.utilization
        }
    }

    #[test]
    fn reported_utilization_reaches_the_candidate_info() {
        // Utilization-aware methods (the Capacity-based baseline) read
        // `CandidateInfo::utilization`; the facade must carry the
        // endpoint's reported value, not assume idle.
        let mut mediator = AsyncMediator::new(RuntimeConfig::default());
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.5, 0.5],
                results: Vec::new(),
            },
        );
        mediator.register_provider(
            ProviderId::new(0),
            BusyProvider {
                value: 0.5,
                utilization: 0.85,
            },
        );
        mediator.register_provider(
            ProviderId::new(1),
            BusyProvider {
                value: 0.5,
                utilization: 0.1,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].utilization, 0.85);
        assert_eq!(infos[1].utilization, 0.1);
    }

    #[test]
    fn bids_are_gathered_when_requested() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate), (0.5, Latency::Immediate)],
            vec![0.5, 0.5],
            RuntimeConfig {
                timeout: Duration::from_millis(500),
                request_bids: true,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].bid.unwrap().price, 100.0);
        assert_eq!(infos[1].bid.unwrap().price, 200.0);
    }

    #[test]
    fn deregistering_silences_an_endpoint() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate), (0.6, Latency::Immediate)],
            vec![0.5, 0.5],
            RuntimeConfig::default(),
        );
        assert_eq!(mediator.provider_count(), 2);
        assert_eq!(mediator.consumer_count(), 1);
        mediator.deregister_provider(ProviderId::new(1));
        assert_eq!(mediator.provider_count(), 1);
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[1].provider_intention, 0.0);
    }

    #[test]
    fn wave_len_and_empty() {
        let mut wave = IntentionWave::new();
        assert!(wave.is_empty());
        wave.provider(ProviderId::new(0), None, Vec::new);
        assert_eq!(wave.len(), 1);
        assert!(!wave.is_empty());
    }
}
