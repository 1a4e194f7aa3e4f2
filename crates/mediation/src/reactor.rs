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
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::Duration;

use sqlb_core::allocation::{Allocation, AllocationMethod, Bid, CandidateInfo};
use sqlb_core::{Mediator, MediatorState};
use sqlb_obs::{Counter, EventKind, Histogram, Obs};
use sqlb_types::{ConsumerId, ParticipantTable, ProviderId, Query, QueryId};

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

/// A consumer endpoint temporarily detached from the facade for one wave,
/// together with its share of the wave's requests.
type DetachedConsumer = (
    ConsumerId,
    Box<dyn ConsumerEndpoint>,
    Vec<(Query, Vec<ProviderId>)>,
);
/// A provider endpoint temporarily detached from the facade for one wave.
type DetachedProvider = (ProviderId, Box<dyn ProviderEndpoint>, Vec<Query>);

/// One participant's request in a wave: its id, its per-wave latency
/// override, and the job computing its reply (taken when polled).
struct Task<Id, J> {
    id: Id,
    latency: Option<Latency>,
    job: Option<J>,
}

/// One wave of intention requests: at most one batched request per
/// distinct participant, each carried by a *job* (the closure that
/// computes the participant's reply when its state machine reaches
/// `Ready`).
///
/// The wave is generic over its consumer job type `C` and provider job
/// type `P`, so jobs are stored inline — a wave costs no heap allocation
/// per request. Both are inferred from the closures handed to
/// [`IntentionWave::consumer`] / [`IntentionWave::provider`]; each call
/// site adds one closure expression per side, so all jobs of one side
/// share a type. Jobs may borrow the caller's participant state — the
/// simulator builds waves whose jobs borrow its agents directly — which
/// is why the wave is consumed by a single run.
pub struct IntentionWave<C, P> {
    consumers: Vec<Task<ConsumerId, C>>,
    providers: Vec<Task<ProviderId, P>>,
}

impl<C, P> Default for IntentionWave<C, P> {
    fn default() -> Self {
        IntentionWave {
            consumers: Vec::new(),
            providers: Vec::new(),
        }
    }
}

impl<C, P> IntentionWave<C, P>
where
    C: FnOnce() -> ConsumerBatchAnswer,
    P: FnOnce() -> ProviderBatchAnswer,
{
    /// Creates an empty wave.
    pub fn new() -> Self {
        IntentionWave::default()
    }

    /// Adds a consumer's batched intention request. `latency` overrides
    /// the endpoint's latency for this wave; `None` means the reactor
    /// falls back to the endpoint's registered profile.
    pub fn consumer(&mut self, id: ConsumerId, latency: Option<Latency>, job: C) {
        self.consumers.push(Task {
            id,
            latency,
            job: Some(job),
        });
    }

    /// Adds a provider's batched intention request. `latency` overrides
    /// the endpoint's latency for this wave; `None` resolves as described
    /// on [`IntentionWave::consumer`].
    pub fn provider(&mut self, id: ProviderId, latency: Option<Latency>, job: P) {
        self.providers.push(Task {
            id,
            latency,
            job: Some(job),
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
    /// answer (Algorithm 1, line 5). See
    /// [`WaveReplies::append_candidate_infos`] for the lookup rules.
    pub fn into_candidate_infos(
        self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<Vec<CandidateInfo>> {
        let mut assembly = Assembly::new(&self);
        requests
            .iter()
            .map(|(query, candidates)| {
                let mut infos = Vec::new();
                assembly.append(query, candidates, &mut infos);
                infos
            })
            .collect()
    }

    /// Assembles the candidate information of one query of the wave,
    /// appending one [`CandidateInfo`] per candidate, in candidate order,
    /// to `infos` — the form of [`WaveReplies::into_candidate_infos`]
    /// that fills a caller's buffer instead of allocating one per query.
    ///
    /// The value for candidate `p` of query `q` is the *last* matching
    /// entry of the replies, indifference (`0`, no bid) when there is
    /// none:
    ///
    /// * the provider intention, utilization and bid come from the reply
    ///   of provider `p`'s request, its answer about `q`;
    /// * the consumer intention comes only from the reply of `q`'s own
    ///   consumer (`q.consumer`), its entry for `(q, p)`. Entries another
    ///   consumer sends about `q` are ignored — a consumer can never
    ///   overwrite the intentions of a query it was not asked about.
    ///
    /// Replies are looked up at their expected position first (the
    /// reactor emits them in request order, the socket ledger in
    /// ascending id order); a miss falls back to a binary search, or to a
    /// sorted index built once per call. The cost is `O((R + C) log R)`
    /// for `R` reply entries and `C` candidates on any input, including
    /// hostile wire replies.
    pub fn append_candidate_infos(
        &self,
        query: &Query,
        candidates: &[ProviderId],
        infos: &mut Vec<CandidateInfo>,
    ) {
        Assembly::new(self).append(query, candidates, infos);
    }
}

/// How one query reads its consumer intentions.
enum ConsumerSide<'w> {
    /// The query's consumer sent nothing about this query: indifference
    /// throughout.
    Silent,
    /// The consumer's reply to this query is one per-provider list with
    /// strictly ascending (hence distinct) providers, one per candidate:
    /// look up positionally, then by binary search.
    Listed(&'w [(ProviderId, f64)]),
    /// Anything else: read through the wave's sorted consumer index.
    Indexed,
}

/// An entry of the consumer index: `(consumer, query, provider,
/// sequence, intention)`.
type ConsumerIndexEntry = (u32, u32, u32, usize, f64);
/// An entry of the provider index: `(provider, query, sequence, answer)`.
type ProviderIndexEntry<'w> = (u32, u32, usize, &'w ProviderAnswer);

/// Per-call lookup state of the reply assembly. The fast paths are exact
/// only where ids are distinct, so each participant list is checked for
/// strictly ascending ids once; the sorted indices are built lazily, at
/// most once each, on the first lookup the fast paths cannot settle.
struct Assembly<'w> {
    replies: &'w WaveReplies,
    consumers_ascending: bool,
    providers_ascending: bool,
    /// `(consumer, query, provider, sequence) → intention` over every
    /// consumer reply entry, sorted; the sequence number keeps the reply
    /// order so the last entry of a key wins.
    consumer_index: Option<Vec<ConsumerIndexEntry>>,
    /// `(provider, query, sequence) → answer` over every provider answer,
    /// sorted likewise.
    provider_index: Option<Vec<ProviderIndexEntry<'w>>>,
}

impl<'w> Assembly<'w> {
    fn new(replies: &'w WaveReplies) -> Self {
        Assembly {
            replies,
            consumers_ascending: strictly_ascending(&replies.consumers),
            providers_ascending: strictly_ascending(&replies.providers),
            consumer_index: None,
            provider_index: None,
        }
    }

    fn append(&mut self, query: &Query, candidates: &[ProviderId], infos: &mut Vec<CandidateInfo>) {
        infos.reserve(candidates.len());
        let consumer_side = self.consumer_side(query, candidates.len());
        for (position, &provider) in candidates.iter().enumerate() {
            let ci = match consumer_side {
                ConsumerSide::Silent => 0.0,
                ConsumerSide::Listed(list) => {
                    locate(list, provider, position).map_or(0.0, |at| list[at].1)
                }
                ConsumerSide::Indexed => self.indexed_consumer_intention(query, provider),
            };
            let answer = self.provider_answer(query.id, provider, position);
            infos.push(CandidateInfo {
                provider,
                consumer_intention: ci,
                provider_intention: answer.map_or(0.0, |a| a.intention),
                utilization: answer.map_or(0.0, |a| a.utilization),
                bid: answer.and_then(|a| a.bid),
            });
        }
    }

    fn consumer_side(&self, query: &Query, candidates: usize) -> ConsumerSide<'w> {
        if !self.consumers_ascending {
            return ConsumerSide::Indexed;
        }
        let consumers = &self.replies.consumers;
        let Some(at) = locate(consumers, query.consumer, 0) else {
            return ConsumerSide::Silent;
        };
        match consumers[at].1.as_deref() {
            None | Some([]) => ConsumerSide::Silent,
            Some([(answered, _)]) if *answered != query.id => ConsumerSide::Silent,
            Some([(_, list)]) if list.len() == candidates && strictly_ascending(list) => {
                ConsumerSide::Listed(list)
            }
            Some(_) => ConsumerSide::Indexed,
        }
    }

    fn indexed_consumer_intention(&mut self, query: &Query, provider: ProviderId) -> f64 {
        let replies = self.replies;
        let index = self.consumer_index.get_or_insert_with(|| {
            let mut index = Vec::new();
            for (consumer, reply) in &replies.consumers {
                for (answered, list) in reply.iter().flatten() {
                    for &(p, ci) in list {
                        let sequence = index.len();
                        index.push((consumer.raw(), answered.raw(), p.raw(), sequence, ci));
                    }
                }
            }
            index.sort_unstable_by_key(|&(c, q, p, sequence, _)| (c, q, p, sequence));
            index
        });
        let key = (query.consumer.raw(), query.id.raw(), provider.raw());
        let end = index.partition_point(|&(c, q, p, _, _)| (c, q, p) <= key);
        match end.checked_sub(1).map(|last| index[last]) {
            Some((c, q, p, _, ci)) if (c, q, p) == key => ci,
            _ => 0.0,
        }
    }

    fn provider_answer(
        &mut self,
        query: QueryId,
        provider: ProviderId,
        position: usize,
    ) -> Option<&'w ProviderAnswer> {
        let replies = self.replies;
        let providers = &replies.providers;
        if self.providers_ascending {
            let at = locate(providers, provider, position)?;
            match providers[at].1.as_deref() {
                None => return None,
                Some(answers @ ([] | [_])) => return answers.first().filter(|a| a.query == query),
                Some(_) => {}
            }
        }
        let index = self.provider_index.get_or_insert_with(|| {
            let mut index = Vec::new();
            for (p, reply) in providers {
                for answer in reply.iter().flatten() {
                    let sequence = index.len();
                    index.push((p.raw(), answer.query.raw(), sequence, answer));
                }
            }
            index.sort_unstable_by_key(|&(p, q, sequence, _)| (p, q, sequence));
            index
        });
        let key = (provider.raw(), query.raw());
        let end = index.partition_point(|&(p, q, _, _)| (p, q) <= key);
        match end.checked_sub(1).map(|last| index[last]) {
            Some((p, q, _, answer)) if (p, q) == key => Some(answer),
            _ => None,
        }
    }
}

/// Whether the ids of `entries` strictly ascend (which makes them
/// distinct and binary-searchable).
fn strictly_ascending<Id: Ord, T>(entries: &[(Id, T)]) -> bool {
    entries.windows(2).all(|pair| pair[0].0 < pair[1].0)
}

/// The position of `id` in `entries`, whose ids strictly ascend: `hint`
/// first, then a binary search.
fn locate<Id: Ord + Copy, T>(entries: &[(Id, T)], id: Id, hint: usize) -> Option<usize> {
    match entries.get(hint) {
        Some((found, _)) if *found == id => Some(hint),
        _ => entries.binary_search_by_key(&id, |(found, _)| *found).ok(),
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
    timeouts: u64,
}

/// The mediation reactor: a single-threaded event loop driving
/// participant-endpoint state machines over a virtual clock.
///
/// Registration is light (one small profile per endpoint, no thread, no
/// channel), which is what lets one reactor track tens of thousands of
/// endpoints. Profiles live in [`ParticipantTable`]s indexed by the raw
/// id — ids are dense indices, as everywhere in the workspace — so a
/// profile lookup is one array access, and registration memory grows
/// with the *largest* registered id, not the number of endpoints. Waves
/// reference endpoints by id; an id that was never registered is served
/// with the default profile (its reply is [`Latency::Immediate`]).
pub struct Reactor {
    config: RuntimeConfig,
    consumers: ParticipantTable<ConsumerId, EndpointProfile>,
    providers: ParticipantTable<ProviderId, EndpointProfile>,
    /// Virtual clock, in nanoseconds. Advances monotonically across waves.
    now_nanos: u64,
    waves: u64,
    last_round: RoundStats,
    /// The readiness queue of request tokens, reused across waves (empty
    /// between waves).
    ready: VecDeque<usize>,
    /// The timer heap of `(readiness instant, token)`, reused across
    /// waves (empty between waves).
    timers: BinaryHeap<Reverse<(u64, usize)>>,
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
            consumers: ParticipantTable::new(),
            providers: ParticipantTable::new(),
            now_nanos: 0,
            waves: 0,
            last_round: RoundStats::default(),
            ready: VecDeque::new(),
            timers: BinaryHeap::new(),
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
        self.consumers.remove(id);
    }

    /// Removes a provider endpoint (e.g. on departure).
    pub fn deregister_provider(&mut self, id: ProviderId) {
        self.providers.remove(id);
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
        self.providers.get(id).map_or(0, |p| p.timeouts)
    }

    /// Runs one wave to completion on the event loop and returns its
    /// replies.
    ///
    /// The loop drains the readiness queue, advancing the virtual clock
    /// to the next parked timer whenever the queue runs dry, until every
    /// reply has arrived or the clock reaches the wave deadline — at
    /// which point every outstanding request is marked timed out and its
    /// values degrade to indifference.
    pub fn run_wave<C, P>(&mut self, mut wave: IntentionWave<C, P>) -> WaveReplies
    where
        C: FnOnce() -> ConsumerBatchAnswer,
        P: FnOnce() -> ProviderBatchAnswer,
    {
        self.waves += 1;
        let start = self.now_nanos;
        let timeout_nanos = duration_nanos(self.config.timeout);
        let deadline = start.saturating_add(timeout_nanos);

        let consumer_count = wave.consumers.len();
        let total = wave.len();
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

        // Tokens < consumer_count index the consumer tasks; the rest
        // index the provider tasks. Replies are stored by token.
        let mut consumer_replies: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)> =
            Vec::with_capacity(consumer_count);
        let mut provider_replies: Vec<(ProviderId, Option<ProviderBatchAnswer>)> =
            Vec::with_capacity(wave.providers.len());
        let ready = &mut self.ready;
        let timers = &mut self.timers;
        ready.clear();
        timers.clear();

        // Delivery: every task enters the state machine according to its
        // effective latency (wave override, else registered profile).
        for (token, task) in wave.consumers.iter().enumerate() {
            let latency = task.latency.unwrap_or_else(|| {
                self.consumers
                    .get(task.id)
                    .map_or(Latency::Immediate, |profile| profile.latency)
            });
            Self::deliver(token, latency, start, deadline, ready, timers);
            consumer_replies.push((task.id, None));
        }
        for (i, task) in wave.providers.iter().enumerate() {
            let latency = task.latency.unwrap_or_else(|| {
                self.providers
                    .get(task.id)
                    .map_or(Latency::Immediate, |profile| profile.latency)
            });
            Self::deliver(consumer_count + i, latency, start, deadline, ready, timers);
            provider_replies.push((task.id, None));
        }

        // The event loop.
        let mut answered = 0usize;
        let mut clock = start;
        loop {
            while let Some(token) = ready.pop_front() {
                if token < consumer_count {
                    let job = wave.consumers[token].job.take().expect("job polled once");
                    consumer_replies[token].1 = Some(job());
                } else {
                    let i = token - consumer_count;
                    let job = wave.providers[i].job.take().expect("job polled once");
                    provider_replies[i].1 = Some(job());
                }
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
            // Lifetime timeout counts on the registered profiles.
            for (id, _) in consumer_replies.iter().filter(|(_, r)| r.is_none()) {
                if let Some(profile) = self.consumers.get_mut(*id) {
                    profile.timeouts += 1;
                }
            }
            for (id, _) in provider_replies.iter().filter(|(_, r)| r.is_none()) {
                if let Some(profile) = self.providers.get_mut(*id) {
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

    /// A wave of canned jobs: `(id, latency override)` per consumer and
    /// per provider; every reply encodes its participant's id.
    fn canned_wave(
        consumers: &[(u32, Option<Latency>)],
        providers: &[(u32, Option<Latency>)],
    ) -> IntentionWave<impl FnOnce() -> ConsumerBatchAnswer, impl FnOnce() -> ProviderBatchAnswer>
    {
        let mut wave = IntentionWave::new();
        for &(c, latency) in consumers {
            wave.consumer(ConsumerId::new(c), latency, move || {
                vec![(
                    QueryId::new(c),
                    vec![(ProviderId::new(c), f64::from(c) / 10.0)],
                )]
            });
        }
        for &(p, latency) in providers {
            wave.provider(ProviderId::new(p), latency, move || {
                vec![ProviderAnswer {
                    query: QueryId::new(p),
                    intention: f64::from(p) / 10.0,
                    utilization: 0.5,
                    bid: None,
                }]
            });
        }
        wave
    }

    #[test]
    fn a_reused_reactor_matches_fresh_ones_wave_by_wave() {
        // One reactor runs a deadline wave, an all-immediate wave, an
        // empty wave, then a wave after a deregister + re-register. Its
        // ready queue and timer heap are reused across all of them; every
        // wave must match a fresh reactor with the same registrations.
        type Step = (Vec<(u32, Option<Latency>)>, Vec<(u32, Option<Latency>)>);
        let config = RuntimeConfig::default(); // 200 ms timeout
        let mut profiles = vec![
            Latency::Never,
            Latency::After(Duration::from_millis(30)),
            Latency::After(Duration::from_millis(300)),
            Latency::Immediate,
        ];
        let register = |reactor: &mut Reactor, profiles: &[Latency]| {
            reactor.register_consumer(ConsumerId::new(0), Latency::After(Duration::from_millis(5)));
            reactor.register_consumer(ConsumerId::new(1), Latency::Immediate);
            for (p, &latency) in profiles.iter().enumerate() {
                reactor.register_provider(ProviderId::new(p as u32), latency);
            }
        };
        let mut reused = Reactor::new(config);
        register(&mut reused, &profiles);

        let all = |latency: Option<Latency>| -> Vec<(u32, Option<Latency>)> {
            (0..4).map(|p| (p, latency)).collect()
        };
        let steps: Vec<Step> = vec![
            (vec![(0, None), (1, Some(Latency::Never))], all(None)),
            (
                vec![(0, Some(Latency::Immediate))],
                all(Some(Latency::Immediate)),
            ),
            (Vec::new(), Vec::new()),
            (vec![(1, None)], vec![(0, None), (2, None), (3, None)]),
        ];
        for (i, (consumers, providers)) in steps.iter().enumerate() {
            if i == 3 {
                reused.deregister_provider(ProviderId::new(0));
                profiles[0] = Latency::After(Duration::from_millis(10));
                reused.register_provider(ProviderId::new(0), profiles[0]);
            }
            let mut fresh = Reactor::new(config);
            register(&mut fresh, &profiles);
            let before: Vec<u64> = (0..4)
                .map(|p| reused.provider_timeouts(ProviderId::new(p)))
                .collect();

            let got = reused.run_wave(canned_wave(consumers, providers));
            let want = fresh.run_wave(canned_wave(consumers, providers));
            assert_eq!(got.consumers, want.consumers, "step {i}");
            assert_eq!(got.providers, want.providers, "step {i}");
            let round = RoundStats {
                wave: 1,
                ..reused.last_round()
            };
            assert_eq!(round, fresh.last_round(), "step {i}");
            for p in 0..4 {
                let id = ProviderId::new(p);
                let delta = reused.provider_timeouts(id) - before[p as usize];
                let expected = fresh.provider_timeouts(id);
                assert_eq!(delta, expected, "step {i}, provider {p}");
                if i == 3 && p == 0 {
                    assert_eq!(
                        reused.provider_timeouts(id),
                        expected,
                        "re-registered: reset"
                    );
                }
            }
        }
        assert_eq!(reused.waves(), 4);
        // The deadline wave timed out providers 0 and 2 and consumer 1.
        assert_eq!(reused.provider_timeouts(ProviderId::new(2)), 2);
        assert_eq!(reused.provider_timeouts(ProviderId::new(1)), 0);
    }

    #[test]
    fn wave_len_and_empty() {
        let mut wave: IntentionWave<fn() -> ConsumerBatchAnswer, _> = IntentionWave::new();
        assert!(wave.is_empty());
        wave.provider(ProviderId::new(0), None, Vec::new);
        assert_eq!(wave.len(), 1);
        assert!(!wave.is_empty());
    }
}
