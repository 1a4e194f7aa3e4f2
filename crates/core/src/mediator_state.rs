//! Mediator-side satisfaction bookkeeping.
//!
//! The query allocation module cannot see private preferences, so the
//! satisfaction values it uses in Equation 6 "have to be based on the
//! intentions" (Section 5.3). [`MediatorState`] maintains an
//! intention-based [`ConsumerTracker`] per consumer and an intention-based
//! [`ProviderTracker`] per provider, updated after every allocation.

// Re-exported so layers that carry trackers across mediators (the shard
// router's migration and churn parking paths) can name the type without a
// direct dependency on the satisfaction crate.
pub use sqlb_satisfaction::{ConsumerTracker, ProviderTracker};
use sqlb_types::{ConsumerId, Intention, ProviderId, Query, StridedColumn, StridedTable};

use crate::allocation::{Allocation, CandidateInfo, MediatorView, SelectionSet};

/// Reusable buffers for [`MediatorState::record_allocation`], so recording
/// an allocation performs no heap allocation in steady state. Scratch
/// state is transient (rebuilt from scratch on every call), so it is
/// excluded from serialization and comparisons.
#[derive(Debug, Clone, Default)]
struct RecordScratch {
    intentions: Vec<Intention>,
    selected_indices: Vec<usize>,
    selection: SelectionSet,
}

/// Configuration of the mediator-side trackers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediatorStateConfig {
    /// Window size for consumer trackers (`conSatSize`, Table 2: 200).
    pub consumer_window: usize,
    /// Proposal-window size for provider trackers.
    pub provider_proposed_window: usize,
    /// Performed-window size for provider trackers (`proSatSize`,
    /// Table 2: 500).
    pub provider_performed_window: usize,
    /// Initial satisfaction reported before any observation
    /// (`iniSatisfaction`, Table 2: 0.5).
    pub initial_satisfaction: f64,
}

impl Default for MediatorStateConfig {
    fn default() -> Self {
        MediatorStateConfig {
            consumer_window: 200,
            provider_proposed_window: 500,
            provider_performed_window: 500,
            initial_satisfaction: 0.5,
        }
    }
}

/// A consumer's satisfaction as reported by *other* mediators, absorbed
/// during periodic view synchronization (see `crate::mediator`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteConsumerView {
    /// Weighted sum of the remote satisfaction readings.
    weighted_satisfaction: f64,
    /// Total weight (number of remote observations backing the readings).
    weight: u64,
}

/// The mediator's view of every participant's intention-based
/// characteristics.
#[derive(Debug, Clone)]
pub struct MediatorState {
    config: MediatorStateConfig,
    consumers: StridedTable<ConsumerId, ConsumerTracker>,
    providers: StridedTable<ProviderId, ProviderTracker>,
    /// Consumer satisfaction absorbed from peer mediators. Empty in a
    /// mono-mediator system, so the blended reading reduces to the local
    /// tracker exactly.
    remote_consumers: StridedTable<ConsumerId, RemoteConsumerView>,
    /// Consumers this mediator has removed (departed from the system).
    /// Peer digests may still carry readings for them — a digest exported
    /// just before the departure propagated — and absorbing such a reading
    /// would resurrect the consumer's view after every shard already
    /// forgot it. [`MediatorState::add_remote_consumer_view`] refuses
    /// tombstoned consumers; a consumer that genuinely re-registers
    /// locally clears its tombstone.
    departed_consumers: StridedTable<ConsumerId, ()>,
    allocations: u64,
    /// Dense satisfaction column (struct-of-arrays). Invariant:
    /// `provider_satisfactions[p]` holds the exact bits of
    /// `providers[p].satisfaction()` for every registered provider, and
    /// the initial satisfaction (the column's fill value) for every
    /// absent slot — so the Equation 6 hot path streams contiguous
    /// `f64`s instead of chasing tracker entries through the table.
    /// Refreshed at every point a tracker's performed window can change:
    /// proposal recording, registration, removal, and migration
    /// export/absorb.
    provider_satisfactions: StridedColumn<ProviderId, f64>,
    /// Transient buffers, rebuilt on every recorded allocation (not part
    /// of the mediator's logical state).
    scratch: RecordScratch,
}

impl MediatorState {
    /// Creates a state with the given tracker configuration.
    pub fn new(config: MediatorStateConfig) -> Self {
        MediatorState::with_slot_stride(config, 0, 1)
    }

    /// Creates a state whose participant tables are compacted for the
    /// residue class `raw id ≡ offset (mod stride)`.
    ///
    /// The shard router partitions providers *and* routes consumers
    /// round-robin by raw id, so shard `i` of `K` only ever registers
    /// participants with `id ≡ i (mod K)` through its own allocations.
    /// Passing `(i, K)` here keeps every per-shard table `O(P / K)`
    /// instead of `O(P)` — the difference between linear and quadratic
    /// total state as the shard count grows with the population.
    /// Participants outside the class (migrated-in providers, absorbed
    /// peer views) spill to a small sorted overflow, so behavior is
    /// identical at any stride; `(0, 1)` is the dense mono-mediator
    /// layout.
    pub fn with_slot_stride(config: MediatorStateConfig, offset: usize, stride: usize) -> Self {
        MediatorState {
            config,
            consumers: StridedTable::with_stride(offset, stride),
            providers: StridedTable::with_stride(offset, stride),
            remote_consumers: StridedTable::with_stride(offset, stride),
            departed_consumers: StridedTable::with_stride(offset, stride),
            allocations: 0,
            provider_satisfactions: StridedColumn::with_stride(
                config.initial_satisfaction,
                offset,
                stride,
            ),
            scratch: RecordScratch::default(),
        }
    }

    /// Creates a state with the paper's Table 2 configuration.
    pub fn paper_default() -> Self {
        MediatorState::new(MediatorStateConfig::default())
    }

    /// Registers a consumer explicitly (consumers are otherwise registered
    /// lazily on their first allocation).
    pub fn register_consumer(&mut self, consumer: ConsumerId) {
        let config = self.config;
        self.departed_consumers.remove(consumer);
        self.consumers.or_insert_with(consumer, || {
            ConsumerTracker::new(config.consumer_window, config.initial_satisfaction)
        });
    }

    /// Registers a provider explicitly.
    pub fn register_provider(&mut self, provider: ProviderId) {
        let tracker = register_provider_in(&mut self.providers, self.config, provider);
        let satisfaction = tracker.satisfaction();
        self.provider_satisfactions.set(provider, satisfaction);
    }

    /// Forgets a consumer (e.g. after it departs from the system). The
    /// consumer is tombstoned: stale peer digests can no longer resurrect
    /// its view through [`MediatorState::add_remote_consumer_view`].
    pub fn remove_consumer(&mut self, consumer: ConsumerId) {
        self.consumers.remove(consumer);
        self.remote_consumers.remove(consumer);
        self.departed_consumers.insert(consumer, ());
    }

    /// Forgets a provider.
    pub fn remove_provider(&mut self, provider: ProviderId) {
        self.providers.remove(provider);
        self.provider_satisfactions.reset(provider);
    }

    /// Extracts a provider's full satisfaction history so it can migrate
    /// to another mediator shard. Returns `None` when the provider was
    /// never observed here (the receiving shard then starts it fresh).
    ///
    /// Unlike [`MediatorState::remove_provider`], which is for departures,
    /// this is the donor half of cross-shard migration: pair it with
    /// [`MediatorState::absorb_provider`] on the receiving state and no
    /// observation is lost in transit.
    pub fn export_provider(&mut self, provider: ProviderId) -> Option<ProviderTracker> {
        self.provider_satisfactions.reset(provider);
        self.providers.remove(provider)
    }

    /// Installs a provider's satisfaction history exported from another
    /// mediator shard (the receiving half of cross-shard migration). Any
    /// existing local tracker for the provider is replaced — the exported
    /// history is authoritative, because a provider is owned by exactly
    /// one shard at a time.
    pub fn absorb_provider(&mut self, provider: ProviderId, tracker: ProviderTracker) {
        self.provider_satisfactions
            .set(provider, tracker.satisfaction());
        self.providers.insert(provider, tracker);
    }

    /// Records the outcome of one query allocation: updates the issuing
    /// consumer's tracker with its shown intentions over `P_q` and the
    /// selected subset, and every candidate provider's tracker with its
    /// shown intention and whether it was selected.
    ///
    /// Raw intention values are clamped into `[-1, 1]` before entering the
    /// Section 3 model.
    pub fn record_allocation(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        allocation: &Allocation,
    ) {
        self.register_consumer(query.consumer);
        let scratch = &mut self.scratch;
        scratch.selection.rebuild(allocation);
        scratch.intentions.clear();
        scratch.selected_indices.clear();
        for (i, c) in candidates.iter().enumerate() {
            scratch
                .intentions
                .push(Intention::new(c.consumer_intention));
            if scratch.selection.contains(c.provider) {
                scratch.selected_indices.push(i);
            }
        }
        if let Some(tracker) = self.consumers.get_mut(query.consumer) {
            tracker.record_allocation(&scratch.intentions, &scratch.selected_indices, query.n);
        }

        for candidate in candidates {
            // The free-function registration helper keeps the provider
            // table borrow disjoint from the scratch borrow.
            let tracker =
                register_provider_in(&mut self.providers, self.config, candidate.provider);
            let performed = scratch.selection.contains(candidate.provider);
            tracker.record_proposal(Intention::new(candidate.provider_intention), performed);
            // Satisfaction is a function of the performed window alone, so
            // a rejected proposal cannot move it — only selected candidates
            // need their dense-column entry refreshed.
            if performed {
                let satisfaction = tracker.satisfaction();
                self.provider_satisfactions
                    .set(candidate.provider, satisfaction);
            }
        }
        self.allocations += 1;
    }

    /// Intention-based adequation `δa(c)` of a consumer.
    pub fn consumer_adequation(&self, consumer: ConsumerId) -> f64 {
        self.consumers
            .get(consumer)
            .map(|t| t.adequation())
            .unwrap_or(self.config.initial_satisfaction)
    }

    /// Intention-based allocation satisfaction `δas(c)` of a consumer.
    pub fn consumer_allocation_satisfaction(&self, consumer: ConsumerId) -> f64 {
        self.consumers
            .get(consumer)
            .map(|t| t.allocation_satisfaction())
            .unwrap_or(1.0)
    }

    /// Intention-based adequation `δa(p)` of a provider.
    pub fn provider_adequation(&self, provider: ProviderId) -> f64 {
        self.providers
            .get(provider)
            .map(|t| t.adequation())
            .unwrap_or(self.config.initial_satisfaction)
    }

    /// Intention-based allocation satisfaction `δas(p)` of a provider.
    pub fn provider_allocation_satisfaction(&self, provider: ProviderId) -> f64 {
        self.providers
            .get(provider)
            .map(|t| t.allocation_satisfaction())
            .unwrap_or(1.0)
    }

    /// Direct access to a consumer's tracker, if registered.
    pub fn consumer_tracker(&self, consumer: ConsumerId) -> Option<&ConsumerTracker> {
        self.consumers.get(consumer)
    }

    /// Direct access to a provider's tracker, if registered.
    pub fn provider_tracker(&self, provider: ProviderId) -> Option<&ProviderTracker> {
        self.providers.get(provider)
    }

    /// Identifiers of all registered consumers.
    pub fn consumers(&self) -> impl Iterator<Item = ConsumerId> + '_ {
        self.consumers.keys()
    }

    /// Identifiers of all registered providers.
    pub fn providers(&self) -> impl Iterator<Item = ProviderId> + '_ {
        self.providers.keys()
    }

    /// The number of locally observed allocations backing a consumer's
    /// satisfaction reading (the tracker's window fill). Used as the local
    /// weight when blending with remote views.
    pub fn consumer_observation_weight(&self, consumer: ConsumerId) -> u64 {
        self.consumers
            .get(consumer)
            .map(|t| t.window_len() as u64)
            .unwrap_or(0)
    }

    /// Drops every absorbed remote consumer view (called at the start of a
    /// synchronization round).
    pub fn clear_remote_consumer_views(&mut self) {
        self.remote_consumers.clear();
    }

    /// Accumulates a peer mediator's satisfaction reading for `consumer`,
    /// weighted by the number of observations backing it. Readings from
    /// several peers add up; [`MediatorView::consumer_satisfaction`] then
    /// blends the aggregate with the local tracker.
    pub fn add_remote_consumer_view(
        &mut self,
        consumer: ConsumerId,
        satisfaction: f64,
        weight: u64,
    ) {
        if weight == 0 || !satisfaction.is_finite() {
            return;
        }
        // A consumer removed here has departed the whole system (the
        // engine removes it from every shard in the same event); a peer
        // digest that still mentions it is stale and must not bring the
        // view back from the dead.
        if self.departed_consumers.contains(consumer) {
            return;
        }
        let view = self
            .remote_consumers
            .or_insert_with(consumer, || RemoteConsumerView {
                weighted_satisfaction: 0.0,
                weight: 0,
            });
        view.weighted_satisfaction += satisfaction * weight as f64;
        view.weight += weight;
    }

    /// The aggregated remote satisfaction view for a consumer, if any peer
    /// reported one: `(mean satisfaction, total weight)`.
    pub fn remote_consumer_view(&self, consumer: ConsumerId) -> Option<(f64, u64)> {
        self.remote_consumers
            .get(consumer)
            .filter(|v| v.weight > 0)
            .map(|v| (v.weighted_satisfaction / v.weight as f64, v.weight))
    }

    /// Total number of allocations recorded.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// The tracker configuration in use.
    pub fn config(&self) -> MediatorStateConfig {
        self.config
    }
}

/// Ensures a provider tracker exists and returns it. A free function
/// (rather than a `&mut self` method) so callers holding disjoint borrows
/// of other `MediatorState` fields can register providers too; this is
/// the single home of the tracker construction.
fn register_provider_in(
    providers: &mut StridedTable<ProviderId, ProviderTracker>,
    config: MediatorStateConfig,
    provider: ProviderId,
) -> &mut ProviderTracker {
    providers.or_insert_with(provider, || {
        ProviderTracker::new(
            config.provider_proposed_window,
            config.provider_performed_window,
            config.initial_satisfaction,
        )
    })
}

impl Default for MediatorState {
    fn default() -> Self {
        MediatorState::paper_default()
    }
}

impl MediatorView for MediatorState {
    fn consumer_satisfaction(&self, consumer: ConsumerId) -> f64 {
        // Blend the local tracker with whatever peer mediators reported at
        // the last synchronization, weighting each side by its number of
        // observations. With no remote views (the mono-mediator case) this
        // is exactly the local reading.
        let local = self.consumers.get(consumer).map(|t| t.satisfaction());
        match (local, self.remote_consumer_view(consumer)) {
            (Some(local_sat), Some((remote_sat, remote_weight))) => {
                let local_weight = self.consumer_observation_weight(consumer);
                if local_weight == 0 {
                    remote_sat
                } else {
                    let (lw, rw) = (local_weight as f64, remote_weight as f64);
                    (local_sat * lw + remote_sat * rw) / (lw + rw)
                }
            }
            (Some(local_sat), None) => local_sat,
            (None, Some((remote_sat, _))) => remote_sat,
            (None, None) => self.config.initial_satisfaction,
        }
    }

    fn provider_satisfaction(&self, provider: ProviderId) -> f64 {
        // Equation 6 uses the smoothed (Table 2 / `proSatSize`) reading of
        // the provider's intention-based satisfaction: it reacts to a
        // provider being under-served over its recent history without
        // letting a single empty sampling window swing `ω` to an extreme
        // that would override the consumer's intentions entirely.
        // Providers are owned by exactly one mediator shard, so no remote
        // blending is needed on this side. Served from the dense column
        // (bit-identical to `tracker.satisfaction()` by invariant) so the
        // scoring hot path does one indexed load per candidate.
        self.provider_satisfactions.get(provider)
    }

    fn provider_satisfactions_into(&self, candidates: &[CandidateInfo], out: &mut Vec<f64>) {
        // Columnar gather: one bounds-checked load per candidate, no
        // table probe. Slots past the column (providers never observed
        // here) read the fill — the initial satisfaction.
        out.extend(
            candidates
                .iter()
                .map(|c| self.provider_satisfactions.get(c.provider)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::RankedProvider;
    use sqlb_types::{QueryClass, QueryId, SimTime};

    fn query() -> Query {
        Query::single(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    fn candidates(values: &[(u32, f64, f64)]) -> Vec<CandidateInfo> {
        values
            .iter()
            .map(|&(id, ci, pi)| {
                CandidateInfo::new(ProviderId::new(id))
                    .with_consumer_intention(ci)
                    .with_provider_intention(pi)
            })
            .collect()
    }

    fn allocation_to(query: QueryId, provider: u32) -> Allocation {
        Allocation {
            query,
            selected: vec![ProviderId::new(provider)],
            ranking: vec![RankedProvider {
                provider: ProviderId::new(provider),
                score: 1.0,
            }],
        }
    }

    #[test]
    fn unknown_participants_report_initial_values() {
        let state = MediatorState::paper_default();
        assert_eq!(state.consumer_satisfaction(ConsumerId::new(7)), 0.5);
        assert_eq!(state.provider_satisfaction(ProviderId::new(7)), 0.5);
        assert_eq!(state.consumer_adequation(ConsumerId::new(7)), 0.5);
        assert_eq!(state.provider_adequation(ProviderId::new(7)), 0.5);
        assert_eq!(
            state.consumer_allocation_satisfaction(ConsumerId::new(7)),
            1.0
        );
        assert_eq!(
            state.provider_allocation_satisfaction(ProviderId::new(7)),
            1.0
        );
        assert_eq!(state.allocations(), 0);
    }

    #[test]
    fn record_allocation_updates_both_sides() {
        let mut state = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 0.8, 0.9), (1, -0.5, 0.2)]);
        let alloc = allocation_to(q.id, 0);
        state.record_allocation(&q, &cands, &alloc);

        assert_eq!(state.allocations(), 1);
        // Consumer got its preferred provider: satisfaction above
        // adequation.
        assert!(state.consumer_satisfaction(q.consumer) > state.consumer_adequation(q.consumer));
        assert!(state.consumer_allocation_satisfaction(q.consumer) > 1.0);
        // Selected provider's satisfaction reflects its positive intention.
        assert!(state.provider_satisfaction(ProviderId::new(0)) > 0.9);
        // Non-selected provider performed nothing yet, so its smoothed
        // satisfaction stays at the initial value while its adequation
        // reflects the proposal; its strict Definition 5 reading is 0.
        assert_eq!(state.provider_satisfaction(ProviderId::new(1)), 0.5);
        assert_eq!(
            state
                .provider_tracker(ProviderId::new(1))
                .unwrap()
                .satisfaction_strict(),
            0.0
        );
        assert!(state.provider_adequation(ProviderId::new(1)) < 0.9);
        assert_eq!(state.providers().count(), 2);
        assert_eq!(state.consumers().count(), 1);
    }

    #[test]
    fn raw_intentions_are_clamped_before_recording() {
        let mut state = MediatorState::paper_default();
        let q = query();
        // A raw provider intention of -2.5 (possible under Definition 8
        // with ε = 1) must not push satisfaction below 0.
        let cands = candidates(&[(0, 1.0, -2.5)]);
        let alloc = allocation_to(q.id, 0);
        state.record_allocation(&q, &cands, &alloc);
        assert!(state.provider_satisfaction(ProviderId::new(0)) >= 0.0);
        assert_eq!(state.provider_satisfaction(ProviderId::new(0)), 0.0);
    }

    #[test]
    fn remove_participants_resets_their_view() {
        let mut state = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 0.8, 0.9)]);
        let alloc = allocation_to(q.id, 0);
        state.record_allocation(&q, &cands, &alloc);
        state.remove_provider(ProviderId::new(0));
        state.remove_consumer(q.consumer);
        assert_eq!(state.provider_satisfaction(ProviderId::new(0)), 0.5);
        assert_eq!(state.consumer_satisfaction(q.consumer), 0.5);
        assert!(state.provider_tracker(ProviderId::new(0)).is_none());
        assert!(state.consumer_tracker(q.consumer).is_none());
    }

    /// The dense column must agree, bit for bit, with a from-scratch
    /// tracker recompute over every slot a test touches.
    fn assert_column_matches_trackers(state: &MediatorState, slots: u32) {
        for slot in 0..slots {
            let probe = ProviderId::new(slot);
            let expected = state
                .provider_tracker(probe)
                .map(|t| t.satisfaction())
                .unwrap_or(state.config().initial_satisfaction);
            assert_eq!(
                state.provider_satisfaction(probe).to_bits(),
                expected.to_bits(),
                "column diverged from tracker at slot {slot}"
            );
        }
    }

    #[test]
    fn satisfaction_column_tracks_migration_export_and_absorb() {
        let mut donor = MediatorState::paper_default();
        let mut receiver = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 0.8, 0.9), (1, -0.5, 0.2)]);
        donor.record_allocation(&q, &cands, &allocation_to(q.id, 0));
        assert_column_matches_trackers(&donor, 4);

        let tracker = donor.export_provider(ProviderId::new(0)).unwrap();
        assert_column_matches_trackers(&donor, 4);
        receiver.absorb_provider(ProviderId::new(0), tracker);
        assert_column_matches_trackers(&receiver, 4);
        assert!(receiver.provider_satisfaction(ProviderId::new(0)) > 0.9);
        assert_eq!(donor.provider_satisfaction(ProviderId::new(0)), 0.5);
    }

    proptest::proptest! {
        /// Property pin for the struct-of-arrays invariant: after any
        /// sequence of registrations, departures, migrations, and recorded
        /// allocations, the dense satisfaction column is bit-identical to
        /// recomputing `satisfaction()` from each provider's tracker.
        #[test]
        fn prop_satisfaction_column_matches_recompute_after_any_sequence(
            ops in proptest::collection::vec(
                (0u8..4, 0u32..10, -1.0f64..=1.0, -1.0f64..=1.0),
                1..50,
            )
        ) {
            let mut state = MediatorState::paper_default();
            let mut in_transit: Vec<(ProviderId, ProviderTracker)> = Vec::new();
            for (round, (op, id, ci, pi)) in ops.into_iter().enumerate() {
                let p = ProviderId::new(id);
                match op {
                    0 => state.register_provider(p),
                    1 => state.remove_provider(p),
                    2 => {
                        // One migration leg per step: export if the
                        // provider is here, otherwise land whatever is in
                        // transit back into this state.
                        if let Some(t) = state.export_provider(p) {
                            in_transit.push((p, t));
                        } else if let Some((p2, t2)) = in_transit.pop() {
                            state.absorb_provider(p2, t2);
                        }
                    }
                    _ => {
                        let q = Query::single(
                            QueryId::new(round as u32),
                            ConsumerId::new(0),
                            QueryClass::Light,
                            SimTime::ZERO,
                        );
                        let cands = candidates(&[(id, ci, pi)]);
                        state.record_allocation(&q, &cands, &allocation_to(q.id, id));
                    }
                }
                for slot in 0..10u32 {
                    let probe = ProviderId::new(slot);
                    let expected = state
                        .provider_tracker(probe)
                        .map(|t| t.satisfaction())
                        .unwrap_or(0.5);
                    proptest::prop_assert_eq!(
                        state.provider_satisfaction(probe).to_bits(),
                        expected.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_registration_is_idempotent() {
        let mut state = MediatorState::paper_default();
        state.register_provider(ProviderId::new(3));
        state.register_provider(ProviderId::new(3));
        state.register_consumer(ConsumerId::new(2));
        state.register_consumer(ConsumerId::new(2));
        assert_eq!(state.providers().count(), 1);
        assert_eq!(state.consumers().count(), 1);
        assert_eq!(state.config().consumer_window, 200);
    }
}
