//! The participant contract every mediation backend speaks.
//!
//! A mediation runtime realizes the concurrent part of Algorithm 1: for
//! each query it *forks* an intention request to the issuing consumer and
//! to every candidate provider, *waits until* all answers have arrived *or
//! a timeout* elapses, and treats missing answers as indifference (`0`).
//! After the allocation decision it notifies every candidate of the
//! mediation result, selected or not.
//!
//! This module holds what the participants and the timeout look like to
//! such a runtime: the [`ConsumerEndpoint`] / [`ProviderEndpoint`] traits
//! and the [`RuntimeConfig`]. The in-process reactor
//! ([`crate::reactor::AsyncMediator`]) drives them as polled state
//! machines; the socket participant host (`sqlb-transport`) serves the
//! same traits over real connections.

use std::time::Duration;

use sqlb_core::allocation::Bid;
use sqlb_types::{ProviderId, Query, QueryId};

use crate::reactor::Latency;

/// Behaviour of a consumer participant reachable through the mediator.
pub trait ConsumerEndpoint: Send + 'static {
    /// The consumer's intentions towards the candidate providers of its
    /// query (the vector `CI_q`).
    fn intentions(&mut self, query: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)>;

    /// Batched form of [`ConsumerEndpoint::intentions`]: one request
    /// covering several of the consumer's queries, answered in one reply.
    /// The default implementation loops over the single-query method;
    /// endpoints can override it to amortize per-request work.
    fn intentions_batch(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<(QueryId, Vec<(ProviderId, f64)>)> {
        requests
            .iter()
            .map(|(query, candidates)| (query.id, self.intentions(query, candidates)))
            .collect()
    }

    /// Notification of the final allocation of one of the consumer's
    /// queries.
    fn allocation_result(&mut self, _query: QueryId, _providers: &[ProviderId]) {}

    /// When this endpoint's replies become available. The reactor parks
    /// the endpoint's state machine on its timer heap until then instead
    /// of sleeping; a socket participant host (`sqlb-transport`) sleeps
    /// for real. Queried once per wave the endpoint takes part in.
    fn latency(&mut self) -> Latency {
        Latency::Immediate
    }
}

/// Behaviour of a provider participant reachable through the mediator.
pub trait ProviderEndpoint: Send + 'static {
    /// The provider's intention `pi_p(q)` for performing the query.
    fn intention(&mut self, query: &Query) -> f64;

    /// The provider's bid, when the allocation method runs an economic
    /// protocol.
    fn bid(&mut self, _query: &Query) -> Option<Bid> {
        None
    }

    /// Batched form of [`ProviderEndpoint::intention`]: one request
    /// covering every query of a mediation batch that lists this provider
    /// as a candidate, answered in one reply (with bids when the protocol
    /// asks for them). The default implementation loops over the
    /// single-query methods.
    fn intention_batch(
        &mut self,
        queries: &[Query],
        request_bids: bool,
    ) -> Vec<(QueryId, f64, Option<Bid>)> {
        queries
            .iter()
            .map(|query| {
                let intention = self.intention(query);
                let bid = if request_bids { self.bid(query) } else { None };
                (query.id, intention, bid)
            })
            .collect()
    }

    /// Notification of the mediation result (selected or not).
    fn allocation_notice(&mut self, _query: QueryId, _selected: bool) {}

    /// When this endpoint's replies become available (see
    /// [`ConsumerEndpoint::latency`]).
    fn latency(&mut self) -> Latency {
        Latency::Immediate
    }

    /// The provider's current utilization `Ut(p)`, shown to the mediator
    /// alongside its intentions. Methods that do not read utilization
    /// (SQLB proper) ignore it, but the Capacity-based baseline ranks by
    /// it — endpoints serving such a method should override the `0.0`
    /// (idle) default. Queried once per wave.
    fn utilization(&mut self) -> f64 {
        0.0
    }
}

/// Mediator configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// How long the mediator waits for intention replies before falling
    /// back to indifference (Algorithm 1, line 5).
    pub timeout: Duration,
    /// Whether provider intention requests also ask for a bid.
    pub request_bids: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            timeout: Duration::from_millis(200),
            request_bids: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::AsyncMediator;
    use sqlb_baselines::MariposaLike;
    use sqlb_core::{MediatorState, SqlbAllocator};
    use sqlb_types::{ConsumerId, QueryClass, SimTime};
    use std::sync::{Arc, Mutex};

    struct CannedConsumer {
        values: Vec<f64>,
        results: Results,
    }

    impl ConsumerEndpoint for CannedConsumer {
        fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
            candidates
                .iter()
                .map(|&p| (p, self.values.get(p.index()).copied().unwrap_or(0.0)))
                .collect()
        }
        fn allocation_result(&mut self, _query: QueryId, providers: &[ProviderId]) {
            self.results.lock().unwrap().push(providers.to_vec());
        }
    }

    struct CannedProvider {
        value: f64,
        latency: Latency,
        bid: Option<Bid>,
        notices: Notices,
    }

    impl ProviderEndpoint for CannedProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn bid(&mut self, _q: &Query) -> Option<Bid> {
            self.bid
        }
        fn allocation_notice(&mut self, query: QueryId, selected: bool) {
            self.notices.lock().unwrap().push((query, selected));
        }
        fn latency(&mut self) -> Latency {
            self.latency
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

    type Notices = Arc<Mutex<Vec<(QueryId, bool)>>>;
    type Results = Arc<Mutex<Vec<Vec<ProviderId>>>>;

    fn build_runtime(
        provider_values: &[f64],
        consumer_values: Vec<f64>,
        config: RuntimeConfig,
    ) -> (AsyncMediator, Notices, Results) {
        let notices = Arc::new(Mutex::new(Vec::new()));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut runtime = AsyncMediator::new(config);
        runtime.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: consumer_values,
                results: results.clone(),
            },
        );
        for (i, &value) in provider_values.iter().enumerate() {
            runtime.register_provider(
                ProviderId::new(i as u32),
                CannedProvider {
                    value,
                    latency: Latency::Immediate,
                    bid: Some(Bid::new(100.0 * (i as f64 + 1.0), 1.0)),
                    notices: notices.clone(),
                },
            );
        }
        (runtime, notices, results)
    }

    #[test]
    fn gather_collects_all_intentions() {
        let (mut runtime, _, _) = build_runtime(
            &[0.8, -0.2, 0.4],
            vec![0.5, 0.9, -0.1],
            RuntimeConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..3).map(ProviderId::new).collect();
        let infos = runtime.gather(&query(1), &candidates);
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].provider_intention, 0.8);
        assert_eq!(infos[1].provider_intention, -0.2);
        assert_eq!(infos[0].consumer_intention, 0.5);
        assert_eq!(infos[2].consumer_intention, -0.1);
        assert!(infos[0].bid.is_none(), "bids are not requested by default");
    }

    #[test]
    fn slow_provider_times_out_to_indifference() {
        let notices = Arc::new(Mutex::new(Vec::new()));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut runtime = AsyncMediator::new(RuntimeConfig {
            timeout: Duration::from_millis(50),
            request_bids: false,
        });
        runtime.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.9, 0.9],
                results,
            },
        );
        runtime.register_provider(
            ProviderId::new(0),
            CannedProvider {
                value: 0.7,
                latency: Latency::Immediate,
                bid: None,
                notices: notices.clone(),
            },
        );
        runtime.register_provider(
            ProviderId::new(1),
            CannedProvider {
                value: 1.0,
                latency: Latency::After(Duration::from_millis(500)),
                bid: None,
                notices,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = runtime.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.7);
        assert_eq!(
            infos[1].provider_intention, 0.0,
            "the slow provider's answer missed the deadline"
        );
    }

    #[test]
    fn mediate_allocates_and_notifies_everyone() {
        let (mut runtime, notices, results) =
            build_runtime(&[0.9, 0.4], vec![0.8, 0.8], RuntimeConfig::default());
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let mut method = SqlbAllocator::new();
        let mut state = MediatorState::paper_default();
        let allocation = runtime.mediate(&query(7), &candidates, &mut method, &mut state);
        assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
        assert_eq!(state.allocations(), 1);

        // Notices are delivered synchronously, in candidate order.
        assert_eq!(
            *notices.lock().unwrap(),
            vec![(QueryId::new(7), true), (QueryId::new(7), false)],
            "both candidates are told the outcome"
        );
        assert_eq!(*results.lock().unwrap(), vec![vec![ProviderId::new(0)]]);
    }

    #[test]
    fn bids_are_gathered_when_requested() {
        let (mut runtime, _, _) = build_runtime(
            &[0.5, 0.5],
            vec![0.5, 0.5],
            RuntimeConfig {
                timeout: Duration::from_millis(500),
                request_bids: true,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = runtime.gather(&query(1), &candidates);
        assert_eq!(infos[0].bid.unwrap().price, 100.0);
        assert_eq!(infos[1].bid.unwrap().price, 200.0);

        // And the Mariposa-like broker can consume them directly.
        let mut broker = MariposaLike::new();
        let mut state = MediatorState::paper_default();
        let allocation = runtime.mediate(&query(2), &candidates, &mut broker, &mut state);
        assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
    }

    #[test]
    fn unknown_participants_default_to_indifference() {
        let (mut runtime, _, _) = build_runtime(&[0.5], vec![0.5], RuntimeConfig::default());
        // Candidate 9 is not registered with the runtime at all.
        let candidates = vec![ProviderId::new(0), ProviderId::new(9)];
        let infos = runtime.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.5);
        assert_eq!(infos[0].consumer_intention, 0.5);
        assert_eq!(infos[1].provider_intention, 0.0);
        assert_eq!(
            infos[1].consumer_intention, 0.0,
            "the consumer has no opinion on a provider it does not know"
        );
    }

    /// A provider endpoint that counts how many requests (not queries) it
    /// receives, to pin down the one-round-trip-per-participant property.
    struct CountingProvider {
        value: f64,
        requests: Arc<Mutex<u32>>,
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
            *self.requests.lock().unwrap() += 1;
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
    fn gather_batch_serves_many_queries_with_one_request_per_participant() {
        let requests_seen = Arc::new(Mutex::new(0u32));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut runtime = AsyncMediator::new(RuntimeConfig::default());
        runtime.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.5, -0.25],
                results,
            },
        );
        for (i, value) in [0.8, -0.2].into_iter().enumerate() {
            runtime.register_provider(
                ProviderId::new(i as u32),
                CountingProvider {
                    value,
                    requests: requests_seen.clone(),
                },
            );
        }

        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..5).map(|i| (query(i), candidates.clone())).collect();
        let infos = runtime.gather_batch(&batch);

        assert_eq!(infos.len(), 5);
        for per_query in &infos {
            assert_eq!(per_query.len(), 2);
            assert_eq!(per_query[0].provider_intention, 0.8);
            assert_eq!(per_query[1].provider_intention, -0.2);
            assert_eq!(per_query[0].consumer_intention, 0.5);
            assert_eq!(per_query[1].consumer_intention, -0.25);
        }
        assert_eq!(
            *requests_seen.lock().unwrap(),
            2,
            "five queries must cost each provider exactly one round-trip"
        );
    }

    #[test]
    fn gather_batch_of_nothing_is_empty() {
        let (mut runtime, _, _) = build_runtime(&[0.5], vec![0.5], RuntimeConfig::default());
        assert!(runtime.gather_batch(&[]).is_empty());
    }

    #[test]
    fn mediate_batch_allocates_and_notifies_per_query() {
        let (mut runtime, notices, results) =
            build_runtime(&[0.9, 0.4], vec![0.8, 0.8], RuntimeConfig::default());
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..3).map(|i| (query(i), candidates.clone())).collect();
        let mut method = SqlbAllocator::new();
        let mut state = MediatorState::paper_default();
        let allocations = runtime.mediate_batch(&batch, &mut method, &mut state);
        assert_eq!(allocations.len(), 3);
        for allocation in &allocations {
            assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
        }
        assert_eq!(state.allocations(), 3);
        assert_eq!(notices.lock().unwrap().len(), 6, "2 candidates × 3 queries");
        assert_eq!(results.lock().unwrap().len(), 3);
    }

    #[test]
    fn deregistering_a_provider_silences_it() {
        let (mut runtime, _, _) =
            build_runtime(&[0.5, 0.6], vec![0.5, 0.5], RuntimeConfig::default());
        assert_eq!(runtime.provider_count(), 2);
        assert_eq!(runtime.consumer_count(), 1);
        runtime.deregister_provider(ProviderId::new(1));
        assert_eq!(runtime.provider_count(), 1);
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = runtime.gather(&query(1), &candidates);
        assert_eq!(infos[1].provider_intention, 0.0);
    }
}
