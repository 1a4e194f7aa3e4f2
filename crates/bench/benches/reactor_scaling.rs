//! Endpoint-count scaling of the mediation layer.
//!
//! The question this bench answers: how much does one host pay per
//! mediation round as the number of participant endpoints grows into the
//! tens of thousands? The asynchronous reactor tracks an endpoint as a
//! slab entry polled by one event loop, so it is measured at 10 000 and
//! 50 000 endpoints.
//!
//! Each measured round is one `gather_batch` wave in which *every*
//! provider endpoint is the candidate of exactly one query (batches of
//! `endpoints / CANDIDATES_PER_QUERY` queries, 16 candidates each), so a
//! "round" touches the full endpoint population once. A `frame` group
//! additionally measures the wire framing of the wave's reply messages,
//! and an `engine_wave` group the wave the simulator engine runs per
//! arrival: one query, its consumer and 117 candidate providers (the
//! candidate count of the `sharded-reactor` benchmark workload) through
//! `Reactor::run_wave`, assembled by the single-query
//! `WaveReplies::append_candidate_infos` into a reused buffer.
//!
//! Run with: `cargo bench -p sqlb-bench --bench reactor_scaling`

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqlb_mediation::{
    decode_participant_reply, encode_participant_reply, AsyncMediator, ConsumerEndpoint,
    IntentionWave, Latency, ParticipantReply, ProviderAnswer, ProviderEndpoint, Reactor,
    RuntimeConfig,
};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

/// Candidates per query; 16 keeps candidate sets realistic while letting
/// a batch cover every endpoint exactly once.
const CANDIDATES_PER_QUERY: usize = 16;
/// Consumers issuing the batch (queries are spread over them).
const CONSUMERS: usize = 64;
/// Candidates of the engine-shaped wave.
const ENGINE_CANDIDATES: usize = 117;

struct FlatConsumer;

impl ConsumerEndpoint for FlatConsumer {
    fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates
            .iter()
            .map(|&p| (p, 0.25 + 0.5 / (1.0 + p.index() as f64)))
            .collect()
    }
}

struct FlatProvider(f64);

impl ProviderEndpoint for FlatProvider {
    fn intention(&mut self, _q: &Query) -> f64 {
        self.0
    }
}

/// One query per `CANDIDATES_PER_QUERY` providers: the batch that touches
/// every provider endpoint exactly once.
fn full_coverage_batch(providers: usize) -> Vec<(Query, Vec<ProviderId>)> {
    (0..providers / CANDIDATES_PER_QUERY)
        .map(|i| {
            let mut query = Query::single(
                QueryId::new(i as u32),
                ConsumerId::new((i % CONSUMERS) as u32),
                QueryClass::Light,
                SimTime::ZERO,
            );
            query.n = 1;
            let first = i * CANDIDATES_PER_QUERY;
            let candidates = (first..first + CANDIDATES_PER_QUERY)
                .map(|p| ProviderId::new(p as u32))
                .collect();
            (query, candidates)
        })
        .collect()
}

fn mediator_with_endpoints(providers: usize) -> AsyncMediator {
    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout: Duration::from_millis(200),
        request_bids: false,
    });
    for c in 0..CONSUMERS {
        mediator.register_consumer(ConsumerId::new(c as u32), FlatConsumer);
    }
    for p in 0..providers {
        mediator.register_provider(
            ProviderId::new(p as u32),
            FlatProvider(1.0 - (p % 7) as f64 * 0.25),
        );
    }
    mediator
}

fn bench_reactor(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("reactor_round");
    group.measurement_time(Duration::from_secs(4));
    for &endpoints in &[10_000usize, 50_000] {
        let mut mediator = mediator_with_endpoints(endpoints);
        let batch = full_coverage_batch(endpoints);
        group.bench_function(BenchmarkId::from_parameter(endpoints), |b| {
            b.iter(|| {
                let infos = mediator.gather_batch(&batch);
                assert_eq!(infos.len(), batch.len());
                infos
            })
        });
        // The acceptance check behind the bench: a full round over the
        // endpoint population answers every request, with zero timeouts.
        let round = mediator.reactor().last_round();
        assert_eq!(round.delivered, CONSUMERS + endpoints);
        assert_eq!(round.timed_out, 0);
    }
    group.finish();
}

fn bench_framing(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("frame_wave_replies");
    group.measurement_time(Duration::from_secs(2));
    // The wire cost of a 10k-endpoint round: every provider's wave reply
    // encoded to its frame and decoded back.
    let replies: Vec<ParticipantReply> = (0..10_000u32)
        .map(|p| ParticipantReply::ProviderWaveReply {
            wave: 1,
            provider: ProviderId::new(p),
            utilization: (p % 10) as f64 / 10.0,
            intentions: vec![(QueryId::new(p / 16), 0.5, None)],
        })
        .collect();
    group.bench_function(BenchmarkId::from_parameter(10_000), |b| {
        b.iter(|| {
            let mut decoded = 0usize;
            for reply in &replies {
                let frame = encode_participant_reply(reply);
                let (_, consumed) = decode_participant_reply(&frame).unwrap();
                decoded += consumed;
            }
            decoded
        })
    });
    group.finish();
}

fn bench_engine_wave(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("engine_wave");
    group.measurement_time(Duration::from_secs(2));
    let mut reactor = Reactor::new(RuntimeConfig::default());
    reactor.register_consumer(ConsumerId::new(0), Latency::Immediate);
    for p in 0..ENGINE_CANDIDATES {
        reactor.register_provider(ProviderId::new(p as u32), Latency::Immediate);
    }
    let query = Query::single(
        QueryId::new(1),
        ConsumerId::new(0),
        QueryClass::Light,
        SimTime::ZERO,
    );
    let candidates: Vec<ProviderId> = (0..ENGINE_CANDIDATES as u32).map(ProviderId::new).collect();
    let mut infos = Vec::with_capacity(ENGINE_CANDIDATES);
    group.bench_function(BenchmarkId::from_parameter(ENGINE_CANDIDATES), |b| {
        b.iter(|| {
            let (query, candidates) = (&query, &candidates);
            let mut wave = IntentionWave::new();
            wave.consumer(query.consumer, None, move || {
                vec![(
                    query.id,
                    candidates
                        .iter()
                        .map(|&p| (p, 0.25 + 0.5 / (1.0 + p.index() as f64)))
                        .collect(),
                )]
            });
            for &p in candidates {
                wave.provider(p, None, move || {
                    vec![ProviderAnswer {
                        query: query.id,
                        intention: 1.0 - (p.index() % 7) as f64 * 0.25,
                        utilization: 0.5,
                        bid: None,
                    }]
                });
            }
            let replies = reactor.run_wave(wave);
            infos.clear();
            replies.append_candidate_infos(query, candidates, &mut infos);
            infos.len()
        })
    });
    assert_eq!(infos.len(), ENGINE_CANDIDATES);
    assert_eq!(reactor.last_round().answered, ENGINE_CANDIDATES + 1);
    group.finish();
}

criterion_group!(benches, bench_reactor, bench_framing, bench_engine_wave);
criterion_main!(benches);
