//! Micro-benchmarks of the satisfaction model and the system metrics:
//! tracker updates at the paper's window sizes (k = 200 / 500), the two
//! halves of the per-query satisfaction bookkeeping at Table 2's 400
//! candidates (the mediator's trackers and the provider agents' own), and
//! the Section 4 aggregate metrics over paper-sized participant sets.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use sqlb_agents::{ProviderAgent, ProviderConfig};
use sqlb_core::allocation::CandidateInfo;
use sqlb_core::mediator_state::MediatorState;
use sqlb_core::scoring::RankedProvider;
use sqlb_metrics::{fairness, mean, min_max_ratio, Summary};
use sqlb_satisfaction::{ConsumerTracker, ProviderTracker};
use sqlb_types::{
    Capacity, ConsumerId, Intention, Preference, ProviderId, Query, QueryClass, QueryId, SimTime,
};

fn bench_trackers(c: &mut Criterion) {
    let mut group = c.benchmark_group("trackers");
    group.measurement_time(Duration::from_millis(800));
    group.bench_function("provider_tracker_record_and_read_k500", |b| {
        let mut tracker = ProviderTracker::new(500, 500, 0.5);
        let mut i = 0u64;
        b.iter(|| {
            let value = ((i % 200) as f64 / 100.0) - 1.0;
            tracker.record_proposal(Intention::new(value), i.is_multiple_of(3));
            i += 1;
            black_box(tracker.satisfaction() + tracker.adequation())
        })
    });
    group.bench_function("consumer_tracker_record_and_read_k200", |b| {
        let mut tracker = ConsumerTracker::new(200, 0.5);
        let mut i = 0u64;
        b.iter(|| {
            let value = (i % 100) as f64 / 100.0;
            tracker.record_values(value, 1.0 - value);
            i += 1;
            black_box(tracker.allocation_satisfaction())
        })
    });
    group.finish();
}

fn bench_mediator_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("mediator_state");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(30);
    let candidates: Vec<CandidateInfo> = (0..400)
        .map(|i| {
            CandidateInfo::new(ProviderId::new(i))
                .with_consumer_intention((i as f64 / 400.0) * 2.0 - 1.0)
                .with_provider_intention(1.0 - (i as f64 / 400.0) * 2.0)
        })
        .collect();
    group.bench_function("record_allocation_400_candidates", |b| {
        let mut state = MediatorState::paper_default();
        let mut i = 0u32;
        b.iter(|| {
            let query = Query::single(
                QueryId::new(i),
                ConsumerId::new(i % 200),
                QueryClass::Light,
                SimTime::ZERO,
            );
            let allocation = sqlb_core::allocation::Allocation {
                query: query.id,
                selected: vec![ProviderId::new(i % 400)],
                ranking: vec![RankedProvider {
                    provider: ProviderId::new(i % 400),
                    score: 1.0,
                }],
            };
            state.record_allocation(&query, &candidates, &allocation);
            i = i.wrapping_add(1);
        })
    });
    group.finish();
}

/// The agent half of the bookkeeping: every one of a query's 400
/// candidates records the proposal in its public (intention) and private
/// (preference) windows. The agents run at Table 2's 500/500 windows and
/// start with full rings, so every iteration measures steady-state
/// eviction.
fn bench_agents(c: &mut Criterion) {
    const PROVIDERS: u32 = 400;
    let mut group = c.benchmark_group("agents");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(30);
    let query = |i: u32| {
        let class = if i.is_multiple_of(3) {
            QueryClass::Heavy
        } else {
            QueryClass::Light
        };
        Query::single(
            QueryId::new(i),
            ConsumerId::new(i % 200),
            class,
            SimTime::ZERO,
        )
    };
    let shown = |p: u32| 1.0 - (p as f64 / PROVIDERS as f64) * 2.0;
    let mut providers: Vec<ProviderAgent> = (0..PROVIDERS)
        .map(|p| {
            let preference = (p as f64 / PROVIDERS as f64) * 2.0 - 1.0;
            ProviderAgent::new(
                ProviderId::new(p),
                Capacity::new(100.0),
                vec![Preference::new(preference), Preference::new(-preference)],
                ProviderConfig::default(),
            )
        })
        .collect();
    // Fill both windows of every agent: 1 000 proposals, every other one
    // performed, leave 500 proposals and 500 performed queries behind.
    for i in 0..1_000u32 {
        let q = query(i);
        for (p, agent) in providers.iter_mut().enumerate() {
            agent.record_proposal(&q, shown(p as u32), i.is_multiple_of(2));
        }
    }
    group.bench_function("record_proposal_400_providers", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let q = query(i);
            let selected = (i % PROVIDERS) as usize;
            for (p, agent) in providers.iter_mut().enumerate() {
                agent.record_proposal(&q, shown(p as u32), p == selected);
            }
            i = i.wrapping_add(1);
        })
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let values: Vec<f64> = (0..400).map(|i| (i as f64 % 97.0) / 97.0).collect();
    let mut group = c.benchmark_group("metrics");
    group.measurement_time(Duration::from_millis(800));
    group.bench_function("mean_400", |b| b.iter(|| mean(black_box(&values))));
    group.bench_function("fairness_400", |b| b.iter(|| fairness(black_box(&values))));
    group.bench_function("min_max_ratio_400", |b| {
        b.iter(|| min_max_ratio(black_box(&values)))
    });
    group.bench_function("summary_400", |b| {
        b.iter(|| Summary::of(black_box(&values)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trackers,
    bench_mediator_state,
    bench_agents,
    bench_metrics
);
criterion_main!(benches);
