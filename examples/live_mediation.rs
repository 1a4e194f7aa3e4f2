//! Live mediation: Algorithm 1 over the asynchronous reactor.
//!
//! The simulator drives agents synchronously for reproducibility, but the
//! framework also ships a concurrent mediation backend
//! (`sqlb-mediation`): consumers and providers are independent endpoints,
//! and the mediator *forks* intention requests, *waits until* the answers
//! arrive *or a timeout* elapses — exactly the structure of Algorithm 1.
//! The reactor drives the endpoints as polled state machines on one event
//! loop over a virtual clock, scaling one host to tens of thousands of
//! endpoints: endpoints declare their reply latency instead of sleeping,
//! and the whole round costs microseconds of wall time no matter the
//! timeout.
//!
//! Run with: `cargo run --example live_mediation`

use std::time::Duration;

use sqlb::mediation::{AsyncMediator, ConsumerEndpoint, Latency, ProviderEndpoint, RuntimeConfig};
use sqlb::prelude::*;

/// A consumer that likes providers with an even identifier.
struct ParityConsumer;

impl ConsumerEndpoint for ParityConsumer {
    fn intentions(&mut self, _query: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates
            .iter()
            .map(|&p| (p, if p.raw().is_multiple_of(2) { 0.8 } else { -0.4 }))
            .collect()
    }

    fn allocation_result(&mut self, query: QueryId, providers: &[ProviderId]) {
        let names: Vec<String> = providers.iter().map(|p| p.to_string()).collect();
        println!(
            "  consumer: query {query} allocated to [{}]",
            names.join(", ")
        );
    }
}

/// A provider whose eagerness decreases with its identifier and whose
/// reply latency is modelled on the reactor's virtual clock.
struct ModelledProvider {
    id: u32,
    latency: Latency,
}

impl ProviderEndpoint for ModelledProvider {
    fn intention(&mut self, _query: &Query) -> f64 {
        1.0 - self.id as f64 * 0.2
    }

    fn latency(&mut self) -> Latency {
        self.latency
    }

    fn allocation_notice(&mut self, query: QueryId, selected: bool) {
        if selected {
            println!("  provider p{}: I will perform query {query}", self.id);
        }
    }
}

fn main() {
    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout: Duration::from_millis(100),
        request_bids: false,
    });
    mediator.register_consumer(ConsumerId::new(0), ParityConsumer);
    for id in 0..5u32 {
        mediator.register_provider(
            ProviderId::new(id),
            ModelledProvider {
                id,
                // Provider p4 is too slow and will miss the deadline: its
                // intention is read as indifference.
                latency: if id == 4 {
                    Latency::After(Duration::from_millis(500))
                } else {
                    Latency::After(Duration::from_millis(5))
                },
            },
        );
    }

    let mut method = SqlbAllocator::new();
    let mut state = MediatorState::paper_default();
    let candidates: Vec<ProviderId> = (0..5).map(ProviderId::new).collect();

    println!(
        "== Live mediation over {} provider endpoints (virtual time) ==",
        candidates.len()
    );
    for i in 0..3u32 {
        let query = Query::single(
            QueryId::new(i),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let allocation = mediator.mediate(&query, &candidates, &mut method, &mut state);
        let round = mediator.reactor().last_round();
        println!(
            "mediator: query {} -> {} (best score {:+.3}; {} answered, {} timed out, virtual round {:?})",
            query.id,
            allocation.selected[0],
            allocation
                .ranking
                .first()
                .map(|r| r.score)
                .unwrap_or(f64::NAN),
            round.answered,
            round.timed_out,
            round.virtual_elapsed,
        );
    }

    println!("\np4 never wins despite being eager: its answers miss the 100 ms deadline,");
    println!("so the mediator treats it as indifferent — Algorithm 1's timeout at work.");
    println!("The silence was detected at exactly the 100 ms virtual deadline,");
    println!("without any thread ever sleeping.");
}
