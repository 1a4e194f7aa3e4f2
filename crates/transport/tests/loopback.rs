//! Integration tests of the socket mediation path over real loopback
//! sockets: TCP and Unix-domain, multi-host multiplexing, timeout
//! degradation, stale-wave correlation, connection lifecycle, and the
//! scoped-job harness the simulator engine drives.

use std::time::Duration;

use sqlb_mediation::WaveReplies;
use sqlb_mediation::{ConsumerEndpoint, Latency, ProviderAnswer, ProviderEndpoint};
use sqlb_transport::{ParticipantHost, ServerConfig, SocketMediator, WaveJobs, WaveServer};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

struct Canned {
    value: f64,
    latency: Latency,
    /// A latency applied to the *first* wave only (then back to the
    /// fixed `latency`), for straggler scenarios.
    slow_once: Option<Duration>,
    results: Vec<Vec<ProviderId>>,
    notices: Vec<(QueryId, bool)>,
}

impl Canned {
    fn new(value: f64) -> Self {
        Canned {
            value,
            latency: Latency::Immediate,
            slow_once: None,
            results: Vec::new(),
            notices: Vec::new(),
        }
    }

    fn effective_latency(&mut self) -> Latency {
        match self.slow_once.take() {
            Some(delay) => Latency::After(delay),
            None => self.latency,
        }
    }
}

impl ConsumerEndpoint for Canned {
    fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates
            .iter()
            .map(|&p| (p, self.value + p.raw() as f64 / 100.0))
            .collect()
    }
    fn allocation_result(&mut self, _query: QueryId, providers: &[ProviderId]) {
        self.results.push(providers.to_vec());
    }
    fn latency(&mut self) -> Latency {
        self.effective_latency()
    }
}

impl ProviderEndpoint for Canned {
    fn intention(&mut self, _q: &Query) -> f64 {
        self.value
    }
    fn utilization(&mut self) -> f64 {
        self.value.abs() / 2.0
    }
    fn allocation_notice(&mut self, query: QueryId, selected: bool) {
        self.notices.push((query, selected));
    }
    fn latency(&mut self) -> Latency {
        self.effective_latency()
    }
}

/// A provider whose intention encodes the query id (`base + id/10`), so
/// replies belonging to different waves are distinguishable on arrival —
/// the overlap tests rely on this to prove no cross-wave mixing.
struct PerQuery {
    base: f64,
    slow_once: Option<Duration>,
}

impl PerQuery {
    fn new(base: f64) -> Self {
        PerQuery {
            base,
            slow_once: None,
        }
    }
}

impl ProviderEndpoint for PerQuery {
    fn intention(&mut self, q: &Query) -> f64 {
        self.base + q.id.raw() as f64 / 10.0
    }
    fn utilization(&mut self) -> f64 {
        0.25
    }
    fn allocation_notice(&mut self, _query: QueryId, _selected: bool) {}
    fn latency(&mut self) -> Latency {
        match self.slow_once.take() {
            Some(delay) => Latency::After(delay),
            None => Latency::Immediate,
        }
    }
}

fn query(id: u32, consumer: u32) -> Query {
    Query::single(
        QueryId::new(id),
        ConsumerId::new(consumer),
        QueryClass::Light,
        SimTime::from_secs(id as f64),
    )
}

fn server(timeout_ms: u64) -> WaveServer {
    let mut server = WaveServer::new(ServerConfig {
        timeout: Duration::from_millis(timeout_ms),
        request_bids: false,
    });
    server.listen_tcp("127.0.0.1:0").unwrap();
    server
}

#[test]
fn a_wave_crosses_tcp_and_returns_exact_intentions() {
    let mut server = server(5_000);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(0), Canned::new(0.8));
        host.add_provider(ProviderId::new(1), Canned::new(-0.25));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();
    assert_eq!(server.consumer_count(), 1);
    assert_eq!(server.provider_count(), 2);

    let requests = vec![(query(1, 0), vec![ProviderId::new(0), ProviderId::new(1)])];
    let infos = server.gather(&requests);
    assert_eq!(infos[0][0].provider_intention, 0.8);
    assert_eq!(infos[0][1].provider_intention, -0.25);
    assert_eq!(infos[0][0].consumer_intention, 0.5);
    assert_eq!(infos[0][1].consumer_intention, 0.51);
    assert_eq!(infos[0][0].utilization, 0.4);
    let round = server.last_round();
    assert_eq!(round.delivered, 3);
    assert_eq!(round.answered, 3);
    assert_eq!(round.timed_out, 0);

    server.shutdown();
    let report = handle.join().unwrap();
    assert!(report.clean_shutdown);
    assert_eq!(report.waves_served, 1);
    assert_eq!(report.replies_sent, 3);
}

#[cfg(unix)]
#[test]
fn a_wave_crosses_a_unix_domain_socket_too() {
    let path = std::env::temp_dir().join(format!("sqlb-test-{}.sock", std::process::id()));
    let mut server = WaveServer::new(ServerConfig {
        timeout: Duration::from_secs(5),
        request_bids: false,
    });
    server.listen_uds(&path).unwrap();
    let uds_path = path.clone();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_uds(&uds_path).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.25));
        host.add_provider(ProviderId::new(0), Canned::new(0.75));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();
    let infos = server.gather(&[(query(1, 0), vec![ProviderId::new(0)])]);
    assert_eq!(infos[0][0].provider_intention, 0.75);
    assert_eq!(infos[0][0].consumer_intention, 0.25);
    server.shutdown();
    assert!(handle.join().unwrap().clean_shutdown);
    assert!(!path.exists(), "shutdown removes the socket file");
}

#[test]
fn many_endpoints_multiplex_over_few_connections() {
    // 4 hosts × 256 providers each: 1024 endpoints, 4 sockets. Every
    // provider answers one query of the wave.
    const HOSTS: u32 = 4;
    const PER_HOST: u32 = 256;
    let mut server = server(10_000);
    let addr = server.tcp_addr().unwrap();
    let mut handles = Vec::new();
    for h in 0..HOSTS {
        handles.push(std::thread::spawn(move || {
            let mut host = ParticipantHost::connect_tcp(addr).unwrap();
            if h == 0 {
                host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
            }
            for i in 0..PER_HOST {
                let p = h * PER_HOST + i;
                host.add_provider(ProviderId::new(p), Canned::new(p as f64 / 2048.0));
            }
            host.announce().unwrap();
            host.serve().unwrap()
        }));
    }
    server
        .accept_hosts(HOSTS as usize, Duration::from_secs(10))
        .unwrap();
    assert_eq!(server.provider_count(), (HOSTS * PER_HOST) as usize);
    assert_eq!(server.connection_count(), HOSTS as usize);

    let requests: Vec<(Query, Vec<ProviderId>)> = (0..HOSTS * PER_HOST / 16)
        .map(|i| {
            let candidates = (i * 16..(i + 1) * 16).map(ProviderId::new).collect();
            (query(i, 0), candidates)
        })
        .collect();
    let infos = server.gather(&requests);
    let round = server.last_round();
    assert_eq!(round.delivered, 1 + (HOSTS * PER_HOST) as usize);
    assert_eq!(round.timed_out, 0);
    for (i, per_query) in infos.iter().enumerate() {
        for (j, info) in per_query.iter().enumerate() {
            let p = i * 16 + j;
            assert_eq!(info.provider_intention, p as f64 / 2048.0);
        }
    }
    server.shutdown();
    for handle in handles {
        assert!(handle.join().unwrap().clean_shutdown);
    }
}

#[test]
fn a_silent_endpoint_degrades_to_indifference_at_the_deadline() {
    // One provider never answers (Latency::Never): its reply must be
    // read as indifference when the wave deadline passes, while the
    // healthy endpoints' answers arrive untouched — the fork/waituntil/
    // timeout step of Algorithm 1, over a real socket.
    let mut server = server(300);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(0), Canned::new(0.9));
        let mut silent = Canned::new(1.0);
        silent.latency = Latency::Never;
        host.add_provider(ProviderId::new(1), silent);
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();
    let infos = server.gather(&[(query(1, 0), vec![ProviderId::new(0), ProviderId::new(1)])]);
    assert_eq!(infos[0][0].provider_intention, 0.9);
    assert_eq!(
        infos[0][1].provider_intention, 0.0,
        "the silent endpoint is read as indifferent"
    );
    let round = server.last_round();
    assert_eq!(round.answered, 2);
    assert_eq!(round.timed_out, 1);
    server.shutdown();
    handle.join().unwrap();
}

#[test]
fn a_straggling_reply_is_stale_next_wave_not_mixed_in() {
    // Wave 1: a provider is slow (once) and misses the 500 ms deadline.
    // Its reply arrives during wave 2 tagged with wave id 1 — the
    // server must discard it by wave-id correlation, and the provider's
    // *fresh* wave-2 answer must be the one used.
    let mut server = server(500);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        let mut slow = Canned::new(0.7);
        slow.slow_once = Some(Duration::from_millis(900));
        host.add_provider(ProviderId::new(0), slow);
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();

    let infos = server.gather(&[(query(1, 0), vec![ProviderId::new(0)])]);
    assert_eq!(
        infos[0][0].provider_intention, 0.0,
        "wave 1: the slow reply missed the deadline"
    );
    assert_eq!(server.last_round().timed_out, 1);

    // Wave 2 starts while wave 1's straggler is still in flight; the
    // straggler lands first — with the old wave id — and must be
    // skipped, then the fresh (now immediate) reply counted.
    let infos = server.gather(&[(query(2, 0), vec![ProviderId::new(0)])]);
    assert_eq!(
        infos[0][0].provider_intention, 0.7,
        "wave 2: the fresh reply, not the stale one"
    );
    assert_eq!(server.last_round().timed_out, 0);
    server.shutdown();
    handle.join().unwrap();
}

#[test]
fn unregistered_endpoints_default_to_indifference_without_waiting() {
    let mut server = server(5_000);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(0), Canned::new(0.8));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();
    // Candidate 9 has no home connection at all: no request is sent for
    // it and the wave completes immediately with indifference filled in.
    let started = std::time::Instant::now();
    let infos = server.gather(&[(query(1, 0), vec![ProviderId::new(0), ProviderId::new(9)])]);
    assert!(started.elapsed() < Duration::from_secs(2));
    assert_eq!(infos[0][0].provider_intention, 0.8);
    assert_eq!(infos[0][1].provider_intention, 0.0);
    assert_eq!(server.last_round().delivered, 2);
    server.shutdown();
    handle.join().unwrap();
}

#[test]
fn notices_reach_the_right_endpoints_across_hosts() {
    let mut server = server(5_000);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(0), Canned::new(0.9));
        host.add_provider(ProviderId::new(1), Canned::new(0.4));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();
    let q = query(7, 0);
    let candidates = vec![ProviderId::new(0), ProviderId::new(1)];
    let _ = server.gather(&[(q.clone(), candidates.clone())]);
    let allocation = sqlb_core::allocation::Allocation {
        query: q.id,
        selected: vec![ProviderId::new(0)],
        ranking: Vec::new(),
    };
    server.notify(&q, &candidates, &allocation);
    server.shutdown();
    let report = handle.join().unwrap();
    // 2 provider notices + 1 consumer result.
    assert_eq!(report.notices_received, 3);
}

// ---- the engine-facing loopback harness --------------------------------

fn loopback(hosts: usize, consumers: u32, providers: u32, timeout_ms: u64) -> SocketMediator {
    SocketMediator::loopback(
        hosts,
        ServerConfig {
            timeout: Duration::from_millis(timeout_ms),
            request_bids: false,
        },
        (0..consumers).map(ConsumerId::new),
        (0..providers).map(ProviderId::new),
    )
    .unwrap()
}

#[test]
fn loopback_jobs_answer_from_the_decoded_wire_queries() {
    let mut mediator = loopback(2, 1, 4, 5_000);
    let requests = vec![(
        query(3, 0),
        vec![ProviderId::new(0), ProviderId::new(1), ProviderId::new(3)],
    )];
    // The jobs derive their answers from the decoded request content, so
    // a wrong wire round-trip would surface as a wrong value here.
    let mut jobs = WaveJobs::new();
    jobs.consumer(ConsumerId::new(0), |reqs| {
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].0.id, QueryId::new(3));
        assert_eq!(reqs[0].0.issued_at.as_secs(), 3.0);
        vec![(
            reqs[0].0.id,
            reqs[0]
                .1
                .iter()
                .map(|&p| (p, 0.1 * p.raw() as f64))
                .collect(),
        )]
    });
    for p in [0u32, 1, 3] {
        jobs.provider(ProviderId::new(p), move |queries, request_bids| {
            assert!(!request_bids);
            queries
                .iter()
                .map(|q| ProviderAnswer {
                    query: q.id,
                    intention: 0.5 + p as f64,
                    utilization: q.cost().value() / 1000.0,
                    bid: None,
                })
                .collect()
        });
    }
    let infos = mediator.gather(&requests, jobs);
    assert_eq!(infos[0][0].provider_intention, 0.5);
    assert_eq!(infos[0][1].provider_intention, 1.5);
    assert_eq!(infos[0][2].provider_intention, 3.5);
    assert_eq!(infos[0][1].consumer_intention, 0.1);
    assert_eq!(infos[0][0].utilization, 0.13, "cost travelled bit-exact");
    assert_eq!(mediator.last_round().timed_out, 0);
    assert_eq!(mediator.live_hosts(), 2);
}

#[test]
fn loopback_waves_are_reproducible_run_to_run() {
    // The determinism pin at the transport level: two identical waves
    // (fresh mediators, same jobs) must produce identical candidate
    // infos, regardless of socket scheduling.
    let run = || {
        let mut mediator = loopback(3, 2, 8, 5_000);
        let requests: Vec<(Query, Vec<ProviderId>)> = (0..4)
            .map(|i| {
                (
                    query(i, i % 2),
                    (0..8).map(ProviderId::new).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut jobs = WaveJobs::new();
        for c in 0..2u32 {
            jobs.consumer(ConsumerId::new(c), move |reqs| {
                reqs.iter()
                    .map(|(q, cands)| {
                        (
                            q.id,
                            cands
                                .iter()
                                .map(|&p| (p, (q.id.raw() + p.raw() + c) as f64 / 17.0))
                                .collect(),
                        )
                    })
                    .collect()
            });
        }
        for p in 0..8u32 {
            jobs.provider(ProviderId::new(p), move |queries, _| {
                queries
                    .iter()
                    .map(|q| ProviderAnswer {
                        query: q.id,
                        intention: ((p * 7 + q.id.raw()) % 13) as f64 / 13.0,
                        utilization: p as f64 / 8.0,
                        bid: None,
                    })
                    .collect()
            });
        }
        mediator.gather(&requests, jobs)
    };
    assert_eq!(run(), run());
}

#[test]
fn loopback_connection_lifecycle_follows_departures() {
    // 2 hosts over 1 consumer + 3 providers: host 0 serves c0 + p0/p2,
    // host 1 serves p1. Departing p1 empties host 1 → its connection is
    // closed on both sides; the survivors keep answering.
    let mut mediator = loopback(2, 1, 3, 5_000);
    assert_eq!(mediator.live_hosts(), 2);
    assert_eq!(mediator.server().connection_count(), 2);

    mediator.deregister_provider(ProviderId::new(1));
    assert_eq!(mediator.live_hosts(), 1, "host 1 emptied and closed");
    assert_eq!(mediator.server().connection_count(), 1);

    let requests = vec![(
        query(1, 0),
        vec![ProviderId::new(0), ProviderId::new(1), ProviderId::new(2)],
    )];
    let mut jobs = WaveJobs::new();
    jobs.consumer(ConsumerId::new(0), |reqs| {
        vec![(reqs[0].0.id, reqs[0].1.iter().map(|&p| (p, 0.2)).collect())]
    });
    for p in [0u32, 2] {
        jobs.provider(ProviderId::new(p), move |queries, _| {
            queries
                .iter()
                .map(|q| ProviderAnswer {
                    query: q.id,
                    intention: 0.5,
                    utilization: 0.0,
                    bid: None,
                })
                .collect()
        });
    }
    let infos = mediator.gather(&requests, jobs);
    assert_eq!(infos[0][0].provider_intention, 0.5);
    assert_eq!(
        infos[0][1].provider_intention, 0.0,
        "the departed provider is indifference"
    );
    assert_eq!(infos[0][2].provider_intention, 0.5);
    assert_eq!(mediator.last_round().timed_out, 0);
}

#[test]
fn a_stalled_early_connection_does_not_eat_later_hosts_replies() {
    // Regression: reply collection works the connections in slot order,
    // so a silent host in slot 0 can consume the entire wave deadline.
    // The timely replies of the host in slot 1 — already sitting in the
    // server's socket buffer — must still be harvested by the drain
    // pass, not miscounted as timeouts. Connect order is forced so the
    // silent host deterministically lands in slot 0.
    let mut server = server(400);
    let addr = server.tcp_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        let mut endpoint = Canned::new(1.0);
        endpoint.latency = Latency::Never;
        host.add_provider(ProviderId::new(0), endpoint);
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap(); // slot 0
    let fast = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(1), Canned::new(0.9));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap(); // slot 1

    let infos = server.gather(&[(query(1, 0), vec![ProviderId::new(0), ProviderId::new(1)])]);
    assert_eq!(
        infos[0][0].provider_intention, 0.0,
        "the silent slot-0 provider degrades to indifference"
    );
    assert_eq!(
        infos[0][1].provider_intention, 0.9,
        "slot 1's timely reply must be counted despite slot 0 stalling"
    );
    assert_eq!(infos[0][1].consumer_intention, 0.51);
    let round = server.last_round();
    assert_eq!(round.delivered, 3);
    assert_eq!(round.answered, 2);
    assert_eq!(round.timed_out, 1);

    server.shutdown();
    assert!(silent.join().unwrap().clean_shutdown);
    assert!(fast.join().unwrap().clean_shutdown);
}

// ---- pipelined (overlapped) waves --------------------------------------

/// Every provider answer present in `replies` must be about a query of
/// `wave_queries` — the no-cross-correlation invariant of overlap.
fn assert_answers_only_mention(replies: &WaveReplies, wave_queries: &[u32]) {
    for (provider, reply) in &replies.providers {
        let Some(answers) = reply else { continue };
        for answer in answers {
            assert!(
                wave_queries.contains(&answer.query.raw()),
                "provider {provider:?} answered query {:?} which belongs to another wave",
                answer.query
            );
        }
    }
    for (consumer, reply) in &replies.consumers {
        let Some(intentions) = reply else { continue };
        for (query, _) in intentions {
            assert!(
                wave_queries.contains(&query.raw()),
                "consumer {consumer:?} answered query {query:?} of another wave"
            );
        }
    }
}

#[test]
fn overlapped_waves_collect_in_order_with_their_own_replies() {
    // Depth-2 pipelining over one host: wave 2 is encoded and sent while
    // wave 1's replies are still outstanding. Each collected wave must
    // contain exactly its own answers (the PerQuery endpoint makes them
    // distinguishable), in begin order.
    let mut server = server(5_000);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(0), PerQuery::new(0.0));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();

    let first = vec![(query(1, 0), vec![ProviderId::new(0)])];
    let second = vec![(query(2, 0), vec![ProviderId::new(0)])];
    let w1 = server.begin_wave(&first);
    let w2 = server.begin_wave(&second);
    assert_eq!(w2, w1 + 1);
    assert_eq!(server.waves_in_flight(), 2);

    let replies = server.collect_wave().unwrap();
    assert_eq!(server.waves_in_flight(), 1);
    assert_answers_only_mention(&replies, &[1]);
    let infos = replies.into_candidate_infos(&first);
    assert_eq!(infos[0][0].provider_intention, 0.1);
    assert_eq!(infos[0][0].consumer_intention, 0.5);
    assert_eq!(server.last_round().timed_out, 0);

    let replies = server.collect_wave().unwrap();
    assert_eq!(server.waves_in_flight(), 0);
    assert_answers_only_mention(&replies, &[2]);
    let infos = replies.into_candidate_infos(&second);
    assert_eq!(infos[0][0].provider_intention, 0.2);
    assert_eq!(server.last_round().timed_out, 0);

    assert!(
        server.collect_wave().is_none(),
        "nothing in flight: collect_wave reports it rather than blocking"
    );

    server.shutdown();
    let report = handle.join().unwrap();
    assert!(report.clean_shutdown);
    assert_eq!(report.waves_served, 2);
}

#[test]
fn early_next_wave_replies_park_in_their_own_ledger() {
    // Two hosts, depth-2 overlap. The slot-0 host delays its wave-1
    // reply, so while the server is still collecting wave 1 the slot-1
    // host's wave-2 replies are already on the wire. Those early frames
    // must be credited to wave 2's ledger — not counted into wave 1,
    // not lost — and wave 1's delayed reply must still land in wave 1.
    let mut server = server(5_000);
    let addr = server.tcp_addr().unwrap();
    let slow = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        let mut provider = PerQuery::new(0.0);
        provider.slow_once = Some(Duration::from_millis(300));
        host.add_provider(ProviderId::new(0), provider);
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap(); // slot 0
    let fast = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_provider(ProviderId::new(1), PerQuery::new(3.0));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap(); // slot 1

    let candidates = vec![ProviderId::new(0), ProviderId::new(1)];
    let first = vec![(query(1, 0), candidates.clone())];
    let second = vec![(query(2, 0), candidates)];
    server.begin_wave(&first);
    server.begin_wave(&second);

    let replies = server.collect_wave().unwrap();
    assert_answers_only_mention(&replies, &[1]);
    let infos = replies.into_candidate_infos(&first);
    assert_eq!(
        infos[0][0].provider_intention, 0.1,
        "the delayed reply still belongs to wave 1"
    );
    assert_eq!(infos[0][1].provider_intention, 3.1);
    let round = server.last_round();
    assert_eq!(round.answered, 3);
    assert_eq!(round.timed_out, 0);

    let replies = server.collect_wave().unwrap();
    assert_answers_only_mention(&replies, &[2]);
    let infos = replies.into_candidate_infos(&second);
    assert_eq!(infos[0][0].provider_intention, 0.2);
    assert_eq!(infos[0][1].provider_intention, 3.2);
    let round = server.last_round();
    assert_eq!(round.answered, 3);
    assert_eq!(round.timed_out, 0);

    server.shutdown();
    assert!(slow.join().unwrap().clean_shutdown);
    assert!(fast.join().unwrap().clean_shutdown);
}

#[test]
fn a_stale_reply_under_overlap_never_credits_a_later_wave() {
    // Wave 1's provider reply misses the (short) deadline while wave 2
    // is already in flight on the same connection. The stale frame —
    // carrying wave id 1 — arrives between the two collections and must
    // be parsed and discarded, not credited to wave 2; wave 2 then gets
    // the provider's fresh answer.
    let mut server = server(300);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        let mut provider = PerQuery::new(0.0);
        provider.slow_once = Some(Duration::from_millis(600));
        host.add_provider(ProviderId::new(0), provider);
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();

    // Wave 2 starts 350 ms into wave 1's flight: wave 1's 300 ms
    // deadline has lapsed (its provider reply lands at ~600 ms, stale),
    // while wave 2's own deadline (350 + 300 ms) still covers the
    // provider's fresh answer right behind the stale one.
    let first = vec![(query(1, 0), vec![ProviderId::new(0)])];
    let second = vec![(query(2, 0), vec![ProviderId::new(0)])];
    server.begin_wave(&first);
    std::thread::sleep(Duration::from_millis(350));
    server.begin_wave(&second);
    assert_eq!(server.waves_in_flight(), 2);

    let replies = server.collect_wave().unwrap();
    assert_answers_only_mention(&replies, &[1]);
    let infos = replies.into_candidate_infos(&first);
    assert_eq!(
        infos[0][0].provider_intention, 0.0,
        "wave 1's provider reply missed the deadline: indifference"
    );
    assert_eq!(
        infos[0][0].consumer_intention, 0.5,
        "the timely consumer reply of wave 1 was counted"
    );
    assert_eq!(server.last_round().timed_out, 1);

    let replies = server.collect_wave().unwrap();
    assert_answers_only_mention(&replies, &[2]);
    let infos = replies.into_candidate_infos(&second);
    assert_eq!(
        infos[0][0].provider_intention, 0.2,
        "wave 2 got the fresh answer, not the stale wave-1 one"
    );
    assert_eq!(server.last_round().timed_out, 0);

    server.shutdown();
    handle.join().unwrap();
}

// ---- hostile replies ----------------------------------------------------

/// A consumer that answers its own queries honestly and, in the same
/// reply, sends intentions about a query it was not asked about.
struct Meddling {
    value: f64,
    foreign: (QueryId, Vec<(ProviderId, f64)>),
}

impl ConsumerEndpoint for Meddling {
    fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates.iter().map(|&p| (p, self.value)).collect()
    }
    fn intentions_batch(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<(QueryId, Vec<(ProviderId, f64)>)> {
        let mut reply: Vec<_> = requests
            .iter()
            .map(|(query, candidates)| (query.id, self.intentions(query, candidates)))
            .collect();
        reply.push(self.foreign.clone());
        reply
    }
}

#[test]
fn a_consumer_cannot_overwrite_another_consumers_intentions_over_the_wire() {
    // Consumers 0 and 1 share one coalesced wave. Consumer 1's host
    // answers for consumer 1 with an extra entry about consumer 0's
    // query; replies are read in ascending consumer order, so the
    // foreign entry would be read last. Query 1 must keep the value
    // consumer 0 sent.
    let mut server = server(5_000);
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut host = ParticipantHost::connect_tcp(addr).unwrap();
        host.add_consumer(ConsumerId::new(0), Canned::new(0.5));
        host.add_consumer(
            ConsumerId::new(1),
            Meddling {
                value: 0.25,
                foreign: (
                    QueryId::new(1),
                    vec![(ProviderId::new(0), 0.99), (ProviderId::new(1), 0.99)],
                ),
            },
        );
        host.add_provider(ProviderId::new(0), Canned::new(0.8));
        host.add_provider(ProviderId::new(1), Canned::new(-0.25));
        host.announce().unwrap();
        host.serve().unwrap()
    });
    server.accept_hosts(1, Duration::from_secs(5)).unwrap();

    let candidates = vec![ProviderId::new(0), ProviderId::new(1)];
    let requests = vec![(query(1, 0), candidates.clone()), (query(2, 1), candidates)];
    server.begin_wave(&requests);
    let replies = server.collect_wave().unwrap();
    assert_eq!(server.last_round().timed_out, 0);
    let infos = replies.into_candidate_infos(&requests);
    assert_eq!(infos[0][0].consumer_intention, 0.5);
    assert_eq!(infos[0][1].consumer_intention, 0.51);
    assert_eq!(infos[1][0].consumer_intention, 0.25);
    assert_eq!(infos[1][1].consumer_intention, 0.25);
    assert_eq!(infos[0][0].provider_intention, 0.8);
    assert_eq!(infos[1][1].provider_intention, -0.25);

    server.shutdown();
    assert!(handle.join().unwrap().clean_shutdown);
}
