//! Reply assembly (`WaveReplies::into_candidate_infos` and the
//! single-query `WaveReplies::append_candidate_infos`) against an oracle:
//! the hash-map assembly the routine replaced, kept here verbatim.
//!
//! * On random well-formed waves the routine must equal the oracle: 1–8
//!   queries over shared or disjoint providers, candidates in any order,
//!   `None` replies, unregistered providers, duplicated reply entries
//!   (the last one wins) and bids on or off.
//! * On hostile replies — consumers answering about queries of other
//!   consumers or of no query at all, providers answering about queries
//!   they were not asked about, lists reordered and duplicated — it must
//!   never panic and must equal the oracle run on the same replies with
//!   the foreign consumer entries removed: a query reads its consumer
//!   intentions only from its own consumer's reply.
//!
//! Run with: `cargo test --release -p sqlb-mediation --test reply_assembly`

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use sqlb_core::allocation::{Bid, CandidateInfo};
use sqlb_mediation::reactor::{ConsumerBatchAnswer, ProviderBatchAnswer};
use sqlb_mediation::{ProviderAnswer, WaveReplies};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

/// The hash-map assembly the routine replaced, verbatim (as a free
/// function): the equivalence oracle.
fn oracle_candidate_infos(
    replies: WaveReplies,
    requests: &[(Query, Vec<ProviderId>)],
) -> Vec<Vec<CandidateInfo>> {
    let mut consumer_intentions: HashMap<(QueryId, ProviderId), f64> = HashMap::new();
    for (_, reply) in replies.consumers {
        let Some(reply) = reply else { continue };
        for (query, per_provider) in reply {
            for (provider, intention) in per_provider {
                consumer_intentions.insert((query, provider), intention);
            }
        }
    }
    let mut provider_answers: HashMap<(QueryId, ProviderId), ProviderAnswer> = HashMap::new();
    for (provider, reply) in replies.providers {
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

fn clone_replies(replies: &WaveReplies) -> WaveReplies {
    WaveReplies {
        consumers: replies.consumers.clone(),
        providers: replies.providers.clone(),
    }
}

/// The replies without the consumer entries about queries their sender
/// was not asked about.
fn without_foreign_entries(
    replies: &WaveReplies,
    requests: &[(Query, Vec<ProviderId>)],
) -> WaveReplies {
    let own: BTreeSet<(ConsumerId, QueryId)> = requests
        .iter()
        .map(|(query, _)| (query.consumer, query.id))
        .collect();
    let mut filtered = clone_replies(replies);
    for (consumer, reply) in &mut filtered.consumers {
        if let Some(groups) = reply {
            groups.retain(|(query, _)| own.contains(&(*consumer, *query)));
        }
    }
    filtered
}

fn query(id: u32, consumer: u32) -> Query {
    Query::single(
        QueryId::new(id),
        ConsumerId::new(consumer),
        QueryClass::Light,
        SimTime::ZERO,
    )
}

/// A random wave: its requests and the replies to them.
#[derive(Debug)]
struct WaveCase {
    requests: Vec<(Query, Vec<ProviderId>)>,
    consumers: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)>,
    providers: Vec<(ProviderId, Option<ProviderBatchAnswer>)>,
}

impl WaveCase {
    fn replies(&self) -> WaveReplies {
        WaveReplies {
            consumers: self.consumers.clone(),
            providers: self.providers.clone(),
        }
    }
}

/// Draws [`WaveCase`]s; `hostile` adds foreign, reordered and duplicated
/// reply entries.
struct Waves {
    hostile: bool,
}

fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn value(rng: &mut TestRng) -> f64 {
    rng.unit_f64() * 2.0 - 1.0
}

/// One of three participant-list orders: ascending ids (the socket
/// ledger, the reactor facade), first-request order (the engine), or
/// random.
fn order_participants<Id: Ord + Copy, T>(entries: &mut [(Id, T)], rng: &mut TestRng) {
    match rng.below(3) {
        0 => entries.sort_by_key(|(id, _)| *id),
        1 => {}
        _ => shuffle(entries, rng),
    }
}

impl Strategy for Waves {
    type Value = WaveCase;

    fn sample(&self, rng: &mut TestRng) -> WaveCase {
        let query_count = 1 + rng.below(8);
        let consumer_pool = 1 + rng.below(4) as u32;
        // Shared providers: every query draws from one small pool;
        // disjoint: each query gets its own id range.
        let shared = rng.below(2) == 0;
        let bids = rng.below(2) == 0;
        let mut ids: Vec<u32> = (0..64).collect();
        shuffle(&mut ids, rng);

        let mut requests = Vec::with_capacity(query_count);
        for (i, &id) in ids.iter().take(query_count).enumerate() {
            let pool: Vec<u32> = if shared {
                (0..10).collect()
            } else {
                (i as u32 * 10..i as u32 * 10 + 10).collect()
            };
            let mut candidates: Vec<ProviderId> = pool
                .into_iter()
                .filter(|_| rng.below(3) != 0)
                .map(ProviderId::new)
                .collect();
            if candidates.is_empty() {
                candidates.push(ProviderId::new(i as u32 * 10));
            }
            // Candidates in ascending (router) order or any order.
            if rng.below(2) == 0 {
                shuffle(&mut candidates, rng);
            }
            requests.push((
                query(id, rng.below(consumer_pool as usize) as u32),
                candidates,
            ));
        }

        // Provider replies: one entry per distinct candidate, except the
        // unregistered ones (no entry at all).
        let mut providers: Vec<(ProviderId, Option<ProviderBatchAnswer>)> = Vec::new();
        for (_, candidates) in &requests {
            for &p in candidates {
                if !providers.iter().any(|(q, _)| *q == p) {
                    providers.push((p, None));
                }
            }
        }
        providers.retain(|_| rng.below(8) != 0);
        order_participants(&mut providers, rng);
        let utilization = rng.unit_f64();
        for (p, reply) in &mut providers {
            if rng.below(6) == 0 {
                continue; // missed the deadline
            }
            let mut answers: Vec<ProviderAnswer> = requests
                .iter()
                .filter(|(_, candidates)| candidates.contains(p))
                .map(|(query, _)| ProviderAnswer {
                    query: query.id,
                    intention: value(rng),
                    utilization,
                    bid: bids.then(|| Bid::new(rng.unit_f64() * 100.0, rng.unit_f64())),
                })
                .collect();
            if !answers.is_empty() && rng.below(4) == 0 {
                // A duplicated answer, with a different value.
                let mut again = answers[rng.below(answers.len())];
                again.intention = value(rng);
                answers.push(again);
            }
            if self.hostile {
                if rng.below(2) == 0 {
                    answers.push(ProviderAnswer {
                        query: QueryId::new(ids[rng.below(ids.len())]),
                        intention: value(rng),
                        utilization,
                        bid: None,
                    });
                }
                if rng.below(2) == 0 {
                    shuffle(&mut answers, rng);
                }
                if rng.below(4) == 0 {
                    answers.extend_from_slice(&answers.clone());
                }
            }
            *reply = Some(answers);
        }

        // Consumer replies: one entry per distinct consumer with a query.
        let mut consumers: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)> = Vec::new();
        for (query, _) in &requests {
            if !consumers.iter().any(|(c, _)| *c == query.consumer) {
                consumers.push((query.consumer, None));
            }
        }
        consumers.retain(|_| rng.below(8) != 0);
        order_participants(&mut consumers, rng);
        for (c, reply) in &mut consumers {
            if rng.below(6) == 0 {
                continue; // missed the deadline
            }
            let mut groups: Vec<(QueryId, Vec<(ProviderId, f64)>)> = Vec::new();
            for (query, candidates) in requests.iter().filter(|(q, _)| q.consumer == *c) {
                let mut list: Vec<(ProviderId, f64)> =
                    candidates.iter().map(|&p| (p, value(rng))).collect();
                if rng.below(4) == 0 {
                    list.retain(|_| rng.below(3) != 0);
                }
                if !list.is_empty() && rng.below(4) == 0 {
                    let (p, _) = list[rng.below(list.len())];
                    list.push((p, value(rng)));
                }
                if rng.below(4) == 0 && list.len() > 1 {
                    // The same query answered in two groups.
                    let tail = list.split_off(list.len() / 2);
                    groups.push((query.id, list));
                    groups.push((query.id, tail));
                } else {
                    groups.push((query.id, list));
                }
            }
            if self.hostile {
                // Entries about queries of other consumers, or of no query
                // of the wave.
                for _ in 0..rng.below(3) {
                    let foreign = if rng.below(2) == 0 {
                        requests[rng.below(requests.len())].0.id
                    } else {
                        QueryId::new(ids[rng.below(ids.len())])
                    };
                    let list = (0..rng.below(12))
                        .map(|_| (ProviderId::new(rng.below(80) as u32), value(rng)))
                        .collect();
                    groups.insert(rng.below(groups.len() + 1), (foreign, list));
                }
                for (_, list) in &mut groups {
                    if rng.below(2) == 0 {
                        shuffle(list, rng);
                    }
                    if rng.below(4) == 0 {
                        list.extend_from_slice(&list.clone());
                    }
                }
                if rng.below(4) == 0 {
                    shuffle(&mut groups, rng);
                }
            }
            *reply = Some(groups);
        }

        WaveCase {
            requests,
            consumers,
            providers,
        }
    }
}

/// The single-query entry point appends exactly what the batch entry
/// point returns for that query, leaving earlier contents alone.
fn single_query_agrees(
    case: &WaveCase,
    expected: &[Vec<CandidateInfo>],
) -> Result<(), TestCaseError> {
    let replies = case.replies();
    for ((query, candidates), expected) in case.requests.iter().zip(expected) {
        let sentinel = CandidateInfo::new(ProviderId::new(999));
        let mut infos = vec![sentinel];
        replies.append_candidate_infos(query, candidates, &mut infos);
        prop_assert_eq!(infos[0], sentinel);
        prop_assert_eq!(&infos[1..], &expected[..]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn assembly_matches_the_hash_map_oracle(case in Waves { hostile: false }) {
        let expected = oracle_candidate_infos(case.replies(), &case.requests);
        let assembled = case.replies().into_candidate_infos(&case.requests);
        prop_assert_eq!(&assembled, &expected, "{:?}", case);
        single_query_agrees(&case, &expected)?;
    }

    #[test]
    fn hostile_replies_match_the_oracle_without_foreign_entries(
        case in Waves { hostile: true },
    ) {
        let replies = case.replies();
        let expected = oracle_candidate_infos(
            without_foreign_entries(&replies, &case.requests),
            &case.requests,
        );
        let assembled = replies.into_candidate_infos(&case.requests);
        prop_assert_eq!(&assembled, &expected, "{:?}", case);
        single_query_agrees(&case, &expected)?;
    }
}

#[test]
fn a_consumer_cannot_overwrite_another_consumers_intentions() {
    // Two consumers in one wave. Consumer 1 answers its own query and
    // also sends entries for consumer 0's query; because replies are
    // read in ascending consumer order, a (query, provider)-keyed
    // assembly would let the later, foreign entry win.
    let p = ProviderId::new(0);
    let requests = vec![(query(10, 0), vec![p]), (query(11, 1), vec![p])];
    let replies = WaveReplies {
        consumers: vec![
            (
                ConsumerId::new(0),
                Some(vec![(QueryId::new(10), vec![(p, 0.5)])]),
            ),
            (
                ConsumerId::new(1),
                Some(vec![
                    (QueryId::new(11), vec![(p, 0.25)]),
                    (QueryId::new(10), vec![(p, 0.99)]),
                ]),
            ),
        ],
        providers: vec![(
            p,
            Some(vec![
                ProviderAnswer {
                    query: QueryId::new(10),
                    intention: 0.7,
                    utilization: 0.1,
                    bid: None,
                },
                ProviderAnswer {
                    query: QueryId::new(11),
                    intention: 0.6,
                    utilization: 0.1,
                    bid: None,
                },
            ]),
        )],
    };
    let mut single = Vec::new();
    replies.append_candidate_infos(&requests[0].0, &requests[0].1, &mut single);
    assert_eq!(single[0].consumer_intention, 0.5);

    let infos = replies.into_candidate_infos(&requests);
    assert_eq!(
        infos[0][0].consumer_intention, 0.5,
        "query 10 takes its consumer intentions only from consumer 0"
    );
    assert_eq!(infos[1][0].consumer_intention, 0.25);
    assert_eq!(infos[0][0].provider_intention, 0.7);
    assert_eq!(infos[1][0].provider_intention, 0.6);
}

#[test]
fn a_silent_consumer_is_not_answered_for_by_another() {
    // Consumer 0 missed the deadline; consumer 1's entries about
    // consumer 0's query must not stand in for the missing reply.
    let p = ProviderId::new(3);
    let requests = vec![(query(1, 0), vec![p]), (query(2, 1), vec![p])];
    let replies = WaveReplies {
        consumers: vec![
            (ConsumerId::new(0), None),
            (
                ConsumerId::new(1),
                Some(vec![
                    (QueryId::new(2), vec![(p, 0.25)]),
                    (QueryId::new(1), vec![(p, 0.99)]),
                ]),
            ),
        ],
        providers: Vec::new(),
    };
    let infos = replies.into_candidate_infos(&requests);
    assert_eq!(infos[0][0].consumer_intention, 0.0);
    assert_eq!(infos[1][0].consumer_intention, 0.25);
    assert_eq!(infos[0][0].provider_intention, 0.0);
}
