//! The allocation abstraction shared by SQLB and the baseline methods.
//!
//! A query allocation method receives a query, the candidate set `P_q`
//! (with whatever per-candidate information the mediation process gathered:
//! intentions, utilization, bids…) and a view of the mediator-side
//! satisfaction bookkeeping, and returns the allocation vector — i.e. which
//! `min(q.n, N)` providers get the query (Section 2).

use sqlb_types::{ConsumerId, ProviderId, Query, QueryId};

use crate::scoring::{rank_candidates_in_place, select_top_k, RankedProvider};

/// A provider's bid for a query, used by economic allocation methods
/// (the Mariposa-like baseline, Section 6.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bid {
    /// Price asked by the provider for performing the query.
    pub price: f64,
    /// Delay (in seconds) the provider estimates for delivering the result.
    pub delay: f64,
}

impl Bid {
    /// Creates a bid.
    pub fn new(price: f64, delay: f64) -> Self {
        Bid {
            price: price.max(0.0),
            delay: delay.max(0.0),
        }
    }
}

/// Everything the mediation process gathered about one candidate provider
/// for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateInfo {
    /// The candidate provider.
    pub provider: ProviderId,
    /// The consumer's intention `CI_q[p]` for allocating the query to this
    /// provider (raw value — see `crate::intention` for the range
    /// discussion). `0` when the consumer did not answer in time
    /// (indifference).
    pub consumer_intention: f64,
    /// The provider's intention `PI_q[p]` for performing the query. `0`
    /// when the provider did not answer in time (indifference).
    pub provider_intention: f64,
    /// The provider's current utilization `Ut(p)`, as known to the
    /// mediator. Methods that do not use utilization ignore it.
    pub utilization: f64,
    /// The provider's bid, when the method requested one.
    pub bid: Option<Bid>,
}

impl CandidateInfo {
    /// Creates a candidate entry with neutral intentions, zero utilization
    /// and no bid; builder methods fill in the rest.
    pub fn new(provider: ProviderId) -> Self {
        CandidateInfo {
            provider,
            consumer_intention: 0.0,
            provider_intention: 0.0,
            utilization: 0.0,
            bid: None,
        }
    }

    /// Sets the consumer intention.
    pub fn with_consumer_intention(mut self, ci: f64) -> Self {
        self.consumer_intention = ci;
        self
    }

    /// Sets the provider intention.
    pub fn with_provider_intention(mut self, pi: f64) -> Self {
        self.provider_intention = pi;
        self
    }

    /// Sets the utilization.
    pub fn with_utilization(mut self, ut: f64) -> Self {
        self.utilization = ut;
        self
    }

    /// Sets the bid.
    pub fn with_bid(mut self, bid: Bid) -> Self {
        self.bid = Some(bid);
        self
    }
}

/// The outcome of allocating one query: the selected providers (the set
/// `\hat{P}_q`, in rank order) plus the full ranking for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The query that was allocated.
    pub query: QueryId,
    /// The providers the query is allocated to, best first. Always exactly
    /// `min(q.n, N)` providers for a feasible query.
    pub selected: Vec<ProviderId>,
    /// The complete ranking `R_q` of the candidate set (methods that do not
    /// produce meaningful scores still return the candidates in their
    /// selection order with synthetic scores).
    ///
    /// Materializing `R_q` per query is a diagnostic, not something the
    /// allocation pipeline needs — the engine disables it on its hot path
    /// via [`AllocationMethod::set_record_ranking`], in which case this
    /// vector is empty.
    pub ranking: Vec<RankedProvider>,
}

impl Allocation {
    /// Returns `true` if the given provider was selected.
    pub fn is_selected(&self, provider: ProviderId) -> bool {
        self.selected.contains(&provider)
    }

    /// Number of selected providers.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Whether no provider was selected (only possible for an empty
    /// candidate set).
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

/// A reusable, id-sorted index over an allocation's selected providers.
///
/// The engine's participant bookkeeping asks "was provider `p` selected?"
/// once per candidate per query; answering that with
/// [`Allocation::is_selected`]'s linear scan makes the loop O(C · n). A
/// `SelectionSet` is rebuilt once per allocation (reusing its buffer, so
/// steady-state arrivals allocate nothing) and answers membership by
/// binary search over ids.
#[derive(Debug, Clone, Default)]
pub struct SelectionSet {
    ids: Vec<ProviderId>,
}

impl SelectionSet {
    /// Creates an empty selection set.
    pub fn new() -> Self {
        SelectionSet::default()
    }

    /// Reindexes the set over the given allocation's selected providers.
    pub fn rebuild(&mut self, allocation: &Allocation) {
        self.ids.clear();
        self.ids.extend_from_slice(&allocation.selected);
        self.ids.sort_unstable();
    }

    /// Whether the provider was selected by the indexed allocation.
    #[inline]
    pub fn contains(&self, provider: ProviderId) -> bool {
        self.ids.binary_search(&provider).is_ok()
    }

    /// Number of selected providers in the indexed allocation.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the indexed allocation selected no provider.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Read-only view of the mediator-side, intention-based satisfaction
/// bookkeeping (what Equation 6 is allowed to use).
pub trait MediatorView {
    /// Intention-based satisfaction `δs(c)` of a consumer, as observed by
    /// the mediator. Unknown consumers report the initial value.
    fn consumer_satisfaction(&self, consumer: ConsumerId) -> f64;

    /// Intention-based satisfaction `δs(p)` of a provider, as observed by
    /// the mediator. Unknown providers report the initial value.
    fn provider_satisfaction(&self, provider: ProviderId) -> f64;

    /// Batch gather for the scoring kernel: appends one provider
    /// satisfaction per candidate (in candidate order) to `out`. The
    /// default is the scalar loop; views that keep a dense satisfaction
    /// column (see `MediatorState`) override this to stream the column
    /// directly instead of paying a per-candidate virtual lookup.
    fn provider_satisfactions_into(&self, candidates: &[CandidateInfo], out: &mut Vec<f64>) {
        out.extend(
            candidates
                .iter()
                .map(|c| self.provider_satisfaction(c.provider)),
        );
    }
}

/// A neutral view reporting the same satisfaction for everyone. Useful for
/// tests and for methods that ignore satisfaction entirely.
#[derive(Debug, Clone, Copy)]
pub struct UniformView(pub f64);

impl MediatorView for UniformView {
    fn consumer_satisfaction(&self, _consumer: ConsumerId) -> f64 {
        self.0
    }
    fn provider_satisfaction(&self, _provider: ProviderId) -> f64 {
        self.0
    }
}

/// A query allocation method: given a query, its candidate set and the
/// mediator view, decide which providers get the query.
///
/// Implementations must select exactly `min(q.n, N)` providers (Section 2:
/// "queries should be treated if possible") and must only select providers
/// from the candidate set, without duplicates.
pub trait AllocationMethod {
    /// Human-readable name used in experiment output ("SQLB",
    /// "Capacity based", "Mariposa-like", …).
    fn name(&self) -> &'static str;

    /// Allocates `query` among `candidates`.
    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        view: &dyn MediatorView,
    ) -> Allocation;

    /// Enables or disables materializing the full ranking `R_q` in every
    /// returned [`Allocation`].
    ///
    /// The ranking is a per-query diagnostic: with it enabled (the
    /// default, so interactive users always get it) every allocation
    /// fully sorts and clones the candidate vector; with it disabled a
    /// method only needs a partial top-`min(q.n, N)` selection and
    /// returns an empty `ranking`. The *selected* providers are identical
    /// either way. The simulation engine disables it on its hot path.
    ///
    /// The default implementation ignores the request (suitable for
    /// methods that never materialize a ranking).
    fn set_record_ranking(&mut self, _record: bool) {}

    /// Sets how many worker threads the method may score one candidate
    /// set with. Implementations that parallelize (see `SqlbAllocator`)
    /// must keep the outcome bit-identical to sequential scoring at any
    /// thread count — scoring is pure per candidate and the reduction is
    /// a deterministic index-ordered merge, so this is a throughput knob,
    /// never a semantics knob. The default ignores the request (suitable
    /// for methods whose decision is not a per-candidate kernel).
    fn set_scoring_threads(&mut self, _threads: usize) {}
}

/// Helper shared by allocation methods: keep the `min(q.n, N)` best entries
/// of an already-ranked candidate list and package them as an
/// [`Allocation`].
pub fn take_best(query: &Query, ranking: Vec<RankedProvider>) -> Allocation {
    let n = (query.n as usize).min(ranking.len());
    Allocation {
        query: query.id,
        selected: ranking.iter().take(n).map(|r| r.provider).collect(),
        ranking,
    }
}

/// Hot-path variant of [`take_best`] for score-ranked methods: takes the
/// *unsorted* scored candidates in a reusable buffer, selects the
/// `min(q.n, N)` best in place (partial selection — identical prefix to a
/// full sort, see [`select_top_k`]), and only materializes/sorts the full
/// ranking when `record_ranking` is set. The buffer is left reusable by
/// the caller for the next query.
pub fn select_best(
    query: &Query,
    scored: &mut [RankedProvider],
    record_ranking: bool,
) -> Allocation {
    let n = (query.n as usize).min(scored.len());
    if record_ranking {
        rank_candidates_in_place(scored);
    } else {
        select_top_k(scored, n);
    }
    Allocation {
        query: query.id,
        selected: scored[..n].iter().map(|r| r.provider).collect(),
        ranking: if record_ranking {
            scored.to_vec()
        } else {
            Vec::new()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::{QueryClass, SimTime};

    fn query(n: u32) -> Query {
        let mut q = Query::single(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        q.n = n;
        q
    }

    #[test]
    fn bid_clamps_negative_values() {
        let b = Bid::new(-3.0, -1.0);
        assert_eq!(b.price, 0.0);
        assert_eq!(b.delay, 0.0);
    }

    #[test]
    fn candidate_builder_sets_fields() {
        let c = CandidateInfo::new(ProviderId::new(4))
            .with_consumer_intention(0.3)
            .with_provider_intention(-0.2)
            .with_utilization(0.7)
            .with_bid(Bid::new(10.0, 2.0));
        assert_eq!(c.provider, ProviderId::new(4));
        assert_eq!(c.consumer_intention, 0.3);
        assert_eq!(c.provider_intention, -0.2);
        assert_eq!(c.utilization, 0.7);
        assert_eq!(c.bid.unwrap().price, 10.0);
    }

    #[test]
    fn take_best_respects_query_n() {
        let ranking = vec![
            RankedProvider {
                provider: ProviderId::new(0),
                score: 0.9,
            },
            RankedProvider {
                provider: ProviderId::new(1),
                score: 0.5,
            },
            RankedProvider {
                provider: ProviderId::new(2),
                score: 0.1,
            },
        ];
        let a = take_best(&query(2), ranking.clone());
        assert_eq!(a.selected, vec![ProviderId::new(0), ProviderId::new(1)]);
        assert_eq!(a.len(), 2);
        assert!(a.is_selected(ProviderId::new(1)));
        assert!(!a.is_selected(ProviderId::new(2)));

        // q.n larger than the candidate set: all candidates are selected.
        let a = take_best(&query(10), ranking.clone());
        assert_eq!(a.len(), 3);

        // Empty candidate set yields an empty allocation.
        let a = take_best(&query(1), vec![]);
        assert!(a.is_empty());
    }

    #[test]
    fn select_best_matches_take_best_selection() {
        let scored = vec![
            RankedProvider {
                provider: ProviderId::new(2),
                score: 0.1,
            },
            RankedProvider {
                provider: ProviderId::new(0),
                score: 0.9,
            },
            RankedProvider {
                provider: ProviderId::new(1),
                score: 0.5,
            },
        ];
        for n in [1u32, 2, 10] {
            let reference = take_best(&query(n), crate::scoring::rank_candidates(scored.clone()));
            let mut buffer = scored.clone();
            let lean = select_best(&query(n), &mut buffer, false);
            assert_eq!(lean.selected, reference.selected);
            assert!(lean.ranking.is_empty(), "lean path skips the ranking");
            let mut buffer = scored.clone();
            let full = select_best(&query(n), &mut buffer, true);
            assert_eq!(full.selected, reference.selected);
            assert_eq!(full.ranking, reference.ranking);
        }
    }

    #[test]
    fn selection_set_answers_membership() {
        let allocation = Allocation {
            query: QueryId::new(1),
            selected: vec![ProviderId::new(7), ProviderId::new(2), ProviderId::new(5)],
            ranking: Vec::new(),
        };
        let mut set = SelectionSet::new();
        set.rebuild(&allocation);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        for p in 0..10u32 {
            assert_eq!(
                set.contains(ProviderId::new(p)),
                allocation.is_selected(ProviderId::new(p)),
                "SelectionSet disagrees with is_selected for p{p}"
            );
        }
        // Rebuilding over another allocation reuses the buffer.
        let empty = Allocation {
            query: QueryId::new(2),
            selected: vec![],
            ranking: Vec::new(),
        };
        set.rebuild(&empty);
        assert!(set.is_empty());
        assert!(!set.contains(ProviderId::new(7)));
    }

    #[test]
    fn uniform_view_reports_constant() {
        let v = UniformView(0.25);
        assert_eq!(v.consumer_satisfaction(ConsumerId::new(0)), 0.25);
        assert_eq!(v.provider_satisfaction(ProviderId::new(9)), 0.25);
    }
}
