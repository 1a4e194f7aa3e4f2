//! The Mariposa-like economic baseline (Section 6.2.2).

use sqlb_core::{
    allocation::{select_best, Allocation, AllocationMethod, Bid, CandidateInfo, MediatorView},
    scoring::RankedProvider,
};
use sqlb_types::Query;

/// A consumer bid curve: the maximum aggregate price the consumer accepts
/// as a function of the delivery delay.
///
/// Mariposa's broker "selects the set of bids that has an aggregate price
/// and delay under a bid curve provided by the consumer". We model the
/// curve as a line `max_price(delay) = price_at_zero_delay − slope × delay`
/// (never below zero): the consumer is willing to pay more for faster
/// answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidCurve {
    /// Price accepted for an immediate answer.
    pub price_at_zero_delay: f64,
    /// How quickly the accepted price drops per second of delay.
    pub slope: f64,
}

impl BidCurve {
    /// Creates a bid curve.
    pub fn new(price_at_zero_delay: f64, slope: f64) -> Self {
        BidCurve {
            price_at_zero_delay: price_at_zero_delay.max(0.0),
            slope: slope.max(0.0),
        }
    }

    /// Maximum price acceptable at the given delay.
    pub fn max_price(&self, delay: f64) -> f64 {
        (self.price_at_zero_delay - self.slope * delay.max(0.0)).max(0.0)
    }

    /// Whether a bid falls under the curve.
    pub fn accepts(&self, bid: &Bid) -> bool {
        bid.price <= self.max_price(bid.delay)
    }
}

impl Default for BidCurve {
    fn default() -> Self {
        // Generous default: accepts list-price bids for all but extreme
        // delays. A shallow slope keeps the Mariposa-like broker focused on
        // prices, which is what lets it overutilize the cheapest (most
        // adapted) providers as the paper observes.
        BidCurve::new(300.0, 1.0)
    }
}

/// Configuration of the Mariposa-like broker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MariposaConfig {
    /// The consumer bid curve used when the consumer does not provide one.
    pub default_curve: BidCurve,
    /// Weight of the advertised delay when comparing otherwise-acceptable
    /// bids (effective cost = adjusted price + `delay_weight` × delay).
    pub delay_weight: f64,
    /// Load-adjustment exponent: the broker ranks by
    /// `price × (1 + load)^load_adjustment`. The paper's description
    /// ("providers modify their bids with their current load, bid × load")
    /// corresponds to `1.0`.
    pub load_adjustment: f64,
}

impl Default for MariposaConfig {
    fn default() -> Self {
        MariposaConfig {
            default_curve: BidCurve::default(),
            // The broker mostly compares load-adjusted prices; delays only
            // break near-ties. Mariposa's "crude form of load balancing"
            // (bid × load) is the load_adjustment factor.
            delay_weight: 0.1,
            load_adjustment: 1.0,
        }
    }
}

/// The Mariposa-like broker.
///
/// For each query the broker collects provider bids (price, delay); when a
/// candidate did not bid, a list-price bid is synthesized from the query
/// cost so that the query can still be treated. Bids are adjusted by the
/// provider's current load, bids above the consumer's bid curve are
/// penalized (they are only used when no acceptable bid exists, since
/// queries must be treated whenever a provider exists), and the `q.n`
/// cheapest effective bids win.
///
/// The crucial behavioural property reproduced here is the one the paper's
/// evaluation exposes: the most *adapted* providers bid lowest, keep
/// winning queries, and end up overutilized, while QLB is only enforced
/// "crudely" through the load adjustment.
#[derive(Debug, Clone)]
pub struct MariposaLike {
    config: MariposaConfig,
    record_ranking: bool,
    scratch: Vec<RankedProvider>,
}

impl Default for MariposaLike {
    fn default() -> Self {
        MariposaLike {
            config: MariposaConfig::default(),
            record_ranking: true,
            scratch: Vec::new(),
        }
    }
}

impl MariposaLike {
    /// Creates a broker with the default configuration.
    pub fn new() -> Self {
        MariposaLike::default()
    }

    /// Creates a broker with an explicit configuration.
    pub fn with_config(config: MariposaConfig) -> Self {
        MariposaLike {
            config,
            ..MariposaLike::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> MariposaConfig {
        self.config
    }

    /// Effective cost of a candidate's bid: load-adjusted price plus
    /// weighted delay, plus a large penalty if the bid is not under the
    /// consumer's bid curve.
    fn effective_cost(&self, candidate: &CandidateInfo, bid: &Bid) -> f64 {
        let load_factor = (1.0 + candidate.utilization.max(0.0)).powf(self.config.load_adjustment);
        let adjusted_price = bid.price * load_factor;
        let mut cost = adjusted_price + self.config.delay_weight * bid.delay;
        if !self
            .config
            .default_curve
            .accepts(&Bid::new(adjusted_price, bid.delay))
        {
            // Rejected bids are only used as a last resort: queries must be
            // treated if a provider exists (Section 2), so instead of
            // dropping the query we push these bids to the back of the
            // ranking.
            cost += REJECTED_BID_PENALTY;
        }
        cost
    }
}

/// Penalty added to bids that fall above the consumer's bid curve.
const REJECTED_BID_PENALTY: f64 = 1.0e9;

impl AllocationMethod for MariposaLike {
    fn name(&self) -> &'static str {
        "Mariposa-like"
    }

    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        _view: &dyn MediatorView,
    ) -> Allocation {
        let mut scored = std::mem::take(&mut self.scratch);
        scored.clear();
        scored.extend(candidates.iter().map(|c| {
            let bid = c
                .bid
                .unwrap_or_else(|| Bid::new(query.cost().value(), query.cost().value() / 100.0));
            RankedProvider {
                provider: c.provider,
                score: -self.effective_cost(c, &bid),
            }
        }));
        let allocation = select_best(query, &mut scored, self.record_ranking);
        self.scratch = scored;
        allocation
    }

    fn set_record_ranking(&mut self, record: bool) {
        self.record_ranking = record;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_core::allocation::UniformView;
    use sqlb_types::{ConsumerId, ProviderId, QueryClass, QueryId, SimTime};

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

    fn candidate(id: u32, price: f64, delay: f64, utilization: f64) -> CandidateInfo {
        CandidateInfo::new(ProviderId::new(id))
            .with_utilization(utilization)
            .with_bid(Bid::new(price, delay))
    }

    #[test]
    fn bid_curve_accepts_cheap_fast_bids() {
        let curve = BidCurve::new(100.0, 10.0);
        assert!(curve.accepts(&Bid::new(50.0, 2.0)));
        assert!(!curve.accepts(&Bid::new(90.0, 2.0)));
        assert!(!curve.accepts(&Bid::new(1.0, 20.0)));
        assert_eq!(curve.max_price(20.0), 0.0);
        assert_eq!(curve.max_price(-5.0), 100.0);
    }

    #[test]
    fn cheapest_acceptable_bid_wins() {
        let mut broker = MariposaLike::new();
        let candidates = vec![
            candidate(0, 100.0, 1.0, 0.0),
            candidate(1, 60.0, 1.0, 0.0),
            candidate(2, 80.0, 1.0, 0.0),
        ];
        let alloc = broker.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
        let alloc = broker.allocate(&query(2), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1), ProviderId::new(2)]);
    }

    #[test]
    fn load_adjustment_redirects_queries_away_from_loaded_providers() {
        let mut broker = MariposaLike::new();
        // Provider 0 bids lower but is heavily loaded; bid × load pushes
        // its effective price above provider 1's.
        let candidates = vec![candidate(0, 60.0, 1.0, 1.5), candidate(1, 100.0, 1.0, 0.0)];
        let alloc = broker.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn rejected_bids_used_only_as_last_resort() {
        let mut broker = MariposaLike::with_config(MariposaConfig {
            default_curve: BidCurve::new(100.0, 10.0),
            ..MariposaConfig::default()
        });
        // Provider 0's bid is over the curve; provider 1's is acceptable
        // but nominally more expensive in raw price + delay terms.
        let candidates = vec![candidate(0, 200.0, 0.0, 0.0), candidate(1, 90.0, 0.5, 0.0)];
        let alloc = broker.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
        // If every bid is over the curve, the query is still treated.
        let candidates = vec![candidate(0, 200.0, 0.0, 0.0), candidate(1, 300.0, 0.0, 0.0)];
        let alloc = broker.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(0)]);
    }

    #[test]
    fn missing_bids_are_synthesized_so_queries_are_treated() {
        let mut broker = MariposaLike::new();
        let candidates = vec![CandidateInfo::new(ProviderId::new(0))];
        let alloc = broker.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(0)]);
    }

    #[test]
    fn delay_breaks_price_ties() {
        let mut broker = MariposaLike::new();
        let candidates = vec![candidate(0, 50.0, 5.0, 0.0), candidate(1, 50.0, 1.0, 0.0)];
        let alloc = broker.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(MariposaLike::new().name(), "Mariposa-like");
    }
}
