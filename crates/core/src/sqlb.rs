//! The SQLB allocation method (Section 5.3–5.4).

use sqlb_types::Query;

use crate::allocation::{select_best, Allocation, AllocationMethod, CandidateInfo, MediatorView};
use crate::intention::IntentionParams;
use crate::scoring::{best_candidate_lazy, omega, provider_score, score_batch, RankedProvider};

/// How the consumer/provider trade-off weight `ω` is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OmegaPolicy {
    /// Equation 6: `ω = ((δs(c) − δs(p)) + 1) / 2`, computed per candidate
    /// from the mediator's intention-based satisfaction view. This is the
    /// policy that "guarantees equity at all levels".
    #[default]
    SatisfactionBalanced,
    /// A fixed `ω` value. Section 5.3 notes that "one can also set ω's
    /// value according to the kind of application", e.g. `ω = 0` when
    /// providers are cooperative and result quality is all that matters.
    Fixed(f64),
}

/// Configuration of the SQLB allocator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SqlbConfig {
    /// The `ε` constant used by the scoring function (Definition 9).
    pub params: IntentionParams,
    /// How `ω` is obtained.
    pub omega_policy: OmegaPolicy,
}

/// The Satisfaction-based Query Load Balancing allocator.
///
/// For every candidate provider `p` of a query `q` issued by consumer `c`,
/// SQLB computes the score
///
/// ```text
/// scr_q(p) = balance_ω( PI_q[p], CI_q[p] )          (Definition 9)
/// ω        = ((δs(c) − δs(p)) + 1) / 2              (Equation 6)
/// ```
///
/// ranks the candidates by decreasing score and allocates the query to the
/// `min(q.n, N)` best-ranked providers (Algorithm 1, lines 6–10).
#[derive(Debug, Clone)]
pub struct SqlbAllocator {
    config: SqlbConfig,
    /// Whether allocations carry the full ranking `R_q` (diagnostic; the
    /// engine turns this off on its hot path).
    record_ranking: bool,
    /// Worker threads the full-evaluation kernel may score one candidate
    /// set with (1 = sequential). Bit-identical at any count.
    scoring_threads: usize,
    /// Reusable scoring buffer: in steady state `allocate` performs no
    /// heap allocation beyond the returned selection vector.
    scratch: Vec<RankedProvider>,
    /// Reusable column of per-candidate provider satisfactions (the
    /// mediator view's dense column, gathered once per query).
    sat_scratch: Vec<f64>,
    /// Reusable column of per-candidate `ω` weights (Equation 6).
    omega_scratch: Vec<f64>,
    /// Reusable column of certified score upper bounds (lazy argmax).
    ub_scratch: Vec<f64>,
}

impl Default for SqlbAllocator {
    fn default() -> Self {
        SqlbAllocator {
            config: SqlbConfig::default(),
            record_ranking: true,
            scoring_threads: 1,
            scratch: Vec::new(),
            sat_scratch: Vec::new(),
            omega_scratch: Vec::new(),
            ub_scratch: Vec::new(),
        }
    }
}

impl SqlbAllocator {
    /// Creates an allocator with the default configuration (Equation 6
    /// omega, `ε = 1`).
    pub fn new() -> Self {
        SqlbAllocator::default()
    }

    /// Creates an allocator with an explicit configuration.
    pub fn with_config(config: SqlbConfig) -> Self {
        SqlbAllocator {
            config,
            ..SqlbAllocator::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SqlbConfig {
        self.config
    }

    /// Scores a single candidate for a query issued by `query.consumer`.
    pub fn score_candidate(
        &self,
        query: &Query,
        candidate: &CandidateInfo,
        view: &dyn MediatorView,
    ) -> f64 {
        let w = match self.config.omega_policy {
            OmegaPolicy::SatisfactionBalanced => omega(
                view.consumer_satisfaction(query.consumer),
                view.provider_satisfaction(candidate.provider),
            ),
            OmegaPolicy::Fixed(w) => w.clamp(0.0, 1.0),
        };
        provider_score(
            candidate.provider_intention,
            candidate.consumer_intention,
            w,
            self.config.params,
        )
    }
}

impl AllocationMethod for SqlbAllocator {
    fn name(&self) -> &'static str {
        "SQLB"
    }

    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        view: &dyn MediatorView,
    ) -> Allocation {
        // Stage 1 — gather the `ω` column. The consumer's satisfaction is
        // per query, not per candidate, so it is hoisted; the provider
        // satisfactions are gathered in one batch call so views backed by
        // a dense column (MediatorState) stream it without a per-candidate
        // virtual dispatch.
        self.omega_scratch.clear();
        match self.config.omega_policy {
            OmegaPolicy::SatisfactionBalanced => {
                let consumer_satisfaction = view.consumer_satisfaction(query.consumer);
                self.sat_scratch.clear();
                view.provider_satisfactions_into(candidates, &mut self.sat_scratch);
                self.omega_scratch.extend(
                    self.sat_scratch
                        .iter()
                        .map(|&ps| omega(consumer_satisfaction, ps)),
                );
            }
            OmegaPolicy::Fixed(w) => {
                let w = w.clamp(0.0, 1.0);
                self.omega_scratch
                    .extend(std::iter::repeat_n(w, candidates.len()));
            }
        }

        // Stage 2 — the scoring kernel. The engine's hot path (`q.n = 1`,
        // ranking off) takes the certified-upper-bound lazy argmax, which
        // is bit-identical to full evaluation; everything else scores the
        // whole column (in parallel when configured — also bit-identical,
        // the kernel is pure per candidate and merged in index order).
        if !self.record_ranking && query.n == 1 && self.scoring_threads <= 1 {
            let selected = best_candidate_lazy(
                candidates,
                &self.omega_scratch,
                self.config.params,
                &mut self.ub_scratch,
            );
            return Allocation {
                query: query.id,
                selected: selected.into_iter().map(|r| r.provider).collect(),
                ranking: Vec::new(),
            };
        }
        let mut scored = std::mem::take(&mut self.scratch);
        scored.clear();
        if self.scoring_threads > 1 && candidates.len() >= PARALLEL_KERNEL_MIN_CANDIDATES {
            score_batch_parallel(
                candidates,
                &self.omega_scratch,
                self.config.params,
                self.scoring_threads,
                &mut scored,
            );
        } else {
            score_batch(
                candidates,
                &self.omega_scratch,
                self.config.params,
                &mut scored,
            );
        }
        let allocation = select_best(query, &mut scored, self.record_ranking);
        self.scratch = scored;
        allocation
    }

    fn set_record_ranking(&mut self, record: bool) {
        self.record_ranking = record;
    }

    fn set_scoring_threads(&mut self, threads: usize) {
        self.scoring_threads = threads.max(1);
    }
}

/// Below this candidate count a parallel kernel cannot pay for its thread
/// coordination; smaller sets always score sequentially (same bits either
/// way).
const PARALLEL_KERNEL_MIN_CANDIDATES: usize = 32;

/// Deterministic intra-shard parallel scoring: the candidate slice is cut
/// into `threads` fixed, contiguous chunks (a pure function of the slice
/// length and thread count), every chunk is scored independently into its
/// disjoint region of the output column, and the regions concatenate back
/// in index order. Each element's score is computed by the same pure
/// [`provider_score`] call sequential scoring would make, so the output
/// vector — and every selection derived from it, lowest-id tie-breaks
/// included — is bit-identical at any thread count.
fn score_batch_parallel(
    candidates: &[CandidateInfo],
    omegas: &[f64],
    params: IntentionParams,
    threads: usize,
    out: &mut Vec<RankedProvider>,
) {
    let n = candidates.len();
    debug_assert_eq!(n, omegas.len());
    out.resize(
        n,
        RankedProvider {
            provider: sqlb_types::ProviderId::new(0),
            score: 0.0,
        },
    );
    let chunk = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for ((cands, ws), outs) in candidates
            .chunks(chunk)
            .zip(omegas.chunks(chunk))
            .zip(out.chunks_mut(chunk))
        {
            scope.spawn(move || {
                for ((c, &w), slot) in cands.iter().zip(ws.iter()).zip(outs.iter_mut()) {
                    *slot = RankedProvider {
                        provider: c.provider,
                        score: provider_score(
                            c.provider_intention,
                            c.consumer_intention,
                            w,
                            params,
                        ),
                    };
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::UniformView;
    use crate::MediatorState;
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

    fn candidate(id: u32, ci: f64, pi: f64) -> CandidateInfo {
        CandidateInfo::new(ProviderId::new(id))
            .with_consumer_intention(ci)
            .with_provider_intention(pi)
    }

    #[test]
    fn allocates_to_mutually_wanted_provider() {
        // The Table 1 scenario, with graded intentions: p5 is the only
        // provider both sides want (though overloaded, which Definition 8
        // would already have folded into its intention).
        let mut sqlb = SqlbAllocator::new();
        let q = query(1);
        let candidates = vec![
            candidate(1, -0.8, 0.9), // provider wants it, consumer does not
            candidate(2, 0.9, -0.6), // consumer wants it, provider does not
            candidate(3, -0.7, 0.3),
            candidate(4, 0.8, -0.2),
            candidate(5, 0.7, 0.6), // both want it
        ];
        let alloc = sqlb.allocate(&q, &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(5)]);
        assert_eq!(alloc.ranking.len(), 5);
    }

    #[test]
    fn respects_query_n_and_candidate_count() {
        let mut sqlb = SqlbAllocator::new();
        let candidates = vec![candidate(0, 0.5, 0.5), candidate(1, 0.6, 0.6)];
        let alloc = sqlb.allocate(&query(2), &candidates, &UniformView(0.5));
        assert_eq!(alloc.len(), 2);
        let alloc = sqlb.allocate(&query(5), &candidates, &UniformView(0.5));
        assert_eq!(alloc.len(), 2, "cannot select more providers than exist");
        let alloc = sqlb.allocate(&query(1), &[], &UniformView(0.5));
        assert!(alloc.is_empty());
    }

    #[test]
    fn fixed_omega_zero_only_considers_consumer() {
        // ω = 0: the score equals the consumer intention, so the provider
        // preferred by the consumer wins even if it does not want the
        // query.
        let mut sqlb = SqlbAllocator::with_config(SqlbConfig {
            params: IntentionParams::default(),
            omega_policy: OmegaPolicy::Fixed(0.0),
        });
        let candidates = vec![candidate(0, 0.9, 0.1), candidate(1, 0.3, 0.95)];
        let alloc = sqlb.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(0)]);
    }

    #[test]
    fn fixed_omega_one_only_considers_provider() {
        let mut sqlb = SqlbAllocator::with_config(SqlbConfig {
            params: IntentionParams::default(),
            omega_policy: OmegaPolicy::Fixed(1.0),
        });
        let candidates = vec![candidate(0, 0.9, 0.1), candidate(1, 0.3, 0.95)];
        let alloc = sqlb.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn satisfaction_balance_shifts_allocation_towards_dissatisfied_side() {
        // Two candidates with symmetric intentions; the mediator has
        // observed that provider 0 is much less satisfied than provider 1,
        // while the consumer is well satisfied. Equation 6 then weighs the
        // providers' intentions more, so the provider that wants the query
        // (p0) should win over the provider the consumer slightly prefers
        // (p1).
        let mut state = MediatorState::paper_default();
        // Seed provider satisfactions by recording proposals directly.
        // p0 repeatedly shows positive intentions but never gets queries;
        // p1 always gets what it asks for.
        for i in 0..50 {
            let q = Query::single(
                QueryId::new(100 + i),
                ConsumerId::new(0),
                QueryClass::Light,
                SimTime::ZERO,
            );
            let cands = vec![candidate(0, 0.5, 0.8), candidate(1, 0.5, 0.8)];
            let alloc = Allocation {
                query: q.id,
                selected: vec![ProviderId::new(1)],
                ranking: vec![],
            };
            state.record_allocation(&q, &cands, &alloc);
        }
        assert!(
            state.provider_satisfaction(ProviderId::new(0))
                < state.provider_satisfaction(ProviderId::new(1))
        );

        let mut sqlb = SqlbAllocator::new();
        // The consumer marginally prefers p1, both providers equally want
        // the query.
        let candidates = vec![candidate(0, 0.55, 0.8), candidate(1, 0.6, 0.8)];
        let alloc = sqlb.allocate(&query(1), &candidates, &state);
        assert_eq!(
            alloc.selected,
            vec![ProviderId::new(0)],
            "the dissatisfied provider should be favoured"
        );
    }

    #[test]
    fn name_is_sqlb() {
        assert_eq!(SqlbAllocator::new().name(), "SQLB");
    }
}
