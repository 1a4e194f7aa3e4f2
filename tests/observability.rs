//! Observability is observation-only: turning it on never changes what
//! the engine computes.
//!
//! Two contracts are pinned here:
//!
//! 1. **Digest bit-identity.** Same-seed runs produce bit-identical
//!    report digests with instrumentation enabled and disabled, on every
//!    mediation backend (inline, reactor, socket). The obs
//!    layer hangs off the engine's existing accounting — it never rolls
//!    the RNG, never touches satisfaction state, and its counters are
//!    resolved once up front — so the digest cannot move.
//! 2. **Snapshot consistency.** When instrumentation is on, the engine's
//!    obs counters agree exactly with the report it returns (issued /
//!    completed / unallocated queries, indifferent replies, degraded
//!    waves), and the response-time histogram saw one sample per
//!    completed query. When it is off (the default), the handle is
//!    disabled and snapshots are empty.

use sqlb::obs::Obs;
use sqlb::sim::engine::{run_simulation, Simulator};
use sqlb::sim::{MediationMode, Method, SimulationConfig};

const BACKENDS: [MediationMode; 3] = [
    MediationMode::Inline,
    MediationMode::Reactor,
    MediationMode::Socket,
];

fn config(seed: u64) -> SimulationConfig {
    SimulationConfig::scaled(16, 32, 150.0, seed)
}

#[test]
fn instrumentation_never_changes_the_digest_on_any_backend() {
    for seed in [7, 41] {
        for mode in BACKENDS {
            let off = run_simulation(config(seed).with_mediation(mode), Method::Sqlb).unwrap();
            let on = run_simulation(
                config(seed).with_mediation(mode).with_observability(true),
                Method::Sqlb,
            )
            .unwrap();
            assert!(
                off.issued_queries > 0 && off.completed_queries > 0,
                "seed {seed} on {mode:?} must issue and complete work"
            );
            assert_eq!(
                off.digest(),
                on.digest(),
                "obs on/off digests diverged: seed {seed}, backend {mode:?}"
            );
        }
    }
}

#[test]
fn engine_counters_agree_with_the_report() {
    for mode in BACKENDS {
        let sim = Simulator::new(
            config(23).with_mediation(mode).with_observability(true),
            Method::Sqlb,
        )
        .unwrap();
        // Clones share storage, so a handle taken before `run` consumes
        // the simulator still sees everything the run recorded.
        let obs = sim.obs().clone();
        assert!(obs.is_enabled());
        let report = sim.run();

        let snapshot = obs.snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        assert_eq!(counter("queries_issued"), report.issued_queries, "{mode:?}");
        assert_eq!(
            counter("queries_completed"),
            report.completed_queries,
            "{mode:?}"
        );
        assert_eq!(
            counter("queries_unallocated"),
            report.unallocated_queries,
            "{mode:?}"
        );
        assert_eq!(
            counter("indifferent_replies"),
            report.indifferent_replies,
            "{mode:?}"
        );
        assert_eq!(counter("degraded_waves"), report.degraded_waves, "{mode:?}");

        let response = snapshot
            .histogram("response_time_seconds")
            .expect("the engine registers a response-time histogram");
        assert_eq!(response.count, report.completed_queries, "{mode:?}");

        // The snapshot renders in both formats without panicking, and
        // the rendered text carries the engine counters.
        let text = snapshot.to_prometheus_text();
        assert!(text.contains("sqlb_queries_issued"));
        let json = snapshot.to_json();
        assert!(json.contains("\"queries_issued\""));
    }
}

#[test]
fn observability_is_off_by_default_and_snapshots_are_empty() {
    let sim = Simulator::new(config(5), Method::Sqlb).unwrap();
    let obs = sim.obs().clone();
    assert!(!obs.is_enabled());
    let report = sim.run();
    assert!(report.completed_queries > 0);

    let snapshot = obs.snapshot();
    assert!(snapshot.counters.is_empty());
    assert!(snapshot.gauges.is_empty());
    assert!(snapshot.histograms.is_empty());
    assert_eq!(snapshot.to_prometheus_text(), "");

    // A disabled handle also records no flight-recorder events.
    assert_eq!(
        Obs::disabled().dump_events_json(),
        "{\"dropped\": 0, \"events\": []}"
    );
}
