//! Absolute digest pins for sharded (K > 1) runs.
//!
//! `report_digest` and `campaign --check` pin mono-mediator (K = 1) runs
//! only. The engine stores provider agents shard-major when K > 1 (each
//! residue class `id mod K` in one contiguous block), so a layout defect
//! — an agent read through the wrong slot, a candidate skipped by
//! `iter_mut_of`, an iteration that leaves ascending id order — would
//! change these runs and nothing else. Each case below is pinned to the
//! digest the identity layout produced, and runs on every backend it
//! names.
//!
//! Together the cases cover K ∈ {2, 3, 16}, provider counts that do and
//! do not divide evenly by K, least-loaded routing with migration (so
//! candidate lists carry providers off their home residue), churn groups
//! under both re-join policies, autonomous departures and procedural
//! preferences.

use sqlb::sim::engine::run_scenario;
use sqlb::sim::{
    ChurnGroup, MediationMode, Method, RejoinPolicy, RoutingPolicyKind, Scenario, SimulationConfig,
    SimulationReport, WorkloadPattern,
};

/// One pinned sharded configuration.
struct Case {
    config: SimulationConfig,
    scenario: Scenario,
    /// The report digest every listed backend must reproduce.
    digest: u64,
    backends: &'static [MediationMode],
}

const IN_PROCESS: &[MediationMode] = &[MediationMode::Inline, MediationMode::Reactor];

fn churn(fraction: f64, depart: f64, rejoin_at: f64, rejoin: RejoinPolicy) -> ChurnGroup {
    ChurnGroup {
        fraction,
        depart_at_secs: depart,
        rejoin_at_secs: Some(rejoin_at),
        rejoin,
    }
}

/// Least-loaded routing with provider migration: the part every case
/// shares, because migrated providers are what put off-residue ids into
/// a shard's candidate list.
fn sharded(consumers: u32, providers: u32, shards: usize, seed: u64) -> SimulationConfig {
    SimulationConfig::scaled(consumers, providers, 240.0, seed)
        .with_workload(WorkloadPattern::Fixed(0.7))
        .with_mediator_shards(shards)
        .with_routing(RoutingPolicyKind::LeastLoaded)
        .with_migration(true)
}

fn with_departures(config: SimulationConfig) -> SimulationConfig {
    let (provider_rule, consumer_rule) = (config.provider_departure, config.consumer_departure);
    config
        .with_provider_departures(provider_rule)
        .with_consumer_departures(consumer_rule)
}

/// K = 2 over an even provider count, churn under `Resume`; also run on
/// the socket backend.
fn k2_case() -> Case {
    let mut scenario = Scenario::steady("k2-resume");
    scenario
        .churn
        .push(churn(0.25, 60.0, 150.0, RejoinPolicy::Resume));
    Case {
        config: sharded(15, 40, 2, 5).with_socket_hosts(2),
        scenario,
        digest: 0xfdf7_d7bc_9520_2f80,
        backends: &[
            MediationMode::Inline,
            MediationMode::Reactor,
            MediationMode::Socket,
        ],
    }
}

/// K = 3 over 50 providers (the last block has a hole), churn under
/// `Reset`, autonomous provider and consumer departures.
fn k3_case() -> Case {
    let mut scenario = Scenario::steady("k3-reset");
    scenario
        .churn
        .push(churn(0.3, 50.0, 120.0, RejoinPolicy::Reset));
    Case {
        config: with_departures(sharded(16, 50, 3, 7)),
        scenario,
        digest: 0x3ec3_4f30_21ad_8d9e,
        backends: IN_PROCESS,
    }
}

/// K = 16 over 100 providers (blocks of 7, four holes), procedural
/// preferences, one churn group under each policy and autonomous
/// departures.
fn k16_case() -> Case {
    let mut config = with_departures(sharded(24, 100, 16, 11));
    config.population.procedural_preferences = true;
    let mut scenario = Scenario::steady("k16-mixed");
    scenario
        .churn
        .push(churn(0.2, 40.0, 110.0, RejoinPolicy::Resume));
    scenario
        .churn
        .push(churn(0.2, 70.0, 160.0, RejoinPolicy::Reset));
    Case {
        config,
        scenario,
        digest: 0x8d85_6efd_2141_7502,
        backends: IN_PROCESS,
    }
}

fn run(case: &Case, mode: MediationMode) -> SimulationReport {
    run_scenario(
        case.config.with_mediation(mode),
        Method::Sqlb,
        &case.scenario,
    )
    .expect("pinned sharded run")
}

fn assert_pinned(case: Case) -> SimulationReport {
    let mut first = None;
    for &mode in case.backends {
        let report = run(&case, mode);
        assert_eq!(
            report.digest(),
            case.digest,
            "{} on {mode:?}: digest {:#018x} differs from the pin",
            case.scenario.name,
            report.digest()
        );
        first.get_or_insert(report);
    }
    first.expect("every case names at least one backend")
}

#[test]
fn k2_least_loaded_migration_and_resume_churn_match_the_pin() {
    let report = assert_pinned(k2_case());
    assert_eq!(report.mediator_shards, 2);
    assert!(!report.migrations.is_empty(), "providers must migrate");
    assert!(report.churn_rejoins > 0, "the churn group must re-join");
}

#[test]
fn k3_departures_and_reset_churn_match_the_pin() {
    let report = assert_pinned(k3_case());
    assert_eq!(report.mediator_shards, 3);
    assert!(!report.migrations.is_empty(), "providers must migrate");
    assert!(report.churn_rejoins > 0, "the churn group must re-join");
    assert!(
        !report.provider_departures.is_empty(),
        "autonomous departures must fire"
    );
}

#[test]
fn k16_procedural_preferences_and_both_rejoin_policies_match_the_pin() {
    let report = assert_pinned(k16_case());
    assert_eq!(report.mediator_shards, 16);
    assert!(!report.migrations.is_empty(), "providers must migrate");
    assert!(report.churn_rejoins > 0, "the churn groups must re-join");
    assert!(
        !report.provider_departures.is_empty(),
        "autonomous departures must fire"
    );
}
