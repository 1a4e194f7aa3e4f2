//! The benchmark's four named workloads. Each is a `SimulationConfig`
//! (plus, for `sharded-reactor`, a churn scenario) built from the
//! workload seed alone, so the same seed always gives the same inputs.
//!
//! The shapes are fixed here rather than borrowed from the figure and
//! bench binaries, so that changes to those binaries never change what
//! the benchmark measures.

use sqlb_sim::{
    ChurnGroup, MediationMode, Method, RejoinPolicy, RoutingPolicyKind, Scenario, SimulationConfig,
    WorkloadPattern,
};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-k1", "scale-300k", "sharded-reactor", "socket-k1"];

/// Virtual length of one `paper-k1` repetition. Table 2 runs 10 000 s;
/// the benchmark keeps the 30 → 100 % ramp but compresses it into
/// 100 s (about 9 500 queries), so one repetition takes under a host
/// second and a run can report a median over several.
pub const PAPER_DURATION_SECS: f64 = 50.0;

/// Participants of the `scale-300k` workload.
pub const SCALE_PARTICIPANTS: u32 = 300_000;
/// Providers per shard at most (the candidate set stays near the
/// paper's size).
pub const SCALE_SHARD_FANOUT: u32 = 96;
/// Virtual length of one `scale-300k` repetition.
pub const SCALE_DURATION_SECS: f64 = 0.5;

/// Virtual length of one `sharded-reactor` repetition.
pub const REACTOR_DURATION_SECS: f64 = 10.0;
/// Mediator shards of the `sharded-reactor` workload.
pub const REACTOR_SHARDS: usize = 16;

/// Virtual length of one `socket-k1` repetition.
pub const SOCKET_DURATION_SECS: f64 = 40.0;

/// Population size from which live state (about 0.4 kB per participant
/// after set-up, twice that during a run) outgrows the host's 105 MiB
/// last-level cache. On `scale-300k`, scaling by the probe widened the
/// spread between runs from 8 % to 20 %.
pub const PROBE_MAX_PARTICIPANTS: u64 = 100_000;

/// One runnable workload: what `Simulator::with_scenario` needs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload's name.
    pub name: &'static str,
    /// The engine configuration.
    pub config: SimulationConfig,
    /// The scenario the engine runs (a steady one when nothing is
    /// injected).
    pub scenario: Scenario,
}

impl Workload {
    /// The allocation method every workload runs.
    pub const METHOD: Method = Method::Sqlb;

    /// Builds the named workload for `seed`, or `None` for an unknown
    /// name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let (name, config, scenario) = match name {
            "paper-k1" => {
                let mut config = SimulationConfig::paper(seed);
                config.duration_secs = PAPER_DURATION_SECS;
                ("paper-k1", config, Scenario::steady("paper-k1"))
            }
            "scale-300k" => (
                "scale-300k",
                scale_config(seed),
                Scenario::steady("scale-300k"),
            ),
            "sharded-reactor" => {
                let config = SimulationConfig::scaled(1_000, 2_000, REACTOR_DURATION_SECS, seed)
                    .with_workload(WorkloadPattern::Fixed(0.6))
                    .with_mediator_shards(REACTOR_SHARDS)
                    .with_routing(RoutingPolicyKind::LeastLoaded)
                    .with_migration(true)
                    .with_sync_interval(1.0)
                    .with_mediation(MediationMode::Reactor);
                let mut scenario = Scenario::steady("sharded-reactor");
                scenario.churn.push(ChurnGroup {
                    fraction: 0.25,
                    depart_at_secs: REACTOR_DURATION_SECS / 4.0,
                    rejoin_at_secs: Some(REACTOR_DURATION_SECS / 2.0),
                    rejoin: RejoinPolicy::Resume,
                });
                ("sharded-reactor", config, scenario)
            }
            "socket-k1" => {
                let config = SimulationConfig::scaled(32, 64, SOCKET_DURATION_SECS, seed)
                    .with_workload(WorkloadPattern::Fixed(0.6))
                    .with_mediation(MediationMode::Socket)
                    .with_socket_hosts(1);
                ("socket-k1", config, Scenario::steady("socket-k1"))
            }
            _ => return None,
        };
        // One scoring thread everywhere: the machine has two cores, and
        // the socket workload needs the second for its host thread.
        let config = config.with_scoring_threads(1);
        Some(Workload {
            name,
            config,
            scenario,
        })
    }

    /// The same workload on the inline backend: the reference run the
    /// mediated backends must match digest for digest.
    pub fn inline_reference(&self) -> Workload {
        Workload {
            name: self.name,
            config: self.config.with_mediation(MediationMode::Inline),
            scenario: self.scenario.clone(),
        }
    }

    /// Whether the workload gathers through a mediated backend, whose
    /// digest must equal an inline run's.
    pub fn is_mediated(&self) -> bool {
        !matches!(self.config.mediation, MediationMode::Inline)
    }

    /// Whether the run scales its times by the host-speed probe (see
    /// `probe`). The probe tracks the host only while its 8 MiB table
    /// stays cached beside the workload; a workload of
    /// [`PROBE_MAX_PARTICIPANTS`] or more keeps more live state than the
    /// last-level cache holds, and next to it the probe mostly measures
    /// the workload's own evictions.
    pub fn scaled_by_probe(&self) -> bool {
        self.participants() < PROBE_MAX_PARTICIPANTS
    }

    /// Initial participants (consumers + providers).
    pub fn participants(&self) -> u64 {
        self.config.population.consumers as u64 + self.config.population.providers as u64
    }
}

/// The million-participant scale shape at 3 × 10⁵ participants: a 1 : 2
/// consumer/provider split, shards of at most 96 providers, procedural
/// preferences, a fixed 30 % load, the paper's absolute window sizes and
/// no `SyncViews` round inside the run.
fn scale_config(seed: u64) -> SimulationConfig {
    let consumers = SCALE_PARTICIPANTS / 3;
    let providers = SCALE_PARTICIPANTS - consumers;
    let shards = providers.div_ceil(SCALE_SHARD_FANOUT) as usize;
    let mut config = SimulationConfig::scaled(consumers, providers, SCALE_DURATION_SECS, seed)
        .with_workload(WorkloadPattern::Fixed(0.3))
        .with_mediator_shards(shards)
        .with_sync_interval(SCALE_DURATION_SECS * 8.0);
    config.population.procedural_preferences = true;
    config.population.consumer_config.memory = 200;
    config.population.provider_config.proposed_memory = 500;
    config.population.provider_config.performed_memory = 500;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_a_valid_config() {
        for name in NAMES {
            let workload = Workload::build(name, 7).expect(name);
            assert_eq!(workload.name, name);
            assert!(workload.config.validate().is_ok(), "{name}");
            assert!(
                workload.scenario.validate(&workload.config).is_ok(),
                "{name}"
            );
            assert_eq!(workload.config.scoring_threads, 1);
            assert!(!workload.config.providers_may_leave, "{name}");
            assert!(!workload.config.consumers_may_leave, "{name}");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(Workload::build("paper-k2", 1).is_none());
        assert!(Workload::build("", 1).is_none());
    }

    #[test]
    fn scale_shape_matches_the_documented_split() {
        let config = Workload::build("scale-300k", 1).unwrap().config;
        assert_eq!(config.population.consumers, 100_000);
        assert_eq!(config.population.providers, 200_000);
        assert_eq!(config.mediator_shards, 2_084);
        assert!(config.sync_interval_secs > config.duration_secs);
    }

    #[test]
    fn only_the_cache_resident_workloads_are_scaled_by_the_probe() {
        for name in NAMES {
            let workload = Workload::build(name, 1).unwrap();
            assert_eq!(workload.scaled_by_probe(), name != "scale-300k", "{name}");
        }
    }
}
