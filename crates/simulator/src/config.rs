//! Simulation configuration.

use sqlb_agents::{ConsumerDepartureRule, PopulationConfig, ProviderDepartureRule};
use sqlb_baselines::{CapacityBased, MariposaLike, RandomAllocator, RoundRobinAllocator};
use sqlb_core::{AllocationMethod, SqlbAllocator};
use sqlb_types::SqlbError;

use crate::routing::RoutingPolicyKind;
use crate::workload::WorkloadPattern;

/// The allocation method under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's contribution: Satisfaction-based Query Load Balancing.
    Sqlb,
    /// The Capacity based baseline (Section 6.2.1).
    CapacityBased,
    /// The Mariposa-like economic baseline (Section 6.2.2).
    MariposaLike,
    /// Uniform random allocation (ablation reference).
    Random,
    /// Round-robin allocation (ablation reference).
    RoundRobin,
}

impl Method {
    /// The three methods the paper evaluates, in the order its figures list
    /// them.
    pub const PAPER_METHODS: [Method; 3] =
        [Method::Sqlb, Method::MariposaLike, Method::CapacityBased];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::Sqlb => "SQLB",
            Method::CapacityBased => "Capacity based",
            Method::MariposaLike => "Mariposa-like",
            Method::Random => "Random",
            Method::RoundRobin => "Round-robin",
        }
    }

    /// Builds a fresh allocator instance. `seed` is only used by the
    /// randomized reference method.
    pub fn build(self, seed: u64) -> Box<dyn AllocationMethod> {
        match self {
            Method::Sqlb => Box::new(SqlbAllocator::new()),
            Method::CapacityBased => Box::new(CapacityBased::new()),
            Method::MariposaLike => Box::new(MariposaLike::new()),
            Method::Random => Box::new(RandomAllocator::new(seed)),
            Method::RoundRobin => Box::new(RoundRobinAllocator::new()),
        }
    }

    /// Whether this method runs the economic (bidding) protocol, in which
    /// case the simulator gathers bids from the providers.
    pub fn uses_bids(self) -> bool {
        matches!(self, Method::MariposaLike)
    }
}

/// Which mediation backend the engine gathers intentions through.
///
/// All three backends ask the *same* agents the *same* questions in the
/// same per-participant order, so a run's report is bit-identical across
/// them for a given seed — pinned by the cross-backend digest tests and
/// the `report_digest` binary. What changes is the machinery:
///
/// ```
/// use sqlb_sim::{MediationMode, Method, SimulationConfig};
/// use sqlb_sim::engine::run_simulation;
///
/// let config = SimulationConfig::scaled(8, 16, 60.0, 7);
/// let inline = run_simulation(config, Method::Sqlb).unwrap();
/// let reactor = run_simulation(
///     config.with_mediation(MediationMode::Reactor),
///     Method::Sqlb,
/// )
/// .unwrap();
/// assert_eq!(inline.digest(), reactor.digest());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MediationMode {
    /// Intentions are computed by direct in-process calls on the arrival
    /// hot path — no mediation layer at all. The fastest backend and the
    /// default (the paper's evaluation substrate).
    #[default]
    Inline,
    /// Every arrival runs as one wave of the asynchronous mediation
    /// reactor: participant endpoints are polled state machines on a
    /// single event loop with per-endpoint deadline tracking
    /// (`sqlb-mediation::reactor`).
    Reactor,
    /// Every arrival runs as one wave over real loopback TCP sockets
    /// (`sqlb-transport`): the engine hosts a mediator-side wave server
    /// and multiplexes its participants over
    /// [`SimulationConfig::socket_hosts`] participant-host connections;
    /// requests and replies travel as framed bytes, and late or missing
    /// replies degrade to indifference at the wave deadline.
    Socket,
}

impl MediationMode {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            MediationMode::Inline => "inline",
            MediationMode::Reactor => "reactor",
            MediationMode::Socket => "socket",
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Population (participants, classes, preferences).
    pub population: PopulationConfig,
    /// Workload pattern over the run.
    pub workload: WorkloadPattern,
    /// Length of the run, in seconds of virtual time.
    pub duration_secs: f64,
    /// Seed for the arrival process and per-query draws. Repetition `i` of
    /// an experiment uses `seed + i`.
    pub seed: u64,
    /// `q.n`: number of providers each query asks for (the paper uses 1).
    pub query_n: u32,
    /// Whether consumers are allowed to leave the system.
    pub consumers_may_leave: bool,
    /// Whether providers are allowed to leave the system.
    pub providers_may_leave: bool,
    /// The provider departure rule (thresholds and enabled reasons).
    pub provider_departure: ProviderDepartureRule,
    /// The consumer departure rule.
    pub consumer_departure: ConsumerDepartureRule,
    /// Interval between metric snapshots, in seconds.
    pub sample_interval_secs: f64,
    /// Interval between departure assessments, in seconds.
    pub assessment_interval_secs: f64,
    /// Virtual time before which no departure is evaluated, letting the
    /// sliding utilization windows and satisfaction memories fill up before
    /// participants judge the system.
    pub departure_warmup_secs: f64,
    /// Number of mediator shards the providers are partitioned across.
    /// `1` reproduces the paper's mono-mediator system exactly.
    pub mediator_shards: usize,
    /// Interval between satisfaction-view synchronizations across shards,
    /// in seconds. Ignored when `mediator_shards == 1`.
    pub sync_interval_secs: f64,
    /// How queries are routed to mediator shards. Ignored when
    /// `mediator_shards == 1` (there is only one place to go).
    pub routing: RoutingPolicyKind,
    /// Whether periodic cross-shard load rebalancing (provider migration)
    /// runs. Ignored when `mediator_shards == 1`.
    pub migration_enabled: bool,
    /// Interval between rebalancing rounds, in seconds. Ignored unless
    /// `migration_enabled` and `mediator_shards > 1`.
    pub rebalance_interval_secs: f64,
    /// Minimum spread between the hottest and coldest shard's mean
    /// provider utilization before a rebalancing round migrates a
    /// provider. Keeps migration from thrashing on noise.
    pub migration_min_spread: f64,
    /// Which mediation backend gathers intentions (inline calls, the
    /// asynchronous reactor, or the socket transport). Reports are bit-identical across backends for a given
    /// seed.
    pub mediation: MediationMode,
    /// Number of loopback participant-host connections the socket
    /// backend multiplexes the participants over (one socket per host,
    /// not per endpoint). Ignored unless `mediation` is
    /// [`MediationMode::Socket`].
    pub socket_hosts: usize,
    /// Whether the candidate set `P_q` is produced by capability
    /// matchmaking (`sqlb-matchmaking`) instead of "every provider of
    /// the shard". Defaults to `false` — the paper's all-providers
    /// behaviour, which keeps K=1 digests unchanged. When enabled,
    /// queries are tagged with their class topic and only providers
    /// whose declared capabilities cover it are candidates (with a
    /// fall-back to the whole shard if no capable provider remains).
    pub capability_matchmaking: bool,
    /// Number of threads the Definition 7/8 scoring kernel fans a shard's
    /// candidate batch over. `1` (the default) scores inline, which also
    /// enables the lazy-argmax K=1 fast path. Any value produces
    /// bit-identical same-seed reports: chunking is a pure function of
    /// the batch length, each chunk writes a disjoint region of the score
    /// column, and ties still break on the lowest provider id.
    pub scoring_threads: usize,
    /// Whether the socket backend coalesces every query arrival landing
    /// on the same virtual instant into one multi-query mediation wave
    /// (one frame fan-out instead of one wave per arrival). On by
    /// default. Coalescing preserves bit-identical same-seed reports: it
    /// only merges arrivals whose consumers and shards are all distinct
    /// (so no arrival's answers can observe another's allocation), and it
    /// is automatically suspended under load-reactive routing on more
    /// than one shard, whose decisions read allocation state between
    /// arrivals (with a single shard every route is 0, so coalescing
    /// stays engaged — least-loaded K=1 runs keep the batched fan-out).
    /// Ignored by the in-process backends, which have no framing cost to
    /// amortize.
    pub socket_wave_coalescing: bool,
    /// Wave deadline of the mediated backends (reactor and socket
    /// transport), in milliseconds: replies that miss it
    /// degrade to indifference. The default (5000 ms) is far beyond any
    /// loopback reply latency, so it never fires in fault-free runs;
    /// scenario campaigns that stall hosts lower it so each stalled wave
    /// pays a short, bounded penalty instead of five wall-clock seconds.
    /// Ignored by the inline backend, which has no wire to time out.
    pub wave_timeout_ms: u64,
    /// Whether runtime observability (`sqlb-obs`) is enabled: counters,
    /// latency histograms and the structured flight recorder, threaded
    /// through the engine, the mediator shards and the mediation
    /// backends. Off by default — the disabled path is a single branch
    /// on a `None`, so fault-free hot-path behaviour and same-seed
    /// digests are identical either way (pinned by the
    /// `observability` integration tests).
    pub observability: bool,
}

impl SimulationConfig {
    /// The paper's configuration (Table 2): 200 consumers, 400 providers,
    /// 10 000 s runs. Captive participants by default; the experiment
    /// drivers toggle departures per figure.
    pub fn paper(seed: u64) -> Self {
        SimulationConfig {
            population: PopulationConfig::paper(seed),
            workload: WorkloadPattern::paper_ramp(),
            duration_secs: 10_000.0,
            seed,
            query_n: 1,
            consumers_may_leave: false,
            providers_may_leave: false,
            provider_departure: ProviderDepartureRule::default(),
            consumer_departure: ConsumerDepartureRule::default(),
            sample_interval_secs: 100.0,
            assessment_interval_secs: 50.0,
            departure_warmup_secs: 200.0,
            mediator_shards: 1,
            sync_interval_secs: 100.0,
            routing: RoutingPolicyKind::Static,
            migration_enabled: false,
            rebalance_interval_secs: 100.0,
            migration_min_spread: 0.1,
            mediation: MediationMode::Inline,
            socket_hosts: 2,
            capability_matchmaking: false,
            scoring_threads: 1,
            socket_wave_coalescing: true,
            wave_timeout_ms: 5_000,
            observability: false,
        }
    }

    /// A scaled-down configuration preserving the paper's class mix and
    /// window-to-population ratios. Used for tests, examples and the
    /// default benchmark runs (a full paper-scale run takes minutes per
    /// method; a scaled run takes well under a second).
    pub fn scaled(consumers: u32, providers: u32, duration_secs: f64, seed: u64) -> Self {
        let mut population = PopulationConfig::scaled(consumers, providers, seed);
        // Consumers keep the paper's 200-query memory: it smooths their
        // judgement of the mediator and does not need to shrink with the
        // population. The provider windows, in contrast, must preserve the
        // Table 2 window-to-population ratio (500 proposals for 400
        // providers) or the wins-per-window statistics — and with them the
        // satisfaction dynamics — would change completely at small scale.
        population.consumer_config.memory = 200;
        let provider_window = ((providers as f64) * 1.25).round() as usize;
        population.provider_config.proposed_memory = provider_window.max(8);
        population.provider_config.performed_memory = provider_window.max(8);
        let provider_departure = ProviderDepartureRule {
            min_proposed_queries: provider_window.max(8) as u64,
            ..ProviderDepartureRule::default()
        };
        let consumer_departure = ConsumerDepartureRule {
            min_issued_queries: ((consumers as u64) / 4).max(10),
            ..ConsumerDepartureRule::default()
        };
        SimulationConfig {
            population,
            workload: WorkloadPattern::paper_ramp(),
            duration_secs,
            seed,
            query_n: 1,
            consumers_may_leave: false,
            providers_may_leave: false,
            provider_departure,
            consumer_departure,
            sample_interval_secs: (duration_secs / 100.0).max(1.0),
            assessment_interval_secs: (duration_secs / 40.0).max(5.0),
            departure_warmup_secs: (2.5 * population.provider_config.utilization_window_secs)
                .min(duration_secs / 3.0),
            mediator_shards: 1,
            sync_interval_secs: (duration_secs / 100.0).max(1.0),
            routing: RoutingPolicyKind::Static,
            migration_enabled: false,
            // Slower than view sync: each round needs a window long enough
            // for per-shard allocation counts to be signal, not noise.
            rebalance_interval_secs: (duration_secs / 25.0).max(1.0),
            migration_min_spread: 0.1,
            mediation: MediationMode::Inline,
            socket_hosts: 2,
            capability_matchmaking: false,
            scoring_threads: 1,
            socket_wave_coalescing: true,
            wave_timeout_ms: 5_000,
            observability: false,
        }
    }

    /// Sets the workload pattern.
    pub fn with_workload(mut self, workload: WorkloadPattern) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the seed (population and arrival process).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.population.seed = seed;
        self
    }

    /// Enables provider departures with the given rule.
    pub fn with_provider_departures(mut self, rule: ProviderDepartureRule) -> Self {
        self.providers_may_leave = true;
        self.provider_departure = rule;
        self
    }

    /// Enables consumer departures with the given rule.
    pub fn with_consumer_departures(mut self, rule: ConsumerDepartureRule) -> Self {
        self.consumers_may_leave = true;
        self.consumer_departure = rule;
        self
    }

    /// Partitions the providers across `shards` mediator shards (1 = the
    /// paper's mono-mediator setup).
    pub fn with_mediator_shards(mut self, shards: usize) -> Self {
        self.mediator_shards = shards;
        self
    }

    /// Sets the interval between satisfaction-view synchronizations across
    /// shards.
    pub fn with_sync_interval(mut self, secs: f64) -> Self {
        self.sync_interval_secs = secs;
        self
    }

    /// Selects the consumer-routing policy (how queries pick their
    /// mediator shard).
    pub fn with_routing(mut self, routing: RoutingPolicyKind) -> Self {
        self.routing = routing;
        self
    }

    /// Enables (or disables) periodic cross-shard provider migration.
    pub fn with_migration(mut self, enabled: bool) -> Self {
        self.migration_enabled = enabled;
        self
    }

    /// Sets the interval between rebalancing rounds.
    pub fn with_rebalance_interval(mut self, secs: f64) -> Self {
        self.rebalance_interval_secs = secs;
        self
    }

    /// Sets the minimum per-shard utilization spread that triggers a
    /// migration.
    pub fn with_migration_min_spread(mut self, spread: f64) -> Self {
        self.migration_min_spread = spread;
        self
    }

    /// Selects the mediation backend intentions are gathered through.
    pub fn with_mediation(mut self, mediation: MediationMode) -> Self {
        self.mediation = mediation;
        self
    }

    /// Sets the number of loopback participant hosts of the socket
    /// backend (ignored by the other backends).
    pub fn with_socket_hosts(mut self, hosts: usize) -> Self {
        self.socket_hosts = hosts;
        self
    }

    /// Enables (or disables) same-instant wave coalescing on the socket
    /// backend (ignored by the other backends).
    pub fn with_socket_wave_coalescing(mut self, enabled: bool) -> Self {
        self.socket_wave_coalescing = enabled;
        self
    }

    /// Enables (or disables) capability matchmaking for the candidate
    /// set `P_q`.
    pub fn with_capability_matchmaking(mut self, enabled: bool) -> Self {
        self.capability_matchmaking = enabled;
        self
    }

    /// Sets the number of scoring-kernel threads (deterministic at any
    /// value; `1` keeps the sequential lazy-argmax fast path).
    pub fn with_scoring_threads(mut self, threads: usize) -> Self {
        self.scoring_threads = threads;
        self
    }

    /// Sets the mediated-backend wave deadline in milliseconds (replies
    /// that miss it degrade to indifference).
    pub fn with_wave_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.wave_timeout_ms = timeout_ms;
        self
    }

    /// Enables (or disables) runtime observability: counters, latency
    /// histograms and the flight recorder. Same-seed reports are
    /// bit-identical either way.
    pub fn with_observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SqlbError> {
        self.population.validate()?;
        if !is_positive_finite(self.duration_secs) {
            return Err(SqlbError::InvalidConfig {
                reason: "simulation duration must be positive and finite".into(),
            });
        }
        if self.query_n == 0 {
            return Err(SqlbError::InvalidConfig {
                reason: "q.n must be at least 1".into(),
            });
        }
        if !is_positive_finite(self.sample_interval_secs)
            || !is_positive_finite(self.assessment_interval_secs)
        {
            return Err(SqlbError::InvalidConfig {
                reason: "sampling and assessment intervals must be positive and finite".into(),
            });
        }
        if self.mediator_shards == 0 {
            return Err(SqlbError::InvalidConfig {
                reason: "at least one mediator shard is required".into(),
            });
        }
        if self.mediator_shards > self.population.providers as usize {
            return Err(SqlbError::InvalidConfig {
                reason: format!(
                    "{} mediator shards cannot partition {} providers (shards would start empty)",
                    self.mediator_shards, self.population.providers
                ),
            });
        }
        if !is_positive_finite(self.sync_interval_secs) {
            return Err(SqlbError::InvalidConfig {
                reason: "the shard synchronization interval must be positive and finite".into(),
            });
        }
        if !is_positive_finite(self.rebalance_interval_secs) {
            return Err(SqlbError::InvalidConfig {
                reason: "the rebalance interval must be positive and finite".into(),
            });
        }
        if !self.migration_min_spread.is_finite() || self.migration_min_spread < 0.0 {
            return Err(SqlbError::InvalidConfig {
                reason: "the migration spread threshold must be finite and non-negative".into(),
            });
        }
        if self.mediation == MediationMode::Socket && self.socket_hosts == 0 {
            return Err(SqlbError::InvalidConfig {
                reason: "the socket backend needs at least one participant host".into(),
            });
        }
        if self.scoring_threads == 0 {
            return Err(SqlbError::InvalidConfig {
                reason: "at least one scoring thread is required".into(),
            });
        }
        if self.wave_timeout_ms == 0 {
            return Err(SqlbError::InvalidConfig {
                reason: "the wave timeout must be at least one millisecond".into(),
            });
        }
        Ok(())
    }
}

/// Whether a duration or interval is usable as a virtual-time span: a
/// NaN or infinite value would never end a run or would collapse into a
/// time-0 event, and both fail a plain `<= 0.0` test.
fn is_positive_finite(secs: f64) -> bool {
    secs.is_finite() && secs > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_2() {
        let c = SimulationConfig::paper(0);
        assert_eq!(c.population.consumers, 200);
        assert_eq!(c.population.providers, 400);
        assert_eq!(c.population.consumer_config.memory, 200);
        assert_eq!(c.population.provider_config.performed_memory, 500);
        assert_eq!(c.query_n, 1);
        assert_eq!(c.duration_secs, 10_000.0);
        assert_eq!(c.mediator_shards, 1, "the paper runs a single mediator");
        assert!(c.validate().is_ok());
        assert!(!c.consumers_may_leave && !c.providers_may_leave);
    }

    #[test]
    fn scaled_config_preserves_window_ratios() {
        let c = SimulationConfig::scaled(40, 80, 1_000.0, 7);
        assert_eq!(c.population.consumer_config.memory, 200);
        assert_eq!(c.population.provider_config.proposed_memory, 100);
        assert_eq!(c.provider_departure.min_proposed_queries, 100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_set_flags() {
        let c = SimulationConfig::scaled(10, 20, 100.0, 0)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_seed(9)
            .with_provider_departures(ProviderDepartureRule::default())
            .with_consumer_departures(ConsumerDepartureRule::default())
            .with_mediator_shards(4)
            .with_sync_interval(25.0)
            .with_routing(RoutingPolicyKind::LeastLoaded)
            .with_migration(true)
            .with_rebalance_interval(40.0)
            .with_migration_min_spread(0.2);
        assert_eq!(c.workload, WorkloadPattern::Fixed(0.8));
        assert_eq!(c.seed, 9);
        assert_eq!(c.population.seed, 9);
        assert!(c.providers_may_leave);
        assert!(c.consumers_may_leave);
        assert_eq!(c.mediator_shards, 4);
        assert_eq!(c.sync_interval_secs, 25.0);
        assert_eq!(c.routing, RoutingPolicyKind::LeastLoaded);
        assert!(c.migration_enabled);
        assert_eq!(c.rebalance_interval_secs, 40.0);
        assert_eq!(c.migration_min_spread, 0.2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn migration_defaults_are_off_and_static() {
        // The paper's setup — and the bit-identity contract with earlier
        // revisions — needs the new knobs to default to no-ops.
        for c in [
            SimulationConfig::paper(0),
            SimulationConfig::scaled(10, 20, 100.0, 0),
        ] {
            assert_eq!(c.routing, RoutingPolicyKind::Static);
            assert!(!c.migration_enabled);
            assert!(c.rebalance_interval_secs > 0.0);
            assert!(c.migration_min_spread > 0.0);
            assert_eq!(c.mediation, MediationMode::Inline);
            assert!(
                !c.capability_matchmaking,
                "the paper's all-providers candidate set is the default"
            );
            assert!(c.socket_hosts >= 1);
            assert_eq!(c.scoring_threads, 1, "sequential scoring is the default");
            assert!(
                c.socket_wave_coalescing,
                "socket wave coalescing is on by default (bit-identical either way)"
            );
            assert_eq!(
                c.wave_timeout_ms, 5_000,
                "the historical 5 s wave deadline is the default"
            );
            assert!(!c.observability, "observability is off by default");
            assert!(c.with_observability(true).observability);
        }
    }

    #[test]
    fn scoring_threads_knob_is_selectable_and_validated() {
        let c = SimulationConfig::scaled(10, 20, 100.0, 0).with_scoring_threads(8);
        assert_eq!(c.scoring_threads, 8);
        assert!(!c.with_socket_wave_coalescing(false).socket_wave_coalescing);
        assert!(c.validate().is_ok());

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.scoring_threads = 0;
        assert!(c.validate().is_err(), "zero scoring threads is rejected");

        let c = SimulationConfig::scaled(10, 20, 100.0, 0).with_wave_timeout_ms(150);
        assert_eq!(c.wave_timeout_ms, 150);
        assert!(c.validate().is_ok());
        assert!(
            c.with_wave_timeout_ms(0).validate().is_err(),
            "a zero wave deadline is rejected"
        );
    }

    #[test]
    fn mediation_modes_are_selectable_and_named() {
        let c = SimulationConfig::scaled(10, 20, 100.0, 0).with_mediation(MediationMode::Reactor);
        assert_eq!(c.mediation, MediationMode::Reactor);
        assert!(c.validate().is_ok());
        assert_eq!(MediationMode::Inline.name(), "inline");
        assert_eq!(MediationMode::Reactor.name(), "reactor");
        assert_eq!(MediationMode::Socket.name(), "socket");
        assert_eq!(MediationMode::default(), MediationMode::Inline);

        let c = SimulationConfig::scaled(10, 20, 100.0, 0)
            .with_mediation(MediationMode::Socket)
            .with_socket_hosts(4)
            .with_capability_matchmaking(true);
        assert_eq!(c.mediation, MediationMode::Socket);
        assert_eq!(c.socket_hosts, 4);
        assert!(c.capability_matchmaking);
        assert!(c.validate().is_ok());

        let mut c =
            SimulationConfig::scaled(10, 20, 100.0, 0).with_mediation(MediationMode::Socket);
        c.socket_hosts = 0;
        assert!(c.validate().is_err(), "socket mode needs at least one host");
        c.mediation = MediationMode::Inline;
        assert!(c.validate().is_ok(), "other backends ignore socket_hosts");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.duration_secs = 0.0;
        assert!(c.validate().is_err());

        // NaN and infinities pass a plain `<= 0.0` test; every duration
        // and interval must reject them.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let base = SimulationConfig::scaled(10, 20, 100.0, 0);
            let setters: [fn(&mut SimulationConfig, f64); 5] = [
                |c, v| c.duration_secs = v,
                |c, v| c.sample_interval_secs = v,
                |c, v| c.assessment_interval_secs = v,
                |c, v| c.sync_interval_secs = v,
                |c, v| c.rebalance_interval_secs = v,
            ];
            for (field, set) in setters.iter().enumerate() {
                let mut c = base;
                set(&mut c, bad);
                assert!(c.validate().is_err(), "field {field} accepted {bad}");
            }
        }

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.query_n = 0;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.sample_interval_secs = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.mediator_shards = 0;
        assert!(c.validate().is_err());

        // More shards than providers would leave shards empty from the
        // start; every query routed there would be undeliverable.
        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.mediator_shards = 21;
        assert!(c.validate().is_err());
        c.mediator_shards = 20;
        assert!(c.validate().is_ok());

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.sync_interval_secs = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.rebalance_interval_secs = 0.0;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::scaled(10, 20, 100.0, 0);
        c.migration_min_spread = -0.1;
        assert!(c.validate().is_err());
        c.migration_min_spread = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn method_names_and_builders() {
        assert_eq!(Method::Sqlb.name(), "SQLB");
        assert_eq!(Method::CapacityBased.name(), "Capacity based");
        assert_eq!(Method::MariposaLike.name(), "Mariposa-like");
        for m in [
            Method::Sqlb,
            Method::CapacityBased,
            Method::MariposaLike,
            Method::Random,
            Method::RoundRobin,
        ] {
            let built = m.build(1);
            assert_eq!(built.name(), m.name());
        }
        assert!(Method::MariposaLike.uses_bids());
        assert!(!Method::Sqlb.uses_bids());
        assert_eq!(Method::PAPER_METHODS.len(), 3);
    }
}
