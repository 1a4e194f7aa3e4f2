//! The SQLB benchmark runner.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). With
//! `--trace 0` it times repeated `Simulator::run`s of the workload for
//! `S` seconds and prints the end-to-end metrics; with `--trace 1` it
//! replays the workload through the layers' public functions with spans
//! around every call, writes the spans to `.bench_out/`, and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`, and any
//! failed correctness check makes the exit code non-zero.

mod json;
mod probe;
mod replay;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use sqlb_sim::{SimulationReport, Simulator};

use crate::json::Json;
use crate::probe::Probe;
use crate::replay::{Replay, ReplayOutcome};
use crate::spec::{valid_name, Spec};
use crate::stats::median;
use crate::workloads::Workload;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 11;
/// Fewest timed repetitions an untraced run makes, however long they take.
const MIN_REPS: usize = 3;
/// Fewest set-ups an untraced run times for `setup_s`.
const MIN_SETUPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Metric values in print order, plus the failures the run found.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let spec = Spec::parse(&spec_text)?;
    if spec.workloads != workloads::NAMES {
        return Err(format!(
            "BENCHMARK.json lists workloads {:?}, the runner has {:?}",
            spec.workloads,
            workloads::NAMES
        ));
    }
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload `{}` (known: {})",
            args.workload,
            spec.workloads.join(", ")
        ));
    }
    let workload = Workload::build(&args.workload, args.seed)
        .ok_or_else(|| format!("the runner has no workload `{}`", args.workload))?;

    let report = if args.trace {
        traced(&workload, args.seconds)?
    } else {
        untraced(&workload, args.seconds)?
    };

    // Print exactly the metrics BENCHMARK.json declares for this mode.
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let measured: BTreeMap<&str, f64> = report
        .metrics
        .iter()
        .map(|(name, value)| (name.as_str(), *value))
        .collect();
    for (name, _) in &report.metrics {
        if !valid_name(name) {
            return Err(format!("invalid metric name `{name}`"));
        }
        if !declared.iter().any(|m| &m.name == name) {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
    }
    let mut metrics = Vec::new();
    for metric in declared {
        let value = *measured
            .get(metric.name.as_str())
            .ok_or_else(|| format!("declared metric `{}` was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite", metric.name));
        }
        metrics.push((
            metric.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(metric.unit.clone())),
            ]),
        ));
    }
    for failure in &report.failures {
        eprintln!("perfbench: correctness check failed: {failure}");
    }
    let correct = report.failures.is_empty();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(report.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(if correct { 0 } else { 1 })
}

/// Builds the workload's simulator, returning it with its set-up time.
fn build(workload: &Workload) -> Result<(Simulator, Duration), String> {
    let started = Instant::now();
    let sim = Simulator::with_scenario(workload.config, Workload::METHOD, &workload.scenario)
        .map_err(|e| format!("{}: {e}", workload.name))?;
    Ok((sim, started.elapsed()))
}

/// Queries the engine allocated.
fn allocated(report: &SimulationReport) -> u64 {
    report.issued_queries - report.unallocated_queries
}

/// The accounting identity every run must satisfy.
fn check_accounting(out: &mut Report, report: &SimulationReport) {
    let per_shard: u64 = report.shard_allocations.iter().sum();
    out.check(
        report.issued_queries == per_shard + report.unallocated_queries,
        || {
            format!(
                "issued {} != allocated {per_shard} + unallocated {}",
                report.issued_queries, report.unallocated_queries
            )
        },
    );
}

/// Every run of a workload at one seed, on any backend, has one digest.
fn check_digest(out: &mut Report, report: &SimulationReport, expected: u64) {
    let digest = report.digest();
    out.check(digest == expected, || {
        format!(
            "digest {digest:016x} differs from {expected:016x} (inline reference or warm-up run)"
        )
    });
}

/// Reads a `/proc/self/status` field in kB.
fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// End-to-end run: repeated set-up + `Simulator::run` until `seconds` of
/// run time are measured, medians reported.
fn untraced(workload: &Workload, seconds: f64) -> Result<Report, String> {
    let mut out = Report::default();

    // Reference checks, outside the timed window.
    let reference = if workload.is_mediated() {
        let (sim, _) = build(&workload.inline_reference())?;
        let digest = sim.run().digest();
        check_mediated_accounting(&mut out, workload, digest)?;
        Some(digest)
    } else {
        None
    };

    // A warm-up repetition: checked like the others, not timed. The
    // process's peak resident set is read right after it, before the
    // probe's table exists.
    let (sim, _) = build(workload)?;
    let report = sim.run();
    check_accounting(&mut out, &report);
    let expected = reference.unwrap_or_else(|| report.digest());
    check_digest(&mut out, &report, expected);
    drop(report);
    let peak_rss_kb = status_kb("VmHWM:").unwrap_or(0);

    // Each timed repetition is bracketed by speed probes (the previous
    // repetition's closing probe opens the next), and its times are
    // scaled by how slow the host was in between.
    let mut probe = workload.scaled_by_probe().then(Probe::new);
    let mut last_probe = probe.as_mut().map(Probe::time);
    let mut slowness_since_last = || match (&mut probe, last_probe) {
        (Some(probe), Some(last)) => {
            let next = probe.time();
            last_probe = Some(next);
            probe::slowness(last, next)
        }
        _ => 1.0,
    };
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut setups = Vec::new();
    let mut timed = Duration::ZERO;
    let (mut issued, mut unallocated, mut degraded) = (0u64, 0u64, 0u64);
    while rates.len() < MIN_REPS || timed.as_secs_f64() < seconds {
        let (sim, setup) = build(workload)?;
        let started = Instant::now();
        let report = sim.run();
        let elapsed = started.elapsed();
        let slowness = slowness_since_last();
        timed += elapsed;
        setups.push(setup.as_secs_f64() / slowness);
        raw_rates.push(allocated(&report) as f64 / elapsed.as_secs_f64());
        rates.push(raw_rates[raw_rates.len() - 1] * slowness);
        issued += report.issued_queries;
        unallocated += report.unallocated_queries;
        degraded += report.degraded_waves;

        check_accounting(&mut out, &report);
        check_digest(&mut out, &report, expected);
    }
    // More set-ups than repetitions, so the set-up median rests on a
    // fair sample; bounded to a fifth of the measured time.
    let extra_started = Instant::now();
    while setups.len() < MIN_SETUPS && extra_started.elapsed().as_secs_f64() < seconds / 5.0 {
        let (sim, setup) = build(workload)?;
        drop(sim);
        setups.push(setup.as_secs_f64() / slowness_since_last());
    }

    out.attempted = issued;
    out.failed = unallocated + degraded;
    out.metric("allocations_per_s", median(&rates));
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", peak_rss_kb as f64 * 1024.0 / 1e6);
    out.metric(
        "served_share",
        (issued - unallocated - degraded) as f64 / issued.max(1) as f64,
    );
    eprintln!(
        "perfbench: {} reps, {:.3} s timed, {} set-ups, unscaled allocations/s {}",
        rates.len(),
        timed.as_secs_f64(),
        setups.len(),
        median(&raw_rates)
    );
    Ok(out)
}

/// One observed engine run of a mediated workload: its digest must match
/// the inline reference, and the backend's own request accounting must
/// balance (every delivered request answered or timed out).
fn check_mediated_accounting(
    out: &mut Report,
    workload: &Workload,
    expected: u64,
) -> Result<(), String> {
    let observed = Workload {
        config: workload.config.with_observability(true),
        ..workload.clone()
    };
    let (sim, _) = build(&observed)?;
    let obs = sim.obs().clone();
    let report = sim.run();
    let snapshot = obs.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let (delivered, answered, timed_out) = if counter("reactor_waves") > 0 {
        (
            counter("reactor_requests_delivered"),
            counter("reactor_replies_answered"),
            counter("reactor_replies_timed_out"),
        )
    } else {
        (
            counter("requests_delivered"),
            counter("replies_credited"),
            counter("replies_timed_out"),
        )
    };
    out.check(delivered > 0 && delivered == answered + timed_out, || {
        format!("delivered {delivered} != answered {answered} + timed out {timed_out}")
    });
    check_digest(out, &report, expected);
    Ok(())
}

/// Nanoseconds per issued query of a run.
fn ns_per_query(wall: Duration, issued: u64) -> f64 {
    wall.as_nanos() as f64 / issued.max(1) as f64
}

/// The traced run: memory across set-up, then alternating cycles of an
/// engine run, an untraced replay, a traced replay and an observed engine
/// run, until `seconds` have passed.
fn traced(workload: &Workload, seconds: f64) -> Result<Report, String> {
    let mut out = Report::default();
    let started = Instant::now();

    // Memory first, while the process has run nothing else.
    let before = status_kb("VmRSS:").unwrap_or(0);
    let (sim, _) = build(workload)?;
    let after_setup = status_kb("VmRSS:").unwrap_or(0);
    let engine = sim.run();
    let peak = status_kb("VmHWM:").unwrap_or(0);
    check_accounting(&mut out, &engine);

    let mut probe = Probe::new();
    let mut probe_ms = vec![probe.time().as_secs_f64() * 1e3];
    let mut engine_ns = Vec::new();
    let mut replay_ns = Vec::new();
    let mut overheads = Vec::new();
    let mut rates_off = Vec::new();
    let mut rates_on = Vec::new();
    let mut setups: Vec<replay::SetupTimes> = Vec::new();
    let mut first_traced: Option<(ReplayOutcome, Vec<trace::Span>)> = None;
    let mut obs_counts = BTreeMap::new();

    while first_traced.is_none() || started.elapsed().as_secs_f64() < seconds {
        // Engine, untraced.
        let (sim, _) = build(workload)?;
        let t = Instant::now();
        let report = sim.run();
        let wall = t.elapsed();
        engine_ns.push(ns_per_query(wall, report.issued_queries));
        rates_off.push(allocated(&report) as f64 / wall.as_secs_f64());

        // Replay, untraced, then traced.
        trace::reset(false);
        let untraced = Replay::new(workload)?.run();
        replay_ns.push(ns_per_query(untraced.run_wall, untraced.counts.issued));
        setups.push(untraced.setup);
        trace::reset(true);
        let traced = Replay::new(workload)?.run();
        let spans = trace::take();
        trace::reset(false);
        overheads.push(traced.run_wall.as_secs_f64() / untraced.run_wall.as_secs_f64());
        setups.push(traced.setup);
        for outcome in [&untraced, &traced] {
            out.check(outcome.digest == engine.digest(), || {
                format!(
                    "replay digest {:016x} differs from the engine's {:016x}",
                    outcome.digest,
                    engine.digest()
                )
            });
            out.check(outcome.counts.unbalanced_waves == 0, || {
                format!(
                    "{} waves delivered more or fewer requests than were answered or timed out",
                    outcome.counts.unbalanced_waves
                )
            });
        }

        // Engine with observability on.
        let observed = Workload {
            config: workload.config.with_observability(true),
            ..workload.clone()
        };
        let (sim, _) = build(&observed)?;
        let obs = sim.obs().clone();
        let t = Instant::now();
        let report = sim.run();
        rates_on.push(allocated(&report) as f64 / t.elapsed().as_secs_f64());
        out.check(report.digest() == engine.digest(), || {
            "observability changed the digest".to_string()
        });
        if obs_counts.is_empty() {
            obs_counts = obs_counters(&obs.snapshot());
        }
        if first_traced.is_none() {
            first_traced = Some((traced, spans));
        }
        probe_ms.push(probe.time().as_secs_f64() * 1e3);
    }
    let (outcome, spans) = first_traced.expect("at least one traced replay");
    let counts = &outcome.counts;

    // Replay against engine: the same calls were made.
    let engine_waves = obs_counts.get("waves").copied().unwrap_or(0.0) as u64;
    let agreements = [
        ("queries", counts.issued, engine.issued_queries),
        (
            "unallocated",
            counts.unallocated,
            engine.unallocated_queries,
        ),
        ("sync rounds", counts.sync_rounds, engine.sync_rounds),
        (
            "migrations",
            counts.migrations,
            engine.migrations.len() as u64,
        ),
        (
            "churn events",
            counts.churn_events,
            engine.churn_departures + engine.churn_rejoins,
        ),
        ("waves", counts.waves, engine_waves),
        (
            "degraded waves",
            counts.degraded_waves,
            engine.degraded_waves,
        ),
    ];
    let mut agree = true;
    for (what, replayed, reported) in agreements {
        eprintln!("perfbench: replay {what}: {replayed} (engine {reported})");
        agree &= replayed == reported;
        out.check(replayed == reported, || {
            format!("replay made {replayed} {what}, the engine reports {reported}")
        });
    }

    let spans_path = write_spans(workload, &spans);
    eprintln!("perfbench: {} spans written to {spans_path}", spans.len());

    let by_name = trace::self_time_by_name(&spans);
    let self_ns = |name: &str| by_name.get(name).map_or(0.0, |&(_, ns)| ns as f64);
    let span_count = |name: &str| by_name.get(name).map_or(0.0, |&(n, _)| n as f64);
    let per = |total: f64, count: f64| if count > 0.0 { total / count } else { 0.0 };
    let durations_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };

    let candidates = counts.candidates as f64;
    let allocated_queries = (counts.issued - counts.unallocated) as f64;
    let arrivals = sorted(durations_us("arrival"));
    let arrival_tail = stats::tail(&arrivals);
    out.metric("arrival.p50_us", stats::percentile(&arrivals, 50.0));
    out.metric("arrival.p99_us", stats::percentile(&arrivals, 99.0));
    out.metric(
        "arrival.tail_pct",
        arrival_tail.map_or(0.0, |t| t.percentile),
    );
    out.metric("arrival.tail_us", arrival_tail.map_or(0.0, |t| t.value));
    out.metric("arrival.samples", arrivals.len() as f64);

    out.metric(
        "sim.route.ns_per_query",
        per(self_ns("sim.route"), span_count("sim.route")),
    );
    let rounds = counts.sync_rounds as f64;
    out.metric(
        "sim.sync.ms_per_round",
        per(self_ns("sim.sync"), rounds) / 1e6,
    );
    out.metric(
        "sim.sync.entries_per_round",
        per(counts.sync_entries as f64, rounds),
    );
    out.metric(
        "sim.migrate.us_per_move",
        per(self_ns("sim.migrate"), span_count("sim.migrate")) / 1e3,
    );
    out.metric(
        "sim.churn.us_per_event",
        per(self_ns("sim.churn"), span_count("sim.churn")) / 1e3,
    );
    let setup_median = |f: fn(&replay::SetupTimes) -> Duration| {
        median(
            &setups
                .iter()
                .map(|s| f(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.metric("sim.setup.population_s", setup_median(|s| s.population));
    out.metric("sim.setup.router_s", setup_median(|s| s.router));
    out.metric(
        "sim.unattributed_ns_per_query",
        median(&engine_ns) - median(&replay_ns),
    );

    out.metric(
        "agents.intent.ns_per_candidate",
        per(self_ns("agents.intent"), candidates),
    );
    out.metric(
        "agents.notify.ns_per_candidate",
        per(self_ns("agents.notify"), candidates),
    );
    out.metric(
        "core.score.ns_per_candidate",
        per(self_ns("core.score"), candidates),
    );
    out.metric(
        "core.record.ns_per_candidate",
        per(self_ns("core.record"), candidates),
    );
    out.metric(
        "core.candidates_per_query",
        per(candidates, allocated_queries),
    );

    let reactor_waves = span_count("mediation.wave");
    out.metric(
        "mediation.wave.us_per_wave",
        per(self_ns("mediation.wave"), reactor_waves) / 1e3,
    );
    let reactor = reactor_waves > 0.0;
    let delivered = counts.delivered as f64;
    out.metric(
        "mediation.requests_per_wave",
        if reactor {
            per(delivered, reactor_waves)
        } else {
            0.0
        },
    );
    out.metric(
        "mediation.timed_out_share",
        if reactor {
            per(counts.timed_out as f64, delivered)
        } else {
            0.0
        },
    );

    let gathers = sorted(durations_us("transport.gather"));
    let socket = !gathers.is_empty();
    out.metric("transport.wave.p50_us", stats::percentile(&gathers, 50.0));
    out.metric("transport.wave.p99_us", stats::percentile(&gathers, 99.0));
    out.metric(
        "transport.wave.wait_share",
        per(counts.wave_wait.as_secs_f64() * 1e6, gathers.iter().sum()),
    );
    out.metric(
        "transport.timed_out_share",
        if socket {
            per(counts.timed_out as f64, delivered)
        } else {
            0.0
        },
    );
    out.metric(
        "transport.bytes_per_query",
        per(counts.transport_bytes as f64, counts.issued as f64),
    );
    out.metric("transport.setup_s", setup_median(|s| s.transport));

    out.metric(
        "memory.setup_bytes_per_participant",
        after_setup.saturating_sub(before) as f64 * 1024.0 / workload.participants() as f64,
    );
    out.metric(
        "memory.peak_over_setup",
        per(peak as f64, after_setup as f64),
    );

    let setup_names = [
        "sim.setup.population",
        "sim.setup.router",
        "mediation.setup",
        "transport.setup",
    ];
    let covered: f64 = by_name
        .iter()
        .filter(|(name, _)| !setup_names.contains(name))
        .map(|(_, &(_, ns))| ns as f64)
        .sum();
    out.metric(
        "trace.coverage",
        covered / outcome.run_wall.as_nanos() as f64,
    );
    out.metric("trace.overhead", median(&overheads));
    out.metric(
        "trace.obs_overhead",
        1.0 - median(&rates_on) / median(&rates_off),
    );
    out.metric("replay.counts_agree", if agree { 1.0 } else { 0.0 });
    out.metric(
        "replay.digest_match",
        if outcome.digest == engine.digest() {
            1.0
        } else {
            0.0
        },
    );
    out.metric("host.probe_ms", median(&probe_ms));
    for (name, value) in &obs_counts {
        out.metric(&format!("obs.{name}"), *value);
    }

    out.attempted = engine.issued_queries;
    out.failed = engine.unallocated_queries + engine.degraded_waves;
    eprintln!(
        "perfbench: {} traced cycles in {:.1} s",
        overheads.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(out)
}

/// The obs counters the traced run reports, summed across instruments
/// of the same kind (all mediator shards, both socket directions).
fn obs_counters(snapshot: &sqlb_obs::ObsSnapshot) -> BTreeMap<&'static str, f64> {
    let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    BTreeMap::from([
        (
            "waves",
            sum(&|n| n == "reactor_waves" || n == "waves_begun"),
        ),
        (
            "replies_credited",
            sum(&|n| n == "reactor_replies_answered" || n == "replies_credited"),
        ),
        ("replies_degraded", sum(&|n| n == "indifferent_replies")),
        ("bytes", sum(&|n| n == "bytes_in" || n == "bytes_out")),
        (
            "digests_exported",
            sum(&|n| n.starts_with("mediator_") && n.ends_with("_digests_exported")),
        ),
        (
            "digests_absorbed",
            sum(&|n| n.starts_with("mediator_") && n.ends_with("_digests_absorbed")),
        ),
    ])
}

/// Writes the spans to `.bench_out/spans-<workload>.tsv` in the working
/// directory (each traced run of a workload replaces the last) and
/// returns the path (or the error, which does not fail the run).
fn write_spans(workload: &Workload, spans: &[trace::Span]) -> String {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}.tsv", workload.name));
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_tsv(spans, &mut file)?;
        file.flush()
    });
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("nowhere ({e})"),
    }
}
