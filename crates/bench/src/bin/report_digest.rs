//! Prints a bit-exact digest of simulation reports over a fixed
//! configuration matrix, optionally across all mediation backends
//! (inline, the asynchronous reactor, and the loopback socket transport).
//!
//! The digest ([`sqlb_sim::SimulationReport::digest`]) folds the raw
//! IEEE-754 bits of every recorded metric series (plus the query
//! counters) into an FNV-1a hash, so two builds produce the same line if
//! and only if their engines are bit-identical for that configuration.
//! This is the tool behind two acceptance bars:
//!
//! * **"K=1 must stay bit-identical across PRs"** — run it on the
//!   previous commit and on the working tree and diff the output;
//! * **"all mediation backends must agree"** — run it with `--backends`:
//!   every configuration of the matrix is executed on the inline path,
//!   the asynchronous reactor and the socket transport, and the process
//!   exits non-zero if any digest disagrees with the inline one.
//!
//! ```text
//! cargo run --release -p sqlb-bench --bin report_digest
//! cargo run --release -p sqlb-bench --bin report_digest -- --backends
//! ```

use sqlb_sim::engine::run_simulation;
use sqlb_sim::{MediationMode, Method, SimulationConfig, WorkloadPattern};

fn main() {
    let compare_backends = std::env::args().any(|arg| arg == "--backends");
    let methods = [
        Method::Sqlb,
        Method::CapacityBased,
        Method::MariposaLike,
        Method::Random,
        Method::RoundRobin,
    ];
    let mut mismatches = 0u32;
    for method in methods {
        for (seed, duration, workload) in [
            (1u64, 300.0, WorkloadPattern::Fixed(0.5)),
            (9, 300.0, WorkloadPattern::paper_ramp()),
            (17, 500.0, WorkloadPattern::Fixed(0.8)),
        ] {
            let config = SimulationConfig::scaled(16, 32, duration, seed).with_workload(workload);
            let report = run_simulation(config, method).expect("valid config");
            let digest = report.digest();
            println!(
                "{:<14} seed={seed:<3} duration={duration:<6} digest={digest:016x}",
                report.method
            );
            if !compare_backends {
                continue;
            }
            for mode in [MediationMode::Reactor, MediationMode::Socket] {
                let mediated = run_simulation(config.with_mediation(mode), method)
                    .expect("valid config")
                    .digest();
                let verdict = if mediated == digest { "ok" } else { "MISMATCH" };
                println!(
                    "    {:<10} seed={seed:<3} duration={duration:<6} digest={mediated:016x} {verdict}",
                    mode.name()
                );
                if mediated != digest {
                    mismatches += 1;
                }
            }
        }
    }
    if compare_backends {
        if mismatches > 0 {
            eprintln!("{mismatches} backend digest(s) diverged from the inline engine");
            std::process::exit(1);
        }
        println!("all backends bit-identical across the matrix");
    }
}
