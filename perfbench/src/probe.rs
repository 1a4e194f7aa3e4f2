//! A fixed speed probe for the host. On workloads whose live state stays
//! in the last-level cache, the runner brackets every timed repetition
//! with it and scales the repetition's time by how slow the host was at
//! that moment.
//!
//! The sandbox the benchmark was tuned on slows by up to ±30 % for tens
//! of seconds at a time, and the slowdown tracked the memory system far
//! more than the clock: per repetition, wall time correlated 0.76–0.80
//! with this probe (random read-modify-writes over an 8 MiB table) and
//! only 0.54–0.60 with a pure arithmetic loop. The probe is benchmark
//! code; it never changes with the program, so a faster program still
//! reads faster.

use std::time::{Duration, Instant};

/// Table entries (8 MiB of `u64`).
const TABLE_LEN: usize = 1 << 20;
/// Updates per probe.
const STEPS: u64 = 1 << 23;

/// What one probe takes on a host at its reference speed. Only a scale:
/// every run divides by the same constant.
pub const REFERENCE: Duration = Duration::from_millis(40);

/// The probe's table, allocated and touched once so no probe pays page
/// faults.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    /// Allocates and warms the table.
    pub fn new() -> Probe {
        let mut probe = Probe {
            table: vec![1; TABLE_LEN],
        };
        probe.time();
        probe
    }

    /// Runs the probe once and returns its wall time. An untimed
    /// sequential pass first brings the table back into cache, so the
    /// time does not depend on how much of it the workload evicted.
    pub fn time(&mut self) -> Duration {
        std::hint::black_box(self.table.iter().sum::<u64>());
        let started = Instant::now();
        let mut x: u64 = 1;
        for i in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (x >> 44) as usize & (TABLE_LEN - 1);
            self.table[slot] = self.table[slot].wrapping_add(i);
        }
        std::hint::black_box(&self.table);
        started.elapsed()
    }
}

/// How slow the host was over an interval bracketed by two probes,
/// relative to [`REFERENCE`] (above 1: slower than reference).
pub fn slowness(before: Duration, after: Duration) -> f64 {
    (before + after).as_secs_f64() / 2.0 / REFERENCE.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_relative_to_the_reference() {
        assert_eq!(slowness(REFERENCE, REFERENCE), 1.0);
        assert_eq!(slowness(REFERENCE * 2, REFERENCE * 4), 3.0);
    }

    #[test]
    fn probe_does_measurable_work() {
        let mut probe = Probe::new();
        assert!(probe.time() > Duration::ZERO);
    }
}
