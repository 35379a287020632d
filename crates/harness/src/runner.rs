//! Experiment runner: one configuration → seed-averaged measurements.

use std::sync::Once;

use seer_runtime::{run, run_traced, DriverConfig, RunMetrics, TraceSink, TxMode, Workload};
use seer_stamp::Benchmark;

use crate::policy::PolicyKind;

/// A single experiment cell: benchmark × policy × thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Workload model.
    pub benchmark: Benchmark,
    /// Scheduler variant.
    pub policy: PolicyKind,
    /// Simulated threads.
    pub threads: usize,
}

/// Harness-wide settings.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Seeds to average over (the paper averages 20 hardware runs; the
    /// simulator's only run-to-run variance is the seed).
    pub seeds: u64,
    /// Scale factor on each benchmark's default transactions-per-thread
    /// (1.0 = the full default; smaller for quick runs).
    pub scale: f64,
    /// OS threads the cell executor fans work out across (1 = serial;
    /// results are bit-identical either way).
    pub jobs: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            seeds: default_seeds(),
            scale: 1.0,
            jobs: default_jobs(),
        }
    }
}

/// Reads `env_name` through `parse`, warning once per process on a value
/// `parse` rejects instead of silently falling back to `default`.
fn parsed_env<T: std::fmt::Display>(
    env_name: &str,
    default: T,
    expected: &str,
    warned: &'static Once,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Ok(raw) = std::env::var(env_name) else {
        return default;
    };
    parse(&raw).unwrap_or_else(|| {
        warned.call_once(|| {
            eprintln!(
                "warning: ignoring invalid {env_name}={raw:?} \
                 (expected {expected}); using default {default}"
            );
        });
        default
    })
}

/// Parses a positive integer from `env_name` (see [`parsed_env`]).
fn positive_env(env_name: &str, default: u64, warned: &'static Once) -> u64 {
    parsed_env(env_name, default, "a positive integer", warned, |raw| {
        raw.parse::<u64>().ok().filter(|&n| n > 0)
    })
}

/// A workload scale factor: finite and greater than zero. `inf` would
/// saturate every benchmark's transaction count, so a run never ends.
fn parse_scale(raw: &str) -> Option<f64> {
    raw.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0)
}

/// Workload scale factor: `SEER_SCALE`, default 1.0.
pub fn default_scale() -> f64 {
    static WARNED: Once = Once::new();
    parsed_env("SEER_SCALE", 1.0, "a finite positive number", &WARNED, parse_scale)
}

/// Seeds averaged per cell: `SEER_SEEDS`, default 3.
pub fn default_seeds() -> u64 {
    static WARNED: Once = Once::new();
    positive_env("SEER_SEEDS", 3, &WARNED)
}

/// Executor fan-out width: `SEER_JOBS`, default 1 (serial).
pub fn default_jobs() -> usize {
    static WARNED: Once = Once::new();
    positive_env("SEER_JOBS", 1, &WARNED) as usize
}

/// Derives the driver RNG seed for harness seed `seed`.
///
/// Every simulation the harness, CLI and conformance replay
/// matrix perform goes through this one function, so the committed golden
/// trace hashes (`crates/conformance/tests/fixtures/trace_hashes.txt`)
/// pin its output: changing the constants is a fixture re-bless, not a
/// tweak. The multiplier spreads consecutive harness seeds across the
/// driver RNG's seed space; the offset keeps seed 0 away from the
/// all-zeros state.
pub const fn sim_seed(seed: u64) -> u64 {
    0x5EE2 + seed * 7919
}

/// Seed-averaged measurements of one experiment cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellResult {
    /// Mean speedup over the sequential execution.
    pub speedup: f64,
    /// Mean aborts per commit.
    pub abort_ratio: f64,
    /// Mean fraction of commits per transaction mode (Table 3 order).
    pub mode_fractions: [f64; 6],
    /// Mean fraction of commits that used the SGL fall-back.
    pub fallback_fraction: f64,
    /// Mean of the per-run median fraction of available transaction locks
    /// taken by lock-acquiring transactions (§5.2), if any run acquired.
    pub median_tx_lock_fraction: Option<f64>,
}

impl CellResult {
    /// Averages raw per-seed metrics into one `CellResult` (the reduction
    /// shared by [`run_cell`] and `CellExecutor::cell`).
    ///
    /// # Panics
    /// If `runs` is empty.
    pub fn average(runs: &[RunMetrics]) -> Self {
        assert!(!runs.is_empty(), "averaging zero runs");
        let mut acc = CellResult::default();
        let mut lock_fraction_acc = 0.0;
        let mut lock_fraction_n = 0u64;
        for m in runs {
            acc.speedup += m.speedup();
            acc.abort_ratio += m.abort_ratio();
            acc.fallback_fraction += m.fallback_fraction();
            for (i, mode) in TxMode::ALL.iter().enumerate() {
                acc.mode_fractions[i] += m.modes.fraction(*mode);
            }
            if let Some(f) = m.median_tx_lock_fraction() {
                lock_fraction_acc += f;
                lock_fraction_n += 1;
            }
        }
        let n = runs.len() as f64;
        acc.speedup /= n;
        acc.abort_ratio /= n;
        acc.fallback_fraction /= n;
        for f in &mut acc.mode_fractions {
            *f /= n;
        }
        acc.median_tx_lock_fraction = if lock_fraction_n > 0 {
            Some(lock_fraction_acc / lock_fraction_n as f64)
        } else {
            None
        };
        acc
    }
}

/// Runs `cell` once per seed (serially, uncached) and averages the
/// measurements. The memoizing equivalent is `CellExecutor::cell`.
pub fn run_cell(cell: Cell, cfg: &HarnessConfig) -> CellResult {
    let runs: Vec<RunMetrics> = (0..cfg.seeds)
        .map(|seed| execute_cell(cell, seed, cfg.scale, None))
        .collect();
    CellResult::average(&runs)
}

/// The one cell-execution primitive: runs one seed of `cell` and returns
/// the raw metrics. With a sink, the run's lifecycle and inference
/// streams are collected into it; per the sink-not-flag discipline the
/// returned metrics (and in particular `trace_hash`) are bit-identical
/// either way.
///
/// This is the mechanism under `RunRequest::cell` (the workspace's
/// public entry-point builder, in `seer-scenario`); harness-internal
/// code and the executor's run function call it directly.
///
/// # Panics
/// If the run trips the driver's event safety valve (`truncated`) — the
/// simulated-cycle budget. Under a supervised executor that panic is
/// caught and reported as a failed cell, not a process abort.
pub fn execute_cell(
    cell: Cell,
    seed: u64,
    scale: f64,
    sink: Option<&mut dyn TraceSink>,
) -> RunMetrics {
    let mut workload = cell.benchmark.instantiate_scaled(cell.threads, scale);
    let blocks = workload.num_blocks();
    let mut sched = cell.policy.build(cell.threads, blocks);
    let cfg = DriverConfig::paper_machine(cell.threads, sim_seed(seed));
    let metrics = match sink {
        None => run(&mut workload, sched.as_mut(), &cfg),
        Some(sink) => run_traced(&mut workload, sched.as_mut(), &cfg, sink),
    };
    assert!(!metrics.truncated, "run truncated: {cell:?} seed {seed}");
    metrics
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            debug_assert!(v > 0.0, "geometric mean of non-positive value {v}");
            v.max(f64::MIN_POSITIVE).ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scale_must_be_finite_and_positive() {
        for bad in ["inf", "-inf", "NaN", "-1", "0", "abc", ""] {
            assert_eq!(parse_scale(bad), None, "{bad:?}");
        }
        assert_eq!(parse_scale("0.2"), Some(0.2));
    }

    #[test]
    fn sim_seed_is_pinned() {
        // The golden trace hashes depend on this derivation; see the
        // conformance replay suite.
        assert_eq!(sim_seed(0), 0x5EE2);
        assert_eq!(sim_seed(1) - sim_seed(0), 7919);
    }

    #[test]
    fn run_cell_is_deterministic() {
        let cell = Cell {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Rtm,
            threads: 4,
        };
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 1,
        };
        let a = run_cell(cell, &cfg);
        let b = run_cell(cell, &cfg);
        assert_eq!(a.speedup, b.speedup);
        assert_eq!(a.abort_ratio, b.abort_ratio);
        assert!(a.speedup > 0.0);
    }

    #[test]
    fn mode_fractions_sum_to_one() {
        let cell = Cell {
            benchmark: Benchmark::KmeansHigh,
            policy: PolicyKind::Seer,
            threads: 4,
        };
        let cfg = HarnessConfig {
            seeds: 1,
            scale: 0.2,
            jobs: 1,
        };
        let r = run_cell(cell, &cfg);
        let total: f64 = r.mode_fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }
}
