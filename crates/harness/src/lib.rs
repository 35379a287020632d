//! # seer-harness — regenerating the paper's evaluation
//!
//! One function per table/figure of the Seer paper's §5 (see
//! `DESIGN.md` §4 for the experiment index), plus the binaries that render
//! them:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig3` | Figure 3 (a–i): speedups of HLE/RTM/SCM/Seer across STAMP |
//! | `table3` | Table 3: commit-mode breakdown per policy |
//! | `fig4` | Figure 4: profiling/inference overhead of Seer vs RTM |
//! | `fig5` | Figure 5: cumulative mechanism ablation |
//! | `ablation_core_locks` | §5.3: core-locks-only gains |
//! | `accuracy` | extra: inferred conflict pairs vs simulator ground truth |
//! | `fine_grained` | extra: the paper's future-work (block × structure) locks |
//! | `convergence` | extra: when the inferred locking scheme stabilizes |
//!
//! Execution goes through one API (`DESIGN.md` §9): experiments declare
//! their grid as a [`Plan`] and hand it to a [`CellExecutor`], which
//! deduplicates, memoizes per `(benchmark, policy, threads, seed, scale)`,
//! and fans uncached cells out across OS threads. Parallel execution is
//! bit-identical to serial — every cell is an independent deterministic
//! simulation — so `--jobs`/`SEER_JOBS` only changes wall-clock time.
//!
//! Environment knobs: `SEER_SEEDS` (seeds averaged per cell, default 3),
//! `SEER_SCALE` (work scale factor, default 1.0), `SEER_JOBS` (executor
//! fan-out width, default 1 = serial), `SEER_REPORT_JSON` (write
//! structured results to a JSON file as well).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod experiments;
pub mod policy;
pub mod report;
pub mod runner;
pub mod trace_export;

pub use exec::{parallel_map, CellExecutor, CellKey, Plan};
pub use experiments::{
    convergence, core_locks_only, figure3, figure4, figure5, fine_grained, inference_accuracy,
    table3, AccuracyResult, ConvergenceResult, FineGrainedResult, THREADS_FULL, THREADS_TABLE,
};
pub use policy::{PolicyKind, TunedParams, UnknownPolicy};
pub use report::{maybe_write_json, Panel, PercentTable, Series};
pub use runner::{
    default_jobs, default_seeds, execute_cell, geometric_mean, run_cell, sim_seed, Cell,
    CellResult, HarnessConfig,
};
pub use seer_store::{ExecReport, FailedItem, Json, RunFailure, Store, SupervisorConfig, ToJson};
pub use trace_export::{
    chrome_trace, inference_json, lifecycle_json, trace_jsonl, write_chrome_trace,
    write_trace_jsonl,
};

/// Reads the common environment configuration for the binaries
/// (`SEER_SEEDS`, `SEER_SCALE`, `SEER_JOBS`).
pub fn env_config() -> HarnessConfig {
    HarnessConfig {
        scale: runner::default_scale(),
        ..HarnessConfig::default()
    }
}
