//! # seer-perfbench — the repository's benchmark
//!
//! Four workloads driven through the public entry points users reach
//! (`CellExecutor` over a `Store`, `RunRequest`, `seer_tune::run_search`
//! on a `TuneExecutor`), each timed end to end with tracing off, and each
//! re-run once with outside-in probes around every layer for the
//! per-layer account. See `README.md` in this directory.

pub mod crosscheck;
pub mod probe;
pub mod stats;
pub mod workloads;

pub use workloads::{fill, run, Config, Outcome, Size, Workload};

use seer_store::Json;

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::object([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::object([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", Json::Object(metrics)),
    ])
}
