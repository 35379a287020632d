//! Persistence conformance: the disk store and the supervised executor
//! must be *invisible* in the results.
//!
//! Three contracts from DESIGN.md §13 are pinned here:
//!
//! 1. **Warm-start determinism** — a sweep served entirely from disk
//!    shards reproduces the committed replay fixtures byte-for-byte.
//!    A store hit is a *claim* about what a simulation would produce;
//!    this test is what makes that claim safe to serve.
//! 2. **Crash recovery** — a sweep killed mid-plan and resumed against
//!    the same store re-uses every completed shard (each shard *is* the
//!    checkpoint) and computes only the gap, landing on results
//!    bit-identical to an uninterrupted run.
//! 3. **Fault degradation** — a poisoned cell becomes a [`FailedItem`]
//!    in a partial report (coverage accounted, siblings persisted), and
//!    a healthy resume fills exactly the hole.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use seer_conformance::replay::fixture_line;
use seer_harness::{
    default_jobs, execute_cell, Cell, CellExecutor, CellKey, HarnessConfig, Plan, PolicyKind,
    Store, SupervisorConfig,
};
use seer_stamp::Benchmark;

const SCALE: f64 = 0.08;
const THREADS: usize = 4;
const FIXTURES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_hashes.txt"
);

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "seer-conformance-store-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

fn config() -> HarnessConfig {
    HarnessConfig {
        seeds: 1,
        scale: SCALE,
        jobs: default_jobs(),
    }
}

/// The full 88-cell fixture matrix (STAMP × every policy), fixture order.
fn fixture_cells() -> Vec<Cell> {
    Benchmark::STAMP
        .into_iter()
        .flat_map(|benchmark| {
            PolicyKind::ALL.into_iter().map(move |policy| Cell {
                benchmark,
                policy,
                threads: THREADS,
            })
        })
        .collect()
}

/// A smaller matrix for the interruption tests (two benchmarks × every
/// policy — still crosses every scheduler code path).
fn small_cells() -> Vec<Cell> {
    [Benchmark::Ssca2, Benchmark::KmeansHigh]
        .into_iter()
        .flat_map(|benchmark| {
            PolicyKind::ALL.into_iter().map(move |policy| Cell {
                benchmark,
                policy,
                threads: THREADS,
            })
        })
        .collect()
}

fn plan_of(cells: &[Cell]) -> Plan {
    let mut plan = Plan::new();
    for &cell in cells {
        plan.add_one(cell, 0, SCALE);
    }
    plan
}

#[test]
fn warm_start_reproduces_the_replay_fixtures() {
    let root = temp_root("warm");
    let cells = fixture_cells();
    let plan = plan_of(&cells);

    // Cold pass: everything simulated, everything persisted.
    let cold = CellExecutor::with_store(config(), Store::open(&root));
    let report = cold.execute(&plan);
    assert!(report.complete(), "cold pass failed: {report:?}");
    assert_eq!(report.computed, cells.len() as u64);
    assert_eq!(report.disk_hits, 0);
    drop(cold);

    // Warm pass in a "new process": fresh executor, empty memo cache,
    // same store directory. Not one simulation may run.
    let warm = CellExecutor::with_store(config(), Store::open(&root));
    let report = warm.execute(&plan);
    assert!(report.complete(), "warm pass failed: {report:?}");
    assert_eq!(
        report.disk_hits,
        cells.len() as u64,
        "a re-run against a warm store must be 100% disk hits: {report:?}"
    );
    assert_eq!(report.computed, 0, "warm pass simulated something");

    // The disk-served results must reproduce the committed fixtures
    // byte-for-byte — the same bar the live replay matrix clears.
    let lines: Vec<String> = cells
        .iter()
        .map(|&cell| {
            let metrics = warm.cached(cell, 0, SCALE).expect("covered cell");
            fixture_line(cell, 0, metrics.trace_hash)
        })
        .collect();
    let computed = lines.join("\n") + "\n";
    let golden = std::fs::read_to_string(FIXTURES).expect("committed fixtures");
    assert_eq!(
        computed, golden,
        "store-warmed results drifted from the committed replay fixtures"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let root = temp_root("resume");
    let cells = small_cells();
    let plan = plan_of(&cells);

    // The uninterrupted reference: no store, one executor, full plan.
    let reference = CellExecutor::new(config());
    assert!(reference.execute(&plan).complete());

    // The "crashed" run: a store-backed executor gets through only the
    // first half of the plan before the process dies (dropping the
    // executor loses the memo cache, exactly like a kill would).
    let half = cells.len() / 2;
    let crashed = CellExecutor::with_store(config(), Store::open(&root));
    let report = crashed.execute(&plan_of(&cells[..half]));
    assert!(report.complete());
    drop(crashed);

    // Resume: same store, full plan. Completed shards are the
    // checkpoint — only the gap is simulated.
    let resumed = CellExecutor::with_store(config(), Store::open(&root));
    let report = resumed.execute(&plan);
    assert!(report.complete(), "resume failed: {report:?}");
    assert_eq!(report.disk_hits, half as u64, "{report:?}");
    assert_eq!(report.computed, (cells.len() - half) as u64, "{report:?}");

    // Bit-identical to never having crashed at all.
    for &cell in &cells {
        let a = reference.cached(cell, 0, SCALE).expect("reference covered");
        let b = resumed.cached(cell, 0, SCALE).expect("resume covered");
        assert_eq!(a.trace_hash, b.trace_hash, "{cell:?}");
        assert_eq!(a.makespan, b.makespan, "{cell:?}");
        assert_eq!(a.commits, b.commits, "{cell:?}");
        assert_eq!(a.aborts, b.aborts, "{cell:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn poisoned_cell_degrades_into_a_partial_report() {
    let root = temp_root("poison");
    let cells = small_cells();
    let keys: Vec<CellKey> = cells
        .iter()
        .map(|&cell| CellKey::new(cell, 0, SCALE))
        .collect();
    let poisoned = keys[0];
    let mut generic_plan = seer_store::Plan::new();
    for &key in &keys {
        generic_plan.add(key);
    }

    // An executor whose run function panics on one cell: the fault is
    // isolated into a FailedItem, the siblings complete and persist.
    let bad = seer_store::Executor::new(default_jobs(), move |key: CellKey| {
        assert!(key != poisoned, "injected fault");
        execute_cell(key.cell(), key.seed, key.scale(), None)
    })
    .with_store(Store::open(&root))
    .with_supervisor(SupervisorConfig::default());
    let report = bad.execute(&generic_plan);
    assert!(!report.complete());
    assert_eq!(report.failed.len(), 1, "{report:?}");
    assert_eq!(report.failed[0].key, poisoned);
    assert_eq!(report.covered(), keys.len() - 1);
    drop(bad);

    // A healthy resume against the same store computes exactly the hole.
    let healthy = CellExecutor::with_store(config(), Store::open(&root));
    let report = healthy.execute(&plan_of(&cells));
    assert!(report.complete(), "healthy resume failed: {report:?}");
    assert_eq!(report.disk_hits, (keys.len() - 1) as u64, "{report:?}");
    assert_eq!(report.computed, 1, "{report:?}");

    // And the once-poisoned cell now matches a fresh simulation.
    let fixed = healthy.cached(cells[0], 0, SCALE).expect("hole filled");
    let fresh = execute_cell(cells[0], 0, SCALE, None);
    assert_eq!(fixed.trace_hash, fresh.trace_hash);
    let _ = std::fs::remove_dir_all(&root);
}
