//! Executor guarantees, pinned as tests: parallel execution is
//! bit-identical to serial, a set of overlapping experiments sharing
//! one executor simulates each unique `(cell, seed)` exactly once, and
//! a figure whose cells failed under supervision fails instead of
//! recomputing them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use seer_harness::{
    figure3, figure4, table3, Cell, CellExecutor, CellResult, HarnessConfig, Plan, PolicyKind,
    SupervisorConfig, THREADS_TABLE,
};
use seer_stamp::Benchmark;

const SCALE: f64 = 0.08;
const THREADS: [usize; 2] = [2, 4];

fn config(jobs: usize, seeds: u64) -> HarnessConfig {
    HarnessConfig {
        seeds,
        scale: SCALE,
        jobs,
    }
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for benchmark in Benchmark::STAMP {
        for policy in PolicyKind::FIGURE3 {
            for threads in THREADS {
                cells.push(Cell {
                    benchmark,
                    policy,
                    threads,
                });
            }
        }
    }
    cells
}

#[test]
fn parallel_execution_equals_serial_field_for_field() {
    let serial = CellExecutor::new(config(1, 2));
    let parallel = CellExecutor::new(config(4, 2));
    let cells = grid();

    let mut serial_plan = Plan::new();
    let mut parallel_plan = Plan::new();
    for &cell in &cells {
        serial_plan.add(cell, serial.config());
        parallel_plan.add(cell, parallel.config());
    }
    serial.execute(&serial_plan);
    parallel.execute(&parallel_plan);

    for &cell in &cells {
        let a: CellResult = serial.cell(cell);
        let b: CellResult = parallel.cell(cell);
        assert_eq!(a, b, "results diverged for {cell:?}");
        // Down to the raw per-seed trace: bit-identical schedules.
        for seed in 0..serial.config().seeds {
            let ma = serial.cached(cell, seed, SCALE).expect("planned above");
            let mb = parallel.cached(cell, seed, SCALE).expect("planned above");
            assert_eq!(ma.trace_hash, mb.trace_hash, "{cell:?} seed {seed}");
            assert_eq!(ma.makespan, mb.makespan, "{cell:?} seed {seed}");
            assert_eq!(ma.commits, mb.commits, "{cell:?} seed {seed}");
            assert_eq!(ma.aborts, mb.aborts, "{cell:?} seed {seed}");
            assert_eq!(ma.modes, mb.modes, "{cell:?} seed {seed}");
        }
    }
    // Both executors did exactly the unique work, no more.
    assert_eq!(serial.misses(), parallel.misses());
    assert_eq!(serial.misses(), (cells.len() * 2) as u64);
}

#[test]
fn parallel_figure3_renders_identically_to_serial() {
    let serial = CellExecutor::new(config(1, 1));
    let parallel = CellExecutor::new(config(3, 1));
    let a = figure3(&serial, &THREADS);
    let b = figure3(&parallel, &THREADS);
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.render(), pb.render());
    }
}

#[test]
fn memoization_accounting_across_overlapping_experiments() {
    let seeds = 1u64;
    let exec = CellExecutor::new(config(2, seeds));

    figure3(&exec, &THREADS);
    table3(&exec, &THREADS);
    figure4(&exec, &THREADS);

    // figure3: STAMP × FIGURE3 × |THREADS| cells; table3 re-reads exactly
    // that grid; figure4 adds (STAMP + hashmap-low) × {RTM, profile-only},
    // of which STAMP × RTM is already cached. New per thread count:
    // profile-only on the 8 STAMP benchmarks + both policies on hashmap.
    let fig3_cells = 8 * 4 * THREADS.len();
    let fig4_new = (8 + 2) * THREADS.len();
    let unique = (fig3_cells + fig4_new) as u64 * seeds;
    assert_eq!(
        exec.misses(),
        unique,
        "combined run must simulate each unique cell exactly once \
         (misses {} hits {})",
        exec.misses(),
        exec.hits()
    );
    assert!(exec.hits() > 0, "table3 should have been served from cache");
}

#[test]
fn table3_after_figure3_is_free() {
    let exec = CellExecutor::new(config(2, 1));
    figure3(&exec, &THREADS_TABLE);
    let before = exec.misses();
    table3(&exec, &THREADS_TABLE);
    assert_eq!(exec.misses(), before, "table3 re-simulated cached cells");
}

#[test]
fn a_figure_with_timed_out_cells_fails_instead_of_recomputing_them() {
    let exec = CellExecutor::with_options(
        config(2, 1),
        None,
        SupervisorConfig {
            timeout: Some(Duration::from_nanos(1)),
        },
    );
    let payload = catch_unwind(AssertUnwindSafe(|| figure4(&exec, &[2])))
        .expect_err("figure4 must not assemble around timed-out cells");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(
        msg.contains("timed out"),
        "panic should list the failures: {msg}"
    );
    assert_eq!(
        exec.misses(),
        0,
        "no cell may be simulated outside the supervisor"
    );
}
