//! Declarative experiment plans and the parallel, memoizing cell executor.
//!
//! The paper's evaluation (Figs. 3–5, Table 3, the §5.3 ablations) is a
//! grid of *independent, deterministic* simulation cells, and several
//! artefacts consume overlapping subsets of that grid (Table 3 re-reads
//! every Figure 3 cell; Figure 4 and Figure 5 share the profile-only
//! baseline runs). Instead of each experiment calling the runner inline,
//! an experiment *declares* its grid as a [`Plan`] (a deduplicated set of
//! `Cell × seed` work items) and hands it to a [`CellExecutor`].
//!
//! Since PR 7 the machinery behind the executor — deduplicating plans,
//! `parallel_map` fan-out, the memo cache with hit/miss counters, the
//! disk store and the supervision layer — lives in `seer-store`'s generic
//! [`Executor`]; this module is the *cell-shaped* instantiation: it picks
//! `K = CellKey`, `V = RunMetrics`, supplies the run function (the
//! runner's `execute_cell`), and keeps the harness-flavoured plan sugar
//! (`add`/`add_grid` expanding a `HarnessConfig`) and assembly helpers
//! (`metrics`/`cell`).
//!
//! Every cell's discrete-event run is a pure function of
//! `(cell, seed, scale)` — seeded via [`sim_seed`], sharing no state with
//! any other cell — so parallel execution is *bit-identical* to serial,
//! and so is a disk-warmed or resumed run. The conformance replay
//! fixtures and the executor equivalence test
//! (`crates/harness/tests/executor.rs`) pin this.
//!
//! [`sim_seed`]: crate::runner::sim_seed

use seer_runtime::RunMetrics;
use seer_store::{ExecReport, Executor, Json, Store, SupervisorConfig, ToJson};

use crate::runner::{execute_cell, Cell, CellResult, HarnessConfig};

pub use seer_store::parallel_map;

/// The memoization key: every coordinate a cell's metrics depend on.
///
/// `scale` is carried as its IEEE-754 bit pattern so the key is `Eq + Hash`
/// without tolerance games; two scales memoize together exactly when they
/// are the same `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload model.
    pub benchmark: seer_stamp::Benchmark,
    /// Scheduler variant.
    pub policy: crate::policy::PolicyKind,
    /// Simulated threads.
    pub threads: usize,
    /// Harness seed (the driver seed is derived via
    /// [`crate::runner::sim_seed`]).
    pub seed: u64,
    /// Workload scale factor, as raw bits.
    scale_bits: u64,
}

impl CellKey {
    /// Builds the key for one `(cell, seed, scale)` work item.
    pub fn new(cell: Cell, seed: u64, scale: f64) -> Self {
        Self {
            benchmark: cell.benchmark,
            policy: cell.policy,
            threads: cell.threads,
            seed,
            scale_bits: scale.to_bits(),
        }
    }

    /// The cell coordinates (without seed/scale).
    pub fn cell(&self) -> Cell {
        Cell {
            benchmark: self.benchmark,
            policy: self.policy,
            threads: self.threads,
        }
    }

    /// The workload scale factor.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }
}

impl seer_store::StoreKey for CellKey {
    const KIND: &'static str = "cell";

    fn key_id(&self) -> String {
        // Scale goes in as raw bits: the store must distinguish exactly
        // the scales the memo cache distinguishes.
        // `spec()` (not `name()`): the parameterized synth benchmark must
        // key distinct block counts to distinct store entries. For every
        // fixed member spec == name, so existing keys are untouched.
        format!(
            "{}/{}/t{}/s{}/x{:016x}",
            self.benchmark.spec(),
            self.policy.spec(),
            self.threads,
            self.seed,
            self.scale_bits
        )
    }

    fn key_json(&self) -> Json {
        Json::object([
            ("benchmark", self.benchmark.spec().to_json()),
            ("policy", self.policy.spec().to_json()),
            ("threads", self.threads.to_json()),
            ("seed", self.seed.to_json()),
            ("scale", self.scale().to_json()),
        ])
    }
}

/// A declarative, deduplicated set of `Cell × seed` work items.
///
/// Experiments build a `Plan` up front (usually via [`Plan::add_grid`]),
/// then hand it to [`CellExecutor::execute`]. Duplicate insertions are
/// dropped at build time, so overlapping grids (e.g. Table 3 re-listing
/// every Figure 3 cell) cost nothing even before the cache is consulted.
#[derive(Debug, Default, Clone)]
pub struct Plan {
    inner: seer_store::Plan<CellKey>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(cell, seed)` item at an explicit scale. Returns `true`
    /// if the item was new.
    pub fn add_one(&mut self, cell: Cell, seed: u64, scale: f64) -> bool {
        self.inner.add(CellKey::new(cell, seed, scale))
    }

    /// Adds `cell` under `cfg`: one item per seed `0..cfg.seeds` at
    /// `cfg.scale` (the expansion [`crate::runner::run_cell`] averages
    /// over).
    pub fn add(&mut self, cell: Cell, cfg: &HarnessConfig) {
        for seed in 0..cfg.seeds {
            self.add_one(cell, seed, cfg.scale);
        }
    }

    /// Adds the full `benchmarks × policies × threads` grid under `cfg`.
    pub fn add_grid(
        &mut self,
        benchmarks: &[seer_stamp::Benchmark],
        policies: &[crate::policy::PolicyKind],
        threads: &[usize],
        cfg: &HarnessConfig,
    ) {
        for &benchmark in benchmarks {
            for &policy in policies {
                for &t in threads {
                    self.add(
                        Cell {
                            benchmark,
                            policy,
                            threads: t,
                        },
                        cfg,
                    );
                }
            }
        }
    }

    /// Number of unique work items.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the plan holds no items.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The unique items, in insertion order.
    pub fn items(&self) -> &[CellKey] {
        self.inner.items()
    }

    /// The underlying generic plan.
    pub fn as_generic(&self) -> &seer_store::Plan<CellKey> {
        &self.inner
    }
}

/// The parallel, memoizing executor behind every figure, table and
/// sweep: the workspace's one way to turn a [`Plan`] into metrics.
///
/// A thin instantiation of `seer-store`'s generic [`Executor`]: results
/// are memoized per [`CellKey`] for the lifetime of the executor, served
/// from an attached disk [`Store`] across processes, and computed under
/// supervision (retry/deadline/panic isolation) when planned. The
/// executor is `Sync`; its workers only ever write distinct keys, and
/// readers assemble results by key, which is why `--jobs N` is
/// bit-identical to `--jobs 1` for every N.
#[derive(Debug)]
pub struct CellExecutor {
    cfg: HarnessConfig,
    inner: Executor<CellKey, RunMetrics>,
}

impl CellExecutor {
    /// An executor with an empty cache over `cfg` (which fixes the default
    /// seeds/scale for [`Plan::add`] expansion and `jobs` for fan-out).
    /// No disk store; supervision from the environment knobs.
    pub fn new(cfg: HarnessConfig) -> Self {
        Self::with_options(cfg, None, SupervisorConfig::from_env())
    }

    /// [`CellExecutor::new`] plus a disk store: planned results load from
    /// `store` before simulating and persist to it after.
    pub fn with_store(cfg: HarnessConfig, store: Store) -> Self {
        Self::with_options(cfg, Some(store), SupervisorConfig::from_env())
    }

    /// Fully explicit constructor.
    pub fn with_options(
        cfg: HarnessConfig,
        store: Option<Store>,
        supervisor: SupervisorConfig,
    ) -> Self {
        let mut inner = Executor::new(cfg.jobs, |key: CellKey| {
            execute_cell(key.cell(), key.seed, key.scale(), None)
        })
        .with_supervisor(supervisor);
        if let Some(store) = store {
            inner = inner.with_store(store);
        }
        Self { cfg, inner }
    }

    /// The executor's harness configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.cfg
    }

    /// The attached disk store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.inner.store()
    }

    /// Resolves every item of `plan` — memo cache, then disk store, then
    /// supervised simulation fanned out across `cfg.jobs` OS threads —
    /// and returns the coverage report. Safe to call repeatedly and with
    /// overlapping plans; a poisoned cell lands in
    /// [`ExecReport::failed`] instead of aborting the process.
    pub fn execute(&self, plan: &Plan) -> ExecReport<CellKey> {
        self.inner.execute(&plan.inner)
    }

    /// Raw metrics of one `(cell, seed)` run at an explicit scale,
    /// simulating on a cache miss (serially — batch work belongs in a
    /// [`Plan`]).
    pub fn metrics_at(&self, cell: Cell, seed: u64, scale: f64) -> RunMetrics {
        self.inner.get(CellKey::new(cell, seed, scale))
    }

    /// The memoized metrics of one item, without computing anything: the
    /// non-panicking read used to assemble partial reports around failed
    /// cells.
    pub fn cached(&self, cell: Cell, seed: u64, scale: f64) -> Option<RunMetrics> {
        self.inner.cached(&CellKey::new(cell, seed, scale))
    }

    /// Raw metrics of one `(cell, seed)` run at the executor's scale.
    pub fn metrics(&self, cell: Cell, seed: u64) -> RunMetrics {
        self.metrics_at(cell, seed, self.cfg.scale)
    }

    /// Seed-averaged measurements of `cell` over the executor's
    /// `cfg.seeds` at `cfg.scale` — the memoized equivalent of
    /// [`crate::runner::run_cell`].
    pub fn cell(&self, cell: Cell) -> CellResult {
        let runs: Vec<RunMetrics> = (0..self.cfg.seeds)
            .map(|seed| self.metrics(cell, seed))
            .collect();
        CellResult::average(&runs)
    }

    /// Memo-cache reads that were served without simulating.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Simulations actually performed (the duplicate-work counter: after
    /// any sequence of experiments this equals the number of unique
    /// `(cell, seed, scale)` items they collectively declared, minus
    /// anything the disk store already had).
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Results served from the disk store instead of simulating.
    pub fn disk_hits(&self) -> u64 {
        self.inner.disk_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use seer_stamp::Benchmark;
    use seer_store::StoreKey;

    fn cell(threads: usize) -> Cell {
        Cell {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Rtm,
            threads,
        }
    }

    #[test]
    fn plan_deduplicates_items() {
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 1,
        };
        let mut plan = Plan::new();
        plan.add(cell(2), &cfg);
        plan.add(cell(2), &cfg); // exact duplicate
        plan.add(cell(4), &cfg);
        assert_eq!(plan.len(), 4); // 2 cells × 2 seeds
        assert!(plan.add_one(cell(2), 7, 0.1));
        assert!(!plan.add_one(cell(2), 7, 0.1));
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn executor_counts_hits_and_misses() {
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 2,
        };
        let exec = CellExecutor::new(cfg);
        let mut plan = Plan::new();
        plan.add(cell(2), &cfg);
        exec.execute(&plan);
        assert_eq!(exec.misses(), 2);
        assert_eq!(exec.hits(), 0);
        // Re-executing the same plan simulates nothing.
        exec.execute(&plan);
        assert_eq!(exec.misses(), 2);
        assert_eq!(exec.hits(), 2);
        // Assembly over the cached seeds is all hits.
        let r = exec.cell(cell(2));
        assert!(r.speedup > 0.0);
        assert_eq!(exec.misses(), 2);
        assert_eq!(exec.hits(), 4);
        // No store attached: nothing can be a disk hit.
        assert_eq!(exec.disk_hits(), 0);
    }

    #[test]
    fn cached_metrics_equal_a_fresh_run() {
        let cfg = HarnessConfig {
            seeds: 1,
            scale: 0.1,
            jobs: 2,
        };
        let exec = CellExecutor::new(cfg);
        let mut plan = Plan::new();
        plan.add(cell(4), &cfg);
        exec.execute(&plan);
        let cached = exec.metrics(cell(4), 0);
        let fresh = execute_cell(cell(4), 0, 0.1, None);
        assert_eq!(cached.trace_hash, fresh.trace_hash);
        assert_eq!(cached.makespan, fresh.makespan);
        assert_eq!(cached.commits, fresh.commits);
    }

    #[test]
    fn cell_key_ids_are_unique_across_coordinates() {
        let a = CellKey::new(cell(2), 0, 0.1);
        let variants = [
            CellKey::new(cell(4), 0, 0.1),
            CellKey::new(cell(2), 1, 0.1),
            CellKey::new(cell(2), 0, 0.2),
            CellKey::new(
                Cell {
                    benchmark: Benchmark::Ssca2,
                    policy: PolicyKind::Seer,
                    threads: 2,
                },
                0,
                0.1,
            ),
        ];
        for v in &variants {
            assert_ne!(a.key_id(), v.key_id(), "{v:?}");
        }
    }
}
