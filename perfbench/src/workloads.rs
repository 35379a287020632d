//! The four benchmark workloads.
//!
//! Each workload is a closed loop: one pass is issued only after the
//! previous one finished, from one process, with at most `jobs` OS
//! threads. The untraced passes give the end-to-end metrics; a trace run
//! adds one pass with every layer probed (see [`crate::probe`]) and
//! checks it reproduces the untraced pass's trace hashes.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seer_harness::{
    geometric_mean, Cell, CellExecutor, CellKey, HarnessConfig, Json, Plan, PolicyKind, Store,
    SupervisorConfig, THREADS_FULL, THREADS_TABLE,
};
use seer_runtime::{RunMetrics, Workload as _};
use seer_scenario::{
    library, RunRequest, ScenarioKey, ScenarioOutcome, ScenarioPlan, ScenarioWorkload,
};
use seer_stamp::Benchmark;
use seer_store::{fnv1a, Executor, StoreKey};
use seer_tune::{
    report_json, run_search, validate_report, CombinedObjective, DriverKind, Objective, ParamSpace,
    TuneExecReport, TuneExecutor,
};

use crate::probe::{probed_cell, probed_scenario, through_store, LayerStats, RecordedTx, HOOKS};
use crate::stats::{median, overhead_frac, share};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3 + Table 3 from an empty store.
    FiguresCold,
    /// The same plan against the store a cold run filled.
    FiguresWarm,
    /// Seer on `synth@blocks=1024`, serially.
    SeerManyBlocks,
    /// A budget-8 successive-halving parameter search.
    TuneHalving,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FiguresCold,
        Workload::FiguresWarm,
        Workload::SeerManyBlocks,
        Workload::TuneHalving,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures-cold",
            Workload::FiguresWarm => "figures-warm",
            Workload::SeerManyBlocks => "seer-many-blocks",
            Workload::TuneHalving => "tune-halving",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one pass does. [`Size::full`] is the benchmark;
/// [`Size::tiny`] is the same code path shrunk for the smoke tests.
#[derive(Debug, Clone)]
pub struct Size {
    /// `full` or `tiny` (the `--size` flag).
    pub name: &'static str,
    /// Benchmarks of the figure plan.
    pub figure_benchmarks: Vec<Benchmark>,
    /// Scale of every figure cell.
    pub figure_scale: f64,
    /// Block count of the many-blocks workload.
    pub many_blocks: u16,
    /// Scale of every many-blocks run.
    pub many_scale: f64,
    /// Thread counts of the many-blocks workload.
    pub many_threads: Vec<usize>,
    /// Harness seeds per thread count in the many-blocks workload.
    pub many_seeds: u64,
    /// Initial configurations of the halving search.
    pub tune_budget: u64,
    /// Transactions per run kept for the HTM replay.
    pub record_per_run: usize,
    /// Push+pop pairs per depth in the queue cross-check.
    pub queue_ops: usize,
    /// Least number of passes per phase, whatever `--seconds` says.
    pub min_passes: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Size {
            name: "full",
            figure_benchmarks: Benchmark::STAMP.to_vec(),
            figure_scale: 1.0,
            many_blocks: 1024,
            // 3600 transactions per thread: 5-7 maintenance ticks per run
            // at every thread count, so every run has inference rounds.
            many_scale: 12.0,
            many_threads: THREADS_FULL.to_vec(),
            many_seeds: 2,
            tune_budget: 8,
            record_per_run: 32,
            queue_ops: 2_000_000,
            min_passes: 3,
        }
    }

    /// Parses a `--size` value.
    pub fn by_name(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::full()),
            "tiny" => Some(Size::tiny()),
            _ => None,
        }
    }

    /// A few-second version of every workload.
    pub fn tiny() -> Self {
        Size {
            name: "tiny",
            figure_benchmarks: vec![Benchmark::KmeansHigh, Benchmark::Ssca2],
            figure_scale: 0.05,
            many_blocks: 64,
            many_scale: 2.0,
            many_threads: vec![1, 4],
            many_seeds: 1,
            tune_budget: 2,
            record_per_run: 4,
            queue_ops: 10_000,
            min_passes: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Benchmark seed: every input derives from it.
    pub seed: u64,
    /// Host seconds each measured phase lasts (whole passes; at least
    /// `size.min_passes` of them).
    pub seconds: f64,
    /// Emit per-layer metrics from a probed pass instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for result stores (created and removed here).
    pub work_dir: PathBuf,
    /// Executor fan-out width.
    pub jobs: usize,
    /// Work per pass.
    pub size: Size,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports: metrics plus the correctness account.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Planned simulation runs (or store loads), summed over passes.
    pub attempted: u64,
    /// Planned runs with no valid result.
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    /// Wall time of each untraced round (one sample of every unit).
    pub pass_walls: Vec<f64>,
    /// The untraced wall-time estimate, in seconds.
    pub wall_s: f64,
}

impl Outcome {
    /// True when every run produced a valid result and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The result of one untraced pass.
#[derive(Debug, Default)]
struct Pass {
    /// Host time of the pass's set-up calls, timed just before it.
    setup_s: f64,
    wall_s: f64,
    planned: u64,
    failed: u64,
    /// Simulated events of the runs the pass computed (or, warm, loaded).
    events: u64,
    /// `speedup()` of the Seer runs the speedup metric averages.
    seer_speedups: Vec<f64>,
    /// Trace hash per run, by store key id.
    hashes: BTreeMap<String, u64>,
    problems: Vec<String>,
    /// The tune report, byte for byte.
    report: String,
}

/// Runs `cfg` and returns its outcome.
pub fn run(cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.work_dir).expect("cannot create the work directory");
    let outcome = match cfg.workload {
        Workload::FiguresCold => figures_cold(cfg),
        Workload::FiguresWarm => figures_warm(cfg),
        Workload::SeerManyBlocks => many_blocks(cfg),
        Workload::TuneHalving => tune_halving(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    outcome
}

/// The samples of every unit, and the process's peak RSS when the first
/// round ended.
struct Rounds<T> {
    units: Vec<Vec<T>>,
    first_round_rss_mb: Option<f64>,
}

/// Runs `units` kinds of pass round-robin until `seconds` have elapsed
/// and at least `min_rounds` whole rounds ran. Short units sampled many
/// times let a median reject the slow spells of a shared host that a
/// single long pass cannot.
///
/// Peak RSS is read after the first round: one round is one run of the
/// workload, and later rounds would add only the allocator's
/// fragmentation, which grows with the number of rounds a host manages.
fn repeat_rounds<T>(
    seconds: f64,
    min_rounds: usize,
    units: usize,
    mut pass: impl FnMut(usize) -> T,
) -> Rounds<T> {
    let start = Instant::now();
    let mut out = Rounds {
        units: (0..units).map(|_| Vec::new()).collect(),
        first_round_rss_mb: None,
    };
    let mut rounds = 0;
    while rounds < min_rounds.max(1) || start.elapsed().as_secs_f64() < seconds {
        for (u, samples) in out.units.iter_mut().enumerate() {
            samples.push(pass(u));
        }
        if rounds == 0 {
            out.first_round_rss_mb = peak_rss_mb();
        }
        rounds += 1;
    }
    out
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Checks the laws every completed run obeys, whoever ran it.
fn check_run(what: &str, m: &RunMetrics, expected_commits: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if m.truncated {
        problems.push(format!("{what}: truncated"));
    }
    for law in m.check_conservation() {
        problems.push(format!("{what}: {law}"));
    }
    if m.commits != expected_commits {
        problems.push(format!(
            "{what}: {} commits, expected {expected_commits}",
            m.commits
        ));
    }
    problems
}

fn cell_commits(key: &CellKey) -> u64 {
    (key.threads * key.benchmark.scaled_txs(key.scale())) as u64
}

fn scenario_commits(key: &ScenarioKey) -> u64 {
    let spec = library::builtin(&key.scenario).expect("planned scenarios are built-ins");
    (spec.threads * ScenarioWorkload::new(&spec).quota()) as u64
}

/// Folds the checks of one run into `pass`: a run with any failed check
/// counts once toward `failed`.
fn absorb_checks(pass: &mut Pass, problems: Vec<String>) {
    if !problems.is_empty() {
        pass.failed += 1;
        pass.problems.extend(problems);
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Trace hashes of the first sample of every unit.
fn first_hashes(units: &[Vec<Pass>]) -> BTreeMap<String, u64> {
    units
        .iter()
        .filter_map(|u| u.first())
        .flat_map(|p| p.hashes.clone())
        .collect()
}

/// The end-to-end metrics shared by every workload. `units[u]` holds the
/// samples of unit `u`; a workload pass is one sample of every unit, so
/// its wall and set-up times are estimated as sums of the units' medians.
/// Set-up is timed in every round, next to the pass it belongs to, so
/// both figures sample the host over the same seconds.
fn end_to_end(cfg: &Config, rounds: &Rounds<Pass>) -> Outcome {
    let units = &rounds.units;
    let mut out = Outcome::default();
    let mut wall_s = 0.0;
    let mut setup_s = 0.0;
    let mut events = 0;
    let mut speedups = Vec::new();
    for samples in units {
        let walls: Vec<f64> = samples.iter().map(|p| p.wall_s).collect();
        wall_s += median(&walls).unwrap_or(0.0);
        let setups: Vec<f64> = samples.iter().map(|p| p.setup_s).collect();
        setup_s += median(&setups).unwrap_or(0.0);
        let first = samples.first().expect("every unit ran at least once");
        events += first.events;
        speedups.extend_from_slice(&first.seer_speedups);
        for (i, p) in samples.iter().enumerate() {
            out.attempted += p.planned;
            out.failed += p.failed;
            out.problems.extend(p.problems.iter().cloned());
            if i > 0 && (p.hashes != first.hashes || p.report != first.report) {
                out.problems.push(format!(
                    "sample {i} differs from sample 0 on identical inputs"
                ));
            }
        }
    }
    let complete = units.iter().map(Vec::len).min().unwrap_or(0);
    out.pass_walls = (0..complete)
        .map(|r| units.iter().map(|u| u[r].wall_s).sum())
        .collect();
    out.wall_s = wall_s;
    if cfg.trace {
        return out;
    }
    out.push("wall_s", wall_s, "s");
    out.push("setup_s", setup_s, "s");
    out.push("sim_events_per_s", share(events as f64, wall_s), "events/s");
    match rounds.first_round_rss_mb {
        Some(mb) => out.push("peak_rss_mb", mb, "MB"),
        None => out.problems.push("VmHWM unavailable".into()),
    }
    out.push("seer_speedup_geomean", geometric_mean(&speedups), "x");
    out
}

// ---------------------------------------------------------------------
// figures-cold / figures-warm
// ---------------------------------------------------------------------

/// One Figure 3 panel's cells at harness seed `seed`: the grid
/// `figure3(THREADS_FULL)` and `table3(THREADS_TABLE)` declare for
/// `benchmark` (Table 3's thread counts are a subset, so its cells
/// deduplicate into Figure 3's), keyed at the benchmark seed instead of
/// the harness default 0. Resolving it is what `seer sweep --benchmark B
/// --seed N --store D` does.
fn panel_plan(plan: &mut Plan, benchmark: Benchmark, seed: u64, size: &Size) {
    for threads in [&THREADS_FULL[..], &THREADS_TABLE[..]] {
        for &policy in &PolicyKind::FIGURE3 {
            for &t in threads {
                let cell = Cell {
                    benchmark,
                    policy,
                    threads: t,
                };
                plan.add_one(cell, seed, size.figure_scale);
            }
        }
    }
}

/// The whole Figure 3 + Table 3 plan, in `figure3`'s order.
fn figures_plan(seed: u64, size: &Size) -> Plan {
    let mut plan = Plan::new();
    for &benchmark in &size.figure_benchmarks {
        panel_plan(&mut plan, benchmark, seed, size);
    }
    plan
}

/// The same plan split into one plan per benchmark panel.
fn figure_panels(seed: u64, size: &Size) -> Vec<Plan> {
    size.figure_benchmarks
        .iter()
        .map(|&benchmark| {
            let mut plan = Plan::new();
            panel_plan(&mut plan, benchmark, seed, size);
            plan
        })
        .collect()
}

fn figures_executor(cfg: &Config, store: Store) -> CellExecutor {
    let harness = HarnessConfig {
        seeds: 1,
        scale: cfg.size.figure_scale,
        jobs: cfg.jobs,
    };
    CellExecutor::with_options(harness, Some(store), SupervisorConfig::from_env())
}

/// Per-run checks and facts of a resolved figure plan.
fn figures_facts(exec: &CellExecutor, plan: &Plan, pass: &mut Pass) {
    let top = THREADS_FULL[THREADS_FULL.len() - 1];
    for key in plan.items() {
        let Some(m) = exec.cached(key.cell(), key.seed, key.scale()) else {
            continue; // counted through the report's failed list
        };
        let id = key.key_id();
        absorb_checks(pass, check_run(&id, &m, cell_commits(key)));
        pass.events += m.events;
        if key.policy == PolicyKind::Seer && key.threads == top {
            pass.seer_speedups.push(m.speedup());
        }
        pass.hashes.insert(id, m.trace_hash);
    }
}

/// One cold pass: a fresh executor over an empty store resolves the plan.
fn cold_pass(cfg: &Config, plan: &Plan, dir: &Path) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let exec = figures_executor(cfg, Store::open(dir));
    let report = exec.execute(plan);
    let mut pass = Pass {
        wall_s: secs(start),
        planned: report.planned as u64,
        failed: report.failed.len() as u64,
        ..Pass::default()
    };
    for f in &report.failed {
        pass.problems
            .push(format!("{}: {}", f.key.key_id(), f.failure));
    }
    figures_facts(&exec, plan, &mut pass);
    pass
}

/// Summed host time of the set-up calls of `keys`' runs: building each
/// workload and its scheduler.
fn cells_setup_s<'a>(keys: impl IntoIterator<Item = &'a CellKey>) -> f64 {
    let start = Instant::now();
    for key in keys {
        let workload = key.benchmark.instantiate_scaled(key.threads, key.scale());
        let sched = key.policy.build(key.threads, workload.num_blocks());
        std::hint::black_box((&workload, &sched));
    }
    secs(start)
}

fn figures_cold(cfg: &Config) -> Outcome {
    let plan = figures_plan(cfg.seed, &cfg.size);
    let panels = figure_panels(cfg.seed, &cfg.size);
    let dir = cfg.work_dir.join("cold");
    let rounds = repeat_rounds(cfg.seconds, cfg.size.min_passes, panels.len(), |u| {
        let setup_s = cells_setup_s(panels[u].items());
        Pass {
            setup_s,
            ..cold_pass(cfg, &panels[u], &dir)
        }
    });
    let mut out = end_to_end(cfg, &rounds);
    if cfg.trace {
        let dir = cfg.work_dir.join("cold-traced");
        let _ = std::fs::remove_dir_all(&dir);
        let untraced = out.wall_s;
        traced_figures(
            cfg,
            &plan,
            &dir,
            untraced,
            Expected::Hashes(&first_hashes(&rounds.units)),
            &mut out,
        );
    }
    out
}

/// Field-for-field digest of a stored value: its `Debug` rendering
/// covers every field, independently of the store's JSON codec.
fn value_digest(m: &RunMetrics) -> u64 {
    fnv1a(format!("{m:?}").as_bytes())
}

/// Fills `store` with the cold plan at `cfg.seed` and writes one
/// `key_id<TAB>digest` line per cell to `digests`. `figures-warm` runs
/// this in a child process, so its own peak RSS is the warm path's.
pub fn fill(cfg: &Config, store: &Path, digests: &Path) -> Result<(), String> {
    let plan = figures_plan(cfg.seed, &cfg.size);
    let _ = std::fs::remove_dir_all(store);
    let exec = figures_executor(cfg, Store::open(store));
    let report = exec.execute(&plan);
    if !report.complete() {
        return Err(format!(
            "{} cell(s) failed while filling the store",
            report.failed.len()
        ));
    }
    let mut text = String::new();
    for key in plan.items() {
        let m = exec
            .cached(key.cell(), key.seed, key.scale())
            .ok_or("a complete report left a cell uncached")?;
        text.push_str(&format!("{}\t{:016x}\n", key.key_id(), value_digest(&m)));
    }
    std::fs::write(digests, text).map_err(|e| format!("cannot write {}: {e}", digests.display()))
}

fn read_digests(path: &Path) -> Result<HashMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (id, hex) = line.split_once('\t').ok_or("malformed digest line")?;
            let d = u64::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
            Ok((id.to_string(), d))
        })
        .collect()
}

/// One warm pass: a fresh executor resolves the plan from the filled
/// store; every value must be a disk hit equal to what the cold run
/// computed. Set-up is building the plan and the executor over the store.
fn warm_pass(cfg: &Config, store: &Path, digests: &HashMap<String, u64>) -> Pass {
    let start = Instant::now();
    let plan = &figures_plan(cfg.seed, &cfg.size);
    let exec = figures_executor(cfg, Store::open(store));
    let setup_s = secs(start);
    let start = Instant::now();
    let report = exec.execute(plan);
    let mut pass = Pass {
        setup_s,
        wall_s: secs(start),
        planned: report.planned as u64,
        failed: report.failed.len() as u64,
        ..Pass::default()
    };
    if report.disk_hits != report.planned as u64 || report.computed != 0 {
        pass.problems.push(format!(
            "warm pass: {} from disk, {} computed of {} planned",
            report.disk_hits, report.computed, report.planned
        ));
    }
    figures_facts(&exec, plan, &mut pass);
    for key in plan.items() {
        let id = key.key_id();
        let same = exec
            .cached(key.cell(), key.seed, key.scale())
            .map(|m| digests.get(&id) == Some(&value_digest(&m)));
        if same == Some(false) {
            absorb_checks(
                &mut pass,
                vec![format!("{id}: warm value differs from cold")],
            );
        }
    }
    pass
}

/// `figures-warm`. A child process fills the store the warm passes read,
/// so this process's peak RSS is the warm path's alone.
fn figures_warm(cfg: &Config) -> Outcome {
    let store = cfg.work_dir.join("warm-store");
    let digest_path = cfg.work_dir.join("warm-digests.txt");
    if let Err(e) = fill_in_child(cfg, &store, &digest_path) {
        return Outcome {
            attempted: 1,
            failed: 1,
            problems: vec![e],
            ..Outcome::default()
        };
    }
    let digests = match read_digests(&digest_path) {
        Ok(d) => d,
        Err(e) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                problems: vec![e],
                ..Outcome::default()
            }
        }
    };
    let rounds = repeat_rounds(cfg.seconds, cfg.size.min_passes, 1, |_| {
        warm_pass(cfg, &store, &digests)
    });
    let mut out = end_to_end(cfg, &rounds);
    if cfg.trace {
        let plan = figures_plan(cfg.seed, &cfg.size);
        let untraced = out.wall_s;
        traced_figures(
            cfg,
            &plan,
            &store,
            untraced,
            Expected::Values(&digests),
            &mut out,
        );
    }
    out
}

fn fill_in_child(cfg: &Config, store: &Path, digests: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("fill")
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .arg("--size")
        .arg(cfg.size.name)
        .arg("--store")
        .arg(store)
        .arg("--digests")
        .arg(digests)
        .status()
        .map_err(|e| format!("cannot start the fill process: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("fill process failed: {status}"))
    }
}

/// What every run of a probed figure pass must reproduce.
enum Expected<'a> {
    /// The untraced pass's trace hash per run (`figures-cold`).
    Hashes(&'a BTreeMap<String, u64>),
    /// The cold fill's value digest per run (`figures-warm`, where every
    /// value must load and nothing may simulate).
    Values(&'a HashMap<String, u64>),
}

/// The probed figure pass: the same plan through a generic executor whose
/// run function times the store and the three layers of each cell.
fn traced_figures(
    cfg: &Config,
    plan: &Plan,
    store_dir: &Path,
    untraced_wall: f64,
    expected: Expected<'_>,
    out: &mut Outcome,
) {
    let stats = Arc::new(Mutex::new(LayerStats::default()));
    let store = Arc::new(Store::open(store_dir));
    let record = cfg.size.record_per_run;
    let exec = {
        let (stats, store) = (stats.clone(), store.clone());
        Executor::<CellKey, RunMetrics>::new(cfg.jobs, move |key: CellKey| {
            through_store(&store, &key, &stats, || probed_cell(&key, record, &stats))
        })
    };
    let start = Instant::now();
    let report = exec.execute(plan.as_generic());
    let wall = secs(start);
    let mut failed = report.failed.len() as u64;
    out.attempted += report.planned as u64;
    for f in &report.failed {
        out.problems
            .push(format!("traced {}: {}", f.key.key_id(), f.failure));
    }
    for key in plan.items() {
        let Some(m) = exec.cached(key) else { continue };
        let id = key.key_id();
        let mut problems = check_run(&id, &m, cell_commits(key));
        match expected {
            Expected::Values(d) if d.get(&id) != Some(&value_digest(&m)) => {
                problems.push(format!("traced {id}: warm value differs from cold"));
            }
            Expected::Hashes(h) if h.get(&id) != Some(&m.trace_hash) => {
                problems.push(format!(
                    "traced {id}: trace hash differs from the untraced run"
                ));
            }
            _ => {}
        }
        if !problems.is_empty() {
            failed += 1;
            out.problems.extend(problems);
        }
    }
    out.failed += failed;
    let stats = std::mem::take(&mut *stats.lock().expect("layer stats poisoned"));
    if matches!(expected, Expected::Values(_)) && stats.runs > 0 {
        out.problems
            .push(format!("traced warm pass simulated {} run(s)", stats.runs));
    }
    let exec_counts = ExecCounts {
        memo_hits: report.memo_hits,
        disk_hits: stats.disk_hits,
        computed: stats.runs,
        failed,
        quarantined: store.stats().quarantined,
        tune_planned: 0,
        tune_computed: 0,
    };
    layer_metrics(cfg, &stats, &exec_counts, wall, untraced_wall, out);
}

// ---------------------------------------------------------------------
// seer-many-blocks
// ---------------------------------------------------------------------

/// The many-blocks runs at benchmark seed `seed`: Seer on
/// `synth@blocks=N` at every thread count, `many_seeds` harness seeds each.
fn many_blocks_keys(seed: u64, size: &Size) -> Vec<CellKey> {
    let benchmark = Benchmark::Synth {
        blocks: size.many_blocks,
    };
    let mut keys = Vec::new();
    for &threads in &size.many_threads {
        for s in 0..size.many_seeds {
            let cell = Cell {
                benchmark,
                policy: PolicyKind::Seer,
                threads,
            };
            keys.push(CellKey::new(
                cell,
                seed * size.many_seeds + s,
                size.many_scale,
            ));
        }
    }
    keys
}

/// One many-blocks run as a pass sample: timed, checked, and its metrics
/// dropped as soon as its facts are taken (a 1024-block run's
/// ground-truth matrix alone is 8 MB).
fn many_run(key: &CellKey, run: impl FnOnce() -> RunMetrics) -> Pass {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(run));
    let mut pass = Pass {
        wall_s: secs(start),
        planned: 1,
        ..Pass::default()
    };
    let id = key.key_id();
    match result {
        Ok(m) => {
            absorb_checks(&mut pass, check_run(&id, &m, cell_commits(key)));
            pass.events += m.events;
            pass.seer_speedups.push(m.speedup());
            pass.hashes.insert(id, m.trace_hash);
        }
        Err(_) => absorb_checks(&mut pass, vec![format!("{id}: run panicked")]),
    }
    pass
}

fn many_blocks(cfg: &Config) -> Outcome {
    let keys = many_blocks_keys(cfg.seed, &cfg.size);
    let rounds = repeat_rounds(cfg.seconds, cfg.size.min_passes, keys.len(), |u| {
        let key = &keys[u];
        let setup_s = cells_setup_s([key]);
        let run = || {
            RunRequest::cell(key.cell())
                .seed(key.seed)
                .scale(key.scale())
                .run()
        };
        Pass {
            setup_s,
            ..many_run(key, run)
        }
    });
    let reference = first_hashes(&rounds.units);
    let mut out = end_to_end(cfg, &rounds);
    if cfg.trace {
        let untraced = out.wall_s;
        let stats = Mutex::new(LayerStats::default());
        let record = cfg.size.record_per_run;
        let passes: Vec<Pass> = keys
            .iter()
            .map(|key| many_run(key, || probed_cell(key, record, &stats)))
            .collect();
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        let mut failed = 0;
        for p in passes {
            out.attempted += p.planned;
            failed += p.failed;
            out.problems.extend(p.problems);
            for (id, hash) in &p.hashes {
                if reference.get(id) != Some(hash) {
                    failed += 1;
                    out.problems.push(format!(
                        "traced {id}: trace hash differs from the untraced run"
                    ));
                }
            }
        }
        out.failed += failed;
        let mut stats = stats.into_inner().expect("layer stats poisoned");
        stats.busy_ns = (wall * 1e9) as u64;
        let counts = ExecCounts {
            memo_hits: 0,
            disk_hits: 0,
            computed: stats.runs,
            failed,
            quarantined: 0,
            tune_planned: 0,
            tune_computed: 0,
        };
        let serial = Config {
            jobs: 1,
            ..cfg.clone()
        };
        layer_metrics(&serial, &stats, &counts, wall, untraced, &mut out);
    }
    out
}

// ---------------------------------------------------------------------
// tune-halving
// ---------------------------------------------------------------------

/// Delegates to an objective and records every run it plans, so the
/// traced pass can resolve exactly the runs the search asked for.
struct Recording<'a> {
    inner: &'a dyn Objective,
    cells: RefCell<Plan>,
    scenarios: RefCell<ScenarioPlan>,
}

impl Objective for Recording<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(
        &self,
        policy: PolicyKind,
        fidelity: u64,
        cells: &mut Plan,
        scenarios: &mut ScenarioPlan,
    ) {
        self.inner.plan(policy, fidelity, cells, scenarios);
        self.inner.plan(
            policy,
            fidelity,
            &mut self.cells.borrow_mut(),
            &mut self.scenarios.borrow_mut(),
        );
    }

    fn score(&self, policy: PolicyKind, fidelity: u64, exec: &TuneExecutor) -> Option<f64> {
        self.inner.score(policy, fidelity, exec)
    }
}

/// What `seer tune --driver halving --objective combined` does: the
/// search, the paper-default yardstick batch, and the report document.
/// Returns the report text, the summed execution counters and the
/// recorded plans.
fn tune_search(cfg: &Config, exec: &TuneExecutor) -> (String, TuneExecReport, Plan, ScenarioPlan) {
    let objective = Recording {
        inner: &CombinedObjective,
        cells: RefCell::new(Plan::new()),
        scenarios: RefCell::new(ScenarioPlan::new()),
    };
    let space = ParamSpace::default_space();
    let budget = cfg.size.tune_budget;
    let outcome = run_search(
        &space,
        DriverKind::Halving,
        budget,
        cfg.seed,
        &objective,
        exec,
        &mut |_, _| {},
    );
    let mut total = outcome.exec_report.clone();
    let default_score = outcome
        .best
        .map(|b| outcome.trials[b].fidelity)
        .and_then(|fidelity| {
            let mut cells = Plan::new();
            let mut scenarios = ScenarioPlan::new();
            objective.plan(PolicyKind::Seer, fidelity, &mut cells, &mut scenarios);
            let (r, _) = exec.execute(&cells, &scenarios);
            total.absorb(&r);
            objective.score(PolicyKind::Seer, fidelity, exec)
        });
    let doc = report_json(
        &space,
        DriverKind::Halving,
        budget,
        cfg.seed,
        objective.name(),
        &outcome,
        default_score,
    );
    let text = format!("{}\n", doc.to_string_pretty());
    (
        text,
        total,
        objective.cells.into_inner(),
        objective.scenarios.into_inner(),
    )
}

/// Checks and facts of every run a search resolved.
fn tune_facts(
    cells: &Plan,
    scenarios: &ScenarioPlan,
    cell_value: impl Fn(&CellKey) -> Option<RunMetrics>,
    scenario_value: impl Fn(&ScenarioKey) -> Option<ScenarioOutcome>,
    pass: &mut Pass,
) {
    for key in cells.items() {
        let id = key.key_id();
        match cell_value(key) {
            Some(m) => {
                absorb_checks(pass, check_run(&id, &m, cell_commits(key)));
                pass.events += m.events;
                pass.seer_speedups.push(m.speedup());
                pass.hashes.insert(id, m.trace_hash);
            }
            None => absorb_checks(pass, vec![format!("{id}: no result")]),
        }
    }
    for key in scenarios.items() {
        let id = key.key_id();
        match scenario_value(key) {
            Some(o) => {
                absorb_checks(pass, check_run(&id, &o.metrics, scenario_commits(key)));
                pass.events += o.metrics.events;
                pass.hashes.insert(id, o.metrics.trace_hash);
            }
            None => absorb_checks(pass, vec![format!("{id}: no result")]),
        }
    }
}

/// One search from an empty store, with the runs it planned.
fn tune_pass(cfg: &Config, dir: &Path) -> (Pass, Plan, ScenarioPlan) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let exec = TuneExecutor::with_store_dir(cfg.jobs, Some(dir));
    let (report, total, cells, scenarios) = tune_search(cfg, &exec);
    let mut pass = Pass {
        wall_s: secs(start),
        planned: total.planned as u64,
        failed: total.failed,
        ..Pass::default()
    };
    match Json::parse(&report) {
        Ok(doc) => pass.problems.extend(validate_report(&doc)),
        Err(e) => pass
            .problems
            .push(format!("tune report does not parse: {e}")),
    }
    tune_facts(
        &cells,
        &scenarios,
        |k| exec.cells().cached(k.cell(), k.seed, k.scale()),
        |k| exec.scenarios().cached(&k.scenario, k.policy, k.seed),
        &mut pass,
    );
    pass.report = report;
    (pass, cells, scenarios)
}

/// Summed host time of the set-up calls of the runs a search planned:
/// the cells' workloads and schedulers, and each scenario's workload and
/// scheduler.
fn tune_setup_s(cells: &Plan, scenarios: &ScenarioPlan) -> f64 {
    let cells_s = cells_setup_s(cells.items());
    let start = Instant::now();
    for key in scenarios.items() {
        let spec = library::builtin(&key.scenario).expect("planned scenarios are built-ins");
        let workload = ScenarioWorkload::new(&spec);
        let sched = key.policy.build(spec.threads, workload.num_blocks());
        std::hint::black_box((&workload, &sched));
    }
    cells_s + secs(start)
}

fn tune_halving(cfg: &Config) -> Outcome {
    let dir = cfg.work_dir.join("tune");
    // Every pass plans the same runs (the search is a pure function of
    // its seed, and passes compare trace hashes by run), so the first
    // pass's plans stand for all.
    let mut planned = None;
    let rounds = repeat_rounds(cfg.seconds, cfg.size.min_passes, 1, |_| {
        let (pass, cells, scenarios) = tune_pass(cfg, &dir);
        // The search decides its runs as it goes, so their set-up is timed
        // after the pass, from the plans it recorded.
        let setup_s = tune_setup_s(&cells, &scenarios);
        planned.get_or_insert((cells, scenarios));
        Pass { setup_s, ..pass }
    });
    let (cells, scenarios) = planned.expect("at least one pass");
    let mut out = end_to_end(cfg, &rounds);
    if cfg.trace {
        let untraced = out.wall_s;
        let last = rounds.units[0].last().expect("at least one pass");
        traced_tune(cfg, last, &cells, &scenarios, untraced, &mut out);
    }
    out
}

/// The probed tune pass: resolves the runs the untraced search planned
/// through generic executors with probes inside the run functions and
/// persisting to a fresh store, then replays the search over that store.
/// The replayed report must match the untraced one byte for byte.
fn traced_tune(
    cfg: &Config,
    untraced: &Pass,
    planned_cells: &Plan,
    planned_scenarios: &ScenarioPlan,
    untraced_wall: f64,
    out: &mut Outcome,
) {
    let dir = cfg.work_dir.join("tune-traced");
    let _ = std::fs::remove_dir_all(&dir);
    let stats = Arc::new(Mutex::new(LayerStats::default()));
    let store = Arc::new(Store::open(&dir));
    let record = cfg.size.record_per_run;
    let cells = {
        let (stats, store) = (stats.clone(), store.clone());
        Executor::<CellKey, RunMetrics>::new(cfg.jobs, move |key: CellKey| {
            through_store(&store, &key, &stats, || probed_cell(&key, record, &stats))
        })
    };
    let scenarios = {
        let (stats, store) = (stats.clone(), store.clone());
        Executor::<ScenarioKey, ScenarioOutcome>::new(cfg.jobs, move |key: ScenarioKey| {
            through_store(&store, &key, &stats, || {
                probed_scenario(&key, record, &stats)
            })
        })
    };
    let start = Instant::now();
    let cell_report = cells.execute(planned_cells.as_generic());
    let scenario_report = scenarios.execute(planned_scenarios.as_generic());
    let wall = secs(start);

    let mut pass = Pass::default();
    tune_facts(
        planned_cells,
        planned_scenarios,
        |k| cells.cached(k),
        |k| scenarios.cached(k),
        &mut pass,
    );
    if pass.hashes != untraced.hashes {
        pass.problems
            .push("traced tune runs differ in trace hash from the untraced runs".into());
    }
    let replay = TuneExecutor::with_store_dir(cfg.jobs, Some(&dir));
    let (report, total, _, _) = tune_search(cfg, &replay);
    if report != untraced.report {
        pass.problems
            .push("tune report of the traced runs differs from the untraced report".into());
    }
    if total.computed != 0 {
        pass.problems.push(format!(
            "replayed search computed {} run(s) the traced pass should have stored",
            total.computed
        ));
    }
    let failed = pass.failed + (cell_report.failed.len() + scenario_report.failed.len()) as u64;
    out.attempted += (cell_report.planned + scenario_report.planned) as u64;
    out.failed += failed;
    out.problems.extend(pass.problems);
    let stats = std::mem::take(&mut *stats.lock().expect("layer stats poisoned"));
    let counts = ExecCounts {
        // The search re-reads earlier rungs' runs from the memo cache;
        // the replayed search is the same search, so its count is the
        // untraced one.
        memo_hits: total.memo_hits,
        disk_hits: stats.disk_hits,
        computed: stats.runs,
        failed,
        quarantined: store.stats().quarantined,
        tune_planned: total.planned as u64,
        tune_computed: stats.runs,
    };
    layer_metrics(cfg, &stats, &counts, wall, untraced_wall, out);
}

// ---------------------------------------------------------------------
// per-layer metrics
// ---------------------------------------------------------------------

/// The execution-stack counters of a probed pass.
struct ExecCounts {
    memo_hits: u64,
    disk_hits: u64,
    computed: u64,
    failed: u64,
    /// Shards the store found damaged.
    quarantined: u64,
    /// Runs the replayed parameter search planned (0 outside tune).
    tune_planned: u64,
    /// Runs the probed pass computed for the search (0 outside tune).
    tune_computed: u64,
}

/// Turns one probed pass into the per-layer metrics (every workload
/// reports every metric; a layer the workload does not reach reads 0).
fn layer_metrics(
    cfg: &Config,
    s: &LayerStats,
    exec: &ExecCounts,
    traced_wall: f64,
    untraced_wall: f64,
    out: &mut Outcome,
) {
    let run_ns = s.run.ns as f64;
    let ms = 1e-6;
    out.push("stamp.setup_ms", s.setup.mean_ns() * ms, "ms");
    out.push("stamp.next.calls", s.next.calls as f64, "count");
    out.push("stamp.next.ns", s.next.mean_ns(), "ns");
    out.push("stamp.regenerate.calls", s.regenerate.calls as f64, "count");
    out.push("stamp.regenerate.ns", s.regenerate.mean_ns(), "ns");
    out.push("stamp.commit.ns", s.commit.mean_ns(), "ns");
    out.push("stamp.accesses", s.accesses as f64, "count");
    out.push(
        "stamp.ns_per_access",
        share((s.next.ns + s.regenerate.ns) as f64, s.accesses as f64),
        "ns",
    );
    out.push("stamp.share", share(s.stamp_ns() as f64, run_ns), "ratio");

    out.push("sched.build_ms", s.build.mean_ns() * ms, "ms");
    for (name, hook) in HOOKS.iter().zip(&s.hooks) {
        out.push(&format!("sched.{name}.calls"), hook.calls as f64, "count");
        out.push(&format!("sched.{name}.ns"), hook.mean_ns(), "ns");
    }
    out.push("sched.periodic.calls", s.periodic.calls as f64, "count");
    out.push("sched.periodic.ns", s.periodic.mean_ns(), "ns");
    out.push("sched.share", share(s.sched_ns() as f64, run_ns), "ratio");

    out.push("driver.events", s.events as f64, "count");
    out.push(
        "driver.self_ns_per_event",
        share(s.driver_ns() as f64, s.events as f64),
        "ns",
    );
    out.push("driver.share", share(s.driver_ns() as f64, run_ns), "ratio");
    out.push("htm.attempts", s.htm_attempts as f64, "count");
    out.push(
        "htm.commit_ratio",
        share(s.htm_commits as f64, s.htm_attempts as f64),
        "ratio",
    );
    out.push("htm.aborts.conflict", s.aborts_conflict as f64, "count");
    out.push("htm.aborts.capacity", s.aborts_capacity as f64, "count");
    out.push(
        "runtime.fallback_frac",
        share(s.fallbacks as f64, s.commits as f64),
        "ratio",
    );
    out.push("runtime.wait_cycles", s.wait_cycles as f64, "cycles");

    let mut recorded: Vec<&(String, Vec<RecordedTx>)> = s.recorded.iter().collect();
    recorded.sort_by(|a, b| a.0.cmp(&b.0));
    let streams: Vec<&RecordedTx> = recorded.iter().flat_map(|(_, txs)| txs).collect();
    out.push(
        "htm.replay.ns_per_access",
        crate::crosscheck::htm_replay_ns_per_access(&streams),
        "ns",
    );
    out.push(
        "sim.queue.ns_per_op",
        crate::crosscheck::queue_ns_per_op(cfg.size.queue_ops),
        "ns",
    );

    out.push("trace.records", s.sink.calls as f64, "count");
    out.push("trace.ns_per_record", s.sink.mean_ns(), "ns");
    out.push("scenario.windows_ms", s.windows.mean_ns() * ms, "ms");
    out.push("scenario.report_ms", s.report.mean_ns() * ms, "ms");

    out.push("store.save.count", s.store_save.calls as f64, "count");
    out.push("store.save.us", s.store_save.mean_ns() * 1e-3, "us");
    out.push("store.load.count", s.store_load.calls as f64, "count");
    out.push("store.load.us", s.store_load.mean_ns() * 1e-3, "us");
    out.push(
        "store.shard_bytes",
        share(s.shard_bytes as f64, s.shards as f64),
        "bytes",
    );
    out.push("store.quarantined", exec.quarantined as f64, "count");

    out.push("exec.memo_hits", exec.memo_hits as f64, "count");
    out.push("exec.disk_hits", exec.disk_hits as f64, "count");
    out.push("exec.computed", exec.computed as f64, "count");
    out.push("exec.failed", exec.failed as f64, "count");
    out.push(
        "exec.parallel_eff",
        share(s.busy_ns as f64 * 1e-9, cfg.jobs as f64 * traced_wall),
        "ratio",
    );
    out.push("tune.runs_planned", exec.tune_planned as f64, "count");
    out.push("tune.computed", exec.tune_computed as f64, "count");
    out.push(
        "probe.overhead_frac",
        overhead_frac(traced_wall, untraced_wall),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_harness::{figure3, table3};

    #[test]
    fn the_figure_plan_is_the_plan_figure3_and_table3_declare() {
        let size = Size {
            figure_benchmarks: Benchmark::STAMP.to_vec(),
            figure_scale: 0.02,
            ..Size::tiny()
        };
        let harness = HarnessConfig {
            seeds: 1,
            scale: size.figure_scale,
            jobs: 2,
        };
        let exec = CellExecutor::with_options(harness, None, SupervisorConfig::from_env());
        let plan = figures_plan(0, &size);
        assert_eq!(plan.len(), 8 * 4 * 8);
        assert!(exec.execute(&plan).complete());
        let simulated = exec.misses();
        figure3(&exec, &THREADS_FULL);
        table3(&exec, &THREADS_TABLE);
        assert_eq!(
            exec.misses(),
            simulated,
            "figure3/table3 need no cell outside the plan"
        );
        let panels: Vec<CellKey> = figure_panels(0, &size)
            .iter()
            .flat_map(|p| p.items().to_vec())
            .collect();
        assert_eq!(
            panels,
            plan.items(),
            "the panels partition the plan in order"
        );
    }

    fn sample(wall_s: f64, events: u64) -> Pass {
        Pass {
            setup_s: wall_s / 10.0,
            wall_s,
            planned: 2,
            events,
            seer_speedups: vec![4.0],
            ..Pass::default()
        }
    }

    #[test]
    fn end_to_end_sums_per_unit_medians() {
        let cfg = Config {
            workload: Workload::FiguresCold,
            seed: 0,
            seconds: 0.0,
            trace: false,
            work_dir: PathBuf::new(),
            jobs: 1,
            size: Size::tiny(),
        };
        let rounds = Rounds {
            units: vec![
                vec![sample(1.0, 10), sample(3.0, 10), sample(2.0, 10)],
                vec![sample(10.0, 90), sample(30.0, 90), sample(10.0, 90)],
            ],
            first_round_rss_mb: Some(7.0),
        };
        let out = end_to_end(&cfg, &rounds);
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("wall_s"), 12.0);
        assert_eq!(value("setup_s"), 0.2 + 1.0);
        assert_eq!(value("sim_events_per_s"), 100.0 / 12.0);
        assert_eq!(value("seer_speedup_geomean"), 4.0);
        assert_eq!(value("peak_rss_mb"), 7.0);
        assert_eq!(out.pass_walls, vec![11.0, 33.0, 12.0]);
        assert_eq!((out.attempted, out.failed), (12, 0));
        assert!(out.correct());
        let traced = end_to_end(&Config { trace: true, ..cfg }, &rounds);
        assert!(
            traced.metrics.is_empty(),
            "traced runs report per-layer metrics only"
        );
    }

    #[test]
    fn rounds_sample_every_unit_equally() {
        let mut calls = Vec::new();
        let rounds = repeat_rounds(0.0, 2, 3, |u| {
            calls.push(u);
            u
        });
        assert_eq!(calls, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(rounds.units, vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
        assert!(rounds.first_round_rss_mb.is_some());
    }
}
