//! Outside-in timing probes.
//!
//! Every layer is timed from the benchmark's side of its public
//! interface: decorators around the `Workload`, `Scheduler` and
//! `TraceSink` traits the driver calls through, and timed calls to the
//! store, windowing and recovery-scoring functions. No library code
//! changes, and a decorator forwards every trait method — including the
//! defaulted ones — so the decorated run schedules exactly the events the
//! plain run does (the traced workloads assert equal trace hashes).

use std::sync::Mutex;
use std::time::Instant;

use seer_harness::{sim_seed, CellKey};
use seer_htm::{AccessKind, LineAddr, XStatus};
use seer_runtime::{
    run_traced, AbortDecision, BlockId, DriverConfig, Gate, HookPoint, InferenceTrace,
    LifecycleEvent, MemoryTraceSink, NullTraceSink, RunMetrics, SchedEnv, SchedFault, Scheduler,
    TraceSink, TxRequest, WindowedMetrics, Workload,
};
use seer_scenario::{library, RecoveryReport, ScenarioKey, ScenarioOutcome, ScenarioWorkload};
use seer_sim::{Cycles, SimRng, ThreadId};
use seer_store::{Persist, Store, StoreKey};

/// Calls into one probed function and the host time they took.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Calls made.
    pub calls: u64,
    /// Summed host nanoseconds.
    pub ns: u64,
}

impl Counter {
    fn merge(&mut self, other: Counter) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::share(self.ns as f64, self.calls as f64)
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn timed<R>(counter: &mut Counter, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    counter.calls += 1;
    counter.ns += elapsed_ns(start);
    r
}

/// One transaction's access stream as the workload produced it, kept for
/// the layer-isolated HTM replay.
pub type RecordedTx = Vec<(LineAddr, AccessKind)>;

/// Everything the probes measured, summed over the runs of a pass.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Simulation runs probed.
    pub runs: u64,
    /// Workload construction (`instantiate_scaled` / `ScenarioWorkload::new`).
    pub setup: Counter,
    /// `PolicyKind::build`.
    pub build: Counter,
    /// Whole `run_traced` calls.
    pub run: Counter,
    /// `Workload::next`.
    pub next: Counter,
    /// `Workload::regenerate`.
    pub regenerate: Counter,
    /// `Workload::commit`.
    pub commit: Counter,
    /// Accesses in the requests `next`/`regenerate` produced.
    pub accesses: u64,
    /// Scheduler hooks, in [`HOOKS`] order.
    pub hooks: [Counter; 5],
    /// `on_periodic` + `on_sgl_wait` (where Seer's inference runs).
    pub periodic: Counter,
    /// The remaining scheduler calls (`pre_tx_fallback`, `on_fault`).
    pub sched_other: Counter,
    /// Trace-sink records (`lifecycle` + `inference`).
    pub sink: Counter,
    /// Driver events dispatched.
    pub events: u64,
    /// Simulated hardware attempts.
    pub htm_attempts: u64,
    /// Simulated hardware commits (commits minus fall-backs).
    pub htm_commits: u64,
    /// Simulated conflict aborts.
    pub aborts_conflict: u64,
    /// Simulated capacity aborts.
    pub aborts_capacity: u64,
    /// Simulated commits.
    pub commits: u64,
    /// Simulated SGL fall-backs.
    pub fallbacks: u64,
    /// Simulated cycles threads spent parked.
    pub wait_cycles: u64,
    /// `WindowedMetrics::from_lifecycle`.
    pub windows: Counter,
    /// `RecoveryReport::build`.
    pub report: Counter,
    /// `Store::load`.
    pub store_load: Counter,
    /// `Store::save`.
    pub store_save: Counter,
    /// Bytes of the shards loaded or saved.
    pub shard_bytes: u64,
    /// Shards whose size went into `shard_bytes`.
    pub shards: u64,
    /// Results served by the store instead of simulating.
    pub disk_hits: u64,
    /// Host time spent inside run functions (for parallel efficiency).
    pub busy_ns: u64,
    /// Recorded access streams, keyed by the run's store key id so the
    /// sample is the same whatever order parallel runs finish in.
    pub recorded: Vec<(String, Vec<RecordedTx>)>,
}

/// Names of the five per-transaction scheduler hooks, in the order of
/// [`LayerStats::hooks`].
pub const HOOKS: [&str; 5] = [
    "on_tx_start",
    "pre_attempt_gates",
    "on_abort",
    "on_htm_commit",
    "on_fallback_commit",
];

impl LayerStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: LayerStats) {
        self.runs += other.runs;
        for (a, b) in [
            (&mut self.setup, other.setup),
            (&mut self.build, other.build),
            (&mut self.run, other.run),
            (&mut self.next, other.next),
            (&mut self.regenerate, other.regenerate),
            (&mut self.commit, other.commit),
            (&mut self.periodic, other.periodic),
            (&mut self.sched_other, other.sched_other),
            (&mut self.sink, other.sink),
            (&mut self.windows, other.windows),
            (&mut self.report, other.report),
            (&mut self.store_load, other.store_load),
            (&mut self.store_save, other.store_save),
        ] {
            a.merge(b);
        }
        for (a, b) in self.hooks.iter_mut().zip(other.hooks) {
            a.merge(b);
        }
        self.accesses += other.accesses;
        self.events += other.events;
        self.htm_attempts += other.htm_attempts;
        self.htm_commits += other.htm_commits;
        self.aborts_conflict += other.aborts_conflict;
        self.aborts_capacity += other.aborts_capacity;
        self.commits += other.commits;
        self.fallbacks += other.fallbacks;
        self.wait_cycles += other.wait_cycles;
        self.shard_bytes += other.shard_bytes;
        self.shards += other.shards;
        self.disk_hits += other.disk_hits;
        self.busy_ns += other.busy_ns;
        self.recorded.extend(other.recorded);
    }

    /// Host time inside the workload's methods.
    pub fn stamp_ns(&self) -> u64 {
        self.next.ns + self.regenerate.ns + self.commit.ns
    }

    /// Host time inside the scheduler's methods.
    pub fn sched_ns(&self) -> u64 {
        self.hooks.iter().map(|h| h.ns).sum::<u64>() + self.periodic.ns + self.sched_other.ns
    }

    /// The driver's self time: run time not spent in the workload,
    /// scheduler or sink probes.
    pub fn driver_ns(&self) -> u64 {
        crate::stats::self_time(
            self.run.ns,
            &[self.stamp_ns(), self.sched_ns(), self.sink.ns],
        )
    }

    fn absorb_run(&mut self, m: &RunMetrics) {
        self.runs += 1;
        self.events += m.events;
        self.htm_attempts += m.htm_attempts;
        self.htm_commits += m.commits - m.fallbacks;
        self.aborts_conflict += m.aborts.conflict;
        self.aborts_capacity += m.aborts.capacity;
        self.commits += m.commits;
        self.fallbacks += m.fallbacks;
        self.wait_cycles += m.wait_cycles;
    }
}

/// Decorates a [`Workload`], timing `next`/`regenerate`/`commit` and
/// recording the first `record` transactions it hands out.
pub struct ProbeWorkload<'a> {
    inner: &'a mut dyn Workload,
    next: Counter,
    regenerate: Counter,
    commit: Counter,
    accesses: u64,
    record: usize,
    recorded: Vec<RecordedTx>,
}

impl<'a> ProbeWorkload<'a> {
    /// Wraps `inner`, keeping up to `record` transactions' access streams.
    pub fn new(inner: &'a mut dyn Workload, record: usize) -> Self {
        Self {
            inner,
            next: Counter::default(),
            regenerate: Counter::default(),
            commit: Counter::default(),
            accesses: 0,
            record,
            recorded: Vec::new(),
        }
    }

    fn into_stats(self, stats: &mut LayerStats) -> Vec<RecordedTx> {
        stats.next.merge(self.next);
        stats.regenerate.merge(self.regenerate);
        stats.commit.merge(self.commit);
        stats.accesses += self.accesses;
        self.recorded
    }
}

impl Workload for ProbeWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let inner = &mut *self.inner;
        let req = timed(&mut self.next, || inner.next(thread, rng));
        if let Some(req) = &req {
            self.accesses += req.accesses.len() as u64;
            if self.recorded.len() < self.record {
                self.recorded
                    .push(req.accesses.iter().map(|a| (a.line, a.kind)).collect());
            }
        }
        req
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        let inner = &mut *self.inner;
        timed(&mut self.regenerate, || inner.regenerate(thread, req, rng));
        self.accesses += req.accesses.len() as u64;
    }

    fn commit(&mut self, thread: ThreadId, req: &TxRequest, rng: &mut SimRng) {
        let inner = &mut *self.inner;
        timed(&mut self.commit, || inner.commit(thread, req, rng));
    }

    fn on_phase(&mut self, phase: usize) {
        self.inner.on_phase(phase);
    }
}

/// Decorates a [`Scheduler`], timing every hook.
pub struct ProbeScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    hooks: [Counter; 5],
    periodic: Counter,
    other: Counter,
}

impl<'a> ProbeScheduler<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        Self {
            inner,
            hooks: [Counter::default(); 5],
            periodic: Counter::default(),
            other: Counter::default(),
        }
    }

    fn into_stats(self, stats: &mut LayerStats) {
        for (a, b) in stats.hooks.iter_mut().zip(self.hooks) {
            a.merge(b);
        }
        stats.periodic.merge(self.periodic);
        stats.sched_other.merge(self.other);
    }
}

impl Scheduler for ProbeScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attempt_budget(&self) -> u32 {
        self.inner.attempt_budget()
    }

    fn on_tx_start(&mut self, thread: ThreadId, block: BlockId, env: &mut SchedEnv<'_>) {
        let inner = &mut *self.inner;
        timed(&mut self.hooks[0], || inner.on_tx_start(thread, block, env));
    }

    fn pre_tx_fallback(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        env: &mut SchedEnv<'_>,
    ) -> bool {
        let inner = &mut *self.inner;
        timed(&mut self.other, || {
            inner.pre_tx_fallback(thread, block, env)
        })
    }

    fn pre_attempt_gates(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        let inner = &mut *self.inner;
        timed(&mut self.hooks[1], || {
            inner.pre_attempt_gates(thread, block, attempts_left, env)
        })
    }

    fn on_abort(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        status: XStatus,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        let inner = &mut *self.inner;
        timed(&mut self.hooks[2], || {
            inner.on_abort(thread, block, status, attempts_left, env)
        })
    }

    fn on_htm_commit(&mut self, thread: ThreadId, block: BlockId, env: &mut SchedEnv<'_>) {
        let inner = &mut *self.inner;
        timed(&mut self.hooks[3], || {
            inner.on_htm_commit(thread, block, env)
        });
    }

    fn on_fallback_commit(&mut self, thread: ThreadId, block: BlockId, env: &mut SchedEnv<'_>) {
        let inner = &mut *self.inner;
        timed(&mut self.hooks[4], || {
            inner.on_fallback_commit(thread, block, env)
        });
    }

    fn on_sgl_wait(&mut self, thread: ThreadId, env: &mut SchedEnv<'_>) {
        let inner = &mut *self.inner;
        timed(&mut self.periodic, || inner.on_sgl_wait(thread, env));
    }

    fn on_periodic(&mut self, env: &mut SchedEnv<'_>) {
        let inner = &mut *self.inner;
        timed(&mut self.periodic, || inner.on_periodic(env));
    }

    fn on_fault(&mut self, fault: &SchedFault, env: &mut SchedEnv<'_>) {
        let inner = &mut *self.inner;
        timed(&mut self.other, || inner.on_fault(fault, env));
    }

    fn overhead(&self, point: HookPoint) -> Cycles {
        self.inner.overhead(point)
    }
}

/// Decorates a [`TraceSink`], timing every record it receives.
pub struct ProbeSink<'a> {
    inner: &'a mut dyn TraceSink,
    records: Counter,
}

impl<'a> ProbeSink<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn TraceSink) -> Self {
        Self {
            inner,
            records: Counter::default(),
        }
    }
}

impl TraceSink for ProbeSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn lifecycle(&mut self, event: LifecycleEvent) {
        let inner = &mut *self.inner;
        timed(&mut self.records, || inner.lifecycle(event));
    }

    fn inference(&mut self, trace: InferenceTrace) {
        let inner = &mut *self.inner;
        timed(&mut self.records, || inner.inference(trace));
    }
}

/// Runs the driver with all three decorators in place and folds their
/// counters into `stats`; returns the metrics and the recorded streams.
fn probed_run(
    workload: &mut dyn Workload,
    sched: &mut dyn Scheduler,
    cfg: &DriverConfig,
    sink: &mut dyn TraceSink,
    record: usize,
    stats: &mut LayerStats,
) -> (RunMetrics, Vec<RecordedTx>) {
    let mut w = ProbeWorkload::new(workload, record);
    let mut s = ProbeScheduler::new(sched);
    let mut k = ProbeSink::new(sink);
    let metrics = timed(&mut stats.run, || run_traced(&mut w, &mut s, cfg, &mut k));
    let recorded = w.into_stats(stats);
    s.into_stats(stats);
    stats.sink.merge(k.records);
    stats.absorb_run(&metrics);
    (metrics, recorded)
}

/// One harness cell, probed: the same calls `seer_harness::execute_cell`
/// makes, each timed from outside.
///
/// # Panics
/// If the run is truncated, exactly like the unprobed cell.
pub fn probed_cell(key: &CellKey, record: usize, stats: &Mutex<LayerStats>) -> RunMetrics {
    let mut local = LayerStats::default();
    let mut workload = timed(&mut local.setup, || {
        key.benchmark.instantiate_scaled(key.threads, key.scale())
    });
    let blocks = workload.num_blocks();
    let mut sched = timed(&mut local.build, || key.policy.build(key.threads, blocks));
    let cfg = DriverConfig::paper_machine(key.threads, sim_seed(key.seed));
    let (metrics, recorded) = probed_run(
        &mut workload,
        sched.as_mut(),
        &cfg,
        &mut NullTraceSink,
        record,
        &mut local,
    );
    assert!(!metrics.truncated, "run truncated: {key:?}");
    if !recorded.is_empty() {
        local.recorded.push((key.key_id(), recorded));
    }
    stats.lock().expect("layer stats poisoned").merge(local);
    metrics
}

/// One built-in scenario run, probed: the same calls
/// `seer_scenario::execute_scenario` makes, each timed from outside.
///
/// # Panics
/// On an unknown or invalid scenario, a truncated run, or violated
/// windowed conservation laws, exactly like the unprobed run.
pub fn probed_scenario(
    key: &ScenarioKey,
    record: usize,
    stats: &Mutex<LayerStats>,
) -> ScenarioOutcome {
    let spec = library::builtin(&key.scenario)
        .unwrap_or_else(|| panic!("unknown scenario {:?}", key.scenario));
    if let Err(e) = spec.validate() {
        panic!("invalid scenario {:?}: {e}", spec.name);
    }
    let mut local = LayerStats::default();
    let mut workload = timed(&mut local.setup, || ScenarioWorkload::new(&spec));
    let blocks = workload.num_blocks();
    let mut sched = timed(&mut local.build, || key.policy.build(spec.threads, blocks));
    let mut cfg = DriverConfig::paper_machine(spec.threads, sim_seed(key.seed));
    cfg.script = spec.compile();
    let mut sink = MemoryTraceSink::new();
    let (metrics, recorded) = probed_run(
        &mut workload,
        sched.as_mut(),
        &cfg,
        &mut sink,
        record,
        &mut local,
    );
    assert!(!metrics.truncated, "scenario run truncated: {key:?}");
    let windows = timed(&mut local.windows, || {
        WindowedMetrics::from_lifecycle(&sink.lifecycle, spec.window, metrics.makespan)
    });
    let violations = windows.check_partition(&metrics);
    assert!(
        violations.is_empty(),
        "windowed conservation laws violated in {}: {violations:?}",
        spec.name
    );
    let report = timed(&mut local.report, || {
        RecoveryReport::build(
            &spec,
            key.policy.name(),
            key.seed,
            &metrics,
            &windows,
            &sink.inference,
        )
    });
    if !recorded.is_empty() {
        local.recorded.push((key.key_id(), recorded));
    }
    stats.lock().expect("layer stats poisoned").merge(local);
    ScenarioOutcome {
        metrics,
        windows,
        report,
    }
}

/// The executor's disk stage, with `Store::load`/`Store::save` timed:
/// load `key`, or compute it and save the result. Also accounts the
/// run function's busy time.
pub fn through_store<K: StoreKey, V: Persist>(
    store: &Store,
    key: &K,
    stats: &Mutex<LayerStats>,
    compute: impl FnOnce() -> V,
) -> V {
    let start = Instant::now();
    let mut local = LayerStats::default();
    let path = store.shard_path(key);
    let loaded = timed(&mut local.store_load, || store.load::<K, V>(key));
    let value = match loaded {
        Some(v) => {
            local.disk_hits += 1;
            v
        }
        None => {
            let v = compute();
            timed(&mut local.store_save, || store.save(key, &v));
            v
        }
    };
    if let Ok(meta) = std::fs::metadata(&path) {
        local.shard_bytes += meta.len();
        local.shards += 1;
    }
    local.busy_ns = elapsed_ns(start);
    stats.lock().expect("layer stats poisoned").merge(local);
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_harness::{Cell, PolicyKind};
    use seer_stamp::Benchmark;

    #[test]
    fn probed_cell_matches_the_plain_cell_and_counts_every_layer() {
        let cell = Cell {
            benchmark: Benchmark::KmeansHigh,
            policy: PolicyKind::Seer,
            threads: 4,
        };
        let key = CellKey::new(cell, 1, 0.1);
        let plain = seer_harness::execute_cell(cell, 1, 0.1, None);
        let stats = Mutex::new(LayerStats::default());
        let probed = probed_cell(&key, 8, &stats);
        assert_eq!(plain.trace_hash, probed.trace_hash);
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
        let s = stats.into_inner().unwrap();
        assert_eq!(s.runs, 1);
        assert_eq!(s.events, plain.events);
        assert_eq!(s.commit.calls, plain.commits);
        assert_eq!(
            s.hooks[0].calls, plain.commits,
            "one on_tx_start per transaction"
        );
        assert!(
            s.next.calls > plain.commits,
            "next also reports end of stream"
        );
        assert!(s.periodic.calls > 0 && s.accesses > 0);
        assert_eq!(s.recorded.len(), 1);
        assert_eq!(s.recorded[0].1.len(), 8);
        assert!(s.driver_ns() > 0 && s.driver_ns() < s.run.ns);
    }

    #[test]
    fn probed_scenario_matches_the_plain_scenario() {
        let key = ScenarioKey {
            scenario: "phase-flip".into(),
            policy: PolicyKind::Seer,
            seed: 0,
        };
        let spec = library::builtin("phase-flip").unwrap();
        let plain = seer_scenario::RunRequest::scenario(&spec).run();
        let stats = Mutex::new(LayerStats::default());
        let probed = probed_scenario(&key, 0, &stats);
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
        let s = stats.into_inner().unwrap();
        assert!(s.sink.calls > 0, "scenario runs are always traced");
        assert_eq!(s.windows.calls, 1);
        assert_eq!(s.report.calls, 1);
    }
}
