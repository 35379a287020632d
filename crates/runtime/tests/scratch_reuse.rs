//! Scratch-buffer reuse audit (simulation-kernel fast path).
//!
//! The hot paths of the driver and the HTM machine stopped allocating:
//! they write results into reusable scratch vectors (`begin_into`,
//! `access_into`, `kill_all_into`, the driver's internal scratch fields).
//! Reuse is only sound if stale contents from a previous event can never
//! leak into the next one. These tests audit exactly that, at both layers:
//!
//! * machine level — replaying one access script through the allocating
//!   wrappers on a fresh machine and through `_into` methods with
//!   deliberately dirtied, reused buffers (on a machine reused across
//!   episodes) must produce identical squeezes, victims and self-aborts;
//! * driver level — back-to-back full simulations of the same
//!   configuration must be bit-identical in every metric, event count and
//!   trace hash, even though the second run's process state (allocator,
//!   buffer capacities) differs from the first's;
//! * workload level — the driver reuses one `TxRequest` per thread across
//!   transactions (`Workload::next_into`, in-place `regenerate`). A run
//!   whose reused requests are poisoned before every refill, and a run
//!   through a workload that implements only `next` (the default,
//!   allocating `next_into`), must match the plain run exactly.

use seer_htm::{AccessKind, HtmConfig, HtmMachine};
use seer_runtime::synthetic::{BlockSpec, SyntheticSpec, SyntheticWorkload};
use seer_runtime::{run, Access, DriverConfig, NullScheduler, TxRequest, Workload};
use seer_sim::{SimRng, ThreadId, Topology};

/// One scripted access episode: SMT-paired threads begin (squeezing
/// siblings), collide on shared lines, and wind down through commit and
/// abort — touching every `_into` output path.
fn episode(
    m: &mut HtmMachine,
    squeezed: &mut Vec<(seer_sim::ThreadId, seer_htm::AbortCause)>,
    victims: &mut Vec<seer_sim::ThreadId>,
    log: &mut Vec<String>,
) {
    // Threads 0 and 4 are SMT siblings on core 0 of haswell_e3 (4c/8t),
    // so the second begin squeezes the first if the config says so.
    for t in [0, 1, 4] {
        m.begin_into(t, squeezed);
        log.push(format!("begin {t}: {squeezed:?}"));
    }
    for (t, line, kind) in [
        (0, 10, AccessKind::Read),
        (1, 10, AccessKind::Write), // conflicts with 0's read
        (1, 11, AccessKind::Write),
        (4, 11, AccessKind::Read), // conflicts with 1's write
        (4, 12, AccessKind::Write),
    ] {
        let self_abort = m.access_into(t, line, kind, victims);
        log.push(format!("access {t} line {line}: {self_abort:?} victims {victims:?}"));
    }
    let alive: Vec<usize> = (0..8).filter(|&t| m.in_tx(t)).collect();
    log.push(format!("alive: {alive:?}"));
    for t in alive {
        m.commit(t);
    }
    m.non_tx_access_into(7, 10, AccessKind::Write, victims);
    log.push(format!("non-tx write: victims {victims:?}"));
    m.begin_into(2, squeezed);
    log.push(format!("begin 2: {squeezed:?}"));
    let killed = victims; // kill_all_into reuses the same scratch shape
    m.kill_all_into(killed);
    log.push(format!("kill_all: {killed:?}"));
}

#[test]
fn reused_dirty_buffers_match_fresh_allocations() {
    let topo = Topology::haswell_e3();
    let cfg = HtmConfig::default();

    // Reference: a fresh machine per episode, fresh buffers every call.
    let fresh_log = {
        let mut m = HtmMachine::new(topo, cfg);
        let mut log = Vec::new();
        let (mut squeezed, mut victims) = (Vec::new(), Vec::new());
        episode(&mut m, &mut squeezed, &mut victims, &mut log);
        log
    };

    // Audit: one machine and one pair of buffers reused across episodes,
    // the buffers pre-poisoned with garbage before the first call.
    let mut m = HtmMachine::new(topo, cfg);
    let mut squeezed = vec![(99, seer_htm::AbortCause::Conflict); 7];
    let mut victims = vec![42; 13];
    for round in 0..2 {
        let mut log = Vec::new();
        episode(&mut m, &mut squeezed, &mut victims, &mut log);
        assert_eq!(log, fresh_log, "episode {round} diverged under reuse");
    }
}

fn audit_workload() -> SyntheticWorkload {
    let spec = SyntheticSpec {
        name: "scratch-audit".into(),
        blocks: vec![BlockSpec {
            weight: 1.0,
            accesses: 12,
            write_fraction: 0.5,
            hot_region: 0,
            hot_lines: 24,
            hot_probability: 0.6,
            zipf_theta: 0.8,
            spacing: (6, 14),
        }],
        txs_per_thread: 150,
        think: (40, 120),
    };
    SyntheticWorkload::new(spec, 8)
}

fn audit_run_of(w: &mut dyn Workload, seed: u64) -> seer_runtime::RunMetrics {
    let mut s = NullScheduler::new(5);
    let mut cfg = DriverConfig::paper_machine(8, seed);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(w, &mut s, &cfg)
}

fn audit_run(seed: u64) -> seer_runtime::RunMetrics {
    audit_run_of(&mut audit_workload(), seed)
}

/// Fills a request's trace fields with garbage and grows its buffer, as a
/// stale request from another block and thread would leave them.
fn poison_trace(req: &mut TxRequest) {
    let junk = Access {
        line: 0xDEAD_BEEF,
        kind: AccessKind::Write,
        offset: u64::MAX,
    };
    req.accesses.extend(std::iter::repeat_n(junk, 7));
    req.accesses.reserve(256);
    req.duration = 3;
}

/// Poisons the reused request before every in-place refill. A sound
/// `next_into` must overwrite every field; a sound `regenerate` every
/// field but the block and think time it is defined to keep.
struct Poisoning<W>(W);

impl<W: Workload> Workload for Poisoning<W> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn num_blocks(&self) -> usize {
        self.0.num_blocks()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        self.0.next(thread, rng)
    }

    fn next_into(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) -> bool {
        poison_trace(req);
        req.block = usize::MAX / 2;
        req.think = 1;
        self.0.next_into(thread, req, rng)
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        poison_trace(req);
        self.0.regenerate(thread, req, rng);
    }

    fn commit(&mut self, thread: ThreadId, req: &TxRequest, rng: &mut SimRng) {
        self.0.commit(thread, req, rng);
    }
}

/// Implements only `next`, so the driver goes through the default
/// `next_into`; retries regenerate into a fresh copy. Every request is a
/// new allocation — the path the in-place one must reproduce.
struct NextOnly<W>(W);

impl<W: Workload> Workload for NextOnly<W> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn num_blocks(&self) -> usize {
        self.0.num_blocks()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        self.0.next(thread, rng)
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        let mut fresh = req.clone();
        self.0.regenerate(thread, &mut fresh, rng);
        *req = fresh;
    }

    fn commit(&mut self, thread: ThreadId, req: &TxRequest, rng: &mut SimRng) {
        self.0.commit(thread, req, rng);
    }
}

#[test]
fn reused_requests_match_the_allocating_path() {
    let plain = audit_run(0x5EED);
    assert!(plain.aborts.total() > 0, "audit workload must exercise retries");
    assert!(plain.fallbacks > 0, "audit workload must exercise fall-back commits");
    let poisoned = audit_run_of(&mut Poisoning(audit_workload()), 0x5EED);
    let allocating = audit_run_of(&mut NextOnly(audit_workload()), 0x5EED);
    // The Debug rendering covers every metric, the event count and the
    // trace hash.
    let expected = format!("{plain:?}");
    assert_eq!(format!("{poisoned:?}"), expected, "poisoned buffers leaked into a run");
    assert_eq!(format!("{allocating:?}"), expected, "default next_into diverged");
}

#[test]
fn back_to_back_runs_are_bit_identical() {
    // Contended enough that the abort/wake scratch paths all fire.
    let a = audit_run(0xA0D1);
    let b = audit_run(0xA0D1);
    assert!(a.aborts.total() > 0, "audit workload must exercise aborts");
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.aborts.total(), b.aborts.total());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events, "event counts must match exactly");
    assert_eq!(a.trace_hash, b.trace_hash, "schedules must be bit-identical");
    assert_eq!(a.wait_cycles, b.wait_cycles);
    assert_eq!(a.tx_lock_acquisitions, b.tx_lock_acquisitions);
}
