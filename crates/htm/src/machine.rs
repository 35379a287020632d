//! The best-effort HTM conflict/capacity engine.
//!
//! [`HtmMachine`] tracks, per logical CPU, whether a hardware transaction is
//! in flight and its read/write line sets. The DES driver feeds it every
//! transactional access in global time order; the machine answers with the
//! consequences:
//!
//! * **conflicts** — eager, invalidation-based, requester-wins. A
//!   transactional (or non-transactional) *write* to line `L` kills every
//!   other in-flight transaction holding `L` in its read or write set; a
//!   *read* of `L` kills every other in-flight transaction with `L` in its
//!   write set. This mirrors the MESI-based behaviour of TSX, where the
//!   transaction that receives the invalidation (or sharing downgrade)
//!   aborts.
//! * **capacity** — the write set is bounded by a sets×ways L1 model, the
//!   read set by a flat budget; both shrink when an SMT sibling is also in
//!   a transaction (see [`HtmConfig`]). The overflowing access aborts the
//!   *accessor*; a sibling *starting* a transaction can retroactively
//!   squeeze a running one over its (new, smaller) budget, which is exactly
//!   the pathology Seer's core locks address.
//!
//! The machine clears the slots of every transaction it reports as aborted,
//! so the caller only performs policy bookkeeping for them. It never tells
//! a scheduler *who* caused an abort — that information is returned to the
//! driver for ground-truth metrics only, mirroring the real TSX information
//! gap.
//!
//! # Cost of one access
//!
//! Conflict detection goes through one machine-wide [`LineDirectory`]
//! mapping each tracked line to bitmasks of the CPUs that read and write
//! it, so an access makes one probe whatever the CPU count (a second only
//! after it killed someone, since a kill edits the directory). Each slot
//! keeps plain read and write lists alongside, which a reset walks to
//! clear its bits: the cost of ending a transaction grows with its
//! footprint. SMT co-residency is a per-core counter of active slots.
//! Victims are reported in ascending thread order, the order of a scan
//! over the slots.

use seer_sim::{CoreId, ThreadId, Topology};

use crate::config::{ConflictResolution, HtmConfig};
use crate::line::{holder_bit as bit, LineAddr, LineDirectory};

/// Kind of a memory access within (or outside) a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Why the machine aborted a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Lost a data conflict to another thread's access.
    Conflict,
    /// Overflowed the write-set (L1) geometry.
    WriteCapacity,
    /// Overflowed the read-set budget.
    ReadCapacity,
}

/// Result of feeding one transactional access to the machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// Set when the *accessor itself* aborted (capacity overflow). Its slot
    /// has already been cleared.
    pub self_abort: Option<AbortCause>,
    /// Other transactions killed by this access (data conflicts). Their
    /// slots have already been cleared.
    pub victims: Vec<ThreadId>,
}

#[derive(Debug, Clone)]
struct TxSlot {
    active: bool,
    /// Distinct lines read, in first-access order (mirrored as this slot's
    /// reader bits in the directory).
    reads: Vec<LineAddr>,
    /// Distinct lines written, likewise.
    writes: Vec<LineAddr>,
    /// Occupancy of each write-set cache set.
    set_occupancy: Vec<u8>,
    /// Cache sets touched by the current transaction (for O(touched) clear).
    touched_sets: Vec<u32>,
    /// Maximum single-set occupancy reached so far (monotone within one
    /// transaction) — used for retroactive squeeze checks.
    max_occupancy: u8,
}

impl TxSlot {
    fn new(write_sets: usize) -> Self {
        Self {
            active: false,
            reads: Vec::with_capacity(256),
            writes: Vec::with_capacity(64),
            set_occupancy: vec![0; write_sets],
            touched_sets: Vec::with_capacity(64),
            max_occupancy: 0,
        }
    }
}

/// The simulated best-effort HTM. See the module docs for semantics.
///
/// ```
/// use seer_htm::{AccessKind, HtmConfig, HtmMachine};
/// use seer_sim::Topology;
///
/// let mut m = HtmMachine::new(Topology::haswell_e3(), HtmConfig::default());
/// m.begin(0);
/// m.begin(1);
/// m.access(0, 42, AccessKind::Read);
/// // Thread 1 writes the line thread 0 read: requester wins, 0 aborts.
/// let outcome = m.access(1, 42, AccessKind::Write);
/// assert_eq!(outcome.victims, vec![0]);
/// assert!(!m.in_tx(0));
/// m.commit(1);
/// ```
#[derive(Debug, Clone)]
pub struct HtmMachine {
    topo: Topology,
    cfg: HtmConfig,
    slots: Vec<TxSlot>,
    /// Who holds each line tracked by an in-flight transaction.
    directory: LineDirectory,
    /// Physical core of each logical CPU.
    core_of: Vec<CoreId>,
    /// Active transactions per physical core.
    core_active: Vec<usize>,
    /// Scenario capacity-pressure override: `(ways, read_lines)` clamps
    /// applied on top of the configured geometry (`None` on each axis =
    /// the configured budget). Set by [`HtmMachine::set_capacity_override`].
    capacity_override: (Option<usize>, Option<usize>),
}

impl HtmMachine {
    /// A machine over `topo` logical CPUs with buffer geometry `cfg`.
    ///
    /// # Panics
    /// If `topo` has more than 64 logical CPUs (the directory's masks are
    /// one `u64`).
    pub fn new(topo: Topology, cfg: HtmConfig) -> Self {
        let cpus = topo.logical_cpus();
        assert!(
            cpus <= 64,
            "{cpus} logical CPUs; the HTM model supports at most 64"
        );
        Self {
            topo,
            cfg,
            slots: (0..cpus).map(|_| TxSlot::new(cfg.write_sets)).collect(),
            directory: LineDirectory::with_capacity(64 * cpus),
            core_of: (0..cpus).map(|t| topo.core_of(t)).collect(),
            core_active: vec![0; topo.physical_cores()],
            capacity_override: (None, None),
        }
    }

    /// Installs (or, with two `None`s, lifts) a capacity-pressure
    /// override: the effective write-set ways and read-set line budget
    /// are clamped to at most `ways` / `read_lines` until the next call.
    /// Already-oversized in-flight transactions are not retroactively
    /// aborted — like real hardware, the shrunken budget bites at their
    /// next access.
    pub fn set_capacity_override(&mut self, ways: Option<usize>, read_lines: Option<usize>) {
        self.capacity_override = (ways, read_lines);
    }

    /// The capacity-pressure override currently in force.
    pub fn capacity_override(&self) -> (Option<usize>, Option<usize>) {
        self.capacity_override
    }

    /// Effective write-set ways with `co` co-resident transactions, after
    /// the scenario override clamp.
    fn clamped_ways(&self, co: usize) -> usize {
        let ways = self.cfg.effective_ways(co);
        match self.capacity_override.0 {
            Some(cap) => ways.min(cap),
            None => ways,
        }
    }

    /// Effective read-set line budget with `co` co-resident transactions,
    /// after the scenario override clamp.
    fn clamped_read_lines(&self, co: usize) -> usize {
        let lines = self.cfg.effective_read_lines(co);
        match self.capacity_override.1 {
            Some(cap) => lines.min(cap),
            None => lines,
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The buffer geometry in use.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// True when `thread` has a transaction in flight (`xtest`).
    pub fn in_tx(&self, thread: ThreadId) -> bool {
        self.slots[thread].active
    }

    /// Number of in-flight transactions on the physical core of `thread`,
    /// including `thread`'s own if active.
    pub fn co_resident_txs(&self, thread: ThreadId) -> usize {
        self.core_active[self.core_of[thread]]
    }

    /// Starts a transaction on `thread`.
    ///
    /// Returns SMT siblings whose running transactions were squeezed over
    /// their shrunken capacity budgets and therefore aborted (their slots
    /// are cleared; report them as [`AbortCause::WriteCapacity`] /
    /// [`AbortCause::ReadCapacity`] — the returned pairs carry the cause).
    ///
    /// Allocating convenience wrapper around [`HtmMachine::begin_into`];
    /// per-event callers (the DES driver) pass a reusable scratch vector
    /// to the latter instead.
    ///
    /// # Panics
    /// If `thread` already has a transaction in flight.
    pub fn begin(&mut self, thread: ThreadId) -> Vec<(ThreadId, AbortCause)> {
        let mut squeezed = Vec::new();
        self.begin_into(thread, &mut squeezed);
        squeezed
    }

    /// [`HtmMachine::begin`] writing the squeezed siblings into `squeezed`
    /// (cleared first) instead of allocating a fresh vector.
    ///
    /// # Panics
    /// If `thread` already has a transaction in flight.
    pub fn begin_into(&mut self, thread: ThreadId, squeezed: &mut Vec<(ThreadId, AbortCause)>) {
        assert!(
            !self.slots[thread].active,
            "thread {thread} nested xbegin (flat nesting not modelled)"
        );
        squeezed.clear();
        self.slots[thread].active = true;
        self.core_active[self.core_of[thread]] += 1;
        if self.cfg.smt_capacity_sharing {
            let co = self.co_resident_txs(thread);
            let ways = self.clamped_ways(co);
            let reads = self.clamped_read_lines(co);
            // `Topology` is `Copy`: iterate a copy so the sibling walk
            // doesn't hold a borrow of `self` (no temporary collect).
            let topo = self.topo;
            for s in topo.siblings(thread).filter(|&s| s != thread) {
                if !self.slots[s].active {
                    continue;
                }
                if usize::from(self.slots[s].max_occupancy) > ways {
                    self.reset(s);
                    squeezed.push((s, AbortCause::WriteCapacity));
                } else if self.slots[s].reads.len() > reads {
                    self.reset(s);
                    squeezed.push((s, AbortCause::ReadCapacity));
                }
            }
        }
        self.audit();
    }

    /// Feeds a transactional access by `thread` to `line`.
    ///
    /// Allocating convenience wrapper around [`HtmMachine::access_into`].
    ///
    /// # Panics
    /// If `thread` has no transaction in flight.
    pub fn access(&mut self, thread: ThreadId, line: LineAddr, kind: AccessKind) -> AccessResult {
        let mut victims = Vec::new();
        let self_abort = self.access_into(thread, line, kind, &mut victims);
        AccessResult {
            self_abort,
            victims,
        }
    }

    /// [`HtmMachine::access`] writing conflict victims into `victims`
    /// (cleared first) instead of allocating; returns the accessor's own
    /// abort cause, if it aborted.
    ///
    /// # Panics
    /// If `thread` has no transaction in flight.
    pub fn access_into(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) -> Option<AbortCause> {
        let outcome = self.access_inner(thread, line, kind, victims);
        self.audit();
        outcome
    }

    fn access_inner(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) -> Option<AbortCause> {
        assert!(
            self.slots[thread].active,
            "thread {thread} transactional access outside a transaction"
        );
        victims.clear();

        // 1. Conflict pass. Under requester-wins (TSX), this access
        //    invalidates (write) or downgrades (read) the line in every
        //    other in-flight transaction; under requester-aborts, hitting
        //    a line another transaction owns kills *this* transaction.
        let mut idx = self.directory.find(line);
        let others = conflicting(self.directory.holders_at(idx), kind) & !bit(thread);
        if others != 0 {
            match self.cfg.conflict_resolution {
                ConflictResolution::RequesterWins => {
                    self.kill(others, victims);
                    idx = self.directory.find(line);
                }
                ConflictResolution::RequesterAborts => {
                    self.reset(thread);
                    return Some(AbortCause::Conflict);
                }
            }
        }

        // 2. Capacity pass: extend our own tracked sets. Only a line new
        //    to them consumes capacity, so the budget (with the scenario
        //    clamp, exactly as in `begin`) is computed only then.
        if !self.directory.insert_at(idx, line, bit(thread), kind) {
            return None;
        }
        let co = self.co_resident_txs(thread);
        match kind {
            AccessKind::Write => {
                let ways_budget = self.clamped_ways(co);
                let slot = &mut self.slots[thread];
                slot.writes.push(line);
                let set_idx = (line % self.cfg.write_sets as u64) as usize;
                if slot.set_occupancy[set_idx] == 0 {
                    slot.touched_sets.push(set_idx as u32);
                }
                slot.set_occupancy[set_idx] += 1;
                slot.max_occupancy = slot.max_occupancy.max(slot.set_occupancy[set_idx]);
                if usize::from(slot.set_occupancy[set_idx]) > ways_budget {
                    self.reset(thread);
                    return Some(AbortCause::WriteCapacity);
                }
            }
            AccessKind::Read => {
                let read_budget = self.clamped_read_lines(co);
                let slot = &mut self.slots[thread];
                slot.reads.push(line);
                if slot.reads.len() > read_budget {
                    self.reset(thread);
                    return Some(AbortCause::ReadCapacity);
                }
            }
        }
        None
    }

    /// Feeds a *non-transactional* access (fall-back path, lock words).
    /// Returns the transactions it kills; their slots are cleared.
    ///
    /// Allocating convenience wrapper around
    /// [`HtmMachine::non_tx_access_into`].
    pub fn non_tx_access(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
    ) -> Vec<ThreadId> {
        let mut victims = Vec::new();
        self.non_tx_access_into(thread, line, kind, &mut victims);
        victims
    }

    /// [`HtmMachine::non_tx_access`] writing the killed transactions into
    /// `victims` (cleared first) instead of allocating.
    pub fn non_tx_access_into(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) {
        victims.clear();
        let others = conflicting(self.directory.holders(line), kind) & !bit(thread);
        self.kill(others, victims);
        self.audit();
    }

    /// Commits the transaction on `thread` (`xend`), clearing its tracking.
    ///
    /// # Panics
    /// If no transaction is in flight — like executing `xend` outside a
    /// transaction.
    pub fn commit(&mut self, thread: ThreadId) {
        assert!(
            self.slots[thread].active,
            "thread {thread} xend outside a transaction"
        );
        self.reset(thread);
        self.audit();
    }

    /// Force-aborts the transaction on `thread` (asynchronous event or
    /// explicit `xabort`). No-op if none is in flight.
    pub fn abort(&mut self, thread: ThreadId) {
        if self.slots[thread].active {
            self.reset(thread);
        }
        self.audit();
    }

    /// Aborts every in-flight transaction and returns them — used when the
    /// single-global fall-back lock is acquired, which every hardware
    /// transaction subscribes to (reads) at begin.
    ///
    /// Allocating convenience wrapper around [`HtmMachine::kill_all_into`].
    pub fn kill_all(&mut self) -> Vec<ThreadId> {
        let mut killed = Vec::new();
        self.kill_all_into(&mut killed);
        killed
    }

    /// [`HtmMachine::kill_all`] writing the killed transactions into
    /// `killed` (cleared first) instead of allocating.
    pub fn kill_all_into(&mut self, killed: &mut Vec<ThreadId>) {
        killed.clear();
        let active = (0..self.slots.len())
            .filter(|&t| self.slots[t].active)
            .fold(0, |mask, t| mask | bit(t));
        self.kill(active, killed);
        self.audit();
    }

    /// Current read-set size of `thread`'s transaction.
    pub fn read_set_len(&self, thread: ThreadId) -> usize {
        self.slots[thread].reads.len()
    }

    /// Current write-set size of `thread`'s transaction.
    pub fn write_set_len(&self, thread: ThreadId) -> usize {
        self.slots[thread].writes.len()
    }

    /// Resets every thread in `mask`, appending each to `victims` in
    /// ascending thread order.
    fn kill(&mut self, mut mask: u64, victims: &mut Vec<ThreadId>) {
        while mask != 0 {
            let t = mask.trailing_zeros() as ThreadId;
            mask &= mask - 1;
            self.reset(t);
            victims.push(t);
        }
    }

    /// Ends `thread`'s transaction: drops its directory bits line by line
    /// and clears its slot.
    fn reset(&mut self, thread: ThreadId) {
        let slot = &mut self.slots[thread];
        for &line in &slot.reads {
            self.directory.remove(line, thread, AccessKind::Read);
        }
        for &line in &slot.writes {
            self.directory.remove(line, thread, AccessKind::Write);
        }
        slot.reads.clear();
        slot.writes.clear();
        for &s in &slot.touched_sets {
            slot.set_occupancy[s as usize] = 0;
        }
        slot.touched_sets.clear();
        slot.max_occupancy = 0;
        if slot.active {
            slot.active = false;
            self.core_active[self.core_of[thread]] -= 1;
        }
    }

    /// Checks that the directory holds exactly the union of the active
    /// slots' line lists and that the per-core counters count the active
    /// slots (`check-invariants` builds only).
    ///
    /// Every listed line must be reachable with its slot's bit set. Each
    /// entry a list reaches is then counted once, at its lowest holder's
    /// first listing: if those entries are all the directory has and hold
    /// no more bits than the lists have items, nothing else is tracked.
    /// O(footprint) probes per call, no table scan.
    #[cfg(feature = "check-invariants")]
    fn audit(&self) {
        let mut per_core = vec![0; self.core_active.len()];
        let (mut listed, mut entries, mut bits) = (0, 0, 0);
        for (t, slot) in self.slots.iter().enumerate() {
            if !slot.active {
                assert!(
                    slot.reads.is_empty() && slot.writes.is_empty(),
                    "idle slot {t} tracks lines"
                );
                continue;
            }
            per_core[self.core_of[t]] += 1;
            listed += slot.reads.len() + slot.writes.len();
            let items = slot.reads.iter().map(|&l| (l, AccessKind::Read));
            for (line, kind) in items.chain(slot.writes.iter().map(|&l| (l, AccessKind::Write))) {
                let (readers, writers) = self.directory.holders(line);
                let mask = match kind {
                    AccessKind::Read => readers,
                    AccessKind::Write => writers,
                };
                assert!(
                    mask & bit(t) != 0,
                    "{kind:?} of line {line} by {t} not in the directory"
                );
                let lowest = (readers | writers).trailing_zeros() as usize;
                if t == lowest && (kind == AccessKind::Read || readers & bit(t) == 0) {
                    entries += 1;
                    bits += (readers.count_ones() + writers.count_ones()) as usize;
                }
            }
        }
        assert_eq!(
            per_core, self.core_active,
            "per-core active counters drifted"
        );
        assert_eq!(
            entries,
            self.directory.len(),
            "directory tracks lines no slot lists"
        );
        assert_eq!(bits, listed, "directory holds bits no slot lists");
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn audit(&self) {}
}

/// The holders an access of `kind` conflicts with: everyone for a write,
/// writers for a read.
#[inline]
fn conflicting((readers, writers): (u64, u64), kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Write => readers | writers,
        AccessKind::Read => writers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConflictResolution;

    fn machine() -> HtmMachine {
        HtmMachine::new(Topology::haswell_e3(), HtmConfig::default())
    }

    #[test]
    fn write_kills_concurrent_reader() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        assert_eq!(m.access(0, 100, AccessKind::Read), AccessResult::default());
        let r = m.access(1, 100, AccessKind::Write);
        assert_eq!(r.victims, vec![0]);
        assert!(r.self_abort.is_none());
        assert!(!m.in_tx(0), "victim slot cleared");
        assert!(m.in_tx(1), "requester wins");
    }

    #[test]
    fn write_kills_concurrent_writer() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.access(0, 7, AccessKind::Write);
        let r = m.access(1, 7, AccessKind::Write);
        assert_eq!(r.victims, vec![0]);
    }

    #[test]
    fn read_kills_concurrent_writer_but_not_reader() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.begin(2);
        m.access(0, 9, AccessKind::Write);
        m.access(1, 9, AccessKind::Read); // killed 0? no: read of 9 kills writer 0
        assert!(!m.in_tx(0));
        // Thread 2 reads the same line: 1 only *read* it, so no kill.
        let r = m.access(2, 9, AccessKind::Read);
        assert!(r.victims.is_empty());
        assert!(m.in_tx(1));
    }

    #[test]
    fn read_read_sharing_is_fine() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.access(0, 5, AccessKind::Read);
        let r = m.access(1, 5, AccessKind::Read);
        assert!(r.victims.is_empty());
        assert!(m.in_tx(0) && m.in_tx(1));
    }

    #[test]
    fn non_tx_write_kills_readers_and_writers() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.access(0, 11, AccessKind::Read);
        m.access(1, 11, AccessKind::Write);
        assert!(!m.in_tx(0)); // killed by 1's write
        m.begin(2);
        m.access(2, 11, AccessKind::Read);
        assert!(!m.in_tx(1)); // 2's read downgraded writer 1
        let victims = m.non_tx_access(3, 11, AccessKind::Write);
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn commit_clears_sets() {
        let mut m = machine();
        m.begin(0);
        m.access(0, 1, AccessKind::Write);
        m.access(0, 2, AccessKind::Read);
        assert_eq!(m.write_set_len(0), 1);
        assert_eq!(m.read_set_len(0), 1);
        m.commit(0);
        assert!(!m.in_tx(0));
        // A new transaction does not see stale lines.
        m.begin(1);
        let r = m.access(1, 1, AccessKind::Write);
        assert!(r.victims.is_empty());
    }

    #[test]
    fn write_capacity_aborts_accessor() {
        let cfg = HtmConfig {
            write_sets: 4,
            write_ways: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        m.begin(0);
        // Lines 0, 4, 8 all map to set 0 with 4 sets; ways = 2, so the third
        // distinct line in the set overflows.
        assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
        assert!(m.access(0, 4, AccessKind::Write).self_abort.is_none());
        let r = m.access(0, 8, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
        assert!(!m.in_tx(0));
    }

    #[test]
    fn read_capacity_aborts_accessor() {
        let cfg = HtmConfig {
            read_lines: 3,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        m.begin(0);
        for l in 0..3u64 {
            assert!(m.access(0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = m.access(0, 3, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
    }

    #[test]
    fn duplicate_accesses_do_not_consume_capacity() {
        let cfg = HtmConfig {
            read_lines: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        m.begin(0);
        for _ in 0..100 {
            assert!(m.access(0, 42, AccessKind::Read).self_abort.is_none());
        }
        assert_eq!(m.read_set_len(0), 1);
    }

    #[test]
    fn smt_sibling_begin_squeezes_running_tx() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            ..HtmConfig::default()
        };
        // 1 physical core, 2 hyper-threads: threads 0 and 1 are siblings.
        let mut m = HtmMachine::new(Topology::new(1, 2), cfg);
        m.begin(0);
        // Occupy 6 of 8 ways: fine while alone.
        for l in 0..6u64 {
            assert!(m.access(0, l, AccessKind::Write).self_abort.is_none());
        }
        // Sibling starts a transaction: effective ways drop to 4 and the
        // running transaction (occupancy 6) is squeezed out.
        let squeezed = m.begin(1);
        assert_eq!(squeezed, vec![(0, AbortCause::WriteCapacity)]);
        assert!(!m.in_tx(0));
        assert!(m.in_tx(1));
    }

    #[test]
    fn no_squeeze_on_distinct_cores() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        m.begin(0);
        for l in 0..6u64 {
            m.access(0, l, AccessKind::Write);
        }
        let squeezed = m.begin(1);
        assert!(squeezed.is_empty());
        assert!(m.in_tx(0));
    }

    #[test]
    fn capacity_sharing_halves_effective_ways_for_accessor() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 4,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(1, 2), cfg);
        m.begin(0);
        m.begin(1);
        // With a co-resident tx, effective ways = 2.
        assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
        assert!(m.access(0, 1, AccessKind::Write).self_abort.is_none());
        let r = m.access(0, 2, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
    }

    #[test]
    fn kill_all_clears_every_tx() {
        let mut m = machine();
        m.begin(0);
        m.begin(3);
        m.begin(5);
        let mut killed = m.kill_all();
        killed.sort_unstable();
        assert_eq!(killed, vec![0, 3, 5]);
        assert!(!m.in_tx(0) && !m.in_tx(3) && !m.in_tx(5));
        assert!(m.kill_all().is_empty());
    }

    #[test]
    fn abort_is_idempotent() {
        let mut m = machine();
        m.begin(2);
        m.abort(2);
        m.abort(2);
        assert!(!m.in_tx(2));
    }

    #[test]
    #[should_panic(expected = "nested xbegin")]
    fn nested_begin_panics() {
        let mut m = machine();
        m.begin(0);
        m.begin(0);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn commit_without_tx_panics() {
        let mut m = machine();
        m.commit(0);
    }

    #[test]
    fn requester_aborts_policy_inverts_the_victim() {
        let cfg = HtmConfig {
            conflict_resolution: ConflictResolution::RequesterAborts,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::haswell_e3(), cfg);
        m.begin(0);
        m.begin(1);
        m.access(0, 100, AccessKind::Read);
        let r = m.access(1, 100, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::Conflict));
        assert!(r.victims.is_empty());
        assert!(m.in_tx(0), "holder survives under requester-aborts");
        assert!(!m.in_tx(1));
        // Read-read still fine.
        m.begin(2);
        let r = m.access(2, 100, AccessKind::Read);
        assert!(r.self_abort.is_none());
    }

    #[test]
    fn capacity_override_shrinks_and_restores_budgets() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            read_lines: 8,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        // Clamped to 2 ways / 3 read lines: the third write overflows.
        m.set_capacity_override(Some(2), Some(3));
        m.begin(0);
        assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
        assert!(m.access(0, 1, AccessKind::Write).self_abort.is_none());
        let r = m.access(0, 2, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
        // Read budget clamps independently.
        m.begin(0);
        for l in 10..13u64 {
            assert!(m.access(0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = m.access(0, 13, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
        // Lifting the override restores the configured geometry.
        m.set_capacity_override(None, None);
        m.begin(0);
        for l in 0..8u64 {
            assert!(m.access(0, l, AccessKind::Write).self_abort.is_none());
        }
        m.commit(0);
    }

    #[test]
    fn capacity_override_never_widens_budgets() {
        let cfg = HtmConfig {
            read_lines: 3,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        // A clamp above the configured budget is a no-op (min, not set).
        m.set_capacity_override(None, Some(1000));
        m.begin(0);
        for l in 0..3u64 {
            assert!(m.access(0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = m.access(0, 3, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
    }

    #[test]
    fn capacity_override_squeezes_at_sibling_begin() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(1, 2), cfg);
        m.begin(0);
        for l in 0..3u64 {
            assert!(m.access(0, l, AccessKind::Write).self_abort.is_none());
        }
        // Override lands mid-transaction: occupancy 3 > clamp 2, but the
        // clamp only bites at the next budget check — here the sibling's
        // begin-time squeeze.
        m.set_capacity_override(Some(2), None);
        assert!(m.in_tx(0));
        let squeezed = m.begin(1);
        assert_eq!(squeezed, vec![(0, AbortCause::WriteCapacity)]);
    }

    #[test]
    fn set_occupancy_resets_across_txs() {
        let cfg = HtmConfig {
            write_sets: 2,
            write_ways: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        for _ in 0..10 {
            m.begin(0);
            assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
            assert!(m.access(0, 2, AccessKind::Write).self_abort.is_none());
            m.commit(0);
        }
    }
}
