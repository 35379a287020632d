//! Property-based tests for the HTM model.

use proptest::prelude::*;
use seer_htm::{
    AbortCause, AccessKind, AccessResult, ConflictResolution, HtmConfig, HtmMachine, LineDirectory,
};
use seer_sim::{ThreadId, Topology};
use std::collections::{HashMap, HashSet};

/// A transaction slot of [`RefMachine`].
#[derive(Debug, Clone, Default)]
struct RefSlot {
    active: bool,
    reads: HashSet<u64>,
    writes: HashSet<u64>,
}

/// A deliberately naive HTM: per-slot `HashSet`s, write-set occupancy
/// recounted from scratch, and an O(threads) scan over the slots for
/// every conflict and co-residency question. The differential test holds
/// `HtmMachine` to it call by call.
struct RefMachine {
    topo: Topology,
    cfg: HtmConfig,
    slots: Vec<RefSlot>,
    capacity_override: (Option<usize>, Option<usize>),
}

impl RefMachine {
    fn new(topo: Topology, cfg: HtmConfig) -> Self {
        Self {
            topo,
            cfg,
            slots: vec![RefSlot::default(); topo.logical_cpus()],
            capacity_override: (None, None),
        }
    }

    fn in_tx(&self, t: ThreadId) -> bool {
        self.slots[t].active
    }

    fn reset(&mut self, t: ThreadId) {
        self.slots[t] = RefSlot::default();
    }

    fn co_resident_txs(&self, t: ThreadId) -> usize {
        self.topo
            .siblings(t)
            .filter(|&s| self.slots[s].active)
            .count()
    }

    fn budgets(&self, t: ThreadId) -> (usize, usize) {
        let co = self.co_resident_txs(t);
        let clamp = |v: usize, cap: Option<usize>| cap.map_or(v, |c| v.min(c));
        (
            clamp(self.cfg.effective_ways(co), self.capacity_override.0),
            clamp(self.cfg.effective_read_lines(co), self.capacity_override.1),
        )
    }

    /// Largest number of written lines sharing one cache set.
    fn max_occupancy(&self, t: ThreadId) -> usize {
        (0..self.cfg.write_sets as u64)
            .map(|set| {
                let sets = self.cfg.write_sets as u64;
                self.slots[t]
                    .writes
                    .iter()
                    .filter(|&&l| l % sets == set)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    fn holds(&self, t: ThreadId, line: u64, kind: AccessKind) -> bool {
        let s = &self.slots[t];
        s.active
            && (s.writes.contains(&line) || (kind == AccessKind::Write && s.reads.contains(&line)))
    }

    fn begin(&mut self, t: ThreadId) -> Vec<(ThreadId, AbortCause)> {
        self.slots[t].active = true;
        let mut squeezed = Vec::new();
        if self.cfg.smt_capacity_sharing {
            let (ways, reads) = self.budgets(t);
            let siblings: Vec<ThreadId> = self.topo.siblings(t).filter(|&s| s != t).collect();
            for s in siblings {
                if !self.slots[s].active {
                    continue;
                }
                if self.max_occupancy(s) > ways {
                    self.reset(s);
                    squeezed.push((s, AbortCause::WriteCapacity));
                } else if self.slots[s].reads.len() > reads {
                    self.reset(s);
                    squeezed.push((s, AbortCause::ReadCapacity));
                }
            }
        }
        squeezed
    }

    fn kill_holders(&mut self, t: ThreadId, line: u64, kind: AccessKind) -> Vec<ThreadId> {
        let victims: Vec<ThreadId> = (0..self.slots.len())
            .filter(|&o| o != t && self.holds(o, line, kind))
            .collect();
        for &v in &victims {
            self.reset(v);
        }
        victims
    }

    fn access(&mut self, t: ThreadId, line: u64, kind: AccessKind) -> AccessResult {
        let mut result = AccessResult::default();
        match self.cfg.conflict_resolution {
            ConflictResolution::RequesterWins => result.victims = self.kill_holders(t, line, kind),
            ConflictResolution::RequesterAborts => {
                if (0..self.slots.len()).any(|o| o != t && self.holds(o, line, kind)) {
                    self.reset(t);
                    result.self_abort = Some(AbortCause::Conflict);
                    return result;
                }
            }
        }
        let (ways, reads) = self.budgets(t);
        match kind {
            AccessKind::Write => {
                let sets = self.cfg.write_sets as u64;
                if self.slots[t].writes.insert(line) {
                    let in_set = self.slots[t]
                        .writes
                        .iter()
                        .filter(|&&l| l % sets == line % sets);
                    if in_set.count() > ways {
                        self.reset(t);
                        result.self_abort = Some(AbortCause::WriteCapacity);
                    }
                }
            }
            AccessKind::Read => {
                if self.slots[t].reads.insert(line) && self.slots[t].reads.len() > reads {
                    self.reset(t);
                    result.self_abort = Some(AbortCause::ReadCapacity);
                }
            }
        }
        result
    }

    fn non_tx_access(&mut self, t: ThreadId, line: u64, kind: AccessKind) -> Vec<ThreadId> {
        self.kill_holders(t, line, kind)
    }

    fn kill_all(&mut self) -> Vec<ThreadId> {
        let killed: Vec<ThreadId> = (0..self.slots.len()).filter(|&t| self.in_tx(t)).collect();
        for &t in &killed {
            self.reset(t);
        }
        killed
    }
}

proptest! {
    /// `LineDirectory` behaves exactly like a `HashMap` from line to
    /// `(readers, writers)` masks (entries dropped once both are zero)
    /// under inserts, removes and lookups. The narrow pool is six keys
    /// homed on the last two slots of a 16-slot table plus two others, so
    /// its probe runs wrap around the end and deletions shift entries back
    /// across the wrap; the wide pool makes the table grow.
    #[test]
    fn line_directory_matches_hash_map(
        wide in any::<bool>(),
        ops in prop::collection::vec((0usize..64, 0usize..3, any::<bool>(), 0u8..3), 0..400),
    ) {
        let mut ours = LineDirectory::with_capacity(8);
        let pool: Vec<u64> = if wide {
            (0..64).map(|i| i * 7919).collect()
        } else {
            // `with_capacity(8)` builds 16 slots; 8 keys never grow it.
            let mut keys: Vec<u64> =
                (0..).filter(|&l| ours.home_slot(l) >= 14).take(6).collect();
            keys.extend((0..).filter(|&l| ours.home_slot(l) == 3).take(2));
            keys
        };
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        for (key, cpu, write, op) in ops {
            // Few holders per line, so entries often lose their last bit
            // and get deleted; CPU 63 exercises the top mask bit.
            let cpu = if cpu == 2 { 63 } else { cpu };
            let line = pool[key % pool.len()];
            let (kind, bit) = (if write { AccessKind::Write } else { AccessKind::Read }, 1u64 << cpu);
            match op {
                0 => {
                    let e = model.entry(line).or_default();
                    let mask = if write { &mut e.1 } else { &mut e.0 };
                    let fresh = *mask & bit == 0;
                    *mask |= bit;
                    prop_assert_eq!(ours.insert(line, cpu, kind), fresh);
                }
                1 => {
                    ours.remove(line, cpu, kind);
                    if let Some(e) = model.get_mut(&line) {
                        if write { e.1 &= !bit } else { e.0 &= !bit }
                        if *e == (0, 0) {
                            model.remove(&line);
                        }
                    }
                }
                _ => {}
            }
            prop_assert_eq!(ours.holders(line), model.get(&line).copied().unwrap_or_default());
            prop_assert_eq!(ours.len(), model.len());
            for &other in &pool {
                prop_assert_eq!(
                    ours.holders(other),
                    model.get(&other).copied().unwrap_or_default()
                );
            }
        }
        let collected: HashMap<u64, (u64, u64)> =
            ours.iter().map(|(l, r, w)| (l, (r, w))).collect();
        prop_assert_eq!(collected, model);
    }

    /// `HtmMachine` answers every call exactly like [`RefMachine`], the
    /// per-slot `HashSet` model with O(threads) scans, on random call
    /// sequences over the paper's 4×2 SMT machine and a 4×1 one, under
    /// both conflict-resolution modes and random (small) geometries.
    #[test]
    fn machine_matches_reference_model(
        shape in (any::<bool>(), any::<bool>(), any::<bool>(), 1usize..6, 2usize..12),
        ops in prop::collection::vec((0u8..10, 0usize..8, 0u64..24, any::<bool>()), 1..250),
    ) {
        let (smt, requester_aborts, sharing, write_ways, read_lines) = shape;
        let topo = if smt { Topology::haswell_e3() } else { Topology::new(4, 1) };
        let cfg = HtmConfig {
            write_sets: 4,
            write_ways,
            read_lines,
            smt_capacity_sharing: sharing,
            conflict_resolution: if requester_aborts {
                ConflictResolution::RequesterAborts
            } else {
                ConflictResolution::RequesterWins
            },
        };
        let mut ours = HtmMachine::new(topo, cfg);
        let mut model = RefMachine::new(topo, cfg);
        for (step, (op, thread, line, write)) in ops.into_iter().enumerate() {
            let t = thread % topo.logical_cpus();
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            match op {
                0..=3 => {
                    if !model.in_tx(t) {
                        prop_assert_eq!(ours.begin(t), model.begin(t), "step {}: begin", step);
                    }
                    prop_assert_eq!(ours.access(t, line, kind), model.access(t, line, kind),
                        "step {}: access({}, {}, {:?})", step, t, line, kind);
                }
                4 => {
                    if !model.in_tx(t) {
                        prop_assert_eq!(ours.begin(t), model.begin(t), "step {}: begin", step);
                    }
                }
                5 => {
                    if model.in_tx(t) {
                        ours.commit(t);
                        model.reset(t);
                    }
                }
                6 => {
                    ours.abort(t);
                    model.reset(t);
                }
                7 => {
                    prop_assert_eq!(ours.non_tx_access(t, line, kind),
                        model.non_tx_access(t, line, kind), "step {}: non-tx access", step);
                }
                8 => {
                    prop_assert_eq!(ours.kill_all(), model.kill_all(), "step {}: kill_all", step);
                }
                _ => {
                    let clamp = |v: u64| (!v.is_multiple_of(3)).then_some((v % 5) as usize + 1);
                    let (ways, reads) = (clamp(line), clamp(line / 3 + u64::from(write)));
                    ours.set_capacity_override(ways, reads);
                    model.capacity_override = (ways, reads);
                }
            }
            for t in 0..topo.logical_cpus() {
                prop_assert_eq!(ours.in_tx(t), model.in_tx(t), "step {}: in_tx({})", step, t);
                prop_assert_eq!(ours.read_set_len(t), model.slots[t].reads.len(),
                    "step {}: read_set_len({})", step, t);
                prop_assert_eq!(ours.write_set_len(t), model.slots[t].writes.len(),
                    "step {}: write_set_len({})", step, t);
                prop_assert_eq!(ours.co_resident_txs(t), model.co_resident_txs(t),
                    "step {}: co_resident_txs({})", step, t);
            }
        }
    }

    /// Single-writer invariant: after any access sequence, no cache line is
    /// in the write set of one in-flight transaction and in any set of
    /// another — conflicting co-existence is impossible because the machine
    /// kills the other party eagerly.
    #[test]
    fn no_conflicting_coexistence(
        accesses in prop::collection::vec((0usize..4, 0u64..32, any::<bool>()), 1..300)
    ) {
        let mut m = HtmMachine::new(Topology::new(4, 1), HtmConfig::default());
        // Track what each live tx accessed, mirroring the machine.
        let mut reads: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        let mut writes: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        let mut live = [false; 4];
        for (t, line, is_write) in accesses {
            if !live[t] {
                let squeezed = m.begin(t);
                prop_assert!(squeezed.is_empty(), "no SMT in this topology");
                live[t] = true;
                reads[t].clear();
                writes[t].clear();
            }
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let result = m.access(t, line, kind);
            for v in &result.victims {
                live[*v] = false;
                reads[*v].clear();
                writes[*v].clear();
            }
            if result.self_abort.is_some() {
                live[t] = false;
                reads[t].clear();
                writes[t].clear();
            } else if is_write {
                writes[t].insert(line);
            } else {
                reads[t].insert(line);
            }
            // Invariant: for every pair of live txs, write sets are
            // disjoint from the other's read+write sets.
            for a in 0..4 {
                for b in 0..4 {
                    if a == b || !live[a] || !live[b] {
                        continue;
                    }
                    prop_assert!(writes[a].is_disjoint(&writes[b]),
                        "double writer on a line");
                    prop_assert!(writes[a].is_disjoint(&reads[b]),
                        "writer coexists with reader");
                }
            }
        }
    }

    /// Capacity: a transaction writing k distinct lines into one cache set
    /// aborts exactly when k exceeds the effective ways.
    #[test]
    fn write_capacity_exact(ways in 1usize..8, extra in 0usize..6) {
        let cfg = HtmConfig {
            write_sets: 8,
            write_ways: ways,
            read_lines: 1024,
            smt_capacity_sharing: false,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(1, 1), cfg);
        m.begin(0);
        let k = ways + extra;
        let mut aborted_at = None;
        for i in 0..k {
            // Same set: stride by the set count.
            let line = (i as u64) * 8;
            let r = m.access(0, line, AccessKind::Write);
            if r.self_abort.is_some() {
                aborted_at = Some(i);
                break;
            }
        }
        if extra == 0 {
            prop_assert_eq!(aborted_at, None);
        } else {
            prop_assert_eq!(aborted_at, Some(ways), "abort on the (ways+1)-th line");
        }
    }

    /// kill_all returns exactly the set of in-flight transactions.
    #[test]
    fn kill_all_is_exhaustive(mask in 0u8..16) {
        let mut m = HtmMachine::new(Topology::new(4, 1), HtmConfig::default());
        let mut expect = Vec::new();
        for t in 0..4 {
            if mask & (1 << t) != 0 {
                m.begin(t);
                expect.push(t);
            }
        }
        let mut killed = m.kill_all();
        killed.sort_unstable();
        prop_assert_eq!(killed, expect);
        for t in 0..4 {
            prop_assert!(!m.in_tx(t));
        }
    }
}
