//! Commit/abort statistics matrices (paper Table 2, Fig. 2 steps 3–5).
//!
//! In the paper each thread owns private `commitStats` / `abortStats`
//! matrices and an `executions` array, updated without synchronization on
//! every commit and abort by scanning `activeTxs` (Alg. 3), and
//! periodically summed into merged global matrices that feed the
//! probabilistic inference (Alg. 5). Entry `[x][y]` counts events of block
//! `x` during which block `y` was observed running concurrently.
//!
//! The simulator has no synchronization to avoid, so the scheduler folds
//! every registration straight into [`MergedStats`]. A [`ThreadStats`]
//! table exists per thread only when periodic decay is configured: integer
//! halving does not distribute over the sum, so a decayed merge must be
//! re-summed from individually halved per-thread tables
//! ([`MergedStats::merge_from`]).

use seer_runtime::BlockId;

/// One thread's private statistics (a row-major `blocks × blocks` pair of
/// matrices plus the executions vector).
#[derive(Debug, Clone)]
pub struct ThreadStats {
    blocks: usize,
    commit: Vec<u64>,
    abort: Vec<u64>,
    executions: Vec<u64>,
}

impl ThreadStats {
    /// Zeroed statistics over `blocks` atomic blocks.
    pub fn new(blocks: usize) -> Self {
        Self {
            blocks,
            commit: vec![0; blocks * blocks],
            abort: vec![0; blocks * blocks],
            executions: vec![0; blocks],
        }
    }

    /// REGISTER-COMMIT: block `x` committed while `concurrent` blocks were
    /// announced by other threads.
    pub fn register_commit(&mut self, x: BlockId, concurrent: impl Iterator<Item = BlockId>) {
        self.executions[x] += 1;
        for y in concurrent {
            self.commit[x * self.blocks + y] += 1;
        }
    }

    /// REGISTER-ABORT: block `x` aborted while `concurrent` blocks were
    /// announced by other threads.
    pub fn register_abort(&mut self, x: BlockId, concurrent: impl Iterator<Item = BlockId>) {
        self.executions[x] += 1;
        for y in concurrent {
            self.abort[x * self.blocks + y] += 1;
        }
    }

    /// Raw commit count for the pair `(x, y)`.
    pub fn commits(&self, x: BlockId, y: BlockId) -> u64 {
        self.commit[x * self.blocks + y]
    }

    /// Raw abort count for the pair `(x, y)`.
    pub fn aborts(&self, x: BlockId, y: BlockId) -> u64 {
        self.abort[x * self.blocks + y]
    }

    /// Total executions (commits + aborts) of block `x`.
    pub fn executions(&self, x: BlockId) -> u64 {
        self.executions[x]
    }

    /// Zeroes every counter in place (the statistics-wipe fault), keeping
    /// the allocation.
    pub fn clear(&mut self) {
        self.counters_mut().for_each(|v| *v = 0);
    }

    /// Halves every counter (integer division). Applied periodically, this
    /// turns the matrices into exponentially-decayed frequency estimates,
    /// so conflict relations that stopped occurring fade out — the
    /// adaptivity the paper's self-tuning discussion targets for
    /// "time varying workloads".
    pub fn decay(&mut self) {
        self.counters_mut().for_each(|v| *v /= 2);
    }

    /// Every counter of the table: both matrices and the executions vector.
    fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.commit
            .iter_mut()
            .chain(self.abort.iter_mut())
            .chain(self.executions.iter_mut())
    }
}

/// The merged global matrices (Fig. 2 step 5).
///
/// Besides the counters, the merge tracks **dirty rows**: which block rows
/// changed since [`MergedStats::clear_dirty`] was last called. Row `x` of
/// the inference (Alg. 5) reads only `commit[x·n..]`, `abort[x·n..]` and
/// `executions[x]`, so [`MergedStats::add_commit`]/[`MergedStats::add_abort`]
/// dirty exactly row `x`, while [`MergedStats::merge_from`] (the decay
/// resync path) conservatively dirties every row. The incremental
/// [`crate::InferenceEngine`] uses these bits to skip untouched rows.
///
/// The matrix fields stay `pub` for diagnostic reads; code that *writes*
/// them directly (bypassing the methods) must call
/// [`MergedStats::mark_all_dirty`] afterwards or cached inference rows go
/// stale.
#[derive(Debug, Clone)]
pub struct MergedStats {
    blocks: usize,
    /// Merged `commitStats`.
    pub commit: Vec<u64>,
    /// Merged `abortStats`.
    pub abort: Vec<u64>,
    /// Merged `executions`.
    pub executions: Vec<u64>,
    dirty: Vec<bool>,
    all_dirty: bool,
}

impl MergedStats {
    /// Zeroed merged matrices over `blocks` atomic blocks. Every row starts
    /// dirty: a consumer that has never seen these stats has no valid cache.
    pub fn new(blocks: usize) -> Self {
        Self {
            blocks,
            commit: vec![0; blocks * blocks],
            abort: vec![0; blocks * blocks],
            executions: vec![0; blocks],
            dirty: vec![false; blocks],
            all_dirty: true,
        }
    }

    /// Recomputes the merge as the element-wise sum of `threads`' matrices.
    /// Every row may have changed (this is the decay/resync path), so all
    /// rows are marked dirty.
    pub fn merge_from<'a>(&mut self, threads: impl Iterator<Item = &'a ThreadStats>) {
        self.all_dirty = true;
        self.commit.iter_mut().for_each(|v| *v = 0);
        self.abort.iter_mut().for_each(|v| *v = 0);
        self.executions.iter_mut().for_each(|v| *v = 0);
        for t in threads {
            debug_assert_eq!(t.blocks, self.blocks, "mismatched block counts");
            for (dst, src) in self.commit.iter_mut().zip(&t.commit) {
                *dst += *src;
            }
            for (dst, src) in self.abort.iter_mut().zip(&t.abort) {
                *dst += *src;
            }
            for (dst, src) in self.executions.iter_mut().zip(&t.executions) {
                *dst += *src;
            }
        }
    }

    /// Folds one commit registration directly into the merged matrices —
    /// the same arithmetic as [`ThreadStats::register_commit`], applied at
    /// the merged level. Registering every event here keeps the merge
    /// incrementally up to date, so an inference round starts from the
    /// current matrices instead of re-summing per-thread tables (an
    /// `O(threads × blocks²)` scan per round).
    pub fn add_commit(&mut self, x: BlockId, concurrent: impl Iterator<Item = BlockId>) {
        self.dirty[x] = true;
        self.executions[x] += 1;
        for y in concurrent {
            self.commit[x * self.blocks + y] += 1;
        }
    }

    /// Folds one abort registration directly into the merged matrices; the
    /// incremental counterpart of [`ThreadStats::register_abort`]. See
    /// [`MergedStats::add_commit`].
    pub fn add_abort(&mut self, x: BlockId, concurrent: impl Iterator<Item = BlockId>) {
        self.dirty[x] = true;
        self.executions[x] += 1;
        for y in concurrent {
            self.abort[x * self.blocks + y] += 1;
        }
    }

    /// Number of atomic blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// `commitStats[x][y]` — abbreviated `c_x,y` in the paper.
    pub fn c(&self, x: BlockId, y: BlockId) -> u64 {
        self.commit[x * self.blocks + y]
    }

    /// `abortStats[x][y]` — abbreviated `a_x,y` in the paper.
    pub fn a(&self, x: BlockId, y: BlockId) -> u64 {
        self.abort[x * self.blocks + y]
    }

    /// `executions[x]` — abbreviated `e_x` in the paper.
    pub fn e(&self, x: BlockId) -> u64 {
        self.executions[x]
    }

    /// Row `x` of the commit matrix as a slice (`c_x,0 .. c_x,n-1`).
    pub fn commit_row(&self, x: BlockId) -> &[u64] {
        &self.commit[x * self.blocks..(x + 1) * self.blocks]
    }

    /// Row `x` of the abort matrix as a slice (`a_x,0 .. a_x,n-1`).
    pub fn abort_row(&self, x: BlockId) -> &[u64] {
        &self.abort[x * self.blocks..(x + 1) * self.blocks]
    }

    /// Has row `x` changed since [`MergedStats::clear_dirty`]?
    pub fn is_dirty(&self, x: BlockId) -> bool {
        self.all_dirty || self.dirty[x]
    }

    /// Marks every row dirty. Required after any direct write to the `pub`
    /// matrix fields that bypasses the registration methods.
    pub fn mark_all_dirty(&mut self) {
        self.all_dirty = true;
    }

    /// Acknowledges all pending changes: every row reads as clean until the
    /// next mutation. Called by the inference engine once its caches have
    /// absorbed the current matrices.
    pub fn clear_dirty(&mut self) {
        self.all_dirty = false;
        self.dirty.iter_mut().for_each(|d| *d = false);
    }

    /// Total executions over all blocks (the "enough samples" signal for
    /// the self-tuning mechanism).
    pub fn total_executions(&self) -> u64 {
        self.executions.iter().sum()
    }

    /// FNV-1a digest over all three matrices — the snapshot fingerprint an
    /// inference round stores in its trace record, so an exported decision
    /// log can tell whether two rounds read the same statistics.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.blocks as u64);
        self.commit.iter().for_each(|&v| mix(v));
        self.abort.iter().for_each(|&v| mix(v));
        self.executions.iter().for_each(|&v| mix(v));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_paths_update_matrices() {
        let mut s = ThreadStats::new(3);
        s.register_abort(0, [1, 2].into_iter());
        s.register_abort(0, [1].into_iter());
        s.register_commit(0, [1].into_iter());
        s.register_commit(2, [].into_iter());
        assert_eq!(s.aborts(0, 1), 2);
        assert_eq!(s.aborts(0, 2), 1);
        assert_eq!(s.commits(0, 1), 1);
        assert_eq!(s.executions(0), 3);
        assert_eq!(s.executions(2), 1);
        assert_eq!(s.executions(1), 0);
    }

    #[test]
    fn merge_is_elementwise_sum() {
        let mut a = ThreadStats::new(2);
        a.register_abort(0, [1].into_iter());
        a.register_commit(1, [0].into_iter());
        let mut b = ThreadStats::new(2);
        b.register_abort(0, [1].into_iter());
        b.register_abort(1, [0].into_iter());

        let mut m = MergedStats::new(2);
        m.merge_from([&a, &b].into_iter());
        assert_eq!(m.a(0, 1), 2);
        assert_eq!(m.a(1, 0), 1);
        assert_eq!(m.c(1, 0), 1);
        assert_eq!(m.e(0), 2);
        assert_eq!(m.e(1), 2);
        assert_eq!(m.total_executions(), 4);
    }

    #[test]
    fn decay_halves_all_counters() {
        let mut s = ThreadStats::new(2);
        for _ in 0..10 {
            s.register_abort(0, [1].into_iter());
        }
        for _ in 0..5 {
            s.register_commit(1, [0].into_iter());
        }
        s.decay();
        assert_eq!(s.aborts(0, 1), 5);
        assert_eq!(s.commits(1, 0), 2);
        assert_eq!(s.executions(0), 5);
        assert_eq!(s.executions(1), 2);
        // Probabilities are (approximately) preserved under decay.
        s.decay();
        s.decay();
        s.decay();
        assert_eq!(s.aborts(0, 1), 0, "counters fade to zero");
    }

    #[test]
    fn incremental_adds_match_a_full_rebuild() {
        // Mirror the same event stream into per-thread tables (merged by a
        // full rebuild) and into an incrementally maintained MergedStats;
        // both views must be identical down to the digest.
        let mut threads = [ThreadStats::new(3), ThreadStats::new(3)];
        let mut incremental = MergedStats::new(3);
        let events: &[(usize, BlockId, bool, &[BlockId])] = &[
            (0, 0, false, &[1, 2]),
            (1, 1, true, &[0]),
            (0, 2, true, &[]),
            (1, 0, false, &[2]),
            (0, 1, false, &[0, 2]),
            (1, 2, true, &[1]),
        ];
        for &(t, x, commit, concurrent) in events {
            if commit {
                threads[t].register_commit(x, concurrent.iter().copied());
                incremental.add_commit(x, concurrent.iter().copied());
            } else {
                threads[t].register_abort(x, concurrent.iter().copied());
                incremental.add_abort(x, concurrent.iter().copied());
            }
        }
        let mut rebuilt = MergedStats::new(3);
        rebuilt.merge_from(threads.iter());
        assert_eq!(rebuilt.commit, incremental.commit);
        assert_eq!(rebuilt.abort, incremental.abort);
        assert_eq!(rebuilt.executions, incremental.executions);
        assert_eq!(rebuilt.digest(), incremental.digest());
    }

    #[test]
    fn dirty_rows_track_incremental_writes() {
        let mut m = MergedStats::new(3);
        // Fresh stats: no consumer has a valid cache, so every row is dirty.
        assert!((0..3).all(|x| m.is_dirty(x)));
        m.clear_dirty();
        assert!((0..3).all(|x| !m.is_dirty(x)));
        // Incremental registration dirties exactly the registering row:
        // row x of the inference reads commit[x·n..], abort[x·n..] and
        // executions[x], none of which change for other rows.
        m.add_commit(1, [0, 2].into_iter());
        assert!(!m.is_dirty(0));
        assert!(m.is_dirty(1));
        assert!(!m.is_dirty(2));
        m.add_abort(2, [].into_iter());
        assert!(m.is_dirty(2));
        m.clear_dirty();
        assert!(!m.is_dirty(1));
    }

    #[test]
    fn decay_resync_dirties_every_row() {
        // The decay path halves per-thread counters and re-merges; any row
        // may shrink, so the resync must dirty all of them.
        let mut t = ThreadStats::new(2);
        t.register_abort(0, [1].into_iter());
        let mut m = MergedStats::new(2);
        m.merge_from([&t].into_iter());
        m.clear_dirty();
        t.decay();
        m.merge_from([&t].into_iter());
        assert!(m.is_dirty(0) && m.is_dirty(1));
        // mark_all_dirty covers direct writes to the pub fields.
        m.clear_dirty();
        m.mark_all_dirty();
        assert!(m.is_dirty(1));
    }

    #[test]
    fn row_slices_match_indexed_accessors() {
        let mut m = MergedStats::new(3);
        m.add_abort(1, [0, 2].into_iter());
        m.add_commit(1, [2].into_iter());
        for x in 0..3 {
            for y in 0..3 {
                assert_eq!(m.commit_row(x)[y], m.c(x, y));
                assert_eq!(m.abort_row(x)[y], m.a(x, y));
            }
        }
    }

    #[test]
    fn digest_ignores_dirty_bits() {
        // The digest fingerprints the *statistics*, not cache bookkeeping:
        // two rounds reading the same matrices must agree even if one view
        // has pending dirty bits and the other was acknowledged.
        let mut a = MergedStats::new(2);
        a.add_abort(0, [1].into_iter());
        let mut b = a.clone();
        b.clear_dirty();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn merge_overwrites_previous_content() {
        let mut t = ThreadStats::new(2);
        t.register_abort(0, [1].into_iter());
        let mut m = MergedStats::new(2);
        m.merge_from([&t].into_iter());
        m.merge_from([&t].into_iter());
        // Re-merging the same input must not double-count.
        assert_eq!(m.a(0, 1), 1);
        assert_eq!(m.e(0), 1);
    }
}
