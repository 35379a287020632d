//! Incremental inference engine: dirty-row caching around Alg. 5.
//!
//! A periodic inference round is `O(n²)` over the merged matrices — cheap
//! at STAMP's handful of atomic blocks, dominant at the many-blocks scale
//! the synthetic workload opens up. But between two rounds only the rows
//! that *registered events* can change: row `x` of Alg. 5 reads exactly
//! `commit[x·n..]`, `abort[x·n..]` and `executions[x]`, all of which are
//! touched only by registrations of block `x` (or by a decay resync, which
//! dirties everything). [`MergedStats`] tracks those dirty rows, and this
//! engine caches the per-row outputs — the fitted Gaussian/cutoff and the
//! row's serialized pair list — recomputing only dirty rows each round and
//! concatenating cached + fresh lists in row order.
//!
//! Because cached and fresh rows both come from the one shared
//! `compute_row` kernel, and a cached row is (by the dirty-row invariant)
//! a function of inputs that have not changed, the concatenated output is
//! **byte-for-byte identical** to a full recompute — DESIGN.md §16. All
//! scratch (the conditional-probability row, per-row pair lists, the
//! output vector, recycled trace buffers) is owned by the engine and
//! reused, so a steady-state round allocates nothing.

use seer_runtime::trace::{PairDecision, RowTrace};
use seer_runtime::BlockId;

use crate::inference::{compute_row, RowFit, Thresholds};
use crate::stats::MergedStats;

/// One cached inference row: the fit plus the serialized partners of `x`.
#[derive(Debug, Clone, Default)]
struct CachedRow {
    fit: RowFit,
    pairs: Vec<BlockId>,
}

/// Persistent incremental evaluator of Alg. 5 (see the module docs).
///
/// Owned by the Seer scheduler across its whole lifetime; one call to
/// [`InferenceEngine::round`] (or [`InferenceEngine::round_traced`]) per
/// periodic update replaces the free full-recompute functions on the hot
/// path. The free functions remain the reference implementation — the
/// equivalence suite holds the engine to them, order included.
#[derive(Debug, Clone, Default)]
pub struct InferenceEngine {
    th: Thresholds,
    min_sigma: f64,
    /// False until the first round: an unprimed cache matches nothing.
    primed: bool,
    rows: Vec<CachedRow>,
    /// Scratch: conditional probabilities of the row being recomputed.
    cond: Vec<f64>,
    /// The concatenated output of the last round, reused between rounds.
    out: Vec<(BlockId, BlockId)>,
    /// Recycled `RowTrace::pairs` buffers for traced rounds.
    pool: Vec<Vec<PairDecision>>,
}

impl InferenceEngine {
    /// A fresh, unprimed engine. The first round is always a full
    /// recompute.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when every cached row is still a valid function of `stats`
    /// under `(th, min_sigma)` — i.e. the next round may skip clean rows.
    fn cache_valid(&self, stats: &MergedStats, th: Thresholds, min_sigma: f64) -> bool {
        self.primed
            && self.rows.len() == stats.blocks()
            && self.th == th
            && self.min_sigma == min_sigma
    }

    /// One untraced inference round: recomputes dirty rows, reuses clean
    /// ones, acknowledges the dirty bits, and returns the serialization
    /// pairs — bit-identical to
    /// [`crate::infer_conflict_pairs_with`]`(stats, th, min_sigma)`.
    ///
    /// The cache is invalidated wholesale (full recompute) when the engine
    /// is unprimed, the block count changed, or the thresholds/sigma floor
    /// moved (the hill climber and `KickThresholds` paths).
    pub fn round(
        &mut self,
        stats: &mut MergedStats,
        th: Thresholds,
        min_sigma: f64,
    ) -> &[(BlockId, BlockId)] {
        let n = stats.blocks();
        let full = !self.cache_valid(stats, th, min_sigma);
        if full {
            self.rows.clear();
            self.rows.resize_with(n, CachedRow::default);
            self.th = th;
            self.min_sigma = min_sigma;
            self.primed = true;
        }
        for x in 0..n {
            if full || stats.is_dirty(x) {
                let row = &mut self.rows[x];
                row.fit = compute_row(stats, x, th, min_sigma, &mut self.cond, &mut row.pairs, None);
            }
        }
        stats.clear_dirty();
        self.assemble()
    }

    /// One traced inference round: like [`InferenceEngine::round`], but
    /// every row is recomputed and handed to `on_row` as a [`RowTrace`] —
    /// an inference trace records the probabilities and verdicts of *all*
    /// pairs, so a traced round is inherently `O(n²)`. The verdicts come
    /// from the same kernel comparisons that emit the pairs. Trace pair
    /// buffers are drawn from the recycled pool (see
    /// [`InferenceEngine::recycle_rows`]).
    ///
    /// The cache is refreshed in passing, so a traced round keeps the
    /// following untraced rounds incremental.
    pub fn round_traced(
        &mut self,
        stats: &mut MergedStats,
        th: Thresholds,
        min_sigma: f64,
        on_row: &mut dyn FnMut(RowTrace),
    ) -> &[(BlockId, BlockId)] {
        let n = stats.blocks();
        if self.rows.len() != n {
            self.rows.clear();
            self.rows.resize_with(n, CachedRow::default);
        }
        self.th = th;
        self.min_sigma = min_sigma;
        self.primed = true;
        for x in 0..n {
            let mut trace = self.pool.pop().unwrap_or_default();
            trace.clear();
            let row = &mut self.rows[x];
            row.fit = compute_row(
                stats,
                x,
                th,
                min_sigma,
                &mut self.cond,
                &mut row.pairs,
                Some(&mut trace),
            );
            on_row(row.fit.into_row_trace(x, trace));
        }
        stats.clear_dirty();
        self.assemble()
    }

    /// Returns spent [`RowTrace`]s' pair buffers to the recycled pool, so
    /// the next traced round allocates nothing. The in-tree sinks retain
    /// trace records as live data (nothing to recycle); consumers that
    /// serialize-and-drop feed their rows back through here.
    pub fn recycle_rows(&mut self, rows: impl IntoIterator<Item = RowTrace>) {
        self.pool.extend(rows.into_iter().map(|r| r.pairs));
    }

    /// Concatenates the cached pair lists in row order into the reused
    /// output vector.
    fn assemble(&mut self) -> &[(BlockId, BlockId)] {
        self.out.clear();
        for (x, row) in self.rows.iter().enumerate() {
            self.out.extend(row.pairs.iter().map(|&y| (x, y)));
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{
        infer_conflict_pairs_traced_with, infer_conflict_pairs_with, MIN_DISCRIMINATIVE_SIGMA,
    };

    fn populated(blocks: usize, seed: u64) -> MergedStats {
        let mut m = MergedStats::new(blocks);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..blocks * 8 {
            let x = next() as usize % blocks;
            let y = next() as usize % blocks;
            if next() % 3 == 0 {
                m.add_commit(x, [y].into_iter());
            } else {
                m.add_abort(x, [y].into_iter());
            }
        }
        m
    }

    #[test]
    fn first_round_matches_full_recompute() {
        let mut m = populated(7, 42);
        let th = Thresholds::default();
        let reference = infer_conflict_pairs_with(&m, th, MIN_DISCRIMINATIVE_SIGMA);
        let mut eng = InferenceEngine::new();
        let got = eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        assert_eq!(got, &reference[..]);
    }

    #[test]
    fn clean_round_reuses_cache_and_still_matches() {
        let mut m = populated(7, 42);
        let th = Thresholds::default();
        let mut eng = InferenceEngine::new();
        eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        // No mutations: nothing is dirty, the round is pure reassembly.
        assert!((0..7).all(|x| !m.is_dirty(x)));
        let reference = infer_conflict_pairs_with(&m, th, MIN_DISCRIMINATIVE_SIGMA);
        let got = eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        assert_eq!(got, &reference[..]);
    }

    #[test]
    fn sparse_updates_recompute_only_dirty_rows() {
        let mut m = populated(9, 7);
        let th = Thresholds::default();
        let mut eng = InferenceEngine::new();
        eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        for step in 0..20 {
            let x = (step * 5) % 9;
            m.add_abort(x, [(step * 3) % 9].into_iter());
            assert!(m.is_dirty(x));
            let reference = infer_conflict_pairs_with(&m, th, MIN_DISCRIMINATIVE_SIGMA);
            let got = eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
            assert_eq!(got, &reference[..], "diverged at step {step}");
        }
    }

    #[test]
    fn threshold_change_invalidates_the_cache() {
        let mut m = populated(6, 11);
        let mut eng = InferenceEngine::new();
        eng.round(&mut m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA);
        // New thresholds against *clean* stats: every cached cutoff is
        // stale and the engine must recompute from scratch.
        let th = Thresholds { th1: 0.05, th2: 0.5 };
        let reference = infer_conflict_pairs_with(&m, th, MIN_DISCRIMINATIVE_SIGMA);
        let got = eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        assert_eq!(got, &reference[..]);
        // Same for the tuner's sigma floor.
        let lax = infer_conflict_pairs_with(&m, th, 10.0);
        let got = eng.round(&mut m, th, 10.0);
        assert_eq!(got, &lax[..]);
    }

    #[test]
    fn block_count_change_invalidates_the_cache() {
        let mut small = populated(4, 3);
        let mut big = populated(8, 3);
        let th = Thresholds::default();
        let mut eng = InferenceEngine::new();
        eng.round(&mut small, th, MIN_DISCRIMINATIVE_SIGMA);
        let reference = infer_conflict_pairs_with(&big, th, MIN_DISCRIMINATIVE_SIGMA);
        let got = eng.round(&mut big, th, MIN_DISCRIMINATIVE_SIGMA);
        assert_eq!(got, &reference[..]);
    }

    #[test]
    fn traced_round_matches_reference_and_refreshes_cache() {
        let mut m = populated(6, 99);
        let th = Thresholds::default();
        let mut eng = InferenceEngine::new();
        eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        m.add_abort(2, [4].into_iter());

        let mut ref_rows = Vec::new();
        let reference = infer_conflict_pairs_traced_with(
            &m,
            th,
            MIN_DISCRIMINATIVE_SIGMA,
            Some(&mut |r| ref_rows.push(r)),
        );
        let mut rows = Vec::new();
        let got = eng.round_traced(&mut m, th, MIN_DISCRIMINATIVE_SIGMA, &mut |r| rows.push(r));
        assert_eq!(got, &reference[..]);
        assert_eq!(rows.len(), ref_rows.len());
        for (a, b) in rows.iter().zip(&ref_rows) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.eta, b.eta);
            assert_eq!(a.sigma2, b.sigma2);
            assert_eq!(a.cutoff, b.cutoff);
            assert_eq!(a.discriminative, b.discriminative);
            assert_eq!(a.pairs, b.pairs);
        }
        // The traced round acknowledged the dirty bits and refreshed the
        // cache: the next clean untraced round still matches.
        let reference = infer_conflict_pairs_with(&m, th, MIN_DISCRIMINATIVE_SIGMA);
        let got = eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        assert_eq!(got, &reference[..]);
        // Recycling returns one pool buffer per row for the next trace.
        eng.recycle_rows(rows);
        assert_eq!(eng.pool.len(), 6);
    }

    #[test]
    fn wipe_replacement_forces_full_recompute() {
        // The KickThresholds/WipeStats fault path replaces the merged
        // matrices outright; the replacement starts all-dirty, so the
        // stale cache is never consulted.
        let mut m = populated(5, 17);
        let th = Thresholds::default();
        let mut eng = InferenceEngine::new();
        eng.round(&mut m, th, MIN_DISCRIMINATIVE_SIGMA);
        let mut wiped = MergedStats::new(5);
        assert!((0..5).all(|x| wiped.is_dirty(x)));
        let reference = infer_conflict_pairs_with(&wiped, th, MIN_DISCRIMINATIVE_SIGMA);
        let got = eng.round(&mut wiped, th, MIN_DISCRIMINATIVE_SIGMA);
        assert_eq!(got, &reference[..]);
    }
}
