//! Incremental-vs-full inference equivalence (the tentpole invariant).
//!
//! The persistent [`InferenceEngine`] recomputes only dirty rows and
//! replays cached pair lists for the rest; its contract is that the
//! concatenated output is *order-exact identical* to a from-scratch
//! `infer_conflict_pairs_with` over the same statistics — at every round,
//! under any interleaving of registrations, decay/`merge_from` resyncs,
//! stats wipes, and threshold changes. These properties drive random
//! interleavings through the same dual-write scheme the scheduler uses
//! when decay is configured (per-thread tables + incremental merged view)
//! and compare after every single operation, so a dirty-row bookkeeping
//! bug cannot hide behind a later full resync.

use proptest::prelude::*;
use seer::inference::{infer_conflict_pairs_with, Thresholds, MIN_DISCRIMINATIVE_SIGMA};
use seer::stats::{MergedStats, ThreadStats};
use seer::InferenceEngine;

const THREADS: usize = 3;

/// One step of an interleaving, mirroring everything the scheduler can do
/// to its statistics between two inference rounds.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// REGISTER-COMMIT / REGISTER-ABORT: dual write into the owning
    /// thread's table and the merged view (dirties row `block`).
    Register { thread: usize, block: usize, partner: usize, commit: bool },
    /// Decay every per-thread table, then re-anchor the merged view with
    /// `merge_from` (dirties every row) — the scheduler's decay path.
    Decay,
    /// Stats amnesia (`SchedFault::WipeStats`): fresh tables, fresh
    /// all-dirty merged view.
    Wipe,
    /// Hill-climb / fault kick: change the thresholds the next round runs
    /// under (the engine must invalidate its cache by itself).
    KickThresholds(u8),
}

fn arb_op(blocks: usize) -> impl Strategy<Value = Op> {
    (0usize..12, 0usize..THREADS, 0usize..blocks, 0usize..blocks).prop_map(
        |(tag, thread, block, partner)| match tag {
            0 => Op::Decay,
            1 => Op::Wipe,
            2 => Op::KickThresholds((thread + block) as u8 % 3),
            t => Op::Register { thread, block, partner, commit: t % 3 == 0 },
        },
    )
}

fn kicked(tag: u8) -> Thresholds {
    let base = Thresholds::default();
    match tag {
        0 => base,
        1 => Thresholds { th1: (base.th1 * 0.5).max(0.05), ..base },
        _ => Thresholds { th2: (base.th2 * 1.25).min(0.95), ..base },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence: after EVERY operation, an engine round
    /// over the merged view equals the full recompute, order included.
    #[test]
    fn incremental_round_equals_full_recompute_at_every_round(
        blocks in 2usize..12,
        ops in prop::collection::vec(arb_op(12), 1..70),
    ) {
        let mut per_thread: Vec<ThreadStats> =
            (0..THREADS).map(|_| ThreadStats::new(blocks)).collect();
        let mut merged = MergedStats::new(blocks);
        let mut engine = InferenceEngine::new();
        let mut th = Thresholds::default();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Register { thread, block, partner, commit } => {
                    let block = block % blocks;
                    let partner = partner % blocks;
                    if commit {
                        per_thread[thread].register_commit(block, [partner].into_iter());
                        merged.add_commit(block, [partner].into_iter());
                    } else {
                        per_thread[thread].register_abort(block, [partner].into_iter());
                        merged.add_abort(block, [partner].into_iter());
                    }
                }
                Op::Decay => {
                    for t in &mut per_thread {
                        t.decay();
                    }
                    merged.merge_from(per_thread.iter());
                }
                Op::Wipe => {
                    for t in &mut per_thread {
                        *t = ThreadStats::new(blocks);
                    }
                    merged = MergedStats::new(blocks);
                }
                Op::KickThresholds(tag) => th = kicked(tag),
            }

            // Reference first (pure read), then the engine round (which
            // clears dirty bits); both see identical statistics.
            let reference = infer_conflict_pairs_with(&merged, th, MIN_DISCRIMINATIVE_SIGMA);
            let incremental = engine.round(&mut merged, th, MIN_DISCRIMINATIVE_SIGMA);
            prop_assert_eq!(
                incremental, &reference[..],
                "divergence after step {} ({:?})", step, op
            );
        }
    }

    /// Decay + `merge_from` must leave no stale cached row behind even
    /// when only SOME rows changed numerically: integer halving touches
    /// rows the dual write never dirtied, so `merge_from` dirtying
    /// everything is load-bearing. This property would fail if
    /// `merge_from` only dirtied rows whose totals moved.
    #[test]
    fn decay_resync_invalidates_every_cached_row(
        blocks in 2usize..10,
        seed_ops in prop::collection::vec(arb_op(10), 10..50),
    ) {
        let mut per_thread: Vec<ThreadStats> =
            (0..THREADS).map(|_| ThreadStats::new(blocks)).collect();
        let mut merged = MergedStats::new(blocks);
        let mut engine = InferenceEngine::new();
        let th = Thresholds::default();

        // Build up arbitrary state (registrations only) and prime the cache.
        for op in &seed_ops {
            if let Op::Register { thread, block, partner, commit } = *op {
                let (block, partner) = (block % blocks, partner % blocks);
                if commit {
                    per_thread[thread].register_commit(block, [partner].into_iter());
                    merged.add_commit(block, [partner].into_iter());
                } else {
                    per_thread[thread].register_abort(block, [partner].into_iter());
                    merged.add_abort(block, [partner].into_iter());
                }
            }
        }
        engine.round(&mut merged, th, MIN_DISCRIMINATIVE_SIGMA);
        for x in 0..blocks {
            prop_assert!(!merged.is_dirty(x), "row {} dirty after a round", x);
        }

        for t in &mut per_thread {
            t.decay();
        }
        merged.merge_from(per_thread.iter());
        for x in 0..blocks {
            prop_assert!(merged.is_dirty(x), "decay resync left row {} clean", x);
        }

        let reference = infer_conflict_pairs_with(&merged, th, MIN_DISCRIMINATIVE_SIGMA);
        let incremental = engine.round(&mut merged, th, MIN_DISCRIMINATIVE_SIGMA);
        prop_assert_eq!(incremental, &reference[..]);
    }
}

/// Dirty-row bookkeeping across decay, pinned as a deterministic unit
/// test (the satellite's explicit ask, independent of proptest shrinking).
#[test]
fn dirty_row_bookkeeping_across_decay() {
    let blocks = 6;
    let mut thread = ThreadStats::new(blocks);
    let mut merged = MergedStats::new(blocks);
    let mut engine = InferenceEngine::new();
    let th = Thresholds::default();

    thread.register_abort(2, [4].into_iter());
    merged.add_abort(2, [4].into_iter());
    engine.round(&mut merged, th, MIN_DISCRIMINATIVE_SIGMA);
    assert!((0..blocks).all(|x| !merged.is_dirty(x)), "round must clear dirt");

    // A registration dirties exactly its own row.
    thread.register_commit(3, [1].into_iter());
    merged.add_commit(3, [1].into_iter());
    assert!(merged.is_dirty(3));
    assert!((0..blocks).filter(|&x| merged.is_dirty(x)).count() == 1);

    // Decay + resync dirties everything, including untouched rows.
    thread.decay();
    merged.merge_from([&thread].into_iter());
    assert!((0..blocks).all(|x| merged.is_dirty(x)), "resync must dirty all rows");

    // And the next round both clears the dirt and matches the reference.
    let reference = infer_conflict_pairs_with(&merged, th, MIN_DISCRIMINATIVE_SIGMA);
    let incremental = engine.round(&mut merged, th, MIN_DISCRIMINATIVE_SIGMA);
    assert_eq!(incremental, &reference[..]);
    assert!((0..blocks).all(|x| !merged.is_dirty(x)));
}

/// A deterministic xorshift64 stream (no proptest: the sizes below are
/// far past what shrinking could explore).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Merged statistics in which every row carries signal, so a full
/// recompute does real work on every row.
fn populated_stats(blocks: usize, seed: u64) -> MergedStats {
    let mut m = MergedStats::new(blocks);
    let mut next = xorshift(seed);
    for _ in 0..blocks * 16 {
        let x = next() as usize % blocks;
        let y = next() as usize % blocks;
        if next().is_multiple_of(3) {
            m.add_commit(x, [y].into_iter());
        } else {
            m.add_abort(x, [y].into_iter());
        }
    }
    m
}

/// The many-blocks regime the proptests above cannot reach: at 16, 64 and
/// 256 blocks, a sparse update stream (≤ 10% of rows dirtied per round)
/// runs 64 rounds, and the engine must equal the full recompute at every
/// one of them. Each dirtied row aborts three times against one fixed hot
/// partner, so
/// rows climb past Th1 mid-stream and the pair list keeps changing — a
/// stale cached row would show up as a divergence.
#[test]
fn incremental_round_equals_full_recompute_at_many_blocks() {
    const ROUNDS: usize = 64;
    const ABORTS_PER_HIT: usize = 3;
    let th = Thresholds::default();
    for blocks in [16usize, 64, 256] {
        let dirty_rows = (blocks / 10).max(1);
        assert!(
            dirty_rows * 10 <= blocks,
            "stream must stay sparse at {blocks} blocks"
        );
        let hot_partner = |x: usize| (x * 7 + 1) % blocks;
        let mut stats = populated_stats(blocks, 0x5EE2);
        let mut engine = InferenceEngine::new();
        let mut previous = engine
            .round(&mut stats, th, MIN_DISCRIMINATIVE_SIGMA)
            .to_vec();
        let mut changed_rounds = 0;
        let mut next = xorshift(0x0BAD_5EED);
        for round in 0..ROUNDS {
            let mut rows: Vec<usize> = Vec::with_capacity(dirty_rows);
            while rows.len() < dirty_rows {
                let x = next() as usize % blocks;
                if !rows.contains(&x) {
                    rows.push(x);
                }
            }
            for x in rows {
                for _ in 0..ABORTS_PER_HIT {
                    stats.add_abort(x, [hot_partner(x)].into_iter());
                }
            }
            let reference = infer_conflict_pairs_with(&stats, th, MIN_DISCRIMINATIVE_SIGMA);
            let incremental = engine.round(&mut stats, th, MIN_DISCRIMINATIVE_SIGMA);
            assert_eq!(
                incremental,
                &reference[..],
                "incremental diverged at {blocks} blocks, round {round}"
            );
            changed_rounds += usize::from(reference != previous);
            previous = reference;
        }
        // Non-vacuity: the verdicts actually moved under the stream.
        assert!(
            changed_rounds >= ROUNDS / 8,
            "only {changed_rounds} of {ROUNDS} rounds changed the pair list at {blocks} blocks"
        );
    }
}
