//! Zero steady-state allocation audit for the inference round
//! (`crates/runtime/tests/scratch_reuse.rs` style, one layer up).
//!
//! PR 6 removed allocations from the simulation kernel's hot loops; this
//! audit pins the same discipline onto the scheduler's periodic update.
//! A counting global allocator measures three steady states after warm-up:
//!
//! * engine, clean round — nothing dirty, the round is pure cached
//!   assembly and must allocate nothing;
//! * engine, sparse-dirty rounds — a converged cyclic update stream keeps
//!   ≤ 10% of rows dirty per round; recomputation reuses the engine's
//!   per-row scratch and must allocate nothing;
//! * full `Seer` scheduler — event registration (`on_tx_start` /
//!   `on_htm_commit` / `on_abort`) plus `force_update` rounds, covering
//!   the merged-stats registration, the engine round, and the in-place
//!   `LockTable::rebuild`.
//!
//! Everything here is deterministic (fixed streams, no hashing), so the
//! assertions are exact, not statistical.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use seer::inference::{Thresholds, MIN_DISCRIMINATIVE_SIGMA};
use seer::stats::MergedStats;
use seer::{InferenceEngine, Seer, SeerConfig};
use seer_htm::XStatus;
use seer_runtime::{LockBank, NullTraceSink, SchedEnv, Scheduler};
use seer_sim::{SimRng, Topology};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocation count delta across `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A populated stats matrix (same xorshift scheme as the engine's own
/// unit tests: deterministic, contended enough to emit pairs).
fn populated(blocks: usize, seed: u64) -> MergedStats {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut m = MergedStats::new(blocks);
    for _ in 0..blocks * 24 {
        let x = next(blocks);
        // Partners concentrate in a small neighborhood of x: at large n a
        // uniform partner spreads the conjunctive mass so thin that no
        // pair ever crosses Th1.
        let y = (x + 1 + next(3)) % blocks;
        if next(3) == 0 {
            m.add_commit(x, [y].into_iter());
        } else {
            m.add_abort(x, [y].into_iter());
        }
    }
    m
}

/// One cyclic sparse update: dirties `dirty` fixed rows (≤ 10% of `n`)
/// with abort registrations against a fixed partner set. Deterministic
/// and convergent — after warm-up the emitted pair set is stable, so a
/// steady-state round touches no new capacity.
fn apply_sparse(stats: &mut MergedStats, n: usize, dirty: usize, round: usize) {
    for i in 0..dirty {
        let x = (i * (n / dirty)) % n;
        let y = (x + 1 + (round + i) % 3) % n;
        stats.add_abort(x, [y].into_iter());
    }
}

/// All three audits share the binary-wide allocation counter, so they run
/// as one sequential test rather than three racing ones.
#[test]
fn steady_state_rounds_do_not_allocate() {
    let th = Thresholds::default();
    let min_sigma = MIN_DISCRIMINATIVE_SIGMA;

    // --- engine, clean rounds ------------------------------------------
    let n = 64;
    let mut stats = populated(n, 0x5EED);
    let mut engine = InferenceEngine::new();
    let baseline = engine.round(&mut stats, th, min_sigma).len();
    assert!(baseline > 0, "audit stats must emit pairs");
    let clean = allocations_during(|| {
        for _ in 0..50 {
            std::hint::black_box(engine.round(&mut stats, th, min_sigma));
        }
    });
    assert_eq!(clean, 0, "clean rounds must be pure cached assembly");

    // --- engine, sparse-dirty rounds -----------------------------------
    // Warm-up: run the cyclic stream long enough that every row's pair
    // list and the concatenation buffer have reached their steady
    // capacities (the stream's probability ratios converge monotonically).
    let dirty = n / 10;
    for round in 0..300 {
        apply_sparse(&mut stats, n, dirty, round);
        engine.round(&mut stats, th, min_sigma);
    }
    let sparse = allocations_during(|| {
        for round in 300..360 {
            apply_sparse(&mut stats, n, dirty, round);
            std::hint::black_box(engine.round(&mut stats, th, min_sigma));
        }
    });
    assert_eq!(sparse, 0, "sparse-dirty rounds must reuse engine scratch");

    // --- full scheduler: events + force_update -------------------------
    let threads = 4;
    let blocks = 16;
    let topology = Topology::haswell_e3();
    let locks = LockBank::new(topology.physical_cores(), blocks);
    let mut rng = SimRng::new(7);
    let mut sink = NullTraceSink;
    let mut env = SchedEnv {
        now: 0,
        locks: &locks,
        topology,
        rng: &mut rng,
        trace: &mut sink,
    };
    let mut seer = Seer::new(SeerConfig::full(), threads, blocks);

    // One synthetic event batch: all threads announce, half commit, half
    // abort (attempts_left > 1, so the abort path returns no gates and
    // acquires nothing).
    let batch = |seer: &mut Seer, env: &mut SchedEnv<'_>, round: usize| {
        for t in 0..threads {
            seer.on_tx_start(t, (t + round) % blocks, env);
        }
        for t in 0..threads {
            let block = (t + round) % blocks;
            if t % 2 == 0 {
                seer.on_htm_commit(t, block, env);
            } else {
                seer.on_abort(t, block, XStatus::conflict(), 3, env);
                seer.on_htm_commit(t, block, env);
            }
        }
    };

    for round in 0..100 {
        batch(&mut seer, &mut env, round);
        seer.force_update();
    }
    let scheduler = allocations_during(|| {
        for round in 100..140 {
            batch(&mut seer, &mut env, round);
            seer.force_update();
        }
    });
    assert_eq!(
        scheduler, 0,
        "steady-state Seer rounds (events + update) must not allocate"
    );
}
