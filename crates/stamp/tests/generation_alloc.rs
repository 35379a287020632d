//! Zero steady-state allocation audit for workload generation
//! (`crates/core/tests/engine_alloc.rs` style, one layer down).
//!
//! The driver hands every thread one reused `TxRequest` buffer, and the
//! STAMP models refill it in place (`next_into`, `regenerate`). A
//! counting global allocator pins that discipline for every Figure 3
//! model and `synth@blocks=128`, plus the structure-refinement adapter's
//! commit path:
//!
//! * after warm-up, `next_into` and `regenerate` allocate nothing;
//! * a second instantiation of a benchmark builds no Zipf table — its
//!   line tables come from the process-wide `ZipfTable::shared` cache.
//!
//! Everything is deterministic (fixed seeds, fixed models), so the
//! assertions are exact, not statistical.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use seer_runtime::{TxRequest, Workload};
use seer_sim::{SimRng, ZipfTable};
use seer_stamp::{Benchmark, RefinedModel, StampModel};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations aligned for `u32` — the signature of a guide array (see
/// `seer_sim::CdfSampler`), the only such buffer a model instantiation
/// creates: one for its block mix plus one per Zipf table it builds.
static U32_ALIGNED: AtomicU64 = AtomicU64::new(0);

fn count(layout: Layout) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if layout.align() == std::mem::align_of::<u32>() {
        U32_ALIGNED.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `(all allocations, u32-aligned allocations)` made during `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (all, guides) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        U32_ALIGNED.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - all,
        U32_ALIGNED.load(Ordering::Relaxed) - guides,
    )
}

const THREADS: usize = 2;
const WARM_UP: usize = 200;
const MEASURED: usize = 400;

/// The longest trace `model` can generate: every range at its maximum.
fn max_footprint(model: &StampModel) -> usize {
    model
        .blocks()
        .iter()
        .map(|b| {
            let shared: u64 = b.regions.iter().map(|r| r.reads.1 + r.writes.1).sum();
            (shared + b.private_reads.1 + b.private_writes.1) as usize
        })
        .max()
        .unwrap_or(0)
}

/// One generation step per thread: issue, retry once, and commit, each
/// into that thread's reused buffer.
fn step(w: &mut impl Workload, bufs: &mut [TxRequest], rng: &mut SimRng) {
    for (th, req) in bufs.iter_mut().enumerate() {
        assert!(w.next_into(th, req, rng), "audit quota ran dry");
        w.regenerate(th, req, rng);
        w.commit(th, req, rng);
    }
}

/// Warms `w` up, then counts the allocations of `MEASURED` steps.
fn steady_state_allocations(w: &mut impl Workload, footprint: usize) -> u64 {
    let mut rng = SimRng::new(0xA110C);
    let mut bufs = vec![TxRequest::default(); THREADS];
    for _ in 0..WARM_UP {
        step(w, &mut bufs, &mut rng);
    }
    // A trace longer than any the warm-up drew may still come; size the
    // buffers for the longest possible one so only reuse is measured.
    for req in &mut bufs {
        req.accesses.reserve(footprint);
    }
    let ((), all, _) = allocations_during(|| {
        for _ in 0..MEASURED {
            step(w, &mut bufs, &mut rng);
        }
    });
    all
}

/// All audits share the binary-wide allocation counters, so they run as
/// one sequential test rather than racing ones.
#[test]
fn generation_does_not_allocate_in_steady_state() {
    // The guide-array detector must see a table build, or the "no table"
    // checks below would pass vacuously. A model's only other guide array
    // is its block mix's.
    let (_, _, guides) = allocations_during(|| ZipfTable::new(37, 0.9));
    assert_eq!(guides, 1, "a table build allocates exactly one guide array");

    let txs = WARM_UP + MEASURED;
    let benchmarks = Benchmark::STAMP
        .iter()
        .copied()
        .chain([Benchmark::Synth { blocks: 128 }]);
    for b in benchmarks {
        let mut first = b.instantiate(THREADS, txs);
        let (second, _, guides) = allocations_during(|| b.instantiate(THREADS, txs));
        assert_eq!(
            guides,
            1,
            "{}: a second instantiation built a Zipf table",
            b.spec()
        );

        let footprint = max_footprint(&first);
        let all = steady_state_allocations(&mut first, footprint);
        assert_eq!(
            all,
            0,
            "{}: next_into/regenerate/commit allocated",
            b.spec()
        );

        // The refinement adapter forwards `next_into` and reuses its own
        // scratch for refinement and commit.
        let mut refined = RefinedModel::new(second, 4);
        let all = steady_state_allocations(&mut refined, footprint);
        assert_eq!(all, 0, "{}+refined: generation allocated", b.spec());
    }
}
