//! Memory footprint of Seer's statistics, pinned by a byte-counting
//! allocator (`engine_alloc.rs` style, counting bytes instead of calls).
//!
//! Without decay, the only `blocks²` structure a `Seer` owns is the merged
//! commit/abort matrix pair: registrations fold straight into it, so no
//! per-thread table is built. With decay, every thread keeps its own table
//! pair as well, because integer halving does not distribute over the sum.
//! At 1024 blocks and 8 threads the difference is 128 MiB, so a change that
//! brings back tables nothing reads fails here, not only in a benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seer::{Seer, SeerConfig};

struct ByteCountingAllocator;

thread_local! {
    /// Bytes requested by this thread; per-thread so that tests running in
    /// parallel do not see each other's allocations.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot is unavailable while the thread is torn down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: ByteCountingAllocator = ByteCountingAllocator;

const THREADS: usize = 8;
const BLOCKS: usize = 1024;
/// One commit/abort matrix pair of `u64` counters.
const MATRIX_PAIR_BYTES: u64 = 2 * (BLOCKS * BLOCKS) as u64 * 8;
const MIB: u64 = 1 << 20;

/// Bytes requested while building a `Seer` over `cfg` (the instance is
/// dropped afterwards, which frees but does not uncount).
fn bytes_to_build(cfg: SeerConfig) -> u64 {
    let before = REQUESTED.with(Cell::get);
    let seer = Seer::new(cfg, THREADS, BLOCKS);
    let after = REQUESTED.with(Cell::get);
    drop(seer);
    after - before
}

#[test]
fn without_decay_only_the_merged_matrices_are_allocated() {
    let bytes = bytes_to_build(SeerConfig::full());
    assert!(
        bytes <= MATRIX_PAIR_BYTES + MIB,
        "Seer::new requested {bytes} bytes; one matrix pair is {MATRIX_PAIR_BYTES}"
    );
}

#[test]
fn with_decay_every_thread_keeps_its_tables() {
    let bytes = bytes_to_build(SeerConfig::with_decay(1));
    let tables = (THREADS as u64 + 1) * MATRIX_PAIR_BYTES;
    assert!(
        bytes >= tables,
        "Seer::new requested {bytes} bytes; merged + {THREADS} per-thread pairs are {tables}"
    );
}
