//! Generic STAMP workload model machinery.
//!
//! Each STAMP application is described as a [`StampModel`]: a set of atomic
//! blocks ([`StampBlock`]), each touching one or more shared *regions*
//! ([`RegionUse`], modelling a shared data structure: a hash table, a tree,
//! a work queue, cluster centers, …) plus thread-private filler accesses.
//! The parameters control exactly the properties a scheduler can observe —
//! which pairs of blocks conflict (region overlap and write rates),
//! transaction footprint (capacity pressure), transaction length and
//! inter-transaction think time — and are calibrated per benchmark in the
//! sibling modules to reproduce the contention regimes reported for STAMP
//! (Minh et al., IISWC'08) and the relative scheduler behaviour of the
//! Seer paper's Figure 3. See `DESIGN.md` §2 for the substitution argument.

use std::sync::Arc;

use seer_htm::AccessKind;
use seer_runtime::{Access, TxRequest, Workload};
use seer_sim::{CdfSampler, Cycles, SimRng, ThreadId, ZipfTable};

/// Inclusive integer range used for per-transaction draws.
pub type Range = (u64, u64);

/// One shared data structure touched by an atomic block.
#[derive(Debug, Clone)]
pub struct RegionUse {
    /// Region identifier: blocks referencing the same id share lines and
    /// can conflict. Each id owns a disjoint slice of the address space.
    pub region: u64,
    /// Number of cache lines in the region.
    pub lines: u64,
    /// Zipf exponent of line selection (0 = uniform; higher = hot head).
    pub theta: f64,
    /// Reads into the region per transaction (inclusive range).
    pub reads: Range,
    /// Writes into the region per transaction (inclusive range).
    pub writes: Range,
}

/// One atomic block of a STAMP application.
#[derive(Debug, Clone)]
pub struct StampBlock {
    /// Human-readable name (e.g. `"dedup-insert"`).
    pub name: &'static str,
    /// Relative frequency in the transaction mix.
    pub weight: f64,
    /// Shared structures this block touches.
    pub regions: Vec<RegionUse>,
    /// Thread-private read accesses (buffer scans, locals spilt to memory).
    pub private_reads: Range,
    /// Thread-private write accesses.
    pub private_writes: Range,
    /// Uniform range of cycles between consecutive accesses.
    pub spacing: Range,
    /// Uniform range of non-transactional cycles before the transaction.
    pub think: Range,
}

impl Default for StampBlock {
    fn default() -> Self {
        Self {
            name: "block",
            weight: 1.0,
            regions: Vec::new(),
            private_reads: (4, 10),
            private_writes: (0, 2),
            spacing: (6, 16),
            think: (100, 300),
        }
    }
}

/// A complete STAMP application model.
#[derive(Debug, Clone)]
pub struct StampModel {
    name: String,
    blocks: Vec<StampBlock>,
    block_mix: CdfSampler,
    /// Per block, per region: the shared (process-wide) line table.
    zipf: Vec<Vec<Arc<ZipfTable>>>,
    remaining: Vec<usize>,
    private_cursor: Vec<u64>,
    /// Scratch for one region's batch of Zipf draws: the uniforms, then
    /// the line indices they map to. Empty until the first trace, then
    /// sized once for the largest region batch.
    uniforms: Vec<f64>,
    indices: Vec<usize>,
    /// Largest `reads.1 + writes.1` over every block's regions.
    max_batch: usize,
}

/// Address-space stride between shared regions (each region id owns one
/// `REGION_STRIDE`-line slice; exported for the granularity-refinement
/// adapter in [`crate::refined`]).
pub const REGION_STRIDE: u64 = 1 << 24;
/// First cache line of the thread-private address space.
pub const PRIVATE_BASE: u64 = 1 << 44;
const PRIVATE_STRIDE: u64 = 1 << 22;
const PRIVATE_WINDOW: u64 = 1 << 16;

impl StampModel {
    /// Builds a model named `name` over `blocks`, giving each of `threads`
    /// threads `txs_per_thread` transactions to execute.
    ///
    /// # Panics
    /// If `blocks` is empty or total weight is non-positive.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<StampBlock>,
        threads: usize,
        txs_per_thread: usize,
    ) -> Self {
        assert!(!blocks.is_empty(), "a model needs at least one block");
        let block_mix = CdfSampler::from_weights(blocks.iter().map(|b| b.weight));
        let zipf = blocks
            .iter()
            .map(|b| {
                b.regions
                    .iter()
                    .map(|r| ZipfTable::shared(r.lines.max(1) as usize, r.theta))
                    .collect()
            })
            .collect();
        let max_batch = blocks
            .iter()
            .flat_map(|b| &b.regions)
            .map(|r| (r.reads.1 + r.writes.1) as usize)
            .max()
            .unwrap_or(0);
        Self {
            name: name.into(),
            blocks,
            block_mix,
            zipf,
            remaining: vec![txs_per_thread; threads],
            private_cursor: (0..threads as u64).map(|t| t * PRIVATE_STRIDE).collect(),
            uniforms: Vec::new(),
            indices: Vec::new(),
            max_batch,
        }
    }

    /// The blocks of this model.
    pub fn blocks(&self) -> &[StampBlock] {
        &self.blocks
    }

    /// Name of block `id`.
    pub fn block_name(&self, id: usize) -> &'static str {
        self.blocks[id].name
    }

    fn pick_block(&self, rng: &mut SimRng) -> usize {
        self.block_mix.sample(rng.unit())
    }

    fn draw(rng: &mut SimRng, range: Range) -> u64 {
        rng.range_inclusive(range.0, range.1)
    }

    /// Overwrites `req` with a fresh trace of `block`, reusing
    /// `req.accesses`' allocation.
    fn fill_trace(
        &mut self,
        thread: ThreadId,
        block: usize,
        req: &mut TxRequest,
        rng: &mut SimRng,
    ) {
        let spec = &self.blocks[block];
        // Collect the line/kind pairs first (offsets are set after the
        // shuffle), then lay them out in time.
        let accesses = &mut req.accesses;
        accesses.clear();
        let mut pick = |line, kind| accesses.push(Access { line, kind, offset: 0 });
        let (uniforms, indices) = (&mut self.uniforms, &mut self.indices);
        uniforms.reserve(self.max_batch);
        indices.reserve(self.max_batch);
        for (r, zipf) in spec.regions.iter().zip(&self.zipf[block]) {
            let base = r.region * REGION_STRIDE;
            let n_reads = Self::draw(rng, r.reads) as usize;
            let n_writes = Self::draw(rng, r.writes) as usize;
            // The region's draws in stream order (reads, then writes),
            // mapped to lines in one batch.
            uniforms.clear();
            uniforms.extend((0..n_reads + n_writes).map(|_| rng.unit()));
            indices.clear();
            indices.resize(uniforms.len(), 0);
            zipf.sample_batch(uniforms, indices);
            for (i, &line) in indices.iter().enumerate() {
                let kind = if i < n_reads { AccessKind::Read } else { AccessKind::Write };
                pick(base + line as u64, kind);
            }
        }
        let pr = Self::draw(rng, spec.private_reads);
        let pw = Self::draw(rng, spec.private_writes);
        let cursor = &mut self.private_cursor[thread];
        for i in 0..(pr + pw) {
            *cursor += 1;
            let line = PRIVATE_BASE + thread as u64 * PRIVATE_STRIDE + (*cursor % PRIVATE_WINDOW);
            let kind = if i < pr { AccessKind::Read } else { AccessKind::Write };
            pick(line, kind);
        }
        // Deterministic Fisher–Yates shuffle so reads/writes and regions
        // interleave in time the way real code interleaves structures.
        for i in (1..accesses.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            accesses.swap(i, j);
        }
        let mut offset: Cycles = 0;
        for a in accesses.iter_mut() {
            offset += Self::draw(rng, spec.spacing);
            a.offset = offset;
        }
        req.block = block;
        req.duration = offset + Self::draw(rng, spec.spacing);
        req.think = Self::draw(rng, spec.think);
    }
}

impl Workload for StampModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let mut req = TxRequest::default();
        self.next_into(thread, &mut req, rng).then_some(req)
    }

    fn next_into(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) -> bool {
        if self.remaining[thread] == 0 {
            return false;
        }
        self.remaining[thread] -= 1;
        let block = self.pick_block(rng);
        self.fill_trace(thread, block, req, rng);
        true
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        // The rebuild draws a fresh think time like any trace build; it is
        // discarded (the original was already spent) but still drawn, so
        // the RNG stream is the one a full build consumes.
        let think = req.think;
        self.fill_trace(thread, req.block, req, rng);
        req.think = think;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_model(threads: usize, txs: usize) -> StampModel {
        StampModel::new(
            "test",
            vec![
                StampBlock {
                    name: "a",
                    weight: 3.0,
                    regions: vec![RegionUse {
                        region: 0,
                        lines: 128,
                        theta: 0.5,
                        reads: (5, 10),
                        writes: (1, 3),
                    }],
                    ..StampBlock::default()
                },
                StampBlock {
                    name: "b",
                    weight: 1.0,
                    regions: vec![RegionUse {
                        region: 1,
                        lines: 64,
                        theta: 0.0,
                        reads: (2, 4),
                        writes: (0, 1),
                    }],
                    ..StampBlock::default()
                },
            ],
            threads,
            txs,
        )
    }

    #[test]
    fn traces_well_formed_and_quota_respected() {
        let mut m = simple_model(2, 50);
        let mut rng = SimRng::new(1);
        let mut count = 0;
        while let Some(req) = m.next(0, &mut rng) {
            assert!(req.is_well_formed());
            assert!(req.block < 2);
            count += 1;
        }
        assert_eq!(count, 50);
        assert!(m.next(0, &mut rng).is_none());
        assert!(m.next(1, &mut rng).is_some());
    }

    #[test]
    fn block_mix_follows_weights() {
        let mut m = simple_model(1, 4000);
        let mut rng = SimRng::new(2);
        let mut counts = [0usize; 2];
        while let Some(req) = m.next(0, &mut rng) {
            counts[req.block] += 1;
        }
        // Weight 3:1 → roughly 3000/1000.
        assert!((2_700..3_300).contains(&counts[0]), "counts {counts:?}");
    }

    #[test]
    fn regions_are_disjoint_between_ids() {
        let mut m = simple_model(1, 200);
        let mut rng = SimRng::new(3);
        let mut region0_lines = std::collections::HashSet::new();
        let mut region1_lines = std::collections::HashSet::new();
        while let Some(req) = m.next(0, &mut rng) {
            for a in &req.accesses {
                if a.line < PRIVATE_BASE {
                    if req.block == 0 {
                        region0_lines.insert(a.line);
                    } else {
                        region1_lines.insert(a.line);
                    }
                }
            }
        }
        assert!(region0_lines.is_disjoint(&region1_lines));
    }

    #[test]
    fn regenerate_preserves_block_and_think() {
        let mut m = simple_model(1, 10);
        let mut rng = SimRng::new(4);
        let mut req = m.next(0, &mut rng).unwrap();
        let (block, think) = (req.block, req.think);
        m.regenerate(0, &mut req, &mut rng);
        assert_eq!(req.block, block);
        assert_eq!(req.think, think);
        assert!(req.is_well_formed());
    }

    #[test]
    fn private_lines_differ_between_threads() {
        let mut m = simple_model(2, 5);
        let mut rng = SimRng::new(5);
        let collect = |m: &mut StampModel, th: usize, rng: &mut SimRng| {
            let mut lines = std::collections::HashSet::new();
            while let Some(req) = m.next(th, rng) {
                for a in &req.accesses {
                    if a.line >= PRIVATE_BASE {
                        lines.insert(a.line);
                    }
                }
            }
            lines
        };
        let l0 = collect(&mut m, 0, &mut rng);
        let l1 = collect(&mut m, 1, &mut rng);
        assert!(l0.is_disjoint(&l1));
    }
}
