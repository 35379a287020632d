//! Seeded, splittable RNG plus the samplers the workload models need.
//!
//! Everything random in the reproduction flows through [`SimRng`] so that a
//! run is a pure function of `(config, seed)`. The paper averages 20
//! wall-clock runs on real hardware; we average over seeds instead
//! (`DESIGN.md` §2).
//!
//! The generator is a self-contained xoshiro256++ (seeded through
//! SplitMix64), so the simulation owns its entire entropy pipeline: no
//! external crate can silently change the stream between releases, which is
//! what the deterministic-replay fixtures in `seer-conformance` rely on.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::Cycles;

/// Deterministic simulation RNG.
///
/// A xoshiro256++ generator with domain helpers: integer ranges, Bernoulli
/// trials, bounded Zipf sampling (used by the STAMP workload models for
/// skewed data-structure access), and derived per-thread streams.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// One step of SplitMix64 over `state`, returning the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into the 256-bit state with SplitMix64, the
        // initialization the xoshiro authors recommend: it guarantees a
        // non-zero state and decorrelates adjacent seeds.
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream, e.g. one per simulated thread.
    ///
    /// Mixing the label through SplitMix64 decorrelates the child streams
    /// even for adjacent labels.
    pub fn derive(&self, label: u64) -> Self {
        let mut z = self.seed_fingerprint() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::new(z ^ (z >> 31))
    }

    fn seed_fingerprint(&self) -> u64 {
        // Clone so fingerprinting does not advance this stream.
        self.clone().next_u64()
    }

    /// Next 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32 random bits (upper half of a 64-bit step).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// If `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless bounded sampling: widen, multiply,
        // reject the biased low slice.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform cycle count in `[lo, hi]`, a convenience alias used by the
    /// workload trace generators.
    pub fn cycles_between(&mut self, lo: Cycles, hi: Cycles) -> Cycles {
        self.range_inclusive(lo, hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform float in `[0, 1)` (53 bits of precision).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples an index in `[0, n)` from a Zipf distribution with exponent
    /// `theta` via inverse-CDF over precomputed weights in [`ZipfTable`].
    ///
    /// The workload models construct a [`ZipfTable`] once and sample from it
    /// per access, so the O(n) normalization cost is paid only at setup;
    /// each draw costs one uniform and an O(1)-expected guide-table search
    /// (see [`CdfSampler`]).
    pub fn zipf(&mut self, table: &ZipfTable) -> usize {
        table.sample(self.unit())
    }
}

/// Inverse-CDF sampler over a non-decreasing cumulative table.
///
/// `sample(u)` returns the smallest index `i` with `cdf[i] >= u`, clamped
/// to the last index — exactly `cdf.partition_point(|&c| c < u).min(n - 1)`
/// — but finds it through a *guide table* (Chen & Asau 1974; Devroye,
/// *Non-Uniform Random Variate Generation*, §III.2.4) instead of a binary
/// search. `guide[k]` is the smallest `i` with `cdf[i] >= k/n` (clamped to
/// `n - 1`); a draw starts at `guide[floor(u·n)]`, steps back while the
/// previous entry still covers `u` (which absorbs the rounding of `u·n`
/// and of `k/n`) and forward while the current one does not. The two
/// walks alone make the result exact for any start index, so the guide
/// only decides speed: the forward walk crosses the CDF entries inside
/// one of `n` equal-width buckets, which is at most one entry on average
/// over a uniform `u`, making each draw O(1) expected.
///
/// The last entry need not be 1.0 (a block-mix CDF summed in floating
/// point may end just below it); draws above it map to the last index.
#[derive(Debug, Clone)]
pub struct CdfSampler {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl CdfSampler {
    /// Builds a sampler over `cdf`, which must be non-decreasing.
    ///
    /// # Panics
    /// If `cdf` is empty or has more than `u32::MAX` entries.
    pub fn new(cdf: Vec<f64>) -> Self {
        let n = cdf.len();
        assert!(n > 0, "CdfSampler over an empty table");
        assert!(u32::try_from(n).is_ok(), "CdfSampler over {n} entries");
        debug_assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "CDF must be monotone");
        // One sweep: the thresholds k/n rise with k, so the cursor only
        // moves forward.
        let mut guide = Vec::with_capacity(n);
        let mut i = 0;
        for k in 0..n {
            let threshold = k as f64 / n as f64;
            while i < n - 1 && cdf[i] < threshold {
                i += 1;
            }
            guide.push(i as u32);
        }
        Self { cdf, guide }
    }

    /// A sampler drawing index `i` with probability `w[i] / Σ w` over the
    /// relative `weights`. Its CDF is the running sum of the normalised
    /// weights, so it may end just off 1.0.
    ///
    /// # Panics
    /// If `weights` is empty or does not sum to a positive total.
    pub fn from_weights(weights: impl Iterator<Item = f64> + Clone) -> Self {
        let total: f64 = weights.clone().sum();
        assert!(total > 0.0, "total weight must be positive");
        let mut acc = 0.0;
        Self::new(
            weights
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    }

    /// Maps a uniform draw `u in [0, 1)` to an index by guide-table search.
    pub fn sample(&self, u: f64) -> usize {
        self.walk(self.start(u), u)
    }

    /// [`CdfSampler::sample`] over a batch: `out[i] = sample(us[i])`.
    ///
    /// Each draw's cost is two dependent cache misses on a large table,
    /// the guide entry and then the CDF entry it names. The batch issues
    /// every guide load first, then touches every CDF entry the guides
    /// name, then runs the walks, so the misses of one phase overlap each
    /// other instead of serialising draw by draw.
    ///
    /// # Panics
    /// If `us` and `out` differ in length.
    pub fn sample_batch(&self, us: &[f64], out: &mut [usize]) {
        assert_eq!(us.len(), out.len(), "one output slot per draw");
        for (i, &u) in out.iter_mut().zip(us) {
            *i = self.start(u);
        }
        let touched = out.iter().fold(0, |acc, &i| acc ^ self.cdf[i].to_bits());
        std::hint::black_box(touched);
        for (i, &u) in out.iter_mut().zip(us) {
            *i = self.walk(*i, u);
        }
    }

    /// The guide-table entry for `u`: where its walk starts.
    #[inline]
    fn start(&self, u: f64) -> usize {
        let n = self.cdf.len();
        self.guide[((u * n as f64) as usize).min(n - 1)] as usize
    }

    /// Walks from `i` to the smallest index whose CDF entry covers `u`
    /// (clamped to the last index); exact for any start.
    #[inline]
    fn walk(&self, mut i: usize, u: f64) -> usize {
        let cdf = &self.cdf;
        let n = cdf.len();
        while i > 0 && cdf[i - 1] >= u {
            i -= 1;
        }
        while i < n - 1 && cdf[i] < u {
            i += 1;
        }
        debug_assert_eq!(i, cdf.partition_point(|&c| c < u).min(n - 1));
        i
    }
}

/// [`ZipfTable::shared`]'s tables, keyed on `(n, theta.to_bits())`.
type TableCache = HashMap<(usize, u64), Arc<ZipfTable>>;

/// Precomputed cumulative weights for bounded Zipf sampling.
///
/// Element `i` (0-based) has weight `1 / (i + 1)^theta`. `theta = 0` is
/// uniform; larger `theta` concentrates probability on low indices, which
/// the workload models use for hot-spot data structures (e.g. the intruder
/// work-queue head).
#[derive(Debug, Clone)]
pub struct ZipfTable {
    sampler: CdfSampler,
}

impl ZipfTable {
    /// Builds a table over `n` elements with exponent `theta >= 0`.
    ///
    /// # Panics
    /// If `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "ZipfTable over zero elements");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "invalid Zipf exponent {theta}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        // Guard against floating-point round-off at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self {
            sampler: CdfSampler::new(cdf),
        }
    }

    /// The table over `(n, theta)`, built on first request and shared for
    /// the rest of the process.
    ///
    /// Workload models request the same few tables over and over (every
    /// sweep cell re-instantiates its benchmark, and a many-block synthetic
    /// model repeats one region shape per block), so the cache keys on
    /// `(n, theta.to_bits())` — bitwise, so tables built from different
    /// exponents never alias — and keeps every table it builds. Its size is
    /// bounded by the distinct parameters a process uses.
    ///
    /// # Panics
    /// As [`ZipfTable::new`].
    pub fn shared(n: usize, theta: f64) -> Arc<ZipfTable> {
        static TABLES: OnceLock<Mutex<TableCache>> = OnceLock::new();
        // A panic inside `new` (bad parameters) inserts nothing, so a
        // poisoned map is still consistent.
        let mut tables = TABLES
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            tables
                .entry((n, theta.to_bits()))
                .or_insert_with(|| Arc::new(ZipfTable::new(n, theta))),
        )
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sampler.cdf.len()
    }

    /// Always false: [`ZipfTable::new`] rejects empty tables. Present for
    /// API symmetry with [`ZipfTable::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps a uniform draw `u in [0, 1)` to an index by guide-table search
    /// (O(1) expected; see [`CdfSampler`]).
    pub fn sample(&self, u: f64) -> usize {
        debug_assert!((0.0..=1.0).contains(&u));
        self.sampler.sample(u)
    }

    /// [`ZipfTable::sample`] over a batch of draws (see
    /// [`CdfSampler::sample_batch`]).
    ///
    /// # Panics
    /// If `us` and `out` differ in length.
    pub fn sample_batch(&self, us: &[f64], out: &mut [usize]) {
        debug_assert!(us.iter().all(|u| (0.0..=1.0).contains(u)));
        self.sampler.sample_batch(us, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_deterministic_and_decorrelated() {
        let root = SimRng::new(7);
        let mut c1 = root.derive(0);
        let mut c1b = root.derive(0);
        let mut c2 = root.derive(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(13);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SimRng::new(17);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = SimRng::new(19);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match r.range_inclusive(5, 7) {
                5 => saw_lo = true,
                7 => saw_hi = true,
                6 => {}
                v => panic!("out of range: {v}"),
            }
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(r.range_inclusive(9, 9), 9);
    }

    #[test]
    fn fill_bytes_varies() {
        let mut r = SimRng::new(23);
        let mut a = [0u8; 13];
        let mut b = [0u8; 13];
        r.fill_bytes(&mut a);
        r.fill_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rough_frequency() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let table = ZipfTable::new(4, 0.0);
        let mut r = SimRng::new(5);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.zipf(&table)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn zipf_skews_to_head() {
        let table = ZipfTable::new(100, 1.2);
        let mut r = SimRng::new(5);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if r.zipf(&table) < 10 {
                head += 1;
            }
        }
        // With theta=1.2 the first 10 of 100 elements carry well over half
        // of the probability mass.
        assert!(head > n / 2, "head draws = {head}");
    }

    #[test]
    fn zipf_sample_boundaries() {
        let table = ZipfTable::new(3, 1.0);
        assert_eq!(table.sample(0.0), 0);
        assert!(table.sample(0.999_999) < 3);
        assert_eq!(table.len(), 3);
    }
}
