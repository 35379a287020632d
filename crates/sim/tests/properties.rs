//! Property-based tests for the simulation substrate.

use std::sync::Arc;

use proptest::prelude::*;
use seer_sim::{CdfSampler, EventQueue, SimLock, SimRng, ZipfTable};

/// The binary search the guide table replaces: the first index whose CDF
/// entry covers `u`, clamped to the last index.
fn partition_oracle(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// A cumulative table over `weights` (zero weights repeat the previous
/// entry). `tail` picks how it is summed: 0 normalises exact integer
/// partial sums, so it ends at exactly 1.0 (as `ZipfTable` does); 1 sums
/// the normalised weights, so it may end just off 1.0 (as a block-mix CDF
/// does); 2 scales the table so it ends clearly below 1.0.
fn cdf_of(weights: &[u8], tail: u8) -> Vec<f64> {
    let total: f64 = weights.iter().map(|&w| f64::from(w)).sum::<f64>().max(1.0);
    let mut acc = 0.0;
    weights
        .iter()
        .map(|&w| match tail {
            0 => {
                acc += f64::from(w);
                acc / total
            }
            1 => {
                acc += f64::from(w) / total;
                acc
            }
            _ => {
                acc += f64::from(w) / total;
                acc * 0.9
            }
        })
        .collect()
}

/// The draws most likely to expose an off-by-one: 0, 1, every bucket
/// edge `k/n`, every CDF entry, and their immediate floating-point
/// neighbours.
fn edge_draws(cdf: &[f64]) -> Vec<f64> {
    let n = cdf.len();
    let mut draws = vec![0.0, f64::MIN_POSITIVE, 1.0f64.next_down(), 1.0];
    for k in 0..=n {
        draws.push(k as f64 / n as f64);
    }
    draws.extend_from_slice(cdf);
    let points = draws.clone();
    for u in points {
        draws.push(u.next_down());
        draws.push(u.next_up());
    }
    // `ZipfTable::sample` accepts the closed interval.
    draws.retain(|u| (0.0..=1.0).contains(u));
    draws
}

#[test]
fn cdf_sampler_single_entry_always_returns_zero() {
    for last in [1.0, 0.5, 0.0] {
        let sampler = CdfSampler::new(vec![last]);
        for u in [0.0, 0.25, 0.5, 0.75, 1.0f64.next_down()] {
            assert_eq!(sampler.sample(u), 0);
        }
    }
}

#[test]
fn shared_zipf_tables_are_keyed_on_exact_parameters() {
    let a = ZipfTable::shared(96, 0.6);
    let b = ZipfTable::shared(96, 0.6);
    assert!(Arc::ptr_eq(&a, &b), "equal parameters must share one table");
    let nudged = ZipfTable::shared(96, 0.6f64.next_up());
    assert!(!Arc::ptr_eq(&a, &nudged), "a 1-ulp theta change is a new table");
    let wider = ZipfTable::shared(97, 0.6);
    assert!(!Arc::ptr_eq(&a, &wider), "a different n is a new table");
    assert_eq!((a.len(), wider.len()), (96, 97));
}

proptest! {
    /// The event queue pops a total order: non-decreasing times, and FIFO
    /// among equal times — equivalent to a stable sort by time.
    #[test]
    fn event_queue_is_a_stable_sort(times in prop::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped, expected);
    }

    /// Interleaved pushes and pops still never go backwards in time, as
    /// long as pushes respect the watermark.
    #[test]
    fn event_queue_time_is_monotone(ops in prop::collection::vec((0u64..50, any::<bool>()), 1..300)) {
        let mut q = EventQueue::new();
        let mut last = 0u64;
        for (dt, pop) in ops {
            if pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            } else {
                q.push(last + dt, ());
            }
        }
    }

    /// Zipf sampling never leaves the table's bounds and the CDF is
    /// monotone.
    #[test]
    fn zipf_sample_in_bounds(n in 1usize..500, theta in 0.0f64..2.5, seed in any::<u64>()) {
        let table = ZipfTable::new(n, theta);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let i = rng.zipf(&table);
            prop_assert!(i < n);
        }
        // Monotone: higher u never maps to an earlier index... not strictly
        // required by the API, but partition_point over a CDF implies it.
        let lo = table.sample(0.0);
        let hi = table.sample(0.999_999_9);
        prop_assert!(lo <= hi);
    }

    /// The guide-table search returns exactly the binary search's index
    /// for every draw, on tables with ties, zero-weight runs and a last
    /// entry below 1.0, at every bucket edge and CDF value.
    #[test]
    fn cdf_sampler_matches_partition_point(
        weights in prop::collection::vec(0u8..4, 1..64),
        tail in 0u8..3,
        seed in any::<u64>(),
    ) {
        let cdf = cdf_of(&weights, tail);
        let sampler = CdfSampler::new(cdf.clone());
        for u in edge_draws(&cdf) {
            prop_assert_eq!(sampler.sample(u), partition_oracle(&cdf, u), "u = {}", u);
        }
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let u = rng.unit();
            prop_assert_eq!(sampler.sample(u), partition_oracle(&cdf, u), "u = {}", u);
        }
    }

    /// The batched search equals per-draw `sample` and the binary search
    /// on the same tie-heavy tables, tables ending below 1.0, every bucket
    /// edge and CDF value, and random draws, in batches of every length
    /// up to 40 (the edge draws are shuffled so a batch mixes regions).
    #[test]
    fn cdf_sampler_batch_matches_single_draws(
        weights in prop::collection::vec(0u8..4, 1..64),
        tail in 0u8..3,
        seed in any::<u64>(),
    ) {
        let cdf = cdf_of(&weights, tail);
        let sampler = CdfSampler::new(cdf.clone());
        let mut rng = SimRng::new(seed);
        let mut draws = edge_draws(&cdf);
        for i in (1..draws.len()).rev() {
            draws.swap(i, rng.below(i as u64 + 1) as usize);
        }
        draws.extend((0..200).map(|_| rng.unit()));
        let mut rest = &draws[..];
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at((rng.below(40) as usize + 1).min(rest.len()));
            let mut out = vec![usize::MAX; batch.len()];
            sampler.sample_batch(batch, &mut out);
            for (&u, &i) in batch.iter().zip(&out) {
                prop_assert_eq!(i, sampler.sample(u), "u = {}", u);
                prop_assert_eq!(i, partition_oracle(&cdf, u), "u = {}", u);
            }
            rest = tail;
        }
    }

    /// The same exactness, single and batched, on real Zipf tables, whose
    /// entries cluster far more unevenly across the guide buckets than
    /// small random tables.
    #[test]
    fn zipf_guide_matches_partition_point(n in 1usize..2_000, theta in 0.0f64..2.5) {
        let table = ZipfTable::new(n, theta);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        *cdf.last_mut().unwrap() = 1.0;
        let draws = edge_draws(&cdf);
        let mut batched = vec![0; draws.len()];
        table.sample_batch(&draws, &mut batched);
        for (&u, &i) in draws.iter().zip(&batched) {
            prop_assert_eq!(table.sample(u), partition_oracle(&cdf, u), "u = {}", u);
            prop_assert_eq!(i, partition_oracle(&cdf, u), "batched u = {}", u);
        }
    }

    /// Same seed => identical stream; derive(label) deterministic.
    #[test]
    fn rng_reproducibility(seed in any::<u64>(), label in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut da = SimRng::new(seed).derive(label);
        let mut db = SimRng::new(seed).derive(label);
        prop_assert_eq!(da.next_u64(), db.next_u64());
    }

    /// A lock subjected to arbitrary acquire/release/queue operations never
    /// double-grants ownership and conserves its waiters.
    #[test]
    fn lock_never_double_grants(ops in prop::collection::vec(0u8..4, 1..200)) {
        let mut lock = SimLock::new();
        let threads = 4usize;
        let mut parked: Vec<bool> = vec![false; threads];
        let mut now = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            now += 1;
            let t = i % threads;
            match op {
                0 => {
                    if !lock.is_held_by(t) && lock.try_acquire(t, now) {
                        prop_assert!(lock.is_held_by(t));
                    }
                }
                1 => {
                    if lock.is_held_by(t) {
                        let wake = lock.release(t, now);
                        prop_assert!(!lock.is_locked());
                        for a in &wake.acquirers {
                            prop_assert!(parked[*a]);
                            parked[*a] = false;
                        }
                    }
                }
                2 => {
                    if !lock.is_held_by(t) && !parked[t] && lock.is_locked() {
                        lock.enqueue_acquirer(t);
                        parked[t] = true;
                    }
                }
                _ => {
                    lock.add_watcher(t);
                }
            }
        }
    }
}
