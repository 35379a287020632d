//! Layer-isolated cross-checks. Each one times a single layer outside any
//! simulation run, so its figure does not add up with the in-run shares:
//! it confirms, from a second angle, a cost the in-run probes already
//! include in the driver's self time.

use std::time::Instant;

use seer_htm::{HtmConfig, HtmMachine};
use seer_sim::{Cycles, EventQueue, SimRng, Topology};

use crate::probe::RecordedTx;

/// Replays recorded access streams through a standalone [`HtmMachine`]
/// and returns host nanoseconds per access fed (0 without accesses).
///
/// Streams run round-robin in lanes of four threads, one access per lane
/// per step, so conflicts and capacity aborts happen as they would under
/// interleaving. A transaction that aborts (killed by another lane or by
/// its own capacity overflow) is dropped and its lane takes the next one,
/// so every access is fed at most once and the replay always ends.
pub fn htm_replay_ns_per_access(streams: &[&RecordedTx]) -> f64 {
    const LANES: usize = 4;
    let mut machine = HtmMachine::new(Topology::haswell_e3(), HtmConfig::default());
    let mut victims = Vec::new();
    let mut squeezed = Vec::new();
    // Lane i replays the streams at positions i, i + LANES, ... on
    // simulated thread i.
    let mut queues: Vec<std::vec::IntoIter<&RecordedTx>> = (0..LANES)
        .map(|lane| {
            streams
                .iter()
                .skip(lane)
                .step_by(LANES)
                .copied()
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    let mut current: Vec<Option<(&RecordedTx, usize)>> = vec![None; LANES];
    let mut fed = 0u64;
    let start = Instant::now();
    loop {
        let mut live = false;
        for lane in 0..LANES {
            if current[lane].is_none() {
                if let Some(tx) = queues[lane].next() {
                    machine.begin_into(lane, &mut squeezed);
                    current[lane] = Some((tx, 0));
                }
            }
            let Some((tx, pos)) = current[lane] else {
                continue;
            };
            live = true;
            if !machine.in_tx(lane) {
                current[lane] = None;
                continue;
            }
            match tx.get(pos) {
                Some(&(line, kind)) => {
                    fed += 1;
                    if machine
                        .access_into(lane, line, kind, &mut victims)
                        .is_some()
                    {
                        current[lane] = None;
                    } else {
                        current[lane] = Some((tx, pos + 1));
                    }
                }
                None => {
                    machine.commit(lane);
                    current[lane] = None;
                }
            }
        }
        if !live {
            break;
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&machine);
    crate::stats::share(ns, fed as f64)
}

/// Queue depths the driver runs at: one pending event per simulated
/// thread plus the maintenance tick, for 1, 4 and 8 threads.
pub const QUEUE_DEPTHS: [usize; 3] = [2, 5, 9];

/// Times [`EventQueue`] push+pop pairs in a hold model — pop the earliest
/// event, push one a random delay later — at each of [`QUEUE_DEPTHS`],
/// and returns host nanoseconds per push+pop pair over all depths.
pub fn queue_ns_per_op(ops_per_depth: usize) -> f64 {
    let mut rng = SimRng::new(0x51);
    let delays: Vec<Cycles> = (0..4096).map(|_| 1 + rng.below(4096)).collect();
    let mut total_ns = 0.0;
    let mut total_ops = 0usize;
    for depth in QUEUE_DEPTHS {
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().take(depth).enumerate() {
            q.push(d, i);
        }
        let start = Instant::now();
        for i in 0..ops_per_depth {
            let (now, payload) = q.pop().expect("hold model keeps the queue at depth");
            q.push(now + delays[i % delays.len()], payload);
        }
        total_ns += start.elapsed().as_nanos() as f64;
        total_ops += ops_per_depth;
        std::hint::black_box(q.trace_hash());
    }
    crate::stats::share(total_ns, total_ops as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_htm::AccessKind;

    #[test]
    fn replay_feeds_every_access_of_disjoint_streams() {
        let txs: Vec<RecordedTx> = (0..8u64)
            .map(|i| (0..10).map(|k| (i * 1000 + k, AccessKind::Write)).collect())
            .collect();
        let refs: Vec<&RecordedTx> = txs.iter().collect();
        assert!(htm_replay_ns_per_access(&refs) > 0.0);
        assert_eq!(htm_replay_ns_per_access(&[]), 0.0);
    }

    #[test]
    fn replay_survives_conflicting_streams() {
        // Every lane writes the same lines: lanes kill each other, and the
        // replay must still terminate.
        let txs: Vec<RecordedTx> = (0..16)
            .map(|_| (0..20).map(|k| (k, AccessKind::Write)).collect())
            .collect();
        let refs: Vec<&RecordedTx> = txs.iter().collect();
        assert!(htm_replay_ns_per_access(&refs) > 0.0);
    }

    #[test]
    fn queue_hold_model_times_every_pair() {
        assert!(queue_ns_per_op(10_000) > 0.0);
    }
}
