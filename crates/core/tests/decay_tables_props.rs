//! Keeping per-thread statistics tables changes nothing but memory.
//!
//! `Seer` builds its per-thread `ThreadStats` tables only when decay is
//! configured; every registration is folded straight into the merged
//! matrices either way. These properties drive the same random hook stream
//! through two schedulers that differ only in that respect — one without
//! decay (no tables), one with `decay_every_updates = Some(u64::MAX)`,
//! which builds and fills the tables but never reaches a decay round — and
//! require every observable to agree after every single hook.

use proptest::prelude::*;
use seer::{Seer, SeerConfig};
use seer_htm::XStatus;
use seer_runtime::{LockBank, NullTraceSink, SchedEnv, SchedFault, Scheduler};
use seer_sim::{SimRng, Topology};

const MAX_BLOCKS: usize = 6;

/// One scheduler hook, applied identically to both schedulers.
#[derive(Debug, Clone, Copy)]
enum Hook {
    TxStart {
        thread: usize,
        block: usize,
    },
    Abort {
        thread: usize,
        capacity: bool,
        attempts_left: u32,
    },
    HtmCommit {
        thread: usize,
    },
    Periodic,
    WipeStats,
}

fn arb_hook() -> impl Strategy<Value = Hook> {
    (0usize..12, 0usize..4, 0usize..MAX_BLOCKS, 0u32..5).prop_map(
        |(tag, thread, block, attempts_left)| match tag {
            0..=3 => Hook::TxStart { thread, block },
            4..=6 => Hook::Abort {
                thread,
                capacity: block % 3 == 0,
                attempts_left,
            },
            7..=9 => Hook::HtmCommit { thread },
            10 => Hook::Periodic,
            _ => Hook::WipeStats,
        },
    )
}

/// The paper configuration with short update and climb periods, so a short
/// stream still runs many inference rounds and threshold moves.
fn base_config() -> SeerConfig {
    SeerConfig {
        update_period_execs: 3,
        climb_period_execs: 5,
        ..SeerConfig::full()
    }
}

/// Applies `hook` to `seer` at virtual time `now`; abort and commit hooks
/// name the block the thread last started.
fn apply(
    seer: &mut Seer,
    hook: Hook,
    running: &[usize],
    now: u64,
    bank: &LockBank,
    rng: &mut SimRng,
) {
    let mut sink = NullTraceSink;
    let mut env = SchedEnv {
        now,
        locks: bank,
        topology: Topology::haswell_e3(),
        rng,
        trace: &mut sink,
    };
    match hook {
        Hook::TxStart { thread, block } => seer.on_tx_start(thread, block, &mut env),
        Hook::Abort {
            thread,
            capacity,
            attempts_left,
        } => {
            let status = if capacity {
                XStatus::capacity()
            } else {
                XStatus::conflict()
            };
            seer.on_abort(thread, running[thread], status, attempts_left, &mut env);
        }
        Hook::HtmCommit { thread } => seer.on_htm_commit(thread, running[thread], &mut env),
        Hook::Periodic => seer.on_periodic(&mut env),
        Hook::WipeStats => seer.on_fault(&SchedFault::WipeStats, &mut env),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tables_that_never_decay_change_no_observable(
        threads in 2usize..5,
        blocks in 1usize..(MAX_BLOCKS + 1),
        hooks in prop::collection::vec(arb_hook(), 1..120),
    ) {
        let mut without = Seer::new(base_config(), threads, blocks);
        let mut with = Seer::new(
            SeerConfig { decay_every_updates: Some(u64::MAX), ..base_config() },
            threads,
            blocks,
        );
        let bank = LockBank::new(4, blocks);
        let (mut rng_without, mut rng_with) = (SimRng::new(7), SimRng::new(7));
        let mut running = vec![0; threads];
        for (step, hook) in hooks.into_iter().enumerate() {
            // Fold the generated ids into this case's thread and block ranges.
            let hook = match hook {
                Hook::TxStart { thread, block } => {
                    running[thread % threads] = block % blocks;
                    Hook::TxStart { thread: thread % threads, block: block % blocks }
                }
                Hook::Abort { thread, capacity, attempts_left } => {
                    Hook::Abort { thread: thread % threads, capacity, attempts_left }
                }
                Hook::HtmCommit { thread } => Hook::HtmCommit { thread: thread % threads },
                other => other,
            };
            let now = 100 * (step as u64 + 1);
            apply(&mut without, hook, &running, now, &bank, &mut rng_without);
            apply(&mut with, hook, &running, now, &bank, &mut rng_with);

            prop_assert_eq!(without.merged_stats().digest(), with.merged_stats().digest());
            prop_assert_eq!(without.inferred_pairs(), with.inferred_pairs());
            prop_assert_eq!(without.update_history(), with.update_history());
            prop_assert_eq!(without.counters(), with.counters());
            prop_assert_eq!(without.thresholds(), with.thresholds());
        }
    }
}
