//! Per-item supervision: deadline and panic isolation.
//!
//! The executor wraps every computed plan item in [`supervise`], which
//! runs it exactly once:
//!
//! ```text
//!   RUN ──ok──▶ DONE
//!   RUN ──panic / timeout──▶ FAILED (reported; `--resume` recomputes it)
//! ```
//!
//! * **Panic isolation** — the work runs under `catch_unwind`, so a
//!   poisoned cell (a tripped safety valve, a violated invariant) becomes
//!   a [`RunFailure::Panicked`] with the panic message, not a process
//!   abort. The default panic hook still prints, which is deliberate:
//!   the cell's stack trace is the evidence.
//! * **Deadline** — with a wall-clock limit configured, the work runs on
//!   its own OS thread and the supervisor waits with a timeout. On
//!   expiry the runaway thread is *detached* (a pure simulation holds no
//!   locks anyone else needs; it finishes into the void and its result is
//!   discarded) and the item counts as [`RunFailure::TimedOut`]. The
//!   simulated-cycle budget is enforced inside the kernel itself — the
//!   driver's event safety valve truncates the run, the runner panics on
//!   `truncated`, and that panic lands here as a `Panicked` failure.
//!
//! There is no in-process retry. A simulation is a pure function of its
//! key, so a panic repeats on every attempt; the only failure a second
//! try could change is a wall-clock timeout, and a `--resume` run against
//! the same store recomputes exactly the failed items.
//!
//! Determinism: supervision never touches the simulation's inputs. A
//! deadline can change *whether* a result is obtained, never *which*
//! result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;

/// Why a supervised item failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// The work panicked; carries the panic payload rendered as text.
    Panicked(String),
    /// The work exceeded the configured wall-clock deadline.
    TimedOut {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            RunFailure::TimedOut { limit } => {
                write!(f, "timed out after {} ms", limit.as_millis())
            }
        }
    }
}

/// Supervision knobs, normally read from the environment once per
/// executor ([`SupervisorConfig::from_env`]). The default has no
/// deadline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Wall-clock deadline per item (`SEER_CELL_TIMEOUT_MS`, default
    /// none — simulations are bounded by the kernel's cycle budget).
    pub timeout: Option<Duration>,
}

impl SupervisorConfig {
    /// Reads `SEER_CELL_TIMEOUT_MS`, warning once per process on an
    /// unparsable value (the harness's env discipline).
    pub fn from_env() -> Self {
        static TIMEOUT_WARNED: Once = Once::new();
        let mut cfg = Self::default();
        if let Ok(raw) = std::env::var("SEER_CELL_TIMEOUT_MS") {
            match raw.parse::<u64>() {
                Ok(ms) if ms > 0 => cfg.timeout = Some(Duration::from_millis(ms)),
                _ => TIMEOUT_WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid SEER_CELL_TIMEOUT_MS={raw:?} \
                         (expected a positive integer of milliseconds); \
                         running without a deadline"
                    );
                }),
            }
        }
        cfg
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` once under `cfg`: panics are caught, and with a deadline
/// configured the work runs on its own thread and is detached on expiry.
pub fn supervise<V, F>(cfg: &SupervisorConfig, work: F) -> Result<V, RunFailure>
where
    V: Send + 'static,
    F: FnOnce() -> V + Send + 'static,
{
    match cfg.timeout {
        None => catch_unwind(AssertUnwindSafe(work))
            .map_err(|payload| RunFailure::Panicked(panic_message(payload))),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(work))
                    .map_err(|payload| RunFailure::Panicked(panic_message(payload)));
                // The receiver may be gone (deadline passed); that is the
                // detach path and the result is deliberately discarded.
                let _ = tx.send(outcome);
            });
            match rx.recv_timeout(limit) {
                Ok(outcome) => outcome,
                Err(_) => Err(RunFailure::TimedOut { limit }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn success_is_transparent() {
        let cfg = SupervisorConfig::default();
        assert_eq!(supervise(&cfg, || 41 + 1), Ok(42));
    }

    #[test]
    fn panic_is_contained_and_reported() {
        let cfg = SupervisorConfig::default();
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let result: Result<(), _> = supervise(&cfg, move || {
            seen.fetch_add(1, Ordering::SeqCst);
            panic!("cell poisoned: boom")
        });
        match result.unwrap_err() {
            RunFailure::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a failing item runs once");
    }

    #[test]
    fn deadline_detaches_a_runaway() {
        let cfg = SupervisorConfig {
            timeout: Some(Duration::from_millis(20)),
        };
        let result: Result<(), _> = supervise(&cfg, || {
            std::thread::sleep(Duration::from_millis(500));
        });
        let failure = result.unwrap_err();
        assert!(matches!(failure, RunFailure::TimedOut { .. }), "{failure:?}");
    }

    #[test]
    fn deadline_passes_fast_work_through() {
        let cfg = SupervisorConfig {
            timeout: Some(Duration::from_secs(30)),
        };
        assert_eq!(supervise(&cfg, || 5u8), Ok(5));
    }
}
