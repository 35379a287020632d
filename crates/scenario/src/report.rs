//! Re-convergence scoring: how a scheduler reacts to disturbances.
//!
//! A [`RecoveryReport`] is computed purely from artefacts the run already
//! produces — the windowed lifecycle metrics
//! (`seer_runtime::WindowedMetrics`) and the inference trace stream — so
//! scoring adds nothing to the simulation and cannot perturb it. For each
//! (coalesced) disturbance in the spec, a [`RecoveryScore`] measures:
//!
//! * **baseline** — mean window throughput between the previous
//!   disturbance (or run start) and the disturbance;
//! * **regression depth** — `1 − min/baseline` over the windows before
//!   the next disturbance (0 = no dip);
//! * **time to re-converge** — cycles until a window's throughput first
//!   regains [`RECOVERY_FRACTION`] of the baseline;
//! * **pairs stabilization** — for schedulers emitting inference traces,
//!   the cycle of the first post-disturbance round from which the
//!   serialized pair set never changes again.
//!
//! The trailing partial window (whose span extends past the makespan)
//! under-reports throughput by construction and is excluded from scoring.

use std::collections::BTreeSet;

use seer_harness::{Json, ToJson};
use seer_runtime::{InferenceTrace, MetricsWindow, RunMetrics, WindowedMetrics};
use seer_sim::Cycles;

use crate::spec::ScenarioSpec;

/// Fraction of the pre-disturbance baseline throughput a window must
/// regain to count as re-converged.
pub const RECOVERY_FRACTION: f64 = 0.9;

/// Recovery measurements for one disturbance.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryScore {
    /// Disturbance label (`phase-1`, `wipe-stats`, `park-t2`, …).
    pub label: String,
    /// Cycle the disturbance fired at.
    pub at: Cycles,
    /// Mean window throughput (commits/cycle) before the disturbance.
    pub baseline_throughput: f64,
    /// Minimum window throughput before the next disturbance.
    pub min_throughput: f64,
    /// `max(0, 1 − min/baseline)`; 0 when the scheduler never dipped.
    pub regression_depth: f64,
    /// End of the first post-disturbance window whose throughput regained
    /// [`RECOVERY_FRACTION`] of the baseline, if any.
    pub reconverged_at: Option<Cycles>,
    /// `reconverged_at − at`.
    pub time_to_reconverge: Option<Cycles>,
    /// Cycle of the first post-disturbance inference round from which the
    /// serialized pair set stays fixed (`None` for schedulers without an
    /// inference stream, or when no round ran after the disturbance).
    pub pairs_stable_at: Option<Cycles>,
}

impl ToJson for RecoveryScore {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            ("at", self.at.to_json()),
            ("baseline_throughput", Json::Num(self.baseline_throughput)),
            ("min_throughput", Json::Num(self.min_throughput)),
            ("regression_depth", Json::Num(self.regression_depth)),
            ("reconverged_at", self.reconverged_at.to_json()),
            ("time_to_reconverge", self.time_to_reconverge.to_json()),
            ("pairs_stable_at", self.pairs_stable_at.to_json()),
        ])
    }
}

/// The scenario engine's verdict on one `(scenario, policy, seed)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler policy label.
    pub policy: String,
    /// Harness seed.
    pub seed: u64,
    /// Scoring window width, in cycles.
    pub window: Cycles,
    /// Run makespan, in cycles.
    pub makespan: Cycles,
    /// Total commits.
    pub commits: u64,
    /// Whole-run throughput (commits per cycle).
    pub throughput: f64,
    /// The run's event-schedule digest (replay identity).
    pub trace_hash: u64,
    /// Relative steady-state change: mean post-last-disturbance window
    /// throughput over mean pre-first-disturbance throughput, minus one.
    pub steady_state_delta: f64,
    /// True when every scored disturbance (with a positive baseline)
    /// re-converged.
    pub recovered: bool,
    /// Per-disturbance scores, in time order.
    pub scores: Vec<RecoveryScore>,
}

impl RecoveryReport {
    /// Scores `metrics`/`windows`/`inference` against the spec's
    /// disturbance times.
    pub fn build(
        spec: &ScenarioSpec,
        policy: &str,
        seed: u64,
        metrics: &RunMetrics,
        windows: &WindowedMetrics,
        inference: &[InferenceTrace],
    ) -> Self {
        let disturbances = spec.disturbances();
        // Exclude the trailing partial window unless it is all we have.
        let scored: Vec<&MetricsWindow> = {
            let full: Vec<&MetricsWindow> = windows
                .windows()
                .iter()
                .filter(|w| w.to <= metrics.makespan)
                .collect();
            if full.is_empty() {
                windows.windows().iter().collect()
            } else {
                full
            }
        };
        // Pair-set per inference round, and the index from which the set
        // never changes again.
        let pair_sets: Vec<BTreeSet<(usize, usize)>> = inference
            .iter()
            .map(|round| {
                round
                    .rows
                    .iter()
                    .flat_map(|row| {
                        row.pairs
                            .iter()
                            .filter(|p| p.verdict.serialize())
                            .map(move |p| (row.x, p.y))
                    })
                    .collect()
            })
            .collect();
        let stable_from = match pair_sets.last() {
            None => 0,
            Some(last) => pair_sets
                .iter()
                .rposition(|s| s != last)
                .map(|i| i + 1)
                .unwrap_or(0),
        };

        let mean = |ws: &[&MetricsWindow]| -> f64 {
            if ws.is_empty() {
                0.0
            } else {
                ws.iter().map(|w| w.throughput()).sum::<f64>() / ws.len() as f64
            }
        };

        let mut scores = Vec::new();
        for (i, (at, label)) in disturbances.iter().enumerate() {
            if *at >= metrics.makespan {
                // The run finished before this disturbance fired (its
                // directive is still in the queue): nothing to score.
                continue;
            }
            let prev = if i == 0 { 0 } else { disturbances[i - 1].0 };
            let next = disturbances
                .get(i + 1)
                .map(|d| d.0)
                .unwrap_or(Cycles::MAX);
            let baseline_ws: Vec<&MetricsWindow> = scored
                .iter()
                .filter(|w| w.from >= prev && w.to <= *at)
                .copied()
                .collect();
            let baseline_ws = if baseline_ws.is_empty() {
                // Disturbance inside the first window after `prev`: fall
                // back to everything before it.
                scored.iter().filter(|w| w.to <= *at).copied().collect()
            } else {
                baseline_ws
            };
            let baseline = mean(&baseline_ws);
            let segment: Vec<&MetricsWindow> = scored
                .iter()
                .filter(|w| w.from >= *at && w.from < next)
                .copied()
                .collect();
            let min_throughput = segment
                .iter()
                .map(|w| w.throughput())
                .fold(f64::INFINITY, f64::min);
            let min_throughput = if min_throughput.is_finite() {
                min_throughput
            } else {
                baseline
            };
            let regression_depth = if baseline > 0.0 {
                (1.0 - min_throughput / baseline).max(0.0)
            } else {
                0.0
            };
            let reconverged_at = if baseline > 0.0 {
                scored
                    .iter()
                    .find(|w| {
                        w.from >= *at && w.throughput() >= RECOVERY_FRACTION * baseline
                    })
                    .map(|w| w.to)
            } else {
                None
            };
            // Rounds are chronological, so the first round that is both
            // at/after the disturbance and at/after the global
            // stabilization index is the stabilization point.
            let pairs_stable_at = inference
                .iter()
                .enumerate()
                .find(|(idx, round)| round.at >= *at && *idx >= stable_from)
                .map(|(_, round)| round.at);
            scores.push(RecoveryScore {
                label: label.clone(),
                at: *at,
                baseline_throughput: baseline,
                min_throughput,
                regression_depth,
                reconverged_at,
                time_to_reconverge: reconverged_at.map(|t| t.saturating_sub(*at)),
                pairs_stable_at,
            });
        }

        let steady_state_delta = if let (Some(first), Some(last)) =
            (disturbances.first(), disturbances.last())
        {
            let pre: Vec<&MetricsWindow> =
                scored.iter().filter(|w| w.to <= first.0).copied().collect();
            let post: Vec<&MetricsWindow> =
                scored.iter().filter(|w| w.from >= last.0).copied().collect();
            let (pre_mean, post_mean) = (mean(&pre), mean(&post));
            if pre_mean > 0.0 && !post.is_empty() {
                post_mean / pre_mean - 1.0
            } else {
                0.0
            }
        } else {
            0.0
        };

        let recovered = scores
            .iter()
            .filter(|s| s.baseline_throughput > 0.0)
            .all(|s| s.reconverged_at.is_some());

        RecoveryReport {
            scenario: spec.name.clone(),
            policy: policy.to_string(),
            seed,
            window: windows.width(),
            makespan: metrics.makespan,
            commits: metrics.commits,
            throughput: if metrics.makespan == 0 {
                0.0
            } else {
                metrics.commits as f64 / metrics.makespan as f64
            },
            trace_hash: metrics.trace_hash,
            steady_state_delta,
            recovered,
            scores,
        }
    }
}

impl RecoveryScore {
    /// Checks this score's internal consistency against the run's
    /// makespan; see [`RecoveryReport::validate`].
    fn validate(&self, makespan: Cycles) -> Result<(), String> {
        let label = &self.label;
        if label.is_empty() {
            return Err("score field \"label\" is empty".into());
        }
        if self.at >= makespan {
            return Err(format!("score {label:?} at {} is past the makespan {makespan}", self.at));
        }
        let (baseline, min, depth) =
            (self.baseline_throughput, self.min_throughput, self.regression_depth);
        if !(baseline.is_finite() && min.is_finite() && depth.is_finite()) {
            return Err(format!("score {label:?} has a non-finite throughput or depth"));
        }
        if baseline < 0.0 || min < 0.0 {
            return Err(format!("score {label:?} has a negative throughput"));
        }
        if !(0.0..=1.0).contains(&depth) {
            return Err(format!("score {label:?} regression_depth {depth} outside [0, 1]"));
        }
        if baseline > 0.0 {
            let expected = (1.0 - min / baseline).max(0.0);
            if (depth - expected).abs() > 1e-9 {
                return Err(format!(
                    "score {label:?} regression_depth {depth} inconsistent with \
                     baseline {baseline} / min {min} (expected {expected})"
                ));
            }
        }
        match (self.reconverged_at, self.time_to_reconverge) {
            (None, None) => Ok(()),
            (Some(end), Some(t)) if end >= self.at && end - self.at == t => Ok(()),
            (Some(end), Some(t)) => Err(format!(
                "score {label:?}: time_to_reconverge {t} != reconverged_at {end} - at {}",
                self.at
            )),
            _ => Err(format!(
                "score {label:?}: reconverged_at and time_to_reconverge must be null together"
            )),
        }
    }
}

impl RecoveryReport {
    /// Checks the semantic rules of the `DESIGN.md` §11 schema that
    /// decoding ([`crate::report_from_json`]) cannot: non-empty names, a
    /// positive window, finite non-negative throughputs, every score
    /// before the makespan with a regression depth matching its
    /// baseline/min throughputs, a re-convergence time present exactly
    /// when a re-convergence window was found, and `recovered` agreeing
    /// with the scores. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenario.is_empty() {
            return Err("field \"scenario\" is empty".into());
        }
        if self.policy.is_empty() {
            return Err("field \"policy\" is empty".into());
        }
        if self.window == 0 {
            return Err("field \"window\" must be positive".into());
        }
        if !self.throughput.is_finite() || self.throughput < 0.0 {
            return Err(format!("field \"throughput\" = {} is not finite and non-negative", self.throughput));
        }
        if !self.steady_state_delta.is_finite() {
            return Err("field \"steady_state_delta\" is not finite".into());
        }
        for score in &self.scores {
            score.validate(self.makespan).map_err(|e| format!("{}: {e}", self.scenario))?;
        }
        let all_recovered = self
            .scores
            .iter()
            .filter(|s| s.baseline_throughput > 0.0)
            .all(|s| s.reconverged_at.is_some());
        if self.recovered != all_recovered {
            return Err(format!(
                "{}: \"recovered\" = {} disagrees with the scores",
                self.scenario, self.recovered
            ));
        }
        Ok(())
    }
}

impl ToJson for RecoveryReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("scenario", self.scenario.to_json()),
            ("policy", self.policy.to_json()),
            ("seed", self.seed.to_json()),
            ("window", self.window.to_json()),
            ("makespan", self.makespan.to_json()),
            ("commits", self.commits.to_json()),
            ("throughput", Json::Num(self.throughput)),
            ("trace_hash", self.trace_hash.to_json()),
            ("steady_state_delta", Json::Num(self.steady_state_delta)),
            ("recovered", self.recovered.to_json()),
            ("scores", self.scores.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::LifecycleEvent;

    use crate::spec::{FaultKind, FaultSpec};
    use seer_stamp::Benchmark;

    /// Synthesizes a lifecycle stream with `per_window` commits in every
    /// window except the dip range, which gets `dip` commits.
    fn commits_stream(
        windows: u64,
        width: Cycles,
        per_window: u64,
        dip_range: std::ops::Range<u64>,
        dip: u64,
    ) -> Vec<LifecycleEvent> {
        let mut events = Vec::new();
        for w in 0..windows {
            let n = if dip_range.contains(&w) { dip } else { per_window };
            for k in 0..n {
                events.push(LifecycleEvent::HtmCommit {
                    at: w * width + (k * width / n.max(1)),
                    thread: 0,
                    block: 0,
                    attempts_used: 0,
                });
            }
        }
        events
    }

    fn spec_with_fault(at: Cycles) -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::stationary("score-test", Benchmark::Ssca2, 2, 0.05, 1_000);
        spec.faults.push(FaultSpec {
            at,
            fault: FaultKind::WipeStats,
        });
        spec
    }

    fn metrics_for(events: &[LifecycleEvent], makespan: Cycles) -> RunMetrics {
        let mut m = RunMetrics::new(1, 0, 0);
        m.makespan = makespan;
        m.commits = events.len() as u64;
        m
    }

    #[test]
    fn dip_and_recovery_are_scored() {
        // 10 windows of width 1000; fault at 3000; windows 3..5 dip to 2
        // commits, others carry 10.
        let events = commits_stream(10, 1_000, 10, 3..5, 2);
        let metrics = metrics_for(&events, 10_000);
        let windows = WindowedMetrics::from_lifecycle(&events, 1_000, 10_000);
        let spec = spec_with_fault(3_000);
        let report = RecoveryReport::build(&spec, "test", 0, &metrics, &windows, &[]);
        assert_eq!(report.scores.len(), 1);
        let s = &report.scores[0];
        assert!((s.baseline_throughput - 0.01).abs() < 1e-12, "{s:?}");
        assert!((s.min_throughput - 0.002).abs() < 1e-12, "{s:?}");
        assert!((s.regression_depth - 0.8).abs() < 1e-9, "{s:?}");
        // First window at/after 3000 with throughput >= 0.9 * baseline is
        // window 5 ([5000, 6000)): reconverged at its end.
        assert_eq!(s.reconverged_at, Some(6_000));
        assert_eq!(s.time_to_reconverge, Some(3_000));
        assert!(report.recovered);
        assert!(s.pairs_stable_at.is_none(), "no inference stream");
    }

    #[test]
    fn no_recovery_is_reported_as_such() {
        // Throughput never regains the baseline after the fault.
        let events = commits_stream(10, 1_000, 10, 3..10, 2);
        let metrics = metrics_for(&events, 10_000);
        let windows = WindowedMetrics::from_lifecycle(&events, 1_000, 10_000);
        let spec = spec_with_fault(3_000);
        let report = RecoveryReport::build(&spec, "test", 0, &metrics, &windows, &[]);
        let s = &report.scores[0];
        assert_eq!(s.reconverged_at, None);
        assert!(!report.recovered);
        assert!(report.steady_state_delta < -0.5, "{}", report.steady_state_delta);
    }

    #[test]
    fn flat_throughput_means_no_regression() {
        let events = commits_stream(8, 1_000, 10, 0..0, 0);
        let metrics = metrics_for(&events, 8_000);
        let windows = WindowedMetrics::from_lifecycle(&events, 1_000, 8_000);
        let spec = spec_with_fault(4_000);
        let report = RecoveryReport::build(&spec, "test", 0, &metrics, &windows, &[]);
        let s = &report.scores[0];
        assert!(s.regression_depth < 1e-9);
        assert_eq!(s.reconverged_at, Some(5_000), "immediately re-converged");
        assert!(report.recovered);
        assert!(report.steady_state_delta.abs() < 1e-9);
    }

    #[test]
    fn built_reports_validate_and_broken_invariants_do_not() {
        let events = commits_stream(10, 1_000, 10, 3..5, 2);
        let metrics = metrics_for(&events, 10_000);
        let windows = WindowedMetrics::from_lifecycle(&events, 1_000, 10_000);
        let report =
            RecoveryReport::build(&spec_with_fault(3_000), "seer", 0, &metrics, &windows, &[]);
        report.validate().expect("a built report is valid");

        let mut half_null = report.clone();
        half_null.scores[0].time_to_reconverge = None;
        assert!(half_null.validate().unwrap_err().contains("null together"));
        let mut late = report.clone();
        late.scores[0].at = late.makespan;
        assert!(late.validate().unwrap_err().contains("past the makespan"));
        let mut no_window = report;
        no_window.window = 0;
        assert!(no_window.validate().is_err());
    }

    #[test]
    fn report_json_has_the_stable_schema() {
        let events = commits_stream(4, 1_000, 5, 0..0, 0);
        let metrics = metrics_for(&events, 4_000);
        let windows = WindowedMetrics::from_lifecycle(&events, 1_000, 4_000);
        let spec = spec_with_fault(2_000);
        let report = RecoveryReport::build(&spec, "seer", 3, &metrics, &windows, &[]);
        let json = report.to_json();
        for key in [
            "scenario",
            "policy",
            "seed",
            "window",
            "makespan",
            "commits",
            "throughput",
            "trace_hash",
            "steady_state_delta",
            "recovered",
            "scores",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let scores = json.get("scores").unwrap().as_array().unwrap();
        assert_eq!(scores.len(), 1);
        for key in [
            "label",
            "at",
            "baseline_throughput",
            "min_throughput",
            "regression_depth",
            "reconverged_at",
            "time_to_reconverge",
            "pairs_stable_at",
        ] {
            assert!(scores[0].get(key).is_some(), "missing score {key}");
        }
        // Round-trips through the parser (schema check style).
        let text = json.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }
}
