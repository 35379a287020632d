//! The built-in library's behavioural contract under the full Seer
//! scheduler (seed 0 — runs are deterministic, so these are exact).

use seer_harness::PolicyKind;
use seer_scenario::{library, RunRequest};

#[test]
fn every_builtin_recovers_under_seer() {
    for spec in library::all() {
        let outcome = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
        let report = &outcome.report;
        if let Err(e) = report.validate() {
            panic!("{}: the report breaks its schema's rules: {e}", spec.name);
        }
        assert!(
            !report.scores.is_empty(),
            "{}: every built-in's disturbances must fire before the run ends",
            spec.name
        );
        for s in &report.scores {
            assert!(
                s.at < outcome.metrics.makespan,
                "{}: scored disturbance {} at {} is past makespan {}",
                spec.name,
                s.label,
                s.at,
                outcome.metrics.makespan
            );
            assert!(
                s.baseline_throughput > 0.0,
                "{}: {} needs a warm pre-disturbance baseline",
                spec.name,
                s.label
            );
        }
        assert!(
            report.recovered,
            "{}: Seer must re-converge after every disturbance: {:?}",
            spec.name, report.scores
        );
        assert!(
            report.scores.iter().any(|s| s.pairs_stable_at.is_some()),
            "{}: Seer's inference stream must stabilize post-disturbance",
            spec.name
        );
    }
}

#[test]
fn heavy_faults_cause_real_regressions() {
    // The disruptive built-ins must actually dent throughput — a scenario
    // whose fault is invisible in the windows scores nothing.
    for (name, min_depth) in [("capacity-cliff", 0.3), ("churn-storm", 0.3), ("hot-set-drift", 0.2)]
    {
        let spec = library::builtin(name).unwrap();
        let outcome = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
        let deepest = outcome
            .report
            .scores
            .iter()
            .map(|s| s.regression_depth)
            .fold(0.0, f64::max);
        assert!(
            deepest >= min_depth,
            "{name}: deepest regression {deepest:.3} under the {min_depth} floor"
        );
    }
}
