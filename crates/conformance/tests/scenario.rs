//! Scenario-engine conformance: the built-in disturbance library must be
//! bit-deterministic (golden trace-hash/report fixtures, serial identical
//! to a 4-way parallel executor), every fault kind must replay cleanly,
//! and the recovery claim itself is pinned — Seer regresses and
//! re-converges where the single-lock reference has nothing to recover.
//!
//! Fixture regeneration after an *intentional* schedule change:
//!
//! ```text
//! SEER_BLESS=1 cargo test -p seer-conformance --test scenario
//! ```
//!
//! With `--features check-invariants` every run here is additionally
//! audited by the driver's invariant checker — under thread churn and
//! under every injected fault.

use seer_conformance::SglOnly;
use seer_harness::{PolicyKind, ToJson};
use seer_scenario::{
    library, FaultKind, FaultSpec, RunRequest, ScenarioExecutor, ScenarioPlan, ScenarioSpec,
};
use seer_stamp::Benchmark;

const FIXTURES: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/scenario_hashes.txt"
);
const SEEDS: u64 = 2;

/// FNV-1a over a serialized report, so a fixture line pins the whole
/// RecoveryReport (scores included), not just the event schedule.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[test]
fn builtin_library_is_deterministic_and_matches_fixtures() {
    // Same plan through a serial and a 4-way executor: the outcomes must
    // be indistinguishable, and seed-0/1 hashes must match the committed
    // fixtures line for line.
    let mut plan = ScenarioPlan::new();
    plan.add_grid(&library::BUILTIN_NAMES, &[PolicyKind::Seer], SEEDS);
    let serial = ScenarioExecutor::new(1);
    let parallel = ScenarioExecutor::new(4);
    serial.execute(&plan);
    parallel.execute(&plan);

    let mut lines = Vec::new();
    for key in plan.items() {
        let a = serial
            .cached(&key.scenario, key.policy, key.seed)
            .expect("planned above");
        let b = parallel
            .cached(&key.scenario, key.policy, key.seed)
            .expect("planned above");
        let a_report = a.report.to_json().to_string_compact();
        let b_report = b.report.to_json().to_string_compact();
        assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash, "{key:?}");
        assert_eq!(a_report, b_report, "{key:?}");
        lines.push(format!(
            "scenario={} policy={} seed={} trace={:#018x} report={:#018x}",
            key.scenario,
            key.policy.name(),
            key.seed,
            a.metrics.trace_hash,
            fnv(&a_report),
        ));
    }
    let computed = lines.join("\n") + "\n";

    if std::env::var_os("SEER_BLESS").is_some() {
        std::fs::write(FIXTURES, &computed).expect("write fixtures");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURES)
        .expect("missing tests/fixtures/scenario_hashes.txt — run with SEER_BLESS=1 to create it");
    let mismatches: Vec<String> = golden
        .lines()
        .zip(computed.lines())
        .filter(|(g, c)| g != c)
        .map(|(g, c)| format!("  golden: {g}\n  actual: {c}"))
        .collect();
    assert!(
        mismatches.is_empty() && golden.lines().count() == computed.lines().count(),
        "scenario schedules or reports drifted from the committed fixtures \
         (intentional? re-bless with SEER_BLESS=1):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_fault_kind_replays_bit_identically() {
    // The built-ins exercise three of the five fault kinds; this spec
    // stacks all five (plus churn) into one run and replays it, so the
    // injector itself — not just the library — is pinned deterministic.
    let mut spec = ScenarioSpec::stationary("all-faults", Benchmark::KmeansHigh, 4, 0.8, 50_000);
    let faults = [
        (80_000, FaultKind::DelayInference { rounds: 2 }),
        (120_000, FaultKind::StallLockHolder { cycles: 40_000 }),
        (160_000, FaultKind::KickThresholds { th1: 0.9, th2: 0.5 }),
        (
            200_000,
            FaultKind::CapacityShrink {
                ways: Some(2),
                read_lines: Some(16),
                restore_after: 60_000,
            },
        ),
        (300_000, FaultKind::WipeStats),
    ];
    for (at, fault) in faults {
        spec.faults.push(FaultSpec { at, fault });
    }
    spec.validate().expect("all-faults spec is well-formed");
    let a = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
    let b = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
    assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash);
    assert_eq!(a.metrics.commits, b.metrics.commits);
    assert_eq!(
        a.report.to_json().to_string_compact(),
        b.report.to_json().to_string_compact()
    );
}

#[test]
fn seer_regresses_and_recovers_where_the_reference_cannot() {
    // The paper's adaptivity claim, as a conformance check: when the HTM
    // capacity collapses, Seer's throughput craters and climbs back (a
    // deep regression with a finite time-to-reconverge), while the
    // single-lock reference — which never touches the HTM — sees nothing
    // worth recovering from.
    let spec = library::builtin("capacity-cliff").unwrap();
    let seer = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
    let mut sgl = SglOnly;
    let reference = RunRequest::scenario(&spec)
        .scheduler(&mut sgl, "reference-sgl-only")
        .run();

    let s = &seer.report.scores[0];
    assert!(
        s.regression_depth > 0.3,
        "Seer must visibly regress on the cliff: {s:?}"
    );
    assert!(
        s.time_to_reconverge.is_some() && seer.report.recovered,
        "Seer must re-converge: {s:?}"
    );
    assert!(
        s.pairs_stable_at.is_some(),
        "Seer's inference must restabilize: {s:?}"
    );

    assert_eq!(reference.metrics.htm_attempts, 0, "SGL-only never attempts HTM");
    let r = &reference.report.scores[0];
    assert!(
        r.regression_depth < 0.05,
        "the capacity fault must be invisible to the reference: {r:?}"
    );
    assert!(r.pairs_stable_at.is_none(), "no inference stream to stabilize");
    assert!(
        seer.report.throughput > reference.report.throughput,
        "even with the cliff, Seer beats full serialization over the run"
    );
}
