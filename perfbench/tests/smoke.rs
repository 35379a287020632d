//! Tiny-size smoke runs of every workload through the real binary, in
//! both modes: the result line must parse, report a correct run, and
//! name exactly the metrics `BENCHMARK.json` declares for that mode.

use std::path::PathBuf;
use std::process::Command;

use seer_store::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let work: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("smoke-{workload}-{trace}"),
    ]
    .iter()
    .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stderr}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("metrics object missing: {last}");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            // Only the probe overhead, a difference of two noisy times,
            // can read below 0.
            let signed = name == "probe.overhead_frac";
            assert!(
                value.is_finite() && (signed || value >= 0.0),
                "{name} = {value}"
            );
            (name.clone(), unit.to_string())
        })
        .collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        got, want,
        "{workload} reports the declared metrics, in order"
    );
    if !trace {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0, "{workload}: end-to-end metric {name} reads 0");
        }
    }
    assert!(!work.exists(), "the work directory is removed");
}

#[test]
fn figures_cold_smoke() {
    smoke("figures-cold", false);
    smoke("figures-cold", true);
}

#[test]
fn figures_warm_smoke() {
    smoke("figures-warm", false);
    smoke("figures-warm", true);
}

#[test]
fn seer_many_blocks_smoke() {
    smoke("seer-many-blocks", false);
    smoke("seer-many-blocks", true);
}

#[test]
fn tune_halving_smoke() {
    smoke("tune-halving", false);
    smoke("tune-halving", true);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "0", "--work-dir", "x"][..],
        &[
            "--workload",
            "figures-cold",
            "--seed",
            "-1",
            "--work-dir",
            "x",
        ][..],
        &[
            "--workload",
            "figures-cold",
            "--seed",
            "0",
            "--trace",
            "2",
            "--work-dir",
            "x",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
