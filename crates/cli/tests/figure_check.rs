//! `seer figure` and `seer check` driven through the built binary: every
//! figure name renders at a small scale, and `check` keeps the CLI's exit
//! code and output conventions (0 valid, 1 invalid document, 2 usage).
//! Usage errors elsewhere in the CLI follow the same exit-2 convention.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use seer_harness::Json;

fn seer(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_seer"));
    cmd.args(args).current_dir(repo_root());
    cmd
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seer-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const FIGURES: [&str; 8] = [
    "fig3",
    "table3",
    "fig4",
    "fig5",
    "ablation-core-locks",
    "accuracy",
    "fine-grained",
    "convergence",
];

#[test]
fn every_figure_renders_and_writes_its_json_report() {
    let dir = scratch_dir("figures");
    for name in FIGURES {
        let json_path = dir.join(format!("{name}.json"));
        let out: Output = seer(&["figure", name])
            .env("SEER_SEEDS", "1")
            .env("SEER_SCALE", "0.05")
            .env("SEER_JOBS", "2")
            .env("SEER_REPORT_JSON", &json_path)
            .output()
            .unwrap();
        let stderr = text(&out.stderr);
        assert!(out.status.success(), "seer figure {name} failed:\n{stderr}");
        assert!(!out.stdout.is_empty(), "seer figure {name} printed nothing");
        let tag = name.replace('-', "_");
        assert!(
            stderr.contains(&format!("{tag}: JSON written to $SEER_REPORT_JSON")),
            "{stderr}"
        );
        let doc = std::fs::read_to_string(&json_path).unwrap();
        Json::parse(&doc).unwrap_or_else(|e| panic!("{name}: report is not JSON: {e}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_or_missing_figure_is_a_usage_error_listing_the_names() {
    for args in [
        &["figure", "fig9"][..],
        &["figure"],
        &["figure", "fig3", "fig4"],
    ] {
        let out = seer(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = text(&out.stderr);
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("try `seer help`"), "{stderr}");
        for name in FIGURES {
            assert!(stderr.contains(name), "{stderr} lacks {name}");
        }
    }
}

#[test]
fn help_lists_figure_and_check() {
    let out = seer(&["help"]).output().unwrap();
    let stdout = text(&out.stdout);
    assert!(stdout.contains("  figure "), "{stdout}");
    assert!(stdout.contains("  check "), "{stdout}");
}

#[test]
fn committed_artifacts_pass_check() {
    let out = seer(&[
        "check",
        "crates/conformance/tests/fixtures/decision_trace.jsonl",
        "TUNE_064.json",
    ])
    .output()
    .unwrap();
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    for path in ["decision_trace.jsonl: ok", "TUNE_064.json: ok"] {
        assert!(stdout.contains(path), "{stdout}");
    }
}

#[test]
fn every_file_is_checked_and_invalid_ones_exit_1() {
    let dir = scratch_dir("check");
    let no_kind = dir.join("no-kind.json");
    std::fs::write(&no_kind, "{\"hello\": 1}").unwrap();
    let missing = dir.join("missing.json");
    let (no_kind, missing) = (no_kind.to_str().unwrap(), missing.to_str().unwrap());
    let out = seer(&["check", no_kind, "TUNE_064.json", missing])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(stdout, "TUNE_064.json: ok\n  tune report\n");
    assert!(
        stderr.contains(&format!("{no_kind}: matches no document kind")),
        "{stderr}"
    );
    assert!(
        stderr.contains(&format!("{missing}: cannot read")),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_usage_errors_exit_2() {
    for args in [
        &["check"][..],
        &["check", "TUNE_064.json", "--tolerance", "0.25"],
        &["check", "TUNE_064.json", "--baseline", "TUNE_064.json"],
        &["check", "TUNE_064.json", "--against", "TUNE_064.json"],
    ] {
        let out = seer(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = text(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.contains("try `seer help`"),
            "{stderr}"
        );
    }
}

#[test]
fn unknown_commands_and_bad_scenario_or_jobs_input_exit_2() {
    let dir = scratch_dir("usage");
    let broken = dir.join("broken.json");
    std::fs::write(&broken, "{\"name\": 42").unwrap();
    let broken = broken.to_str().unwrap();
    for args in [
        &["bench"][..],
        &["scenario", "run", "--name", "meteor-strike"],
        &["scenario", "run", "--spec", "/no/such/spec.json"],
        &["scenario", "run", "--spec", broken],
        &["scenario", "run", "--jobs", "0"],
        &["sweep", "--jobs", "0"],
        &["tune", "--jobs", "lots"],
    ] {
        let out = seer(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = text(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
    let out = seer(&["scenario", "run", "--name", "meteor-strike"])
        .output()
        .unwrap();
    assert!(
        text(&out.stderr).contains("phase-flip"),
        "known scenarios are listed"
    );
    std::fs::remove_dir_all(&dir).ok();
}
