//! `seer check FILE...`: validates the documents this project writes.
//! Each file's kind is read off fields the document already carries, and
//! each kind is checked by the library code next to its writer:
//!
//! | Kind | Recognised by | Checked by |
//! |---|---|---|
//! | decision trace (JSONL, `DESIGN.md` §10) | records with a `type` | `seer_harness::validate_trace_jsonl` |
//! | recovery report(s) (§11) | `scenario`, on an object or an array's first element | `report_from_json` + `RecoveryReport::validate` |
//! | tune report (§15) | `schema_version` + `leaderboard` | `seer_tune::validate_report` |
//!
//! Every file is checked: a valid one prints `PATH: ok` (plus indented
//! details) on stdout, an invalid one `PATH: <reason>` lines on stderr.

use seer_harness::{validate_trace_jsonl, Json};
use seer_scenario::report_from_json;

use crate::args::{Args, ParseError};

/// `seer check`. Returns whether every file is valid; usage errors are
/// `Err`.
pub fn check(args: &Args) -> Result<bool, ParseError> {
    args.allow_only(&[])?;
    if args.positionals.is_empty() {
        return Err(ParseError("check needs at least one FILE".into()));
    }
    let mut all_valid = true;
    for path in &args.positionals {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| vec![format!("cannot read: {e}")])
            .and_then(|text| check_text(&text));
        match outcome {
            Ok(details) => {
                println!("{path}: ok");
                for line in details {
                    println!("  {line}");
                }
            }
            Err(reasons) => {
                all_valid = false;
                for reason in reasons {
                    eprintln!("{path}: {reason}");
                }
            }
        }
    }
    Ok(all_valid)
}

/// Checks one document: `Ok` with summary lines, or `Err` with every
/// violation found.
fn check_text(text: &str) -> Result<Vec<String>, Vec<String>> {
    let one = |e: String| vec![e];
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        // Not one document: JSONL, if the first line is a typed record.
        Err(e) => {
            let first = text.lines().next().and_then(|l| Json::parse(l).ok());
            if first.is_some_and(|r| r.get("type").is_some()) {
                return check_trace(text).map_err(one);
            }
            return Err(one(format!("neither JSON nor JSONL: {e}")));
        }
    };
    let has = |key| doc.get(key).is_some();
    let first_has_scenario = || {
        doc.as_array()
            .and_then(|items| items.first())
            .is_some_and(|r| r.get("scenario").is_some())
    };
    if has("schema_version") && has("leaderboard") {
        let violations = seer_tune::validate_report(&doc);
        if violations.is_empty() {
            Ok(vec!["tune report".into()])
        } else {
            Err(violations)
        }
    } else if has("scenario") || first_has_scenario() {
        check_scenario(&doc).map_err(one)
    } else if has("type") {
        check_trace(text).map_err(one)
    } else {
        Err(one(
            "matches no document kind (trace, scenario report, tune report)".into(),
        ))
    }
}

fn check_trace(text: &str) -> Result<Vec<String>, String> {
    let counts = validate_trace_jsonl(text)?;
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    let per_type: Vec<String> = counts.iter().map(|(ty, n)| format!("{ty} {n}")).collect();
    Ok(vec![format!(
        "trace, {total} records: {}",
        per_type.join(", ")
    )])
}

fn check_scenario(doc: &Json) -> Result<Vec<String>, String> {
    let records = match doc {
        Json::Array(items) => items.as_slice(),
        one => std::slice::from_ref(one),
    };
    records
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            let report = report_from_json(rec)
                .and_then(|r| r.validate().map(|()| r))
                .map_err(|e| format!("report {i}: {e}"))?;
            Ok(format!(
                "scenario report {}, {} score(s)",
                report.scenario,
                report.scores.len()
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_harness::{trace_jsonl, Cell, PolicyKind, ToJson};
    use seer_runtime::MemoryTraceSink;
    use seer_scenario::{RecoveryReport, RecoveryScore, RunRequest};
    use seer_stamp::Benchmark;

    const DECISION_TRACE: &str =
        include_str!("../../conformance/tests/fixtures/decision_trace.jsonl");
    const TUNE_064: &str = include_str!("../../../TUNE_064.json");

    fn rejected(text: &str) -> String {
        check_text(text)
            .expect_err("the mutation must be rejected")
            .join("; ")
    }

    fn traced_run() -> String {
        let mut sink = MemoryTraceSink::new();
        let cell = Cell {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Seer,
            threads: 2,
        };
        RunRequest::cell(cell).scale(0.01).traced(&mut sink).run();
        trace_jsonl(&sink)
    }

    #[test]
    fn traces_validate_and_reject_backwards_time_and_unknown_verdicts() {
        let details = check_text(&traced_run()).expect("a traced run is valid");
        assert!(details[0].starts_with("trace, "), "{details:?}");
        assert!(details[0].contains("htm-commit"), "{details:?}");
        check_text(DECISION_TRACE).expect("the committed fixture is valid");

        let backwards: Vec<&str> = DECISION_TRACE.lines().rev().collect();
        assert!(rejected(&backwards.join("\n")).contains("goes backwards"));
        let unknown =
            DECISION_TRACE.replacen("\"verdict\":\"reject-th1\"", "\"verdict\":\"maybe\"", 1);
        assert!(rejected(&unknown).contains("unknown verdict \"maybe\""));
        let bad_cause = "{\"type\":\"abort\",\"at\":1,\"thread\":0,\"block\":0,\
                         \"cause\":\"bad-luck\",\"attempts_left\":1}";
        assert!(rejected(bad_cause).contains("\"cause\""));
        let bad_lock =
            "{\"type\":\"lock-wait\",\"at\":1,\"thread\":0,\"lock\":\"tx:x\",\"holder\":null}";
        assert!(rejected(bad_lock).contains("\"lock\""));
    }

    fn scenario_report() -> RecoveryReport {
        let score = |label: &str, at, reconverged_at: Option<u64>| RecoveryScore {
            label: label.into(),
            at,
            baseline_throughput: 0.01,
            min_throughput: 0.004,
            regression_depth: 0.6,
            reconverged_at,
            time_to_reconverge: reconverged_at.map(|t| t - at),
            pairs_stable_at: None,
        };
        RecoveryReport {
            scenario: "phase-flip".into(),
            policy: "seer".into(),
            seed: 0,
            window: 1_000,
            makespan: 10_000,
            commits: 100,
            throughput: 0.01,
            trace_hash: 0xfeed,
            steady_state_delta: -0.1,
            recovered: true,
            scores: vec![
                score("phase-1", 3_000, Some(5_000)),
                score("phase-2", 6_000, Some(8_000)),
            ],
        }
    }

    #[test]
    fn scenario_reports_validate_and_reject_inconsistent_scores() {
        let report = scenario_report();
        let text = report.to_json().to_string_pretty();
        assert_eq!(
            check_text(&text).unwrap(),
            ["scenario report phase-flip, 2 score(s)"]
        );
        let both = Json::Array(vec![report.to_json(), report.to_json()]).to_string_pretty();
        assert_eq!(check_text(&both).unwrap().len(), 2);

        let mut flipped = report.clone();
        flipped.recovered = false;
        assert!(rejected(&flipped.to_json().to_string_pretty()).contains("\"recovered\""));
        let mut shallow = report.clone();
        shallow.scores[1].regression_depth = 0.2;
        let reason =
            rejected(&Json::Array(vec![report.to_json(), shallow.to_json()]).to_string_pretty());
        assert!(
            reason.starts_with("report 1: ") && reason.contains("regression_depth"),
            "{reason}"
        );
        let mut unnamed = report;
        unnamed.policy.clear();
        assert!(rejected(&unnamed.to_json().to_string_compact()).contains("\"policy\""));
    }

    #[test]
    fn tune_reports_validate_and_reject_increasing_scores() {
        assert_eq!(check_text(TUNE_064).unwrap(), ["tune report"]);
        let second = "\"score\": 15.908156045447091";
        assert!(TUNE_064.contains(second));
        let increasing = TUNE_064.replacen(second, "\"score\": 99.0", 1);
        assert!(rejected(&increasing).contains("non-increasing"));
    }

    #[test]
    fn documents_of_no_kind_are_rejected() {
        for text in [
            "{\"hello\": 1}",
            "[]",
            "[1, 2]",
            "42",
            "",
            "not json",
            "{\"mode\": \"smoke\"}",
        ] {
            check_text(text).expect_err(text);
        }
        assert!(rejected("{\"hello\": 1}").contains("no document kind"));
        assert!(rejected("not json\n").contains("neither JSON nor JSONL"));
    }
}
