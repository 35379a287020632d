//! `seer` — command-line front end for the Seer reproduction.
//!
//! ```text
//! seer list                                  # benchmarks and policies
//! seer run    --benchmark genome --policy seer --threads 8 [--seed N] [--txs N] [--json true]
//! seer sweep  --benchmark vacation-high [--policies hle,rtm,scm,seer] [--max-threads 8]
//!             [--store DIR] [--resume]                   # persistent, resumable results
//! seer tune   [--driver random|halving|climb] [--budget N] [--objective combined]
//!             [--space F.json] [--seed N] [--jobs N] [--json true] [--out TUNE.json]
//!             [--store DIR] [--resume]                   # parameter search over Seer's knobs
//! seer inspect --benchmark intruder --threads 8 [--txs N]   # Seer's learned state
//! seer explain --benchmark genome --policy seer --pair 0,2  # decision history of one pair
//! seer scenario list                                        # built-in disturbance scenarios
//! seer scenario run [--name churn-storm | --spec F.json] [--policy P] [--seed N]
//!                   [--jobs N] [--json true] [--trace F.jsonl] [--store DIR] [--resume]
//! seer figure fig3                                          # regenerate a paper artefact
//! seer check FILE...                                      # validate documents
//! ```

mod args;
mod check;
mod commands;
mod figure;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(raw) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("try `seer help`");
            2
        }
    };
    std::process::exit(code);
}

/// Folds the two-word `scenario <action>` form into a single
/// `scenario-<action>` command token, keeping the one-positional grammar.
fn fold_scenario_command(raw: &mut Vec<String>) {
    if raw.first().map(String::as_str) == Some("scenario")
        && raw.get(1).is_some_and(|a| !a.starts_with('-'))
    {
        let action = raw.remove(1);
        raw[0] = format!("scenario-{action}");
    }
}

/// Runs one command; `Ok` carries the exit code (1: `check` found an
/// invalid document), `Err` a usage or run error (exit 2).
fn run(mut raw: Vec<String>) -> Result<i32, String> {
    if raw.is_empty() {
        commands::print_usage();
        return Ok(0);
    }
    fold_scenario_command(&mut raw);
    let args = Args::parse(raw).map_err(|e| e.to_string())?;
    let takes_names = matches!(args.command.as_str(), "figure" | "check");
    if let Some(extra) = args.positionals.first().filter(|_| !takes_names) {
        return Err(format!("expected --option, got {extra:?}"));
    }
    if args.wants_help() || args.command == "help" {
        commands::print_usage();
        return Ok(0);
    }
    if args.command == "check" {
        let all_valid = check::check(&args).map_err(|e| e.to_string())?;
        return Ok(if all_valid { 0 } else { 1 });
    }
    let done: Result<(), String> = match args.command.as_str() {
        "list" => {
            args.allow_only(&[]).map_err(|e| e.to_string())?;
            commands::list();
            Ok(())
        }
        "run" => commands::run_one(&args).map_err(|e| e.to_string()),
        "sweep" => commands::sweep(&args).map_err(|e| e.to_string()),
        "tune" => commands::tune(&args).map_err(|e| e.to_string()),
        "inspect" => commands::inspect(&args).map_err(|e| e.to_string()),
        "explain" => commands::explain(&args).map_err(|e| e.to_string()),
        "scenario-list" => {
            args.allow_only(&[]).map_err(|e| e.to_string())?;
            commands::scenario_list();
            Ok(())
        }
        "scenario-run" => commands::scenario_run(&args).map_err(|e| e.to_string()),
        "scenario" => Err("scenario needs an action: `seer scenario run` or `seer scenario list`".into()),
        "figure" => figure::figure(&args).map_err(|e| e.to_string()),
        other => Err(format!("unknown command {other:?}")),
    };
    done.map(|()| 0)
}

#[cfg(test)]
mod tests {
    use super::fold_scenario_command;

    fn fold(parts: &[&str]) -> Vec<String> {
        let mut raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        fold_scenario_command(&mut raw);
        raw
    }

    #[test]
    fn scenario_actions_fold_into_one_command_token() {
        assert_eq!(fold(&["scenario", "run", "--seed", "1"]), ["scenario-run", "--seed", "1"]);
        assert_eq!(fold(&["scenario", "list"]), ["scenario-list"]);
        // No action (or an option) after `scenario`: left for `run` to report.
        assert_eq!(fold(&["scenario"]), ["scenario"]);
        assert_eq!(fold(&["scenario", "--help"]), ["scenario", "--help"]);
        // Other commands untouched.
        assert_eq!(fold(&["run", "--seed", "1"]), ["run", "--seed", "1"]);
        assert_eq!(fold(&[]), Vec::<String>::new());
    }
}
