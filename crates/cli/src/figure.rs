//! `seer figure NAME`: regenerates one artefact of the paper's evaluation
//! (`DESIGN.md` §4) at the `SEER_SEEDS`/`SEER_SCALE`/`SEER_JOBS`
//! configuration. The rendered table goes to stdout, progress lines to
//! stderr, and — when `SEER_REPORT_JSON` names a file — the structured
//! results to that file.

use seer_harness::{
    env_config, maybe_write_json, CellExecutor, HarnessConfig, Json, ToJson, THREADS_FULL,
    THREADS_TABLE,
};

use crate::args::{Args, ParseError};

/// Prints one figure (stderr lines prefixed with the given tag) and
/// returns its JSON document.
type Render = fn(&str, HarnessConfig) -> Json;

/// Every figure by name: the paper's Figure 3, Table 3, Figures 4 and 5
/// and §5.3 ablation, then three extra experiments.
const FIGURES: [(&str, Render); 8] = [
    ("fig3", fig3),
    ("table3", table3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("ablation-core-locks", ablation_core_locks),
    ("accuracy", accuracy),
    ("fine-grained", fine_grained),
    ("convergence", convergence),
];

fn figure_names() -> String {
    FIGURES.map(|(name, _)| name).join(", ")
}

/// `seer figure NAME`.
pub fn figure(args: &Args) -> Result<(), ParseError> {
    args.allow_only(&[])?;
    let [name] = args.positionals.as_slice() else {
        return Err(ParseError(format!(
            "figure needs one name: {}",
            figure_names()
        )));
    };
    let (_, render) = FIGURES.iter().find(|(n, _)| n == name).ok_or_else(|| {
        ParseError(format!(
            "unknown figure {name:?} (one of: {})",
            figure_names()
        ))
    })?;
    // stderr tags stay underscored (`fine_grained: ...`) so log filters
    // written against them keep matching.
    let tag = name.replace('-', "_");
    let doc = render(&tag, env_config());
    if maybe_write_json(&doc)
        .map_err(|e| ParseError(format!("cannot write $SEER_REPORT_JSON: {e}")))?
    {
        eprintln!("{tag}: JSON written to $SEER_REPORT_JSON");
    }
    Ok(())
}

/// Runs `body` on a fresh executor between the header and the cell-count
/// progress lines; `hint` ends the header.
fn on_executor(
    tag: &str,
    cfg: HarnessConfig,
    hint: &str,
    body: impl FnOnce(&CellExecutor) -> Json,
) -> Json {
    let exec = CellExecutor::new(cfg);
    eprintln!(
        "{tag}: seeds={} scale={} jobs={}{hint}",
        cfg.seeds, cfg.scale, cfg.jobs
    );
    let doc = body(&exec);
    eprintln!(
        "{tag}: {} cells simulated, {} cache hits",
        exec.misses(),
        exec.hits()
    );
    doc
}

fn fig3(tag: &str, cfg: HarnessConfig) -> Json {
    let hint = " (set SEER_SEEDS / SEER_SCALE / SEER_JOBS to adjust)";
    on_executor(tag, cfg, hint, |exec| {
        let panels = seer_harness::figure3(exec, &THREADS_FULL);
        panels.iter().for_each(|p| println!("{}", p.render()));
        panels.to_json()
    })
}

fn table3(tag: &str, cfg: HarnessConfig) -> Json {
    on_executor(tag, cfg, "", |exec| {
        let (tables, lock_fraction) = seer_harness::table3(exec, &THREADS_TABLE);
        tables.iter().for_each(|t| println!("{}", t.render()));
        if let Some(f) = lock_fraction {
            println!(
                "Seer fine-granularity statistic (§5.2): when transaction locks are\n\
                 acquired, the median fraction of the available transaction locks\n\
                 taken is {:.0}% (the paper reports < 23% in 50% of the cases).",
                f * 100.0
            );
        }
        tables.to_json()
    })
}

fn fig4(tag: &str, cfg: HarnessConfig) -> Json {
    on_executor(tag, cfg, "", |exec| {
        let panel = seer_harness::figure4(exec, &THREADS_FULL);
        println!("{}", panel.render());
        println!("Values below 1.0 are pure instrumentation overhead; the paper");
        println!("reports a mean slowdown below 5% and at most 8%.");
        panel.to_json()
    })
}

fn fig5(tag: &str, cfg: HarnessConfig) -> Json {
    on_executor(tag, cfg, "", |exec| {
        let panels = seer_harness::figure5(exec, &THREADS_TABLE);
        panels.iter().for_each(|p| println!("{}", p.render()));
        panels.to_json()
    })
}

fn ablation_core_locks(tag: &str, cfg: HarnessConfig) -> Json {
    on_executor(tag, cfg, "", |exec| {
        let panel = seer_harness::core_locks_only(exec, &[2, 4, 6, 8]);
        print!("{}", panel.render());
        panel.to_json()
    })
}

/// Seer's inferred serialization pairs against the simulator's record of
/// every conflict abort's true killer (pairs behind at least 5% of a
/// run's kills), per benchmark at 8 threads.
fn accuracy(tag: &str, cfg: HarnessConfig) -> Json {
    eprintln!("{tag}: scale={} jobs={}", cfg.scale, cfg.jobs);
    let results = seer_harness::inference_accuracy(8, cfg.scale, 0.05);
    println!(
        "{:<16}{:>10}{:>10}{:>10}{:>8}",
        "benchmark", "precision", "recall", "inferred", "truth"
    );
    for r in &results {
        println!(
            "{:<16}{:>10.2}{:>10.2}{:>10}{:>8}",
            r.benchmark, r.precision, r.recall, r.inferred, r.truth
        );
    }
    results.to_json()
}

/// Plain vs (block x data structure)-refined Seer speedups and the size
/// of each inferred conflict relation, at 8 threads.
fn fine_grained(tag: &str, cfg: HarnessConfig) -> Json {
    eprintln!(
        "{tag}: seeds={} scale={} jobs={}",
        cfg.seeds, cfg.scale, cfg.jobs
    );
    let results = seer_harness::fine_grained(8, cfg.scale, cfg.seeds);
    println!(
        "{:<16}{:>10}{:>10}{:>14}{:>15}",
        "benchmark", "plain", "refined", "plain pairs", "refined pairs"
    );
    for r in &results {
        println!(
            "{:<16}{:>10.2}{:>10.2}{:>14}{:>15}",
            r.benchmark, r.plain, r.refined, r.plain_pairs, r.refined_pairs
        );
    }
    println!("\nRefinement buys precision (pairs name structures, not whole blocks)");
    println!("at the cost of slower convergence (statistics spread over more cells).");
    results.to_json()
}

/// When the inferred locking scheme last changed (as virtual time and as
/// a fraction of the run) and how many recomputations ran, per benchmark
/// at 8 threads.
fn convergence(tag: &str, cfg: HarnessConfig) -> Json {
    eprintln!("{tag}: scale={} jobs={}", cfg.scale, cfg.jobs);
    let results = seer_harness::convergence(8, cfg.scale);
    println!(
        "{:<16}{:>16}{:>14}{:>12}{:>10}",
        "benchmark", "converged@cycle", "makespan", "fraction", "updates"
    );
    for r in &results {
        let (at, frac) = match (r.converged_at, r.converged_fraction) {
            (Some(a), Some(f)) => (a.to_string(), format!("{:.0}%", f * 100.0)),
            _ => ("never locked".to_string(), "-".to_string()),
        };
        println!(
            "{:<16}{:>16}{:>14}{:>12}{:>10}",
            r.benchmark, at, r.makespan, frac, r.updates
        );
    }
    results.to_json()
}
