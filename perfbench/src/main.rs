//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 --work-dir D
//!           [--size full|tiny]
//! perfbench fill --seed N --store D --digests F [--size full|tiny]
//! ```
//!
//! The first form prints one JSON result object as its last stdout line.
//! `fill` is the child process `figures-warm` starts to fill its store.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use seer_perfbench::stats::{failed_frac, median, tail_percentile};
use seer_perfbench::{fill, result_json, run, Config, Size, Workload};

fn parse(args: &[String]) -> Result<(bool, HashMap<String, String>), String> {
    let (is_fill, rest) = match args.first().map(String::as_str) {
        Some("fill") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut flags = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok((is_fill, flags))
}

fn get<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn number<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    get(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} must be a non-negative number"))
}

/// Executor width: the host's parallelism, capped at 4 so the benchmark
/// stays small on large shared machines.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn config(
    flags: &HashMap<String, String>,
    workload: Workload,
    work_dir: PathBuf,
) -> Result<Config, String> {
    let size = match flags.get("size") {
        None => Size::full(),
        Some(name) => Size::by_name(name).ok_or_else(|| format!("unknown --size {name:?}"))?,
    };
    let seconds = match flags.get("seconds") {
        None => 0.0,
        Some(_) => number::<f64>(flags, "seconds")?,
    };
    if !seconds.is_finite() || seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Config {
        workload,
        // The harness derives simulator seeds by multiplying the seed, so
        // it is kept to 32 bits.
        seed: u64::from(number::<u32>(flags, "seed")?),
        seconds,
        trace: match flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        work_dir,
        jobs: default_jobs(),
        size,
    })
}

fn main_inner() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (is_fill, flags) = parse(&args)?;
    if is_fill {
        let store = PathBuf::from(get(&flags, "store")?);
        let digests = PathBuf::from(get(&flags, "digests")?);
        let cfg = config(&flags, Workload::FiguresCold, store.clone())?;
        return fill(&cfg, &store, &digests);
    }
    let name = get(&flags, "workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown --workload {name:?} (known: {})", known.join(", "))
    })?;
    let work_dir = PathBuf::from(get(&flags, "work-dir")?);
    let cfg = config(&flags, workload, work_dir)?;
    let outcome = run(&cfg);
    let walls = &outcome.pass_walls;
    let tail = match tail_percentile(walls) {
        Some((pct, v)) => format!("p{pct:.0} {v:.6} s"),
        None => "no percentile with ten passes beyond it".into(),
    };
    eprintln!(
        "perfbench: {name}: wall {:.6} s (sum of per-unit medians) over {} round(s); \
         round walls median {:.6} s, {tail}, range {:.6}..{:.6} s",
        outcome.wall_s,
        walls.len(),
        median(walls).unwrap_or(0.0),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    );
    eprintln!(
        "perfbench: {name}: {} of {} planned run(s) failed (failed_frac {})",
        outcome.failed,
        outcome.attempted,
        failed_frac(outcome.failed, outcome.attempted),
    );
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", result_json(&outcome).to_string_compact());
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}
