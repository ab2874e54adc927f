//! End-to-end and per-layer benchmark of the labeling pipeline and its
//! server.
//!
//! ```text
//! qi-perfbench --workload <pipeline_drift|serve_ingest|serve_read>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed output
//! check exits with status 1. See `README.md` beside this crate.

mod calibrate;
mod inputs;
mod loadgen;
mod pipeline;
mod probes;
mod read;
mod report;
mod serving;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use std::time::Duration;

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["pipeline_drift", "serve_ingest", "serve_read"];

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => parsed.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("qi-perfbench: {message}");
            eprintln!(
                "usage: qi-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "qi-perfbench: workload {} seed {} for {}s, trace {}, {} cpus",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "pipeline_drift" => pipeline::run(&args, &mut report),
        "serve_ingest" => serving::run_ingest(&args, &mut report),
        _ => read::run(&args, &mut report),
    }
    report.check(report.tally.attempted > 0, || {
        "no operation ran".to_string()
    });
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    eprint!("{}", report.summary(catalogue));
    for problem in report.problems() {
        eprintln!("qi-perfbench: check failed: {problem}");
    }
    println!("{}", report.to_json(catalogue, !args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload serve_read --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, "serve_read");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, Duration::from_secs(10));
        assert!(args.trace);
        let args = parse("--workload pipeline_drift").unwrap();
        assert_eq!(args.seed, DEFAULT_SEED);
        assert!(!args.trace);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_read --speed 3").is_err());
        assert!(parse("--workload serve_read --seed").is_err());
        assert!(parse("").is_err());
    }
}
