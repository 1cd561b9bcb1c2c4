//! The LWC benchmark: one command runs a named workload from a seed, checks
//! every output, and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path lwcbench/Cargo.toml -- \
//!     --workload archive-2d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the same workload through the benchmark's own recomposition of each
//! engine op, times every layer call, and prints the per-layer metrics. See
//! `README.md` for what each workload and metric is for.

mod archive;
mod decomp;
mod host;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;
mod volume;

use std::process::ExitCode;

/// Result type of everything that can fail inside a workload.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 4] = ["archive-2d", "archive-nl", "volume-ct", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; choose one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("lwcbench: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "archive-2d" => archive::run(&args, 0),
        "archive-nl" => archive::run(&args, archive::NEAR_LOSSLESS_DELTA),
        "volume-ct" => volume::run(&args),
        _ => serve::run(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("lwcbench: {} failed: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(why) = outcome.tally.first_failure() {
        eprintln!(
            "lwcbench: {} of {} ops failed; first: {why}",
            outcome.tally.failed, outcome.tally.attempted
        );
    }
    let diagnostics: Vec<String> =
        outcome.diagnostics.iter().map(|(name, value)| format!("\"{name}\": {value}")).collect();
    println!("{{\"diagnostics\": {{{}}}}}", diagnostics.join(", "));
    match report::result_line(&outcome.tally, &outcome.metrics, args.trace) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("lwcbench: {why}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
