//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_fresh|serve_repeat|engine_batch --seed N --seconds S --trace 0|1
//! cargo run ... -- --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` replays the same workload's inputs through each layer's
//! public functions with spans around every call and reports per-layer
//! metrics. Human-readable tables go to standard error; the last line of
//! standard output is the JSON result. The exit code is non-zero when any
//! output was wrong, any request failed, or the run was invalid.

mod decks;
mod engine_bench;
mod ledger;
mod load;
mod report;
mod rng;
mod serve_bench;
mod server;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metric, Tally};
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench --smoke
workloads: serve_fresh serve_repeat engine_batch";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// The repository root: this package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Runs one workload in one mode.
fn run(args: &Args) -> Result<(Vec<Metric>, Tally), String> {
    let repo = repo_root();
    match (args.workload, args.trace) {
        (Workload::EngineBatch, false) => engine_bench::run(args.seed, args.seconds),
        (Workload::EngineBatch, true) => traced::engine(args.seed, args.seconds, &repo),
        (workload, false) => {
            let exe = server::build(&repo)?;
            serve_bench::run(workload, args.seed, args.seconds, &exe)
        }
        (workload, true) => {
            let exe = server::build(&repo)?;
            traced::serve(workload, args.seed, args.seconds, &exe, &repo)
        }
    }
}

/// Each workload briefly, untraced and traced: a check that the benchmark
/// itself works, not a measurement.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 1,
                seconds: 2.0,
                trace,
            };
            match run(&args) {
                Ok((metrics, tally)) => {
                    report::print_table(workload.name(), &metrics, &tally);
                    tally.explain();
                    ok &= tally.correct();
                }
                Err(e) => {
                    eprintln!("{} (trace {}): {e}", workload.name(), u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    eprintln!("smoke: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return smoke(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            report::print_table(args.workload.name(), &metrics, &tally);
            tally.explain();
            println!("{}", report::result_line(&metrics, &tally));
            if tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
