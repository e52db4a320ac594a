//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ucbench/Cargo.toml -- \
//!     --workload <campaign-direct|query-serve|live-ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, checks the
//! program's outputs against the repository's oracles, and prints one
//! JSON object as the last line of stdout: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are every
//! end-to-end metric of `BENCHMARK.json`, which each workload measures
//! on its own work; with `--trace 1` they are every per-layer metric,
//! taken from spans this crate records around its calls into each layer
//! (0 for a layer the workload never calls), and the spans with their
//! self times are written to `.bench_out/`. See `ucbench/NOTES.md`.

mod campaign;
mod live;
mod mix;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;
use util::WorkDir;

/// The program's worker-thread ceiling: the benchmark host has two cores.
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("trace-{workload}-seed{seed}.json"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ucbench: {e}");
            return ExitCode::from(2);
        }
    };
    unprotected_computing::parallel::set_thread_limit(Some(THREADS));
    let tracer = Tracer::new(args.trace);
    let work = match WorkDir::new(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ucbench: work dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match args.workload.as_str() {
        "campaign-direct" => campaign::run,
        "query-serve" => serve::run,
        "live-ingest" => live::run,
        other => {
            eprintln!("ucbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(args.seed, args.seconds, &tracer, &work).and_then(|mut o| {
        o.finish(args.trace)?;
        Ok(o)
    });
    drop(work);
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ucbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
