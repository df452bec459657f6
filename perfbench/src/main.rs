//! The miv benchmark: one workload per invocation, end-to-end metrics
//! with tracing off, or per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-mcf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object; see
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod hashclock;
mod report;
mod sim;
mod store;
mod util;
mod verify;

use std::process::ExitCode;
use std::time::Duration;

use miv_trace::Benchmark;

use crate::sim::Shape;

/// mcf: modelled IPC (naive's most of all) still drifts during the
/// first 1.5M instructions after the prewarm; flat from 2M on.
const MCF: Shape = Shape {
    warmup: 2_000_000,
    measure: 2_000_000,
};
/// gzip simulates about 25k instructions per host millisecond, so a
/// longer window costs little and averages over its program phases.
const GZIP: Shape = Shape {
    warmup: 1_000_000,
    measure: 4_000_000,
};

const USAGE: &str = "usage: perfbench --workload <sim-mcf|sim-gzip|verify-rw|store-rw> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report = match args.workload.as_str() {
        "sim-mcf" => sim::run(Benchmark::Mcf.profile(), MCF, args.seed, budget, args.trace),
        "sim-gzip" => sim::run(
            Benchmark::Gzip.profile(),
            GZIP,
            args.seed,
            budget,
            args.trace,
        ),
        "verify-rw" => verify::run(args.seed, budget, args.trace),
        "store-rw" => store::run(args.seed, budget, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match report.and_then(|r| r.print(&args.workload, args.seed, args.trace)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
