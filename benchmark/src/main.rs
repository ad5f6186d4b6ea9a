//! benchmark — the repository benchmark of the n-tier simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml
//!     every workload, end-to-end and traced pass, each in a child
//!     process; prints every metric and writes target/benchmark/report.json
//!
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 15 --trace 0
//!     one pass of one workload; the last line of standard output is the
//!     result object ({"correct", "attempted", "failed", "metrics"})
//!
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --compare BASE.json HEAD.json
//!     grade one report against another
//! ```
//!
//! Options: `--seed N` (default 0x5eed0001, the seed `expected.json` pins
//! digests at), `--seconds S` (default `run_seconds` of `BENCHMARK.json`),
//! `--trace 0|1` (end-to-end or traced pass), `--smoke` (shrunk
//! configurations, two repetitions: checks the benchmark itself, measures
//! nothing), `--out PATH` (report path of the full run).
//!
//! The exit code is 0 only when every operation passed its checks.

mod checks;
mod compare;
mod e2e;
mod host;
mod report;
mod spec;
mod stats;
mod suite;
mod traced;
mod workloads;

use std::path::PathBuf;

use workloads::{Workload, DEFAULT_SEED};

/// Settings shared by every pass.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every workload's inputs derive from.
    pub seed: u64,
    /// Seconds the timed part of a pass lasts.
    pub seconds: f64,
    /// Shrunk configurations and two repetitions.
    pub smoke: bool,
}

/// What the command line asked for.
enum Mode {
    Suite(PathBuf),
    Pass(Workload, bool),
    SetupChild(Workload),
    Compare(PathBuf, PathBuf),
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String], spec: &spec::Spec) -> Result<(Mode, Opts), String> {
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        smoke: false,
    };
    let mut workload = None;
    let mut traced = false;
    let mut setup_child = false;
    let mut compare = None;
    let mut out = host::out_dir().join("report.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value()?;
                opts.seed = parse_seed(v).ok_or(format!("bad seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds '{v}'"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            "--setup-child" => setup_child = true,
            "--compare" => {
                let base = PathBuf::from(value()?);
                compare = Some((base, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let mode = match (compare, workload, setup_child) {
        (Some((b, h)), None, false) => Mode::Compare(b, h),
        (None, Some(w), true) => Mode::SetupChild(w),
        (None, Some(w), false) => Mode::Pass(w, traced),
        (None, None, false) => Mode::Suite(out),
        _ => return Err("--compare, --workload and --setup-child do not combine that way".into()),
    };
    Ok((mode, opts))
}

fn main() {
    let spec = spec::Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, opts) = match parse(&args, &spec) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--smoke] [--out PATH]\n       benchmark --compare BASE.json HEAD.json"
            );
            std::process::exit(2);
        }
    };
    let code = match mode {
        Mode::Suite(out) => suite::run(&spec, &opts, &out),
        Mode::Pass(w, false) => e2e::run(w, &opts).emit(&spec, &opts),
        Mode::Pass(w, true) => traced::run(w, &opts).emit(&spec, &opts),
        Mode::SetupChild(w) => e2e::setup_child_main(w, &opts),
        Mode::Compare(base, head) => compare::run(&spec, &base, &head),
    };
    std::process::exit(code);
}
