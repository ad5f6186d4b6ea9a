//! The end-to-end pass: every in-program observer off, repetitions timed
//! from outside, every plan on one thread.
//!
//! 1. Set-up: fresh child processes each run one cold repetition; the time
//!    from spawning the child to the end of that repetition is the cost a
//!    one-shot run pays, and the child's peak RSS is the memory one
//!    repetition of the workload needs.
//! 2. One untimed warm-up repetition, so allocator pages and caches are
//!    warm before timing.
//! 3. Timed repetitions for `--seconds`: no repetition starts that would
//!    end past the budget, once the minimum count is met.
//! 4. One drained run for the conservation check.
//!
//! `wall_s` is the fastest timed repetition. Other tenants of a shared host
//! only ever slow a repetition down, and they do so in bursts, so the
//! fastest repetition moves least from run to run; the median, first and
//! third quartile of all repetitions stay in the detail line and report.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use ntier_lab::Executor;
use ntier_trace::json::Json;

use crate::checks::{hex, parse_hex, Checks};
use crate::report::PassOutput;
use crate::stats::median;
use crate::workloads::{run_rep, Untimed, Workload};
use crate::Opts;

/// Fresh processes set-up time and peak RSS are medians over.
const SETUP_CHILDREN: usize = 3;

/// Fewest timed repetitions a full-size run takes, however long they last.
const MIN_REPS: usize = 3;

/// Timed repetitions of a smoke run.
const SMOKE_REPS: usize = 2;

/// Run the end-to-end pass of one workload.
pub fn run(workload: Workload, opts: &Opts) -> PassOutput {
    let plan = workload.plan(opts.seed, opts.smoke);
    let executor = Executor::serial();
    let mut checks = Checks::new(workload, opts.seed, opts.smoke);

    let mut setup = Vec::new();
    let mut rss = Vec::new();
    for i in 0..SETUP_CHILDREN {
        let what = format!("set-up child {i}");
        match setup_child(workload, opts) {
            Ok((secs, digests, mib)) => {
                setup.push(secs);
                rss.push(mib);
                checks.digests(&what, Ok(digests));
            }
            Err(e) => checks.op(&what, Err(e)),
        }
    }

    let warm = run_rep(&plan, &executor, &mut Untimed);
    checks.digests("warm-up", warm.map(|r| r.digests()));

    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let mut events = 0;
    let mut attempts = 0;
    loop {
        let done = if opts.smoke {
            attempts >= SMOKE_REPS
        } else {
            // A workload whose repetitions all fail stops at the minimum.
            let last = walls.last().copied().unwrap_or(f64::INFINITY);
            attempts >= MIN_REPS && start.elapsed().as_secs_f64() + last > opts.seconds
        };
        if done {
            break;
        }
        attempts += 1;
        let rep = run_rep(&plan, &executor, &mut Untimed);
        if let Ok(rep) = &rep {
            walls.push(rep.wall_secs);
            events = rep.events();
        }
        checks.digests(&format!("repetition {attempts}"), rep.map(|r| r.digests()));
    }

    checks.conservation(workload.drain_config(opts.seed, opts.smoke));

    let mut out = PassOutput::new(workload, false, checks);
    if !walls.is_empty() {
        let wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
        out.value("wall_s", wall);
        out.value("events_per_s", events as f64 / wall);
        let rates = walls.iter().map(|w| events as f64 / w).collect();
        out.samples.push(("wall_s".into(), walls));
        out.samples.push(("events_per_s".into(), rates));
    }
    if !setup.is_empty() {
        out.value("setup_s", median(&setup));
        out.value("peak_rss_mib", median(&rss));
        out.samples.push(("setup_s".into(), setup));
        out.samples.push(("peak_rss_mib".into(), rss));
    }
    out.notes.push(("events".into(), Json::UInt(events)));
    out
}

/// Spawn one set-up child and wait for it. Returns the seconds from spawn
/// to the end of its cold repetition, its output digests, and its peak RSS.
fn setup_child(workload: Workload, opts: &Opts) -> Result<(f64, Vec<u64>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate itself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-child", "--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut report = None;
    // Read to the end before waiting, and wait even when reading fails, so
    // the child never outlives this call.
    let read: std::io::Result<()> = BufReader::new(stdout).lines().try_for_each(|line| {
        if let Some(rest) = line?.strip_prefix("setup ") {
            report = Some((start.elapsed().as_secs_f64(), rest.to_string()));
        }
        Ok(())
    });
    let status = child.wait().map_err(|e| format!("cannot wait: {e}"))?;
    read.map_err(|e| format!("cannot read its output: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let (secs, rest) = report.ok_or("printed no set-up line")?;
    let (digests, mib) = rest.split_once(' ').ok_or("malformed set-up line")?;
    let digests = parse_hex(digests).ok_or("malformed digests")?;
    let mib = mib.parse().map_err(|_| "malformed peak RSS")?;
    Ok((secs, digests, mib))
}

/// The set-up child: run one cold repetition and report its digests and
/// this process's peak RSS.
pub fn setup_child_main(workload: Workload, opts: &Opts) -> i32 {
    let plan = workload.plan(opts.seed, opts.smoke);
    match run_rep(&plan, &Executor::serial(), &mut Untimed) {
        Ok(rep) => {
            let mib = crate::host::peak_rss_mib().unwrap_or(0.0);
            println!("setup {} {mib}", hex(&rep.digests()));
            0
        }
        Err(e) => {
            eprintln!("benchmark: set-up repetition failed: {e}");
            1
        }
    }
}
