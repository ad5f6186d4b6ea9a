//! perf — the committed perf-trajectory suite.
//!
//! Runs a fixed suite — one representative configuration per figure
//! harness, one deliberately large stress topology, and one million-session
//! closed-loop point — with engine profiling on, and writes a
//! schema-versioned `BENCH_8.json` (see `ntier_report::bench_json`) with
//! events/sec, wall-clock, event counts, and peak RSS, fingerprinted with
//! the machine it ran on.
//!
//! ```text
//! cargo run --release -p ntier-bench --bin perf -- --quick
//!     regenerate the committed baseline at <workspace>/BENCH_8.json
//!
//! cargo run --release -p ntier-bench --bin perf -- --quick --check \
//!     --out target/BENCH_fresh.json
//!     CI mode: measure, write the fresh report to --out, grade it against
//!     the committed baseline. Warns (exit 0) on moderate slowdowns —
//!     shared runners are noisy — and fails (exit 1) only past the
//!     baseline's hard tolerance (2x by default).
//! ```
//!
//! Simulated results are deterministic, so only the wall-clock side varies
//! by machine, which is why the baseline embeds tolerances and a
//! fingerprint instead of expecting exact numbers.

use bench::{spec_scheduled, BenchArgs, Schedule};
use ntier_core::{HardwareConfig, SoftAllocation};
use ntier_report::{workspace_root, BenchEntry, BenchReport, Severity};
use std::path::PathBuf;
use tiers::run_system_profiled;

/// One suite member: a named representative configuration.
struct Member {
    name: &'static str,
    hw: HardwareConfig,
    soft: SoftAllocation,
    users: u32,
}

/// The fixed suite. Each figure harness is represented by one point of its
/// grid (its most loaded paper configuration); `stress` is a deliberately
/// large non-paper topology that leans on replica fan-out; `stress1m` is a
/// million-session closed-loop run exercising lazy session materialization
/// and the staged-arrival lane (sessions vastly outnumber service capacity,
/// so it stresses queue depth, not throughput).
fn suite() -> Vec<Member> {
    let m = |name, hw, soft, users| Member {
        name,
        hw,
        soft,
        users,
    };
    let h1212 = HardwareConfig::one_two_one_two();
    let h1414 = HardwareConfig::one_four_one_four();
    let rot = SoftAllocation::rule_of_thumb();
    vec![
        m("fig2", h1212, SoftAllocation::conservative(), 5400),
        m("fig3", h1414, rot, 7000),
        m("fig4", h1212, SoftAllocation::new(400, 100, 60), 3000),
        m("fig5", h1414, SoftAllocation::new(400, 150, 100), 6000),
        m("fig6", h1212, SoftAllocation::new(150, 60, 20), 3000),
        m("fig7", h1212, rot, 4600),
        m("fig10", h1414, SoftAllocation::conservative(), 5000),
        m("table1", h1212, rot, 2000),
        m("stress", HardwareConfig::new(1, 8, 1, 8), rot, 12000),
        m("stress1m", HardwareConfig::new(1, 8, 1, 8), rot, 1_000_000),
    ]
}

fn main() {
    let args = BenchArgs::parse();
    let mut check = false;
    let mut out_flag: Option<PathBuf> = None;
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--check" => check = true,
            "--out" => match rest.next() {
                Some(p) => out_flag = Some(PathBuf::from(p)),
                None => {
                    eprintln!("perf: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("perf: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    let schedule = args.schedule();
    if !args.quick {
        eprintln!("[perf: full schedule; the committed baseline uses --quick]");
    }

    // One untimed warm-up of the largest member before anything is
    // measured: the first million-session run in a process pays every page
    // fault for the session slabs, and later runs reuse the allocator's
    // warm pages — without this, the stress1m member would measure the
    // allocator's cold start rather than the engine (measured: 2.5s cold vs
    // 1.4s warm on one core).
    {
        let spec = spec_scheduled(
            HardwareConfig::new(1, 8, 1, 8),
            SoftAllocation::rule_of_thumb(),
            1_000_000,
            schedule,
        );
        let _ = tiers::run_system(spec.to_config());
    }

    let mut report = BenchReport::new(args.quick);
    for member in suite() {
        let spec = spec_scheduled(member.hw, member.soft, member.users, schedule);
        let out = run_system_profiled(spec.to_config());
        let profile = out.profile.as_ref().expect("profiled run");
        let entry = BenchEntry {
            name: member.name.to_string(),
            events: profile.events_processed,
            wall_secs: profile.wall_secs,
            events_per_sec: profile.events_per_sec(),
            peak_rss_bytes: profile.peak_rss_bytes,
        };
        println!(
            "{:<13} {:>9} events  {:>6.2}s  {:>11.0} ev/s  rss {}",
            entry.name,
            entry.events,
            entry.wall_secs,
            entry.events_per_sec,
            entry
                .peak_rss_bytes
                .map(|b| format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)))
                .unwrap_or_else(|| "n/a".into()),
        );
        report.entries.push(entry);
    }

    // Grade against the committed baseline *before* writing anything, so
    // `--check` without `--out` can never clobber the file it compares to.
    let baseline_path = workspace_root().join("BENCH_8.json");
    let out_path = out_flag.unwrap_or_else(|| {
        if check {
            workspace_root().join("target/BENCH_fresh.json")
        } else {
            baseline_path.clone()
        }
    });
    let verdicts = if check {
        match BenchReport::load(&baseline_path) {
            Ok(baseline) => Some(report.compare(&baseline)),
            Err(e) => {
                eprintln!(
                    "perf: cannot load baseline {}: {e}",
                    baseline_path.display()
                );
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    if let Err(e) = report.save(&out_path) {
        eprintln!("perf: cannot write {}: {e}", out_path.display());
        std::process::exit(2);
    }
    println!("[saved {}]", out_path.display());

    if let Some(verdicts) = verdicts {
        println!("\nvs committed {}:", baseline_path.display());
        let mut hard_fail = false;
        for v in &verdicts {
            println!("  {}", v.line());
            hard_fail |= v.severity == Severity::Fail;
        }
        if hard_fail {
            eprintln!("perf: hard regression (slower than the baseline's fail tolerance)");
            std::process::exit(1);
        }
    }

    // The suite only measures quick schedules exactly like the committed
    // baseline when --quick is passed; remind once at the end too.
    if !args.quick && schedule == Schedule::Default {
        eprintln!("[perf: measured the full schedule; do not commit this as BENCH_8.json]");
    }
}
