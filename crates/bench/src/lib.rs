//! Shared helpers for the figure/table regeneration harnesses.
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper by
//! declaring an [`ExperimentPlan`] (variants × workload ramp) and running it
//! through `ntier-lab`'s executor: [`plan`] seeds the plan from the shared
//! CLI flags, [`variant`] attaches any `--faults` windows, and [`execute`]
//! honors `--threads` (parallel work-stealing execution), `--store`
//! (resumable artifact store), and `--metrics` (per-point CSV time series).
//! The printed series and saved JSON artifacts land under
//! `target/paper-results/`.

use metrics::slo_burn;
use ntier_core::{
    ExperimentSpec, HardwareConfig, MetricsConfig, SoftAllocation, Topology, TraceConfig,
};
use ntier_trace::json::Json;
use ntier_trace::Bucket;
use std::fs;
use std::path::{Path, PathBuf};

pub use ntier_lab::{
    run_plan, run_plan_with_store, ArtifactStore, BenchArgs, Executor, ExperimentPlan, FaultFlag,
    PlanResults, RunPoint, Schedule, Variant,
};

/// Build one spec with the bench schedule. The configuration is expressed
/// as an explicit [`Topology`] (the paper 4-tier chain for this
/// hardware/allocation pair) so figure configs and non-paper chains flow
/// through the same assembly path.
pub fn spec(hw: HardwareConfig, soft: SoftAllocation, users: u32) -> ExperimentSpec {
    let mut s = ExperimentSpec::new(hw, soft, users).with_topology(Topology::paper(hw, soft));
    s.schedule = Schedule::Default;
    s
}

/// Start a figure's experiment plan from the shared CLI flags: the bench
/// schedule (honoring `--quick`), passive windowed collection when
/// `--metrics` was given, and engine profiling when `--profile` was. Add
/// variants and the workload ramp, then run it with [`execute`].
pub fn plan(name: &str, args: &BenchArgs) -> ExperimentPlan {
    let mut p = ExperimentPlan::new(name)
        .with_schedule(args.schedule())
        .with_profile(args.profile);
    if let Some(sink) = &args.metrics {
        p = p.with_metrics(sink.config());
    }
    let flight = args.flight();
    if flight.enabled() {
        // The recorder classifies the spans the tracer records, so arming
        // it from the CLI implies tracing every request.
        p = p.with_flight(flight).with_trace(TraceConfig::Full);
    }
    if let Some(slo) = args.slo {
        // The burn-rate alert stream reads per-window violation counts, so
        // an SLO implies the windowed metrics pipeline.
        p = p.with_slo(slo);
        if p.metrics == MetricsConfig::Off {
            p = p.with_metrics(MetricsConfig::windowed_default());
        }
    }
    p
}

/// A paper-chain variant with the CLI `--faults` injections (crash, slow,
/// drop) and `--retry`/`--retry-budget` overrides attached; exits with the
/// [`tiers::TopologyError`] message when a flag is out of scope (e.g.
/// crashing the web tier).
pub fn variant(args: &BenchArgs, hw: HardwareConfig, soft: SoftAllocation) -> Variant {
    let mut topo = Topology::paper(hw, soft);
    if let Err(e) = args.apply_faults(&mut topo) {
        eprintln!("bench flags: {e}");
        std::process::exit(2);
    }
    let mut v = Variant::paper(hw, soft).with_topology(topo);
    if let Some(retry) = args.retry {
        v = v.with_retry(retry);
    }
    if let Some(budget) = args.retry_budget {
        v = v.with_retry_budget(budget);
    }
    v
}

/// Execute a plan with the shared CLI flags applied: `--threads` picks the
/// worker count (all cores by default), `--store DIR` reuses points already
/// in the artifact-store manifest, and `--metrics PATH[:WINDOW_MS]` writes
/// one CSV of windowed time series per executed point. Exits with the error
/// message when the store directory is unusable (CLI boundary — everything
/// below returns `Result`).
pub fn execute(args: &BenchArgs, plan: &ExperimentPlan) -> PlanResults {
    let executor = args.executor();
    let outcome = match &args.store {
        Some(dir) => ArtifactStore::open(anchor(dir))
            .and_then(|mut store| run_plan_with_store(plan, &executor, &mut store)),
        None => Ok(run_plan(plan, &executor)),
    };
    let results = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench store: {e}");
            std::process::exit(2);
        }
    };
    if results.skipped > 0 {
        println!(
            "[store: reused {} of {} points, executed {}]",
            results.skipped,
            results.points.len(),
            results.executed
        );
    }
    dump_metrics(args, &results);
    if args.slo.is_some() {
        dump_alerts(&results);
    }
    if args.tail_sample.is_some() {
        dump_flight(&results);
    }
    if args.profile {
        dump_profiles(&results);
    }
    results
}

/// When `--slo` was given, print each point's burn-rate alert stream after
/// the tables (empty stream ⇒ one quiet line, so absence is visible too).
fn dump_alerts(results: &PlanResults) {
    for (point, m) in results.points.iter().zip(&results.metrics) {
        let Some(m) = m else { continue };
        let alerts = slo_burn::alerts(&m.client, m.window.as_secs_f64());
        println!("\n[slo {}]", point.label);
        if alerts.is_empty() {
            println!("no burn-rate alerts (error budget intact)");
        } else {
            print!("{}", slo_burn::render_alerts(&alerts));
        }
    }
}

/// When `--tail-sample` was given, print each executed point's critical-path
/// profile (top buckets of the merged attribution) and its slowest retained
/// exemplars with their dominant latency bucket.
fn dump_flight(results: &PlanResults) {
    for (point, trace) in results.points.iter().zip(&results.traces) {
        let Some(flight) = trace.as_ref().and_then(|t| t.flight.as_deref()) else {
            continue;
        };
        println!("\n[critical-path {}]", point.label);
        let profile = flight.profile();
        let mut ranked: Vec<Bucket> = Bucket::ALL.into_iter().collect();
        ranked.sort_by_key(|b| std::cmp::Reverse(profile.get(*b)));
        let top: Vec<String> = ranked
            .iter()
            .take(3)
            .filter(|b| profile.get(**b) > 0)
            .map(|b| format!("{} {:.0}%", b.label(), profile.fraction(*b) * 100.0))
            .collect();
        println!(
            "retained {} exemplars across {} windows ({} truncated): {}",
            flight.retained(),
            flight.windows.len(),
            flight.truncated_windows(),
            if top.is_empty() {
                "no classified latency".to_string()
            } else {
                top.join(", ")
            }
        );
        for e in flight.slowest(3) {
            let (b, us) = e.attribution.dominant();
            println!(
                "  trace {} {:.3}s [{}] dominant {} ({:.0}%)",
                e.trace,
                e.latency.as_secs_f64(),
                e.kind.label(),
                b.label(),
                if e.attribution.latency_micros == 0 {
                    0.0
                } else {
                    us as f64 / e.attribution.latency_micros as f64 * 100.0
                }
            );
        }
    }
}

/// When `--profile` was given, print each point's engine phase-timing
/// summary after the tables. Profiling is passive, so the tables above are
/// bit-identical with or without the flag.
fn dump_profiles(results: &PlanResults) {
    for (point, out) in results.points.iter().zip(&results.outputs) {
        let Some(profile) = &out.profile else {
            continue;
        };
        println!("\n[profile {}]", point.label);
        println!("{}", profile.summary());
    }
}

/// When `--metrics` was given, write one CSV of windowed series per metered
/// point (suffix = the point label with path-hostile characters mapped
/// away). Collection is passive, so the CSVs describe exactly the published
/// numbers.
fn dump_metrics(args: &BenchArgs, results: &PlanResults) {
    let Some(sink) = &args.metrics else {
        return;
    };
    let mut sink = sink.clone();
    if sink.path.is_relative() {
        sink.path = anchor(&sink.path);
    }
    for (point, m) in results.points.iter().zip(&results.metrics) {
        let Some(m) = m else { continue };
        let suffix: String = point
            .label
            .chars()
            .map(|c| if c == '/' || c == '\\' { '-' } else { c })
            .collect();
        match sink.write_csv_suffixed(&suffix, m) {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("--metrics: cannot write {}: {e}", sink.path.display()),
        }
    }
}

/// Bench binaries run with the package dir as cwd; anchor relative paths at
/// the workspace root so `--store target/lab` and `--metrics target/m.csv`
/// land where users look (same convention as [`save_json`]).
fn anchor(path: &Path) -> PathBuf {
    if path.is_relative() {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    } else {
        path.to_path_buf()
    }
}

/// Print a header for a figure/table.
pub fn banner(title: &str, caption: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{caption}");
    println!("{}", "=".repeat(78));
}

/// Print one labeled series as an aligned table: rows = workloads,
/// columns = one per configuration.
pub fn print_series(
    row_label: &str,
    rows: &[u32],
    col_labels: &[String],
    columns: &[Vec<f64>],
    unit: &str,
) {
    print!("{row_label:>8}");
    for l in col_labels {
        print!(" {l:>22}");
    }
    println!("   [{unit}]");
    for (i, r) in rows.iter().enumerate() {
        print!("{r:>8}");
        for col in columns {
            print!(" {:>22.1}", col[i]);
        }
        println!();
    }
}

/// Percentage difference `(a-b)/b`, as the paper quotes ("X% higher").
pub fn pct_diff(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        return f64::INFINITY;
    }
    (a - b) / b * 100.0
}

/// Save a JSON artifact next to the printed table (always under the
/// workspace root's `target/paper-results/`, independent of the bench
/// binary's working directory).
pub fn save_json(name: &str, value: &Json) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target/paper-results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if fs::write(&path, value.to_pretty()).is_ok() {
        println!("[saved {}]", path.display());
    }
}

/// Save a raw string artifact (JSONL, Chrome trace) under
/// `target/paper-results/`.
pub fn save_text(name: &str, contents: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target/paper-results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(name);
    if fs::write(&path, contents).is_ok() {
        println!("[saved {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_matches_paper_convention() {
        assert!((pct_diff(128.0, 100.0) - 28.0).abs() < 1e-12);
        assert_eq!(pct_diff(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn spec_uses_bench_schedule() {
        let s = spec(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::conservative(),
            1000,
        );
        assert_eq!(s.schedule, Schedule::Default);
        assert_eq!(s.users, 1000);
    }

    #[test]
    fn plan_carries_schedule_and_metrics_flags() {
        let args =
            BenchArgs::try_parse_from(["--quick", "--metrics", "m.csv:250"].map(String::from))
                .expect("parses");
        let p = plan("t", &args);
        assert_eq!(p.schedule, Schedule::Quick);
        assert!(p.metrics.enabled());
        assert_eq!(plan("t", &BenchArgs::default()).schedule, Schedule::Default);
    }

    #[test]
    fn variant_attaches_fault_windows() {
        let args = BenchArgs::try_parse_from(["--faults", "db:1@40-70"].map(String::from))
            .expect("parses");
        let v = variant(
            &args,
            HardwareConfig::one_two_one_two(),
            SoftAllocation::rule_of_thumb(),
        );
        let topo = v.topology.expect("explicit chain");
        assert_eq!(topo.tiers[3].fault.crashes.len(), 1);
    }
}
