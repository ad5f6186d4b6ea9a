//! Metrics dashboard: run one metered trial and render the fine-grained
//! windowed time series as a plain-text dashboard with an automated
//! diagnosis of the run (under-allocation, GC over-allocation, or healthy).
//!
//! ```text
//! cargo run --release --example metrics_dashboard
//! cargo run --release --example metrics_dashboard -- --quick --users 2000
//! cargo run --release --example metrics_dashboard -- \
//!     --hw 1/2/1/2 --soft 400-6-6 --users 5000 --window 50 --csv run.csv
//! ```
//!
//! Flags (all optional): the shared [`BenchArgs`] set (`--hw`, `--soft`,
//! `--users N`, `--quick`, `--profile`) plus the dashboard's own extras,
//! picked out of [`BenchArgs::rest`]:
//!
//! * `--window MS` — metrics window in milliseconds (default 100).
//! * `--csv PATH` — also dump the per-window series as CSV.
//! * `--gnuplot DIR` — also write the gnuplot-ready figure series
//!   (Fig. 4 / Fig. 8 / Fig. 10 styles) into `DIR`.

use rubbos_ntier::metrics::export;
use rubbos_ntier::prelude::*;
use rubbos_ntier::simcore::SimTime;

/// The dashboard's own flags, parsed from what the shared parser left over.
struct Extras {
    window: SimTime,
    csv: Option<std::path::PathBuf>,
    gnuplot: Option<std::path::PathBuf>,
}

fn parse_extras(rest: &[String]) -> Result<Extras, String> {
    let mut extras = Extras {
        window: SimTime::from_millis(100),
        csv: None,
        gnuplot: None,
    };
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--window" => {
                let v = value("--window")?;
                let ms: u64 = v.parse().map_err(|e| format!("--window '{v}': {e}"))?;
                if ms == 0 {
                    return Err("--window must be > 0 ms".into());
                }
                extras.window = SimTime::from_millis(ms);
            }
            "--csv" => extras.csv = Some(value("--csv")?.into()),
            "--gnuplot" => extras.gnuplot = Some(value("--gnuplot")?.into()),
            other => {
                return Err(format!(
                    "unknown flag '{other}' \
                     (see --hw/--soft/--users/--quick/--window/--csv/--gnuplot)"
                ))
            }
        }
    }
    Ok(extras)
}

fn main() {
    let args = BenchArgs::parse();
    let extras = match parse_extras(&args.rest) {
        Ok(extras) => extras,
        Err(e) => {
            eprintln!("metrics_dashboard: {e}");
            std::process::exit(2);
        }
    };
    let hw = args.hw_or(HardwareConfig::one_two_one_two());
    let soft = args.soft_or(SoftAllocation::rule_of_thumb());
    let users = args.users_or(vec![3000])[0];

    // One metered single-point plan through the shared engine; `--profile`
    // adds the engine summary (with per-shard load rows) after the
    // dashboard.
    let plan = ExperimentPlan::new("metrics-dashboard")
        .with_schedule(args.schedule())
        .with_variant(Variant::paper(hw, soft))
        .with_users([users])
        .with_metrics(MetricsConfig::windowed(extras.window))
        .with_profile(args.profile);

    println!("running {}({soft}) @ {users} users ...", hw);
    let results = run_plan(&plan, &Executor::serial());
    let out = &results.outputs[0];
    let m = results.metrics[0].as_ref().expect("metered plan");

    println!();
    print!("{}", export::dashboard(m));
    println!(
        "run summary: {:.1} req/s throughput, goodput@2s {:.1} req/s, mean RT {:.0} ms",
        out.throughput,
        out.goodput_at(2.0),
        out.mean_rt * 1e3,
    );
    if let Some(profile) = &out.profile {
        println!("\nengine profile:");
        print!("{}", profile.summary());
    }

    if let Some(path) = &extras.csv {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(path, export::to_csv(m)) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("--csv: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(dir) = &extras.gnuplot {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--gnuplot: cannot create {}: {e}", dir.display());
        } else {
            for (name, contents) in export::gnuplot_series(m) {
                let path = dir.join(name);
                match std::fs::write(&path, contents) {
                    Ok(()) => println!("[saved {}]", path.display()),
                    Err(e) => eprintln!("--gnuplot: cannot write {}: {e}", path.display()),
                }
            }
        }
    }
}
