//! The whole benchmark in one command: every workload's end-to-end pass
//! and traced pass, each in a fresh child process, printed as a table and
//! saved as a JSON report that `--compare` reads.

use std::path::Path;
use std::process::{Command, Stdio};

use ntier_trace::json::{obj, Json};

use crate::spec::Spec;
use crate::stats::Summary;
use crate::workloads::Workload;
use crate::Opts;

/// What one child pass printed.
struct Pass {
    result: Json,
    detail: Json,
    ok: bool,
}

/// Run every workload, print every metric, write the report to `out`, and
/// return the exit code: 0 only when every pass of every workload passed.
pub fn run(spec: &Spec, opts: &Opts, out: &Path) -> i32 {
    let mut all_ok = true;
    let mut reports = Vec::new();
    for w in Workload::ALL {
        let passes = [child(w, opts, false), child(w, opts, true)];
        let mut attempted = 0;
        let mut failed = 0;
        let mut failures = Vec::new();
        let mut e2e = Vec::new();
        let mut layers = Vec::new();
        for (traced, pass) in [false, true].into_iter().zip(passes) {
            let pass = match pass {
                Ok(p) => p,
                Err(e) => {
                    all_ok = false;
                    failed += 1;
                    failures.push(Json::Str(e));
                    continue;
                }
            };
            all_ok &= pass.ok;
            attempted += pass
                .result
                .get("attempted")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            failed += pass
                .result
                .get("failed")
                .and_then(Json::as_u64)
                .unwrap_or(1);
            if let Some(f) = pass.detail.get("failures").and_then(Json::as_arr) {
                failures.extend(f.iter().cloned());
            }
            let metrics = pass.result.get("metrics");
            for m in spec.pass_metrics(traced) {
                let Some(value) = metrics
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                else {
                    continue;
                };
                if traced {
                    layers.push((
                        m.name.clone(),
                        obj([
                            ("unit", Json::Str(m.unit.clone())),
                            ("value", Json::Num(value)),
                        ]),
                    ));
                    continue;
                }
                let samples: Vec<f64> = pass
                    .detail
                    .get("samples")
                    .and_then(|s| s.get(&m.name))
                    .and_then(Json::as_arr)
                    .map(|v| v.iter().filter_map(Json::as_f64).collect())
                    .filter(|v: &Vec<f64>| !v.is_empty())
                    .unwrap_or_else(|| vec![value]);
                let s = Summary::of(&samples);
                e2e.push((
                    m.name.clone(),
                    obj([
                        ("unit", Json::Str(m.unit.clone())),
                        ("value", Json::Num(value)),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::UInt(s.n as u64)),
                        (
                            "values",
                            Json::Arr(samples.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ));
            }
        }
        print_workload(w, attempted, failed, &e2e, &layers);
        reports.push(obj([
            ("name", Json::Str(w.name().into())),
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::UInt(attempted)),
            ("failed", Json::UInt(failed)),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
            ("failures", Json::Arr(failures)),
        ]));
    }
    let threads = crate::workloads::parallel_executor().threads();
    let report = obj([
        ("schema", Json::UInt(1)),
        ("host", crate::host::fingerprint(threads)),
        ("seed", Json::UInt(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("workloads", Json::Arr(reports)),
    ]);
    let saved = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(out, report.to_pretty()));
    match saved {
        Ok(()) => println!("\n[saved {}]", out.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", out.display());
            all_ok = false;
        }
    }
    if all_ok {
        0
    } else {
        1
    }
}

/// Run one pass of one workload in a child process and parse what it
/// printed: the detail line and the final result line.
fn child(w: Workload, opts: &Opts, traced: bool) -> Result<Pass, String> {
    let what = format!(
        "{} {} pass",
        w.name(),
        if traced { "traced" } else { "end-to-end" }
    );
    eprintln!("[benchmark: {what}]");
    let exe = std::env::current_exe().map_err(|e| format!("{what}: cannot locate itself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{what}: cannot run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parse = |line: &str| Json::parse(line).map_err(|e| format!("{what}: bad output: {e}"));
    let result = parse(
        stdout
            .lines()
            .last()
            .ok_or(format!("{what}: printed nothing"))?,
    )?;
    let detail = stdout
        .lines()
        .find(|l| l.starts_with("{\"detail\""))
        .map(parse)
        .transpose()?
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    Ok(Pass {
        ok: output.status.success(),
        result,
        detail,
    })
}

fn print_workload(
    w: Workload,
    attempted: u64,
    failed: u64,
    e2e: &[(String, Json)],
    layers: &[(String, Json)],
) {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let unit = |j: &Json| {
        j.get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    println!("\n{}  (ops {attempted}, failed {failed})", w.name());
    for (name, m) in e2e {
        println!(
            "  {name:<14} {:>14.4} {:<9} q1 {:.4}  q3 {:.4}  n {}",
            num(m, "median"),
            unit(m),
            num(m, "q1"),
            num(m, "q3"),
            num(m, "n"),
        );
    }
    for (name, m) in layers {
        println!("    {name:<34} {:>16.6} {}", num(m, "value"), unit(m));
    }
}
