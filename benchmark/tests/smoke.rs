//! Smoke test of the benchmark itself: shrunk configurations and two
//! repetitions, so it checks the harness rather than measuring anything.
//! Every metric `BENCHMARK.json` declares must come out with its unit, no
//! operation may fail, passes in separate processes must agree on the
//! output digests, and `--compare` must read the report the full run wrote.

use std::path::Path;
use std::process::{Command, Output};

use ntier_trace::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Run the benchmark with its output directory under `scratch`, which each
/// test names for itself so tests running in parallel share no file.
fn benchmark(scratch: &str, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(scratch),
        )
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn declared(key: &str) -> Vec<(String, String)> {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_pass_reports_every_declared_metric_without_failures() {
    for w in workloads() {
        let mut digests = Vec::new();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = ["--smoke", "--workload", &w, "--trace", trace, "--seed", "7"];
            let out = benchmark("passes", &args);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            let Json::Obj(fields) = &result else {
                panic!("{w}: result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{w}");
            assert!(
                result.get("attempted").and_then(Json::as_u64) > Some(1),
                "{w}"
            );
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in declared(key) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{w} {name}"
                );
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{w} {name}"
                );
            }
            let detail = stdout
                .lines()
                .find_map(|l| Json::parse(l).ok()?.get("detail").cloned())
                .expect("a detail line");
            digests.push(detail.get("digests").cloned().expect("digests"));
        }
        assert_eq!(digests[0], digests[1], "{w}: passes disagree on the output");
    }
}

#[test]
fn full_run_writes_a_report_that_compares_clean() {
    let report = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-report.json");
    let out = benchmark(
        "suite",
        &["--smoke", "--out", report.to_str().expect("utf-8 path")],
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    for (name, unit) in declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
    {
        assert!(
            text.contains(&name) && text.contains(&unit),
            "the table lacks {name} [{unit}]"
        );
    }
    let saved = Json::parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report parses");
    for w in saved
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            w.get("per_layer").and_then(|l| match l {
                Json::Obj(f) => Some(f.len()),
                _ => None,
            }),
            Some(declared("per_layer").len())
        );
    }
    let path = report.to_str().expect("utf-8 path");
    let cmp = benchmark("suite", &["--compare", path, path]).stdout;
    let cmp = String::from_utf8(cmp).expect("utf-8 output");
    assert!(cmp.contains("wall_s"), "{cmp}");
    assert!(
        !cmp.contains("worse"),
        "a report is never worse than itself:\n{cmp}"
    );
}
