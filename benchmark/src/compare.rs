//! `--compare BASE.json HEAD.json`: grade one benchmark report against
//! another, metric by metric and workload by workload.
//!
//! For every end-to-end metric the verdict follows the benchmark's bound:
//! *unresolved* when either side's quartile spread exceeds the bound
//! (unless every head sample beats every base sample), *worse* when the
//! head median is worse by more than the bound, *better* when it is better
//! by more than the base's own spread, and *within bound* otherwise. The
//! per-layer deltas follow, so a change arrives with its attribution.

use std::path::Path;

use ntier_trace::json::Json;

use crate::spec::Spec;
use crate::stats::Summary;

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base's own spread.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Neither.
    WithinBound,
    /// Too noisy to tell against the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge head samples against base samples of a metric with `bound`.
pub fn verdict(base: &[f64], head: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (b, h) = (Summary::of(base), Summary::of(head));
    let rel = (h.median - b.median) / b.median;
    let worse_by = if higher_is_better { -rel } else { rel };
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    if b.spread() > bound || h.spread() > bound {
        let all_better = head.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > b.spread() {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Print the comparison; returns the exit code (2 when a report cannot be
/// read).
pub fn run(spec: &Spec, base_path: &Path, head_path: &Path) -> i32 {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (base, head) = match (load(base_path), load(head_path)) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: cannot read report {e}");
            return 2;
        }
    };
    let workloads = |r: &Json| {
        r.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let host = |r: &Json, k: &str| {
        r.get("host")
            .and_then(|h| h.get(k))
            .map(Json::to_compact)
            .unwrap_or_default()
    };
    println!(
        "base {} (git {})",
        base_path.display(),
        host(&base, "git_head")
    );
    println!(
        "head {} (git {})",
        head_path.display(),
        host(&head, "git_head")
    );
    if host(&base, "cpu_model") != host(&head, "cpu_model")
        || host(&base, "nproc") != host(&head, "nproc")
    {
        println!("warning: the reports come from different hosts; only same-host comparisons hold");
    }
    for hw in workloads(&head) {
        let name = hw.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(bw) = workloads(&base)
            .into_iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("\n{name}: not in the base report");
            continue;
        };
        println!(
            "\n{name}  (failed: base {}, head {})",
            bw.get("failed").map(Json::to_compact).unwrap_or_default(),
            hw.get("failed").map(Json::to_compact).unwrap_or_default()
        );
        for m in &spec.end_to_end {
            let samples = |w: &Json| -> Vec<f64> {
                w.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(|e| e.get("values"))
                    .and_then(Json::as_arr)
                    .map(|v| v.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default()
            };
            let (b, h) = (samples(&bw), samples(&hw));
            if b.is_empty() || h.is_empty() {
                println!("  {:<14} missing", m.name);
                continue;
            }
            let (sb, sh) = (Summary::of(&b), Summary::of(&h));
            println!(
                "  {:<14} base {:>12.4} [{:.4}, {:.4}]  head {:>12.4} [{:.4}, {:.4}]  {:+6.1}%  {} (bound {:.0}%)",
                m.name,
                sb.median,
                sb.q1,
                sb.q3,
                sh.median,
                sh.q1,
                sh.q3,
                (sh.median - sb.median) / sb.median * 100.0,
                verdict(&b, &h, m.higher_is_better, m.bound).label(),
                m.bound * 100.0,
            );
        }
        for m in &spec.per_layer {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|l| l.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(b), Some(h)) = (value(&bw), value(&hw)) {
                let delta = if b != 0.0 {
                    format!("{:+.1}%", (h - b) / b.abs() * 100.0)
                } else if h == 0.0 {
                    "=".to_string()
                } else {
                    "new".to_string()
                };
                println!(
                    "    {:<34} {:>16.6} -> {:>16.6} {:<6} {}",
                    m.name, b, h, m.unit, delta
                );
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let faster = [0.90, 0.91, 0.89, 0.90, 0.92];
        let same = [1.01, 1.00, 1.02, 0.99, 1.00];
        assert_eq!(verdict(&base, &slower, false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &faster, false, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &same, false, 0.1), Verdict::WithinBound);
        // Higher-is-better flips the reading.
        assert_eq!(verdict(&base, &slower, true, 0.1), Verdict::Better);
        // A spread wider than the bound leaves the verdict open...
        let noisy = [0.7, 1.3, 0.8, 1.25, 1.0];
        assert_eq!(verdict(&base, &noisy, false, 0.1), Verdict::Unresolved);
        // ...unless every head sample beats every base sample.
        let noisy_fast = [0.5, 0.9, 0.6, 0.95, 0.7];
        assert_eq!(verdict(&base, &noisy_fast, false, 0.1), Verdict::Better);
    }
}
