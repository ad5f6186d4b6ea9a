//! What one pass prints: a detail line with every sample, then, as the last
//! line of standard output, the result object the benchmark contract
//! defines — `correct`, `attempted`, `failed`, and one `{value, unit}` per
//! metric the pass owns.

use ntier_trace::json::{obj, Json};

use crate::checks::{hex, Checks};
use crate::spec::Spec;
use crate::workloads::Workload;
use crate::Opts;

/// Everything one pass measured and checked.
pub struct PassOutput {
    /// The workload measured.
    pub workload: Workload,
    /// True for the traced pass.
    pub traced: bool,
    /// Attempted and failed operations.
    pub checks: Checks,
    /// Reported value per metric name.
    pub values: Vec<(String, f64)>,
    /// The samples behind each end-to-end value.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Free-form diagnostics kept in the detail line.
    pub notes: Vec<(String, Json)>,
}

impl PassOutput {
    /// An empty output for `workload`.
    pub fn new(workload: Workload, traced: bool, checks: Checks) -> PassOutput {
        PassOutput {
            workload,
            traced,
            checks,
            values: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a reported value.
    pub fn value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }

    /// Print the detail line and the result line, and return the exit code:
    /// 0 only when every operation passed and every metric the pass owns in
    /// `BENCHMARK.json` was measured.
    pub fn emit(mut self, spec: &Spec, opts: &Opts) -> i32 {
        let declared = spec.pass_metrics(self.traced);
        let missing: Vec<&str> = declared
            .iter()
            .filter(|m| !self.values.iter().any(|(n, _)| *n == m.name))
            .map(|m| m.name.as_str())
            .collect();
        let extra: Vec<&str> = self
            .values
            .iter()
            .filter(|(n, _)| !declared.iter().any(|m| m.name == *n))
            .map(|(n, _)| n.as_str())
            .collect();
        let non_finite: Vec<&str> = self
            .values
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| n.as_str())
            .collect();
        let complete = if missing.is_empty() && extra.is_empty() && non_finite.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics differ from BENCHMARK.json: missing [{}], undeclared [{}], not finite [{}]",
                missing.join(" "),
                extra.join(" "),
                non_finite.join(" ")
            ))
        };
        self.checks.op("metric set", complete);

        let detail = obj([
            ("workload", Json::Str(self.workload.name().into())),
            (
                "pass",
                Json::Str(if self.traced { "traced" } else { "end_to_end" }.into()),
            ),
            ("seed", Json::UInt(opts.seed)),
            ("seconds", Json::Num(opts.seconds)),
            ("smoke", Json::Bool(opts.smoke)),
            (
                "host",
                crate::host::fingerprint(if self.traced {
                    crate::workloads::parallel_executor().threads()
                } else {
                    1
                }),
            ),
            (
                "digests",
                Json::Str(self.checks.reference().map(hex).unwrap_or_default()),
            ),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(n, v)| {
                            (
                                n.clone(),
                                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            ("notes", Json::Obj(self.notes)),
            (
                "failures",
                Json::Arr(
                    self.checks
                        .failures
                        .iter()
                        .cloned()
                        .map(Json::Str)
                        .collect(),
                ),
            ),
        ]);
        println!("{}", obj([("detail", detail)]).to_compact());

        let metrics = declared
            .iter()
            .filter_map(|m| {
                // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
                let v = self.values.iter().find(|(n, _)| *n == m.name)?.1 + 0.0;
                Some((
                    m.name.clone(),
                    obj([("value", Json::Num(v)), ("unit", Json::Str(m.unit.clone()))]),
                ))
            })
            .collect();
        let correct = self.checks.failed == 0;
        println!(
            "{}",
            obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::UInt(self.checks.attempted)),
                ("failed", Json::UInt(self.checks.failed)),
                ("metrics", Json::Obj(metrics)),
            ])
            .to_compact()
        );
        for f in &self.checks.failures {
            eprintln!("benchmark: {}: {f}", self.workload.name());
        }
        if correct {
            0
        } else {
            1
        }
    }
}
