//! `BENCHMARK.json`, compiled in: the metric names, units, directions and
//! bounds the benchmark reports against, and the default run length.

use ntier_trace::json::Json;

/// The repository's benchmark definition.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `s` or `count`.
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    /// End-to-end metrics, reported by the end-to-end pass.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported by the traced pass.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`. It is part of the source, so
    /// a malformed file is a build defect and panics.
    pub fn load() -> Spec {
        let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
                .iter()
                .map(|m| MetricSpec {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    higher_is_better: field(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json has run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics one pass reports: per-layer for the traced pass,
    /// end-to-end otherwise.
    pub fn pass_metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn field(m: &Json, key: &str) -> String {
    m.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json metric lacks '{key}'"))
        .to_string()
}
