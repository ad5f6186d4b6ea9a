//! The committed perf-trajectory format (`BENCH_8.json`).
//!
//! The `perf` binary in `ntier-bench` runs a fixed suite and writes one
//! [`BenchReport`]: schema-versioned, fingerprinted (OS/arch/cores), one
//! [`BenchEntry`] per suite member with events/sec, wall-clock, event count,
//! and peak RSS. The copy committed at the workspace root is the repo's
//! performance trajectory; CI regenerates a fresh one and [`BenchReport::
//! compare`] grades the regression: events/sec is the primary metric,
//! `warn_ratio`/`fail_ratio` bound how much slower the current run may be
//! before the comparison warns or fails. Shared CI runners are noisy, so
//! the suite is graded on ratios with generous tolerances rather than
//! absolute numbers.

use std::fs;
use std::path::Path;

use ntier_trace::json::{obj, Json};

use crate::ReportError;

/// Schema version of the committed bench JSON. Bump on breaking changes so
/// `compare` can refuse mismatched baselines instead of mis-reading them.
/// Version-2 reports written before the multi-worker suite members were
/// removed also carry per-shard `shards` rows; readers ignore them.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// The machine a report was measured on. Informational: comparisons never
/// gate on the fingerprint, but a cross-machine diff should be read with
/// the fingerprints side by side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism at capture time.
    pub cpus: u64,
}

impl Fingerprint {
    /// Capture the current machine's fingerprint.
    pub fn capture() -> Fingerprint {
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// One suite member's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Suite member name (e.g. `fig2`, `stress`).
    pub name: String,
    /// Events processed across the member's runs.
    pub events: u64,
    /// Wall-clock seconds of simulation (sum over the member's runs).
    pub wall_secs: f64,
    /// Events per wall-clock second — the graded metric.
    pub events_per_sec: f64,
    /// Peak RSS in bytes after the member ran (`None` off Linux). VmHWM is
    /// a process-wide high-water mark, so within one report it is
    /// monotone across entries in run order.
    pub peak_rss_bytes: Option<u64>,
}

/// Severity of one entry's comparison against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Within tolerance.
    Ok,
    /// Slower than `warn_ratio` allows (or the entry is new/missing).
    Warn,
    /// Slower than `fail_ratio` allows — a hard regression.
    Fail,
}

/// One entry's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct BenchComparison {
    /// Suite member name.
    pub name: String,
    /// Baseline events/sec (`None` when the entry is new).
    pub baseline_eps: Option<f64>,
    /// Current events/sec (`None` when the entry disappeared).
    pub current_eps: Option<f64>,
    /// Slowdown ratio `baseline / current` (> 1 means slower), when both
    /// sides exist.
    pub ratio: Option<f64>,
    /// Graded severity.
    pub severity: Severity,
}

impl BenchComparison {
    /// One-line rendering for CI logs.
    pub fn line(&self) -> String {
        let grade = match self.severity {
            Severity::Ok => "ok  ",
            Severity::Warn => "WARN",
            Severity::Fail => "FAIL",
        };
        match (self.baseline_eps, self.current_eps, self.ratio) {
            (Some(b), Some(c), Some(r)) => format!(
                "{grade} {:<12} {:>12.0} -> {:>12.0} ev/s  ({:.2}x {})",
                self.name,
                b,
                c,
                r.max(1.0 / r),
                if r > 1.0 { "slower" } else { "faster or equal" }
            ),
            (None, Some(c), _) => {
                format!(
                    "{grade} {:<12} new entry at {c:.0} ev/s (no baseline)",
                    self.name
                )
            }
            (Some(b), None, _) => {
                format!(
                    "{grade} {:<12} missing (baseline had {b:.0} ev/s)",
                    self.name
                )
            }
            _ => format!("{grade} {:<12} no data", self.name),
        }
    }
}

/// A full perf-trajectory report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] when written by this code).
    pub schema: u64,
    /// Machine the report was measured on.
    pub fingerprint: Fingerprint,
    /// Whether the suite ran on the quick schedule (the committed baseline
    /// always does).
    pub quick: bool,
    /// Tolerances the baseline was committed with: slowdown ratios at which
    /// a comparison warns / fails.
    pub warn_ratio: f64,
    /// Hard-failure slowdown ratio.
    pub fail_ratio: f64,
    /// One entry per suite member, in run order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// A new report for the current machine with the default tolerances
    /// (warn at 1.5× slower, fail at 2× — generous because CI runners are
    /// shared and noisy).
    pub fn new(quick: bool) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA_VERSION,
            fingerprint: Fingerprint::capture(),
            quick,
            warn_ratio: 1.5,
            fail_ratio: 2.0,
            entries: Vec::new(),
        }
    }

    /// Serialize to the committed JSON form.
    pub fn to_json(&self) -> Json {
        obj([
            ("schema", Json::UInt(self.schema)),
            (
                "fingerprint",
                obj([
                    ("os", Json::Str(self.fingerprint.os.clone())),
                    ("arch", Json::Str(self.fingerprint.arch.clone())),
                    ("cpus", Json::UInt(self.fingerprint.cpus)),
                ]),
            ),
            ("quick", Json::Bool(self.quick)),
            ("warn_ratio", Json::Num(self.warn_ratio)),
            ("fail_ratio", Json::Num(self.fail_ratio)),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            obj([
                                ("name", Json::Str(e.name.clone())),
                                ("events", Json::UInt(e.events)),
                                ("wall_secs", Json::Num(e.wall_secs)),
                                ("events_per_sec", Json::Num(e.events_per_sec)),
                                (
                                    "peak_rss_bytes",
                                    e.peak_rss_bytes.map_or(Json::Null, Json::UInt),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a report, validating the schema version.
    pub fn from_json(v: &Json) -> Result<BenchReport, ReportError> {
        let err = |msg: &str| ReportError::Parse(msg.to_string());
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing 'schema'"))?;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(ReportError::Parse(format!(
                "bench schema {schema} unsupported (expected {BENCH_SCHEMA_VERSION})"
            )));
        }
        let fp = v
            .get("fingerprint")
            .ok_or_else(|| err("missing 'fingerprint'"))?;
        let fingerprint = Fingerprint {
            os: fp
                .get("os")
                .and_then(Json::as_str)
                .ok_or_else(|| err("fingerprint missing 'os'"))?
                .to_string(),
            arch: fp
                .get("arch")
                .and_then(Json::as_str)
                .ok_or_else(|| err("fingerprint missing 'arch'"))?
                .to_string(),
            cpus: fp.get("cpus").and_then(Json::as_u64).unwrap_or(1),
        };
        let entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("missing 'entries'"))?
            .iter()
            .map(|e| -> Result<BenchEntry, ReportError> {
                Ok(BenchEntry {
                    name: e
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| err("entry missing 'name'"))?
                        .to_string(),
                    events: e.get("events").and_then(Json::as_u64).unwrap_or(0),
                    wall_secs: e
                        .get("wall_secs")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| err("entry missing 'wall_secs'"))?,
                    events_per_sec: e
                        .get("events_per_sec")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| err("entry missing 'events_per_sec'"))?,
                    peak_rss_bytes: e.get("peak_rss_bytes").and_then(Json::as_u64),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema,
            fingerprint,
            quick: v.get("quick").and_then(Json::as_bool).unwrap_or(false),
            warn_ratio: v.get("warn_ratio").and_then(Json::as_f64).unwrap_or(1.5),
            fail_ratio: v.get("fail_ratio").and_then(Json::as_f64).unwrap_or(2.0),
            entries,
        })
    }

    /// Load a report from disk.
    pub fn load(path: &Path) -> Result<BenchReport, ReportError> {
        let text = fs::read_to_string(path)?;
        let json = Json::parse(&text)
            .map_err(|e| ReportError::Parse(format!("{}: {e}", path.display())))?;
        BenchReport::from_json(&json)
    }

    /// Write the report to disk (pretty, trailing newline — diff-friendly
    /// for the committed baseline).
    pub fn save(&self, path: &Path) -> Result<(), ReportError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut text = self.to_json().to_pretty();
        text.push('\n');
        fs::write(path, text)?;
        Ok(())
    }

    /// Grade this (current) report against a committed baseline, using the
    /// *baseline's* tolerances. Entries are matched by name; new entries
    /// and entries that disappeared grade `Warn`.
    pub fn compare(&self, baseline: &BenchReport) -> Vec<BenchComparison> {
        let mut out = Vec::new();
        for b in &baseline.entries {
            let current = self.entries.iter().find(|e| e.name == b.name);
            match current {
                Some(c) if c.events_per_sec > 0.0 => {
                    let ratio = b.events_per_sec / c.events_per_sec;
                    let severity = if ratio > baseline.fail_ratio {
                        Severity::Fail
                    } else if ratio > baseline.warn_ratio {
                        Severity::Warn
                    } else {
                        Severity::Ok
                    };
                    out.push(BenchComparison {
                        name: b.name.clone(),
                        baseline_eps: Some(b.events_per_sec),
                        current_eps: Some(c.events_per_sec),
                        ratio: Some(ratio),
                        severity,
                    });
                }
                _ => out.push(BenchComparison {
                    name: b.name.clone(),
                    baseline_eps: Some(b.events_per_sec),
                    current_eps: None,
                    ratio: None,
                    severity: Severity::Warn,
                }),
            }
        }
        for c in &self.entries {
            if !baseline.entries.iter().any(|b| b.name == c.name) {
                out.push(BenchComparison {
                    name: c.name.clone(),
                    baseline_eps: None,
                    current_eps: Some(c.events_per_sec),
                    ratio: None,
                    severity: Severity::Warn,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, eps: f64) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            events: 1_000_000,
            wall_secs: 1_000_000.0 / eps,
            events_per_sec: eps,
            peak_rss_bytes: Some(64 << 20),
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        let mut r = BenchReport::new(true);
        r.entries = entries;
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = report(vec![entry("fig2", 2.0e6), entry("stress", 1.5e6)]);
        let back = BenchReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_misread() {
        let mut j = report(vec![entry("fig2", 1.0e6)]).to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::UInt(999);
        }
        assert!(BenchReport::from_json(&j).is_err());
    }

    #[test]
    fn compare_grades_by_the_baseline_tolerances() {
        let baseline = report(vec![
            entry("fast", 2.0e6),
            entry("warned", 2.0e6),
            entry("failed", 2.0e6),
            entry("gone", 2.0e6),
        ]);
        let current = report(vec![
            entry("fast", 1.9e6),   // 1.05x slower: ok
            entry("warned", 1.2e6), // 1.67x slower: warn
            entry("failed", 0.9e6), // 2.2x slower: fail
            entry("new", 1.0e6),    // not in baseline: warn
        ]);
        let cmp = current.compare(&baseline);
        let sev = |name: &str| cmp.iter().find(|c| c.name == name).unwrap().severity;
        assert_eq!(sev("fast"), Severity::Ok);
        assert_eq!(sev("warned"), Severity::Warn);
        assert_eq!(sev("failed"), Severity::Fail);
        assert_eq!(sev("gone"), Severity::Warn);
        assert_eq!(sev("new"), Severity::Warn);
        for c in &cmp {
            assert!(!c.line().is_empty());
        }
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let path = std::env::temp_dir().join(format!("bench-json-{}.json", std::process::id()));
        let r = report(vec![entry("fig2", 2.5e6)]);
        r.save(&path).expect("saves");
        let back = BenchReport::load(&path).expect("loads");
        assert_eq!(back, r);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_captures_this_machine() {
        let fp = Fingerprint::capture();
        assert!(!fp.os.is_empty());
        assert!(!fp.arch.is_empty());
        assert!(fp.cpus >= 1);
    }
}
