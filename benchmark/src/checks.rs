//! The correctness gate. Every repetition, set-up child, ladder run,
//! round trip and conservation check is one attempted operation; it fails
//! when it panics, when its output digests differ from the pinned ones
//! (default seed only) or from the workload's other repetitions, or when a
//! conservation law breaks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ntier_trace::json::Json;
use tiers::{run_system_to_drain, SystemConfig};

use crate::workloads::{panic_message, Workload, DEFAULT_SEED};

/// Output digests pinned at the default seed, per workload.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Running tally of attempted and failed operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The digests every repetition must reproduce: the pinned ones at the
    /// default seed, otherwise the first repetition's.
    reference: Option<Vec<u64>>,
}

impl Checks {
    /// A fresh tally for `workload`, holding its pinned digests when the
    /// run uses the default seed at full size.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Checks {
        let reference = (seed == DEFAULT_SEED && !smoke).then(|| pinned(workload));
        Checks {
            reference,
            ..Checks::default()
        }
    }

    /// Count one operation with its outcome.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Count one operation that produced output digests: they must match
    /// the workload's reference, and become it when there is none yet.
    pub fn digests(&mut self, what: &str, outcome: Result<Vec<u64>, String>) {
        let mut reference = self.reference.take();
        self.digests_against(what, outcome, &mut reference);
        self.reference = reference;
    }

    /// Like [`digests`](Self::digests), against a caller-held reference.
    pub fn digests_against(
        &mut self,
        what: &str,
        outcome: Result<Vec<u64>, String>,
        reference: &mut Option<Vec<u64>>,
    ) {
        let checked = outcome.and_then(|got| match reference {
            None => {
                *reference = Some(got);
                Ok(())
            }
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!(
                "digests [{}] differ from the reference [{}]",
                hex(&got),
                hex(want)
            )),
        });
        self.op(what, checked);
    }

    /// The reference digests, once known.
    pub fn reference(&self) -> Option<&[u64]> {
        self.reference.as_deref()
    }

    /// Drain one trial and check conservation on the empty system: nothing
    /// in flight, admitted == departed on every node, every pool back to
    /// balance, and one terminal outcome per front-tier arrival.
    pub fn conservation(&mut self, cfg: SystemConfig) {
        let outcome = catch_unwind(AssertUnwindSafe(|| conservation_violations(cfg)))
            .map_err(|p| format!("drained run panicked: {}", panic_message(p)))
            .and_then(|v| {
                if v.is_empty() {
                    Ok(())
                } else {
                    Err(v.join("; "))
                }
            });
        self.op("conservation", outcome);
    }
}

fn conservation_violations(cfg: SystemConfig) -> Vec<String> {
    let front = cfg.effective_topology().tiers[0].replicas;
    let (_, report) = run_system_to_drain(cfg);
    let mut v = Vec::new();
    if report.in_flight_requests != 0 || report.in_flight_queries != 0 {
        v.push(format!(
            "{} requests and {} queries still in flight",
            report.in_flight_requests, report.in_flight_queries
        ));
    }
    for n in &report.nodes {
        if n.arrivals != n.departures {
            v.push(format!(
                "{}: {} arrivals but {} departures",
                n.name, n.arrivals, n.departures
            ));
        }
        if (n.pool_in_use, n.pool_waiting, n.conn_in_use, n.conn_waiting) != (0, 0, 0, 0) {
            v.push(format!("{}: pools not back to balance", n.name));
        }
    }
    let arrivals: u64 = report.nodes.iter().take(front).map(|n| n.arrivals).sum();
    if arrivals != report.outcomes.total() {
        v.push(format!(
            "{arrivals} front arrivals but {} terminal outcomes",
            report.outcomes.total()
        ));
    }
    v
}

/// Digests as comma-separated hex.
pub fn hex(digests: &[u64]) -> String {
    digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse comma-separated hex digests.
pub fn parse_hex(s: &str) -> Option<Vec<u64>> {
    s.split(',')
        .map(|d| u64::from_str_radix(d, 16).ok())
        .collect()
}

/// The pinned digests of one workload. `expected.json` is part of the
/// source, so a missing or malformed entry is a build defect and panics.
fn pinned(workload: Workload) -> Vec<u64> {
    let json = Json::parse(EXPECTED_JSON).expect("expected.json is valid JSON");
    json.get("digests")
        .and_then(|d| d.get(workload.name()))
        .and_then(Json::as_arr)
        .and_then(|ds| {
            ds.iter()
                .map(|d| d.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
                .collect()
        })
        .unwrap_or_else(|| panic!("expected.json pins no digests for {}", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_pinned_and_observed_matches_paper() {
        for w in Workload::ALL {
            assert!(!pinned(w).is_empty());
        }
        assert_eq!(pinned(Workload::Observed), pinned(Workload::Paper));
        assert_eq!(pinned(Workload::Sweep).len(), 24);
    }

    #[test]
    fn digests_must_repeat() {
        let mut c = Checks::default();
        c.digests("a", Ok(vec![1, 2]));
        c.digests("b", Ok(vec![1, 2]));
        c.digests("c", Ok(vec![1, 3]));
        c.digests("d", Err("panicked".into()));
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(parse_hex(&hex(&[1, u64::MAX])), Some(vec![1, u64::MAX]));
    }
}
