//! Span-tree summary: reconstruct the paper's Table I per-tier observables
//! (mean response time, throughput, mean jobs in system) from a single traced
//! run, so they can be cross-checked against the aggregate `ServerLog` path.

use crate::tracer::Span;
use crate::{GC_PAUSE, RESIDENCE};
use simcore::SimTime;
use std::borrow::Borrow;

/// Per-tier observables reconstructed from residence spans.
#[derive(Debug, Clone)]
pub struct TierStats {
    /// Tier track name (`"Apache"`, `"Tomcat"`, …).
    pub track: &'static str,
    /// Residence spans completing inside the window.
    pub completions: u64,
    /// Mean residence time of those spans (seconds) — Table I "RTT".
    pub mean_rtt_secs: f64,
    /// Completions per second — Table I "TP".
    pub throughput: f64,
    /// Time-averaged concurrent jobs (∑ in-window residence ÷ window) —
    /// Table I "jobs", by Little's law.
    pub mean_jobs: f64,
    /// Total GC pause time on this tier inside the window (seconds).
    pub gc_pause_secs: f64,
    /// GC pause time overlapping in-flight requests, summed over requests
    /// (seconds) — how much GC actually stretched residence times.
    pub gc_overlap_secs: f64,
}

/// Summary over one traced run's measurement window.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// `[begin, end)` of the window the summary was computed over.
    pub window: (SimTime, SimTime),
    /// Per-tier stats, in first-seen track order.
    pub tiers: Vec<TierStats>,
    /// Distinct trace ids contributing residence spans in the window.
    pub traces: u64,
}

impl TraceSummary {
    /// Stats for one track, if present.
    pub fn tier(&self, track: &str) -> Option<&TierStats> {
        self.tiers.iter().find(|t| t.track == track)
    }
}

/// Overlap (in seconds) between a span and a `[begin, end)` window.
fn overlap_secs(s: &Span, begin: SimTime, end: SimTime) -> f64 {
    let lo = s.start.max(begin);
    let hi = s.end.min(end);
    hi.saturating_sub(lo).as_secs_f64()
}

/// Build the per-tier summary from a span stream.
///
/// A residence span counts toward completions/RTT/TP when its *end* falls in
/// the window — the same rule `ServerLog::record` uses, so a `Full` traced
/// run must agree with the aggregate path. `mean_jobs` integrates partial
/// overlap, matching the time-weighted sampler.
pub fn summarize(
    spans: impl IntoIterator<Item = impl Borrow<Span>> + Clone,
    begin: SimTime,
    end: SimTime,
) -> TraceSummary {
    let window_secs = end
        .saturating_sub(begin)
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);

    // Collect GC pauses per track first (few of them; linear rescan is fine).
    let gc: Vec<Span> = spans
        .clone()
        .into_iter()
        .filter(|s| s.borrow().name == GC_PAUSE)
        .map(|s| *s.borrow())
        .collect();

    let mut tiers: Vec<TierStats> = Vec::new();
    let mut trace_ids: Vec<u64> = Vec::new();

    for s in spans {
        let s = s.borrow();
        if s.name != RESIDENCE {
            continue;
        }
        let idx = match tiers.iter().position(|t| t.track == s.track) {
            Some(i) => i,
            None => {
                tiers.push(TierStats {
                    track: s.track,
                    completions: 0,
                    mean_rtt_secs: 0.0,
                    throughput: 0.0,
                    mean_jobs: 0.0,
                    gc_pause_secs: 0.0,
                    gc_overlap_secs: 0.0,
                });
                tiers.len() - 1
            }
        };
        let t = &mut tiers[idx];
        t.mean_jobs += overlap_secs(s, begin, end);
        if s.end >= begin && s.end < end {
            t.completions += 1;
            // mean_rtt_secs accumulates the sum here; divided at the end.
            t.mean_rtt_secs += s.secs();
            if let Err(pos) = trace_ids.binary_search(&s.trace) {
                trace_ids.insert(pos, s.trace);
            }
            for g in &gc {
                if g.track == s.track {
                    t.gc_overlap_secs += overlap_secs(g, s.start.max(begin), s.end);
                }
            }
        }
    }

    for t in &mut tiers {
        if t.completions > 0 {
            t.mean_rtt_secs /= t.completions as f64;
        }
        t.throughput = t.completions as f64 / window_secs;
        t.mean_jobs /= window_secs;
        t.gc_pause_secs = gc
            .iter()
            .filter(|g| g.track == t.track)
            .map(|g| overlap_secs(g, begin, end))
            .sum();
    }

    TraceSummary {
        window: (begin, end),
        tiers,
        traces: trace_ids.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(trace: u64, track: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace,
            track,
            name: RESIDENCE,
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    #[test]
    fn reconstructs_rtt_tp_and_jobs() {
        // Window [0, 10 s); two Apache requests of 1 s and 3 s.
        let spans = vec![
            res(1, "Apache", 0, 1_000_000),
            res(2, "Apache", 2_000_000, 5_000_000),
        ];
        let s = summarize(&spans, SimTime(0), SimTime(10_000_000));
        let apache = s.tier("Apache").unwrap();
        assert_eq!(apache.completions, 2);
        assert!((apache.mean_rtt_secs - 2.0).abs() < 1e-12);
        assert!((apache.throughput - 0.2).abs() < 1e-12);
        assert!((apache.mean_jobs - 0.4).abs() < 1e-12);
        assert_eq!(s.traces, 2);
    }

    #[test]
    fn completion_counted_by_end_time_only() {
        let spans = vec![
            res(1, "Tomcat", 0, 500_000),         // ends inside
            res(2, "Tomcat", 500_000, 2_000_000), // ends outside
        ];
        let s = summarize(&spans, SimTime(0), SimTime(1_000_000));
        let t = s.tier("Tomcat").unwrap();
        assert_eq!(t.completions, 1);
        // But both contribute to mean_jobs via their in-window overlap.
        assert!((t.mean_jobs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gc_overlap_attribution() {
        let spans = vec![
            res(1, "C-JDBC", 0, 2_000_000),
            Span {
                trace: 0,
                track: "C-JDBC",
                name: GC_PAUSE,
                start: SimTime(500_000),
                end: SimTime(1_500_000),
            },
        ];
        let s = summarize(&spans, SimTime(0), SimTime(10_000_000));
        let c = s.tier("C-JDBC").unwrap();
        assert!((c.gc_pause_secs - 1.0).abs() < 1e-12);
        assert!((c.gc_overlap_secs - 1.0).abs() < 1e-12);
    }
}
