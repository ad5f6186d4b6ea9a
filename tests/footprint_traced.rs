//! Memory footprint guard for a fully observed run: the paper's 1/2/1/2
//! rule-of-thumb configuration at 7 800 users with windowed metrics, an SLO,
//! full tracing and the flight recorder all armed.
//!
//! Full tracing keeps about 1.6 million spans across the shards' rings, so
//! how a stored span is laid out dominates the run's memory. Peak RSS is a
//! process-wide high-water mark, which is why this check sits alone in its
//! own test binary: nothing else runs, or allocates, in the process. It is
//! `#[ignore]`d because it only finishes in seconds as a release build; run
//! it with
//!
//! ```text
//! cargo test --release --test footprint_traced -- --ignored
//! ```

#![cfg(target_os = "linux")]

use rubbos_ntier::prelude::*;

/// Ceiling on the process's peak resident set for the run, in MiB.
const PEAK_RSS_CEILING_MIB: f64 = 120.0;

#[test]
#[ignore = "fully traced 7800-user release run; see the module docs"]
fn observed_run_stays_under_the_rss_ceiling() {
    let users = 7800;
    let mut cfg = SystemConfig::new(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        users,
    );
    cfg.workload = Schedule::Default.workload(users);
    cfg.metrics = MetricsConfig::windowed_default();
    cfg.slo = Some(SloPolicy::new(0.99, 0.5));
    cfg.trace = TraceConfig::Full;
    cfg.flight = FlightConfig::tail(8);
    // Profiling is passive; it is on so the profile's own peak can be
    // checked against the process's.
    cfg.profile = true;
    let (out, trace, metrics) = run_system_full(cfg);
    // Read the high-water mark while everything the run handed back is
    // still alive.
    let peak = rubbos_ntier::simcore::peak_rss_bytes().expect("Linux has a peak-RSS probe");
    let profile = out
        .profile
        .as_ref()
        .expect("profiled run carries a profile");
    assert_eq!(
        profile.peak_rss_bytes,
        Some(peak),
        "the profile must report the peak after the trace is assembled"
    );
    assert!(out.completed > 0, "the run completed no requests");
    assert!(!trace.spans.is_empty(), "the traced run kept no spans");
    assert!(trace.flight.is_some() && metrics.is_some());
    let peak_mib = peak as f64 / (1024.0 * 1024.0);
    assert!(
        peak_mib <= PEAK_RSS_CEILING_MIB,
        "peak RSS {peak_mib:.1} MiB exceeds the {PEAK_RSS_CEILING_MIB} MiB ceiling"
    );
}
