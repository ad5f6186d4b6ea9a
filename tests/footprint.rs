//! Memory footprint guard: a million closed-loop sessions on 1/8/1/8.
//!
//! Nearly every session has a request in flight at once, so the per-request
//! record and the staged-arrival lane dominate the run's memory. Peak RSS
//! is a process-wide high-water mark, which is why this check sits alone in
//! its own test binary: nothing else runs, or allocates, in the process. It
//! is `#[ignore]`d because it only finishes in seconds as a release build;
//! run it with
//!
//! ```text
//! cargo test --release --test footprint -- --ignored
//! ```

#![cfg(target_os = "linux")]

use rubbos_ntier::prelude::*;

/// Ceiling on the process's peak resident set for the run, in MiB.
const PEAK_RSS_CEILING_MIB: f64 = 240.0;

#[test]
#[ignore = "million-session release run; see the module docs"]
fn million_sessions_stay_under_the_rss_ceiling() {
    let users = 1_000_000;
    let mut cfg = SystemConfig::new(
        HardwareConfig::new(1, 8, 1, 8),
        SoftAllocation::rule_of_thumb(),
        users,
    );
    cfg.workload = Schedule::Quick.workload(users);
    let out = run_system_profiled(cfg);
    assert!(out.completed > 0, "the run completed no requests");
    let profile = out.profile.expect("profiled run carries a profile");
    let peak_mib =
        profile.peak_rss_bytes.expect("Linux has a peak-RSS probe") as f64 / (1024.0 * 1024.0);
    assert!(
        peak_mib <= PEAK_RSS_CEILING_MIB,
        "peak RSS {peak_mib:.1} MiB exceeds the {PEAK_RSS_CEILING_MIB} MiB ceiling"
    );
}
