//! Memory footprint guard for the reference run: the paper's 1/2/1/2
//! rule-of-thumb configuration at 7 800 users with every observer off.
//!
//! With no observers the run's memory is the simulator's own working set,
//! and the largest part of it is the event queue: every session keeps a
//! think timer seconds ahead while most pushes land within milliseconds of
//! now. This guards that the calendar holds only that near band, so its
//! storage follows the few dozen events it holds instead of keeping buckets
//! sized for the think timers. Peak RSS is a process-wide high-water mark,
//! which is why this check sits alone in its own test binary: nothing else
//! runs, or allocates, in the process. It is `#[ignore]`d because it only
//! finishes in seconds as a release build; run it with
//!
//! ```text
//! cargo test --release --test footprint_paper -- --ignored
//! ```

#![cfg(target_os = "linux")]

use rubbos_ntier::prelude::*;

/// Ceiling on the process's peak resident set for the run, in MiB.
const PEAK_RSS_CEILING_MIB: f64 = 8.0;

#[test]
#[ignore = "7800-user release run; see the module docs"]
fn paper_run_stays_under_the_rss_ceiling() {
    let users = 7800;
    let mut cfg = SystemConfig::new(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        users,
    );
    cfg.workload = Schedule::Default.workload(users);
    let out = run_system_profiled(cfg);
    assert!(out.completed > 0, "the run completed no requests");
    let profile = out.profile.expect("profiled run carries a profile");
    let peak_mib =
        profile.peak_rss_bytes.expect("Linux has a peak-RSS probe") as f64 / (1024.0 * 1024.0);
    assert!(
        peak_mib <= PEAK_RSS_CEILING_MIB,
        "peak RSS {peak_mib:.1} MiB exceeds the {PEAK_RSS_CEILING_MIB} MiB ceiling \
         (queue capacity {} slots, high-water {} events)",
        profile.queue_capacity,
        profile.queue_high_water
    );
}
