//! Engine profiling: phase timings, counters, and a peak-RSS probe.
//!
//! The profiler is the observability face of the event loop. It is *passive*
//! in exactly the sense the windowed-metrics pipeline is: profiling draws no
//! random numbers, schedules no events, and never touches model state, so a
//! profiled run produces bit-identical simulation output to an unprofiled
//! one. What it adds is wall-clock bookkeeping — how long the engine spent
//! popping the event queue versus dispatching into the model versus pushing
//! new events — plus the per-event-kind counts the telemetry flag already
//! collects, and a process-level peak-RSS reading.
//!
//! Everything is off by default
//! ([`ShardedEngine::enable_profiling`](crate::ShardedEngine::enable_profiling)
//! opts in), so the hot path of an unprofiled run pays one untaken branch
//! per event.

/// Phase-timing and counter profile of one engine run.
///
/// Captured with [`ShardedEngine::profile`](crate::ShardedEngine::profile)
/// after any run. The counters are always filled; the per-kind counts need
/// telemetry, and the phase seconds need profiling (they stay 0 without it).
/// Phase seconds (`pop_secs`, `dispatch_secs`, `sched_secs`) are whole-run
/// *estimates*: the engine times a deterministic 1-in-64 sample of event
/// cycles (clock reads on every cycle would dominate the loop) and scales
/// the sampled sums by the sampling fraction. The three phases are disjoint
/// and the clock probes' own cost (measured inside the loop) is taken out of
/// every sampled interval, so `pop_secs + dispatch_secs + sched_secs`
/// estimates the loop's time spent in events and stays near or below
/// `wall_secs`. They remain estimates: a preemption that lands in a sampled
/// cycle counts 64 times.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Total events processed.
    pub events_processed: u64,
    /// Total events pushed onto the queue (including initial seeding).
    pub events_scheduled: u64,
    /// Wall-clock seconds spent popping the queue and advancing the clock.
    pub pop_secs: f64,
    /// Wall-clock seconds spent inside `ShardModel::handle`, *excluding* the
    /// pushes of the follow-up events it schedules (those are `sched_secs`).
    pub dispatch_secs: f64,
    /// Wall-clock seconds spent pushing events onto the queues from inside
    /// the run (pre-run seeding is not timed).
    pub sched_secs: f64,
    /// Wall-clock seconds spent inside `run_until`/`run_to_quiescence`.
    pub wall_secs: f64,
    /// Peak number of pending events in any one shard's queue (staged
    /// arrivals included).
    pub queue_high_water: usize,
    /// Allocated event slots of the event queues at snapshot time, summed
    /// over every lane: calendar buckets, far lane and staged lane.
    pub queue_capacity: usize,
    /// Per-event-kind counts, in first-seen order (labels from
    /// [`ShardModel::event_label`](crate::ShardModel::event_label)).
    pub per_type: Vec<(&'static str, u64)>,
    /// Process peak resident set size in bytes (`VmHWM` from
    /// `/proc/self/status` on Linux; `None` where no probe exists). Note the
    /// kernel counter is a high-water mark for the whole process, so in a
    /// multi-run process it is cumulative across runs.
    pub peak_rss_bytes: Option<u64>,
    /// Synchronization rounds executed. Always 0: the executor has none.
    /// The field stays because existing readers of the profile report it.
    pub rounds: u64,
    /// Per-shard load attribution: events and busy seconds per shard.
    pub shards: Vec<ShardLoad>,
}

/// One shard's share of a run: how many events it processed and how long
/// the executor spent popping, dispatching and pushing for them, so
/// `busy / wall` is the shard's share of the event loop. Busy seconds are
/// the shard's part of the phase estimates, so they add up across shards to
/// `pop_secs + dispatch_secs + sched_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// Shard index (shard 0 is the layout's front shard by convention).
    pub shard: usize,
    /// Events this shard processed.
    pub events_processed: u64,
    /// Wall-clock seconds spent popping and dispatching this shard's events,
    /// pushes included.
    pub busy_secs: f64,
}

impl ShardLoad {
    /// Fraction of `wall_secs` this shard spent busy.
    pub fn utilization(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.busy_secs / wall_secs
        } else {
            0.0
        }
    }
}

impl EngineProfile {
    /// Events processed per wall-clock second (0 when nothing was timed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Render the profile as an aligned plain-text summary table (the
    /// `--profile` output of the bench/example harnesses).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let pct = |phase: f64| {
            if self.wall_secs > 0.0 {
                100.0 * phase / self.wall_secs
            } else {
                0.0
            }
        };
        s.push_str(&format!(
            "  events     {:>12}   ({:.0} events/sec)\n",
            self.events_processed,
            self.events_per_sec()
        ));
        s.push_str(&format!(
            "  scheduled  {:>12}   queue high-water {} / capacity {}\n",
            self.events_scheduled, self.queue_high_water, self.queue_capacity
        ));
        s.push_str(&format!(
            "  wall       {:>12.3}s  pop {:.3}s ({:.1}%)  dispatch {:.3}s ({:.1}%)  sched {:.3}s ({:.1}%)\n",
            self.wall_secs,
            self.pop_secs,
            pct(self.pop_secs),
            self.dispatch_secs,
            pct(self.dispatch_secs),
            self.sched_secs,
            pct(self.sched_secs),
        ));
        match self.peak_rss_bytes {
            Some(b) => s.push_str(&format!(
                "  peak rss   {:>12.1} MiB\n",
                b as f64 / (1024.0 * 1024.0)
            )),
            None => s.push_str("  peak rss        (no probe on this platform)\n"),
        }
        if !self.shards.is_empty() {
            s.push_str(&format!("  shards     {:>12}\n", self.shards.len()));
            for sh in &self.shards {
                s.push_str(&format!(
                    "    shard {}  {:>12} events  busy {:>5.1}%\n",
                    sh.shard,
                    sh.events_processed,
                    100.0 * sh.utilization(self.wall_secs),
                ));
            }
        }
        if !self.per_type.is_empty() {
            let mut by_count: Vec<_> = self.per_type.clone();
            by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            s.push_str("  per event kind:\n");
            for (label, n) in by_count {
                let share = if self.events_processed > 0 {
                    100.0 * n as f64 / self.events_processed as f64
                } else {
                    0.0
                };
                s.push_str(&format!("    {label:<20} {n:>12}  ({share:>5.1}%)\n"));
            }
        }
        s
    }
}

/// Process peak resident set size in bytes.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux. On platforms without
/// that interface the probe degrades gracefully to `None` — callers must
/// treat the reading as optional.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parse the `VmHWM:` line of a `/proc/<pid>/status` dump (kB → bytes).
///
/// A reading of 0 is treated as "no probe" rather than a measurement: no
/// live process has a zero high-water mark, so a zero can only come from a
/// broken or synthetic `/proc`, and reporting it as a number would poison
/// peak-RSS comparisons with garbage.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return if kb == 0 { None } else { Some(kb * 1024) };
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_proc_status_format() {
        let status = "Name:\tcargo\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(98304 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
        // A zero high-water mark is a broken probe, not a measurement.
        assert_eq!(parse_vm_hwm("VmHWM:\t       0 kB\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_probe_reads_something_plausible() {
        let rss = peak_rss_bytes().expect("Linux has /proc/self/status");
        // A running test binary occupies at least a megabyte.
        assert!(rss > 1024 * 1024, "peak rss {rss} implausibly small");
    }

    #[test]
    fn events_per_sec_handles_zero_wall() {
        let p = EngineProfile::default();
        assert_eq!(p.events_per_sec(), 0.0);
        let p = EngineProfile {
            events_processed: 100,
            wall_secs: 0.5,
            ..Default::default()
        };
        assert_eq!(p.events_per_sec(), 200.0);
    }

    #[test]
    fn summary_renders_phases_and_kinds() {
        let p = EngineProfile {
            events_processed: 1000,
            events_scheduled: 1001,
            pop_secs: 0.1,
            dispatch_secs: 0.3,
            sched_secs: 0.05,
            wall_secs: 0.5,
            queue_high_water: 64,
            queue_capacity: 128,
            per_type: vec![("ping", 600), ("pong", 400)],
            peak_rss_bytes: Some(2 * 1024 * 1024),
            ..Default::default()
        };
        let s = p.summary();
        assert!(s.contains("events/sec"));
        assert!(s.contains("ping"));
        assert!(s.contains("pong"));
        assert!(s.contains("2.0 MiB"));
        // Largest count listed first.
        assert!(s.find("ping").unwrap() < s.find("pong").unwrap());
        // A profile without shard rows renders no shard table.
        assert!(!s.contains("shard"));

        // Shard rows add the per-shard load table.
        let p = EngineProfile {
            wall_secs: 2.0,
            shards: vec![
                ShardLoad {
                    shard: 0,
                    events_processed: 900,
                    busy_secs: 1.5,
                },
                ShardLoad {
                    shard: 1,
                    events_processed: 100,
                    busy_secs: 0.2,
                },
            ],
            ..Default::default()
        };
        let s = p.summary();
        assert!(s.contains("shard 0"));
        assert!(s.contains("shard 1"));
        // shard 0: busy 1.5 of wall 2.0 ⇒ 75% of the event loop.
        assert!(s.contains("busy  75.0%"));
        assert!(s.contains("busy  10.0%"));
    }
}
