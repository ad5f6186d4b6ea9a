//! Multi-core processor-sharing CPU with virtual time.
//!
//! ## The model
//!
//! With `n` active jobs on `m` cores, every job progresses at the common rate
//! `min(1, m/n)` service-seconds per real second (egalitarian processor
//! sharing, the standard first-order model of a time-sliced OS scheduler).
//! Optionally, a per-excess-job *context-switch overhead* degrades the rate to
//! `min(1, m/n) / (1 + csw·max(0, n−m))`, which is what makes several-hundred-
//! thread pools slightly slower even before GC effects (paper §III-B).
//!
//! ## Virtual time
//!
//! Because all jobs progress at the same instantaneous rate, we track one
//! *virtual clock* `V(t)` with `dV/dt = rate(t)` and give each job a fixed
//! virtual finish tag `F = V(t_submit) + demand`. Jobs complete in tag order.
//! `PsCpu::advance` walks time piecewise from one completion instant to the
//! next, so the sharing population is always exact regardless of when the host
//! collects finished jobs — a job that has finished never slows the others.
//!
//! ## Freezing
//!
//! [`PsCpu::freeze`] stops all progress (rate 0) while still counting the CPU
//! as busy — this is how the JVM GC model steals the CPU for a stop-the-world
//! pause (paper §III-B: "the JVM uses a synchronous garbage collector and it
//! waits during the garbage collection period").

use crate::JobId;
use simcore::stats::WindowedSignal;
use simcore::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Static configuration of a CPU.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Number of cores (Emulab PC3000 nodes are modeled as 1).
    pub cores: u32,
    /// Context-switch overhead per job above the core count (dimensionless;
    /// 0 disables the effect).
    pub csw_overhead_per_job: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 1,
            csw_overhead_per_job: 0.0,
        }
    }
}

/// Virtual-finish heap entry: non-negative finite `f64` tags are wrapped into
/// a totally ordered `u64` key (the IEEE-754 bit pattern is monotone there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Tag(u64);

impl Tag {
    fn from_f64(v: f64) -> Tag {
        debug_assert!(v >= 0.0 && v.is_finite());
        Tag(v.to_bits())
    }
    fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// Passive fine-grained observation channels attached to a CPU: per-window
/// integrals of the busy level, stop-the-world (GC) level, and run-queue
/// depth. Fed from [`PsCpu`]'s own virtual-time walk, so the windows are
/// exact — and write-only, so attaching them cannot change a simulation.
#[derive(Debug, Clone)]
pub struct CpuWindows {
    /// Busy-level integral per window (utilization once divided by width).
    pub busy: WindowedSignal,
    /// Stop-the-world (GC) time per window.
    pub frozen: WindowedSignal,
    /// Run-queue depth (jobs in service), time-averaged per window.
    pub jobs: WindowedSignal,
}

/// A multi-core processor-sharing CPU.
#[derive(Debug)]
pub struct PsCpu {
    config: CpuConfig,
    /// Virtual clock (service-seconds).
    virt: f64,
    /// Real time of the last state update, in seconds (f64 so completion
    /// instants between microsecond grid points don't drift).
    now_secs: f64,
    /// Pending jobs ordered by virtual finish tag.
    heap: BinaryHeap<Reverse<(Tag, JobId)>>,
    /// Jobs whose service has completed, awaiting collection by the host.
    completed: Vec<JobId>,
    /// Jobs still receiving service.
    active: usize,
    /// Stop-the-world flag; no progress while set.
    frozen: bool,
    // --- accounting (all in seconds / service-seconds) ---
    busy_integral: f64,
    frozen_integral: f64,
    work_done: f64,
    work_submitted: f64,
    // Measurement-window snapshots.
    measure_start: f64,
    busy_at_measure: f64,
    frozen_at_measure: f64,
    // 1 s sampling-window snapshots.
    window_start: f64,
    busy_at_window: f64,
    /// Optional fine-grained observation windows (metrics pipeline).
    windows: Option<Box<CpuWindows>>,
}

impl PsCpu {
    /// Create a CPU at time zero.
    pub fn new(config: CpuConfig) -> Self {
        assert!(config.cores >= 1, "a CPU needs at least one core");
        PsCpu {
            config,
            virt: 0.0,
            now_secs: 0.0,
            heap: BinaryHeap::new(),
            completed: Vec::new(),
            active: 0,
            frozen: false,
            busy_integral: 0.0,
            frozen_integral: 0.0,
            work_done: 0.0,
            work_submitted: 0.0,
            measure_start: 0.0,
            busy_at_measure: 0.0,
            frozen_at_measure: 0.0,
            window_start: 0.0,
            busy_at_window: 0.0,
            windows: None,
        }
    }

    /// Attach fine-grained observation windows of `width`, starting at
    /// `origin`. Observation only: the CPU's own accounting and virtual-time
    /// arithmetic are bit-identical with or without windows attached.
    pub fn enable_windows(&mut self, origin: SimTime, width: SimTime) {
        self.windows = Some(Box::new(CpuWindows {
            busy: WindowedSignal::new(origin, width),
            frozen: WindowedSignal::new(origin, width),
            jobs: WindowedSignal::new(origin, width),
        }));
    }

    /// Detach and return the observation windows, folding in the segment up
    /// to `now` first. `None` if never enabled.
    pub fn take_windows(&mut self, now: SimTime) -> Option<CpuWindows> {
        self.advance(now);
        self.windows.take().map(|b| *b)
    }

    /// Number of jobs still receiving service.
    pub fn active_jobs(&self) -> usize {
        self.active
    }

    /// Whether the CPU is currently frozen (GC pause).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Core count.
    pub fn cores(&self) -> u32 {
        self.config.cores
    }

    /// Instantaneous per-job progress rate (service-sec per real-sec).
    fn job_rate(&self) -> f64 {
        if self.frozen || self.active == 0 {
            return 0.0;
        }
        let n = self.active as f64;
        let m = self.config.cores as f64;
        let base = (m / n).min(1.0);
        let excess = (n - m).max(0.0);
        base / (1.0 + self.config.csw_overhead_per_job * excess)
    }

    /// Busy level in `[0,1]`: fraction of cores doing useful or GC work.
    fn busy_level(&self) -> f64 {
        if self.frozen {
            return 1.0;
        }
        if self.active == 0 {
            0.0
        } else {
            (self.active as f64 / self.config.cores as f64).min(1.0)
        }
    }

    /// Accumulate a time segment of length `dt` at the current levels.
    fn accrue(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let level = self.busy_level();
        self.busy_integral += level * dt;
        if self.frozen {
            self.frozen_integral += dt;
        }
        self.work_done += self.job_rate() * self.active as f64 * dt;
        // Observation-only mirror of the same segment into the fine-grained
        // windows; never read back by the model. All three signals share one
        // grid, so the segment is split into buckets once and each signal is
        // fed directly — the walk is the expensive part, not the adds.
        if let Some(w) = self.windows.as_mut() {
            let frozen = self.frozen;
            let jobs = self.active as f64;
            if level != 0.0 || jobs != 0.0 || frozen {
                WindowedSignal::for_each_overlap(
                    w.busy.origin_secs(),
                    w.busy.width_secs(),
                    self.now_secs,
                    dt,
                    |idx, secs| {
                        w.busy.add_at(idx, level * secs);
                        if frozen {
                            w.frozen.add_at(idx, secs);
                        }
                        w.jobs.add_at(idx, jobs * secs);
                    },
                );
            }
        }
    }

    /// Advance the state to `target` seconds, completing jobs at their exact
    /// finish instants so the sharing population is always correct.
    fn advance_secs(&mut self, target: f64) {
        // Completion events are rounded up to the microsecond grid, so a
        // subsequent query at the grid-aligned "same" instant may be up to
        // 1 µs earlier than the internally-reached completion time.
        debug_assert!(
            target >= self.now_secs - 2e-6,
            "CPU time went backwards: target={target} now={}",
            self.now_secs
        );
        let target = target.max(self.now_secs);
        loop {
            let remaining = target - self.now_secs;
            if remaining <= 0.0 {
                return;
            }
            let rate = self.job_rate();
            if rate > 0.0 {
                if let Some(&Reverse((tag, job))) = self.heap.peek() {
                    let dt_finish = (tag.as_f64() - self.virt).max(0.0) / rate;
                    if dt_finish <= remaining {
                        // Walk to the completion instant.
                        self.accrue(dt_finish);
                        self.now_secs += dt_finish;
                        self.virt = tag.as_f64();
                        self.heap.pop();
                        self.active -= 1;
                        self.completed.push(job);
                        continue;
                    }
                }
            }
            // No completion inside the segment: advance to target in one step.
            self.accrue(remaining);
            self.virt += rate * remaining;
            self.now_secs = target;
            return;
        }
    }

    fn advance(&mut self, now: SimTime) {
        self.advance_secs(now.as_secs_f64());
    }

    /// Submit a job with `demand_secs` of CPU demand.
    pub fn submit(&mut self, now: SimTime, job: JobId, demand_secs: f64) {
        self.advance(now);
        let demand = demand_secs.max(0.0);
        self.work_submitted += demand;
        self.heap
            .push(Reverse((Tag::from_f64(self.virt + demand), job)));
        self.active += 1;
    }

    /// Absolute time of the next job completion, or `None` if idle or frozen.
    ///
    /// The returned time is rounded *up* to the microsecond grid; completed
    /// jobs are collected with [`pop_due`](Self::pop_due).
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        if !self.completed.is_empty() {
            return Some(now);
        }
        let &Reverse((tag, _)) = self.heap.peek()?;
        let rate = self.job_rate();
        if rate <= 0.0 {
            return None;
        }
        let dt = (tag.as_f64() - self.virt).max(0.0) / rate;
        let micros = (dt * 1e6).ceil().max(1.0) as u64;
        Some(now + SimTime::from_micros(micros))
    }

    /// Collect every job whose service completed at or before `now`.
    ///
    /// Allocates a fresh vector per call; the hot path uses
    /// [`pop_due_into`](Self::pop_due_into) with a reused scratch buffer.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<JobId> {
        let mut out = Vec::new();
        self.pop_due_into(now, &mut out);
        out
    }

    /// Collect completed jobs into `out` (appended), reusing its allocation.
    ///
    /// The internal completion buffer keeps its capacity, so a steady-state
    /// completion-collection cycle allocates nothing.
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<JobId>) {
        self.advance(now);
        out.append(&mut self.completed);
    }

    /// Stop all progress (stop-the-world GC). CPU counts as 100% busy.
    pub fn freeze(&mut self, now: SimTime) {
        self.advance(now);
        self.frozen = true;
    }

    /// Resume progress after a freeze.
    pub fn unfreeze(&mut self, now: SimTime) {
        self.advance(now);
        self.frozen = false;
    }

    /// Time-average busy fraction since the last measurement-window reset.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let span = self.now_secs - self.measure_start;
        if span <= 0.0 {
            return 0.0;
        }
        (self.busy_integral - self.busy_at_measure) / span
    }

    /// Time-average fraction spent frozen (GC) since the window reset.
    pub fn frozen_fraction(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let span = self.now_secs - self.measure_start;
        if span <= 0.0 {
            return 0.0;
        }
        (self.frozen_integral - self.frozen_at_measure) / span
    }

    /// Absolute frozen (GC) seconds accumulated since the window reset.
    pub fn frozen_seconds(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.frozen_integral - self.frozen_at_measure
    }

    /// Begin a measurement window at `now` (discards ramp-up utilization).
    pub fn begin_measurement(&mut self, now: SimTime) {
        self.advance(now);
        self.measure_start = self.now_secs;
        self.busy_at_measure = self.busy_integral;
        self.frozen_at_measure = self.frozen_integral;
        self.window_start = self.now_secs;
        self.busy_at_window = self.busy_integral;
    }

    /// Average busy level since the previous call, then restart the sampling
    /// window — used by the 1 s "SysStat" sampler.
    pub fn take_window_sample(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let span = self.now_secs - self.window_start;
        let avg = if span > 0.0 {
            (self.busy_integral - self.busy_at_window) / span
        } else {
            self.busy_level()
        };
        self.window_start = self.now_secs;
        self.busy_at_window = self.busy_integral;
        avg
    }

    /// Abort every job still in service (a replica crash): advance to `now`,
    /// then return all jobs — already-completed-but-uncollected ones first,
    /// followed by in-service jobs in virtual-finish order. The unserved
    /// remainder of each aborted job is subtracted from `work_submitted`, so
    /// work conservation (`work_done == work_submitted` once drained) keeps
    /// holding across crashes.
    pub fn abort_all(&mut self, now: SimTime) -> Vec<JobId> {
        let mut out = Vec::new();
        self.abort_all_into(now, &mut out);
        out
    }

    /// [`abort_all`](Self::abort_all) into `out` (appended), reusing its
    /// allocation.
    pub fn abort_all_into(&mut self, now: SimTime, out: &mut Vec<JobId>) {
        self.advance(now);
        out.append(&mut self.completed);
        while let Some(Reverse((tag, job))) = self.heap.pop() {
            self.work_submitted -= (tag.as_f64() - self.virt).max(0.0);
            out.push(job);
        }
        self.active = 0;
    }

    /// Total useful service-seconds completed (excludes frozen time).
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Total service-seconds submitted.
    pub fn work_submitted(&self) -> f64 {
        self.work_submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu1() -> PsCpu {
        PsCpu::new(CpuConfig {
            cores: 1,
            csw_overhead_per_job: 0.0,
        })
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drive the CPU like a host model would: pop at the announced times.
    fn drain(cpu: &mut PsCpu, mut now: SimTime) -> Vec<(SimTime, JobId)> {
        let mut out = Vec::new();
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            for j in cpu.pop_due(now) {
                out.push((now, j));
            }
        }
        out
    }

    #[test]
    fn single_job_takes_its_demand() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.100);
        let done = drain(&mut cpu, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        let (at, id) = done[0];
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 0.100).abs() < 1e-5, "at={at}");
    }

    #[test]
    fn two_equal_jobs_share_and_finish_together() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.100);
        cpu.submit(SimTime::ZERO, 2, 0.100);
        let done = drain(&mut cpu, SimTime::ZERO);
        assert_eq!(done.len(), 2);
        for &(at, _) in &done {
            assert!((at.as_secs_f64() - 0.200).abs() < 1e-4, "at={at}");
        }
    }

    #[test]
    fn short_job_finishes_first_under_sharing() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.300);
        cpu.submit(SimTime::ZERO, 2, 0.100);
        let done = drain(&mut cpu, SimTime::ZERO);
        // Job 2: shares until v=0.1 → completes at t=0.2. Job 1 then runs alone:
        // remaining 0.2 at full speed → t=0.4.
        assert_eq!(done[0].1, 2);
        assert!((done[0].0.as_secs_f64() - 0.200).abs() < 1e-4);
        assert_eq!(done[1].1, 1);
        assert!((done[1].0.as_secs_f64() - 0.400).abs() < 1e-4);
    }

    #[test]
    fn late_arrival_shares_correctly() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.200);
        // At t=0.1, job 1 has 0.1 left; job 2 arrives with 0.1 demand.
        cpu.submit(t(100), 2, 0.100);
        let done = drain(&mut cpu, t(100));
        // Both have 0.1 virtual remaining → both complete at t = 0.1 + 0.2 = 0.3.
        assert_eq!(done.len(), 2);
        for &(at, _) in &done {
            assert!((at.as_secs_f64() - 0.300).abs() < 1e-4, "at={at}");
        }
    }

    #[test]
    fn unpopped_finished_jobs_do_not_slow_others() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.010);
        // Job 1 finishes at t=10ms. Submit job 2 at t=50ms WITHOUT popping.
        cpu.submit(t(50), 2, 0.010);
        let done = drain(&mut cpu, t(50));
        // Job 2 must run alone: completes at 60 ms, not 70.
        let j2 = done.iter().find(|&&(_, id)| id == 2).unwrap();
        assert!((j2.0.as_secs_f64() - 0.060).abs() < 1e-4, "at={}", j2.0);
    }

    #[test]
    fn multicore_runs_jobs_in_parallel() {
        let mut cpu = PsCpu::new(CpuConfig {
            cores: 2,
            csw_overhead_per_job: 0.0,
        });
        cpu.submit(SimTime::ZERO, 1, 0.100);
        cpu.submit(SimTime::ZERO, 2, 0.100);
        let done = drain(&mut cpu, SimTime::ZERO);
        for &(at, _) in &done {
            assert!((at.as_secs_f64() - 0.100).abs() < 1e-4, "at={at}");
        }
    }

    #[test]
    fn freeze_stalls_progress_and_counts_busy() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.100);
        cpu.freeze(t(50));
        assert_eq!(cpu.next_completion(t(50)), None);
        cpu.unfreeze(t(250)); // 200 ms stop-the-world
        let done = drain(&mut cpu, t(250));
        assert!((done[0].0.as_secs_f64() - 0.300).abs() < 1e-4);
        let util = cpu.utilization(t(300));
        // busy 0..50ms (run) + 50..250 (frozen) + 250..300 (run) = 300/300.
        assert!((util - 1.0).abs() < 1e-4, "util={util}");
        let gc = cpu.frozen_fraction(t(300));
        assert!((gc - 200.0 / 300.0).abs() < 1e-4, "gc={gc}");
        assert!((cpu.frozen_seconds(t(300)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn utilization_counts_idle() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.100);
        let _ = drain(&mut cpu, SimTime::ZERO);
        let util = cpu.utilization(t(400));
        assert!((util - 0.25).abs() < 1e-3, "util={util}");
    }

    #[test]
    fn measurement_window_resets() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.100);
        let _ = drain(&mut cpu, SimTime::ZERO);
        cpu.begin_measurement(t(100));
        let util = cpu.utilization(t(200)); // idle the whole window
        assert!(util.abs() < 1e-9, "util={util}");
    }

    #[test]
    fn window_samples_partition_time() {
        let mut cpu = cpu1();
        cpu.begin_measurement(SimTime::ZERO);
        cpu.submit(SimTime::ZERO, 1, 0.150);
        let _ = drain(&mut cpu, SimTime::ZERO);
        // Job ran 0..150 ms; samples at 200 and 300 ms.
        let s1 = cpu.take_window_sample(t(200));
        let s2 = cpu.take_window_sample(t(300));
        assert!((s1 - 0.75).abs() < 1e-3, "s1={s1}");
        assert!(s2.abs() < 1e-9, "s2={s2}");
    }

    #[test]
    fn context_switch_overhead_slows_large_populations() {
        let mut fast = cpu1();
        let mut slow = PsCpu::new(CpuConfig {
            cores: 1,
            csw_overhead_per_job: 0.01,
        });
        for cpu in [&mut fast, &mut slow] {
            for j in 0..10 {
                cpu.submit(SimTime::ZERO, j, 0.010);
            }
        }
        let f = drain(&mut fast, SimTime::ZERO);
        let s = drain(&mut slow, SimTime::ZERO);
        let f_end = f.last().unwrap().0.as_secs_f64();
        let s_end = s.last().unwrap().0.as_secs_f64();
        assert!((f_end - 0.100).abs() < 1e-4);
        // 9 excess jobs → rate / 1.09 for most of the run.
        assert!(s_end > f_end * 1.05, "f={f_end} s={s_end}");
    }

    #[test]
    fn work_conservation_with_lazy_popping() {
        let mut cpu = cpu1();
        let mut now = SimTime::ZERO;
        let demands = [0.01, 0.05, 0.003, 0.02, 0.04];
        for (i, &d) in demands.iter().enumerate() {
            cpu.submit(now, i as u64, d);
            now += SimTime::from_millis(7);
        }
        let _ = drain(&mut cpu, now);
        let total: f64 = demands.iter().sum();
        assert!(
            (cpu.work_done() - total).abs() < 1e-6,
            "done={} expected={}",
            cpu.work_done(),
            total
        );
        assert_eq!(cpu.active_jobs(), 0);
    }

    #[test]
    fn pop_due_before_completion_returns_empty() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.100);
        assert!(cpu.pop_due(t(50)).is_empty());
        assert_eq!(cpu.active_jobs(), 1);
    }

    #[test]
    fn abort_all_reclaims_in_service_and_uncollected_jobs() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.010); // completes at 10 ms, never popped
        cpu.submit(SimTime::ZERO, 2, 0.200); // still running at 50 ms
        cpu.submit(SimTime::ZERO, 3, 0.300); // still running at 50 ms
        let mut aborted = cpu.abort_all(t(50));
        aborted.sort_unstable();
        assert_eq!(aborted, vec![1, 2, 3]);
        assert_eq!(cpu.active_jobs(), 0);
        assert_eq!(cpu.next_completion(t(50)), None);
        // Only the served portion remains in the submitted ledger: after a
        // subsequent drain-to-idle, done == submitted.
        assert!(
            (cpu.work_done() - cpu.work_submitted()).abs() < 1e-9,
            "done={} submitted={}",
            cpu.work_done(),
            cpu.work_submitted()
        );
        // The CPU keeps working after the crash.
        cpu.submit(t(60), 9, 0.010);
        let done = drain(&mut cpu, t(60));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 9);
    }

    #[test]
    fn next_completion_signals_uncollected_jobs_immediately() {
        let mut cpu = cpu1();
        cpu.submit(SimTime::ZERO, 1, 0.010);
        // Way past completion, never popped.
        assert_eq!(cpu.next_completion(t(500)), Some(t(500)));
        assert_eq!(cpu.pop_due(t(500)), vec![1]);
    }

    #[test]
    fn observation_windows_track_busy_and_queue() {
        let mut cpu = cpu1();
        cpu.enable_windows(SimTime::ZERO, t(100));
        cpu.submit(SimTime::ZERO, 1, 0.150); // busy for the first 150 ms
        let _ = drain(&mut cpu, SimTime::ZERO);
        let w = cpu.take_windows(t(300)).expect("windows enabled");
        let busy = w.busy.means(3);
        assert!((busy[0] - 1.0).abs() < 1e-6, "{busy:?}");
        assert!((busy[1] - 0.5).abs() < 1e-4, "{busy:?}"); // µs grid rounding
        assert!(busy[2].abs() < 1e-6, "{busy:?}");
        let jobs = w.jobs.means(1);
        assert!((jobs[0] - 1.0).abs() < 1e-6, "{jobs:?}");
    }

    #[test]
    fn observation_windows_record_frozen_time() {
        let mut cpu = cpu1();
        cpu.enable_windows(SimTime::ZERO, t(100));
        cpu.submit(SimTime::ZERO, 1, 0.500);
        cpu.freeze(t(50));
        cpu.unfreeze(t(150));
        let w = cpu.take_windows(t(200)).expect("windows enabled");
        let frozen = w.frozen.means(2);
        assert!((frozen[0] - 0.5).abs() < 1e-9, "{frozen:?}");
        assert!((frozen[1] - 0.5).abs() < 1e-9, "{frozen:?}");
    }

    #[test]
    fn observation_windows_do_not_change_accounting() {
        let run = |windows: bool| {
            let mut cpu = cpu1();
            if windows {
                cpu.enable_windows(SimTime::ZERO, t(100));
            }
            cpu.submit(SimTime::ZERO, 1, 0.120);
            cpu.submit(t(30), 2, 0.080);
            cpu.freeze(t(60));
            cpu.unfreeze(t(90));
            let done = drain(&mut cpu, t(90));
            (done, cpu.utilization(t(500)).to_bits())
        };
        assert_eq!(run(false), run(true));
    }
}
