//! The four workloads, expressed as experiment plans over the public
//! `ntier-lab` API, and one timed repetition of each.
//!
//! Every workload drives the paper's closed loop: N sessions, each thinking
//! 7 s on average (exponential) between requests, so a slower system
//! receives less load. A repetition is one whole plan execution plus the
//! post-run work a user of that workload runs on its outputs.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use metrics::{slo_burn, Diagnosis};
use ntier_core::Strategy;
use ntier_lab::{
    digest_output, run_plan, Executor, ExperimentPlan, PlanResults, Schedule, Variant,
};
use ntier_trace::{FlightConfig, TraceConfig};
use simcore::SimTime;
use tiers::{
    BreakerSpec, BrownoutSpec, FaultSpec, FlightSummary, HardwareConfig, MetricsConfig,
    RetryBudget, RetryPolicy, RunMetrics, RunTrace, SloPolicy, SoftAllocation, SystemConfig,
    Topology,
};

/// The seed every pinned digest in `expected.json` was taken at.
pub const DEFAULT_SEED: u64 = 0x5eed_0001;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1/2/1/2 rule-of-thumb at 7800 users, default schedule, observers off.
    Paper,
    /// `Paper` with every passive observer armed, plus the post-run
    /// diagnosis, burn-rate alerts and critical-path profile.
    Observed,
    /// 1/8/1/8 rule-of-thumb with a million sessions, quick schedule.
    Stress1m,
    /// Three strategies plus a retry-storm variant over a 3000–8000 ramp,
    /// run as one 24-point plan.
    Sweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Observed,
        Workload::Stress1m,
        Workload::Sweep,
    ];

    /// Name as used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Observed => "observed",
            Workload::Stress1m => "stress1m",
            Workload::Sweep => "sweep",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The plan one repetition executes. `smoke` shrinks every population
    /// and schedule so the whole benchmark runs in seconds (digests are
    /// then not the pinned ones).
    pub fn plan(self, seed: u64, smoke: bool) -> ExperimentPlan {
        let h1212 = HardwareConfig::one_two_one_two();
        let rot = SoftAllocation::rule_of_thumb();
        let (paper_users, paper_schedule) = if smoke {
            (600, Schedule::Quick)
        } else {
            (7800, Schedule::Default)
        };
        let single = |hw, users, schedule| {
            ExperimentPlan::new(self.name())
                .with_variant(Variant::paper(hw, rot))
                .with_users([users])
                .with_schedule(schedule)
                .with_seed(seed)
        };
        match self {
            Workload::Paper => single(h1212, paper_users, paper_schedule),
            Workload::Observed => observe(single(h1212, paper_users, paper_schedule)),
            Workload::Stress1m => single(
                HardwareConfig::new(1, 8, 1, 8),
                if smoke { 20_000 } else { 1_000_000 },
                Schedule::Quick,
            ),
            Workload::Sweep => {
                let users: Vec<u32> = if smoke {
                    vec![300, 600]
                } else {
                    (3..=8).map(|k| k * 1000).collect()
                };
                let mut plan = ExperimentPlan::new("sweep")
                    .with_users(users)
                    .with_schedule(Schedule::Quick)
                    .with_seed(seed);
                for s in Strategy::ALL {
                    plan = plan.with_variant(Variant::strategy(h1212, s));
                }
                plan.with_variant(storm(h1212, rot))
            }
        }
    }

    /// The single trial the layer ladder arms layers on: the workload's own
    /// trial, or for `sweep` its heaviest fault-free point.
    pub fn ladder_plan(self, seed: u64, smoke: bool) -> ExperimentPlan {
        match self {
            Workload::Paper | Workload::Observed => Workload::Paper.plan(seed, smoke),
            Workload::Stress1m => Workload::Stress1m.plan(seed, smoke),
            Workload::Sweep => {
                let plan = Workload::Sweep.plan(seed, smoke);
                let users = *plan.users.last().expect("sweep ramp is non-empty");
                ExperimentPlan::new("sweep-ladder")
                    .with_variant(Variant::strategy(
                        HardwareConfig::one_two_one_two(),
                        Strategy::RuleOfThumb,
                    ))
                    .with_users([users])
                    .with_schedule(Schedule::Quick)
                    .with_seed(seed)
            }
        }
    }

    /// The configuration the once-per-run conservation check drains: the
    /// workload's own trial, or for `sweep` the retry-storm variant at the
    /// top of the ramp (the only point with timeouts and retries).
    pub fn drain_config(self, seed: u64, smoke: bool) -> SystemConfig {
        let plan = self.plan(seed, smoke);
        let point = plan
            .expand()
            .pop()
            .expect("every workload plan has at least one point");
        let mut cfg = point.spec.to_config();
        cfg.metrics = plan.metrics;
        cfg.flight = plan.flight;
        cfg.slo = plan.slo;
        cfg
    }
}

/// Arm every passive observer on a plan: 100 ms windowed metrics with a
/// 99%-within-500 ms SLO, full tracing, and an 8-slowest flight recorder.
fn observe(plan: ExperimentPlan) -> ExperimentPlan {
    plan.with_metrics(MetricsConfig::windowed_default())
        .with_slo(slo())
        .with_trace(TraceConfig::Full)
        .with_flight(FlightConfig::tail(8))
}

/// The SLO the observed workload alerts on: 99% of requests within 500 ms.
pub fn slo() -> SloPolicy {
    SloPolicy::new(0.99, 0.5)
}

/// The retry-storm variant of the sweep: rule-of-thumb with a 2 s front
/// deadline, the C-JDBC replica slowed 6x during 14–20 s, and clients that
/// retry naively up to 4 times.
fn storm(hw: HardwareConfig, soft: SoftAllocation) -> Variant {
    let mut topo = Topology::paper(hw, soft);
    topo.tiers[0].timeout = Some(SimTime::from_secs(2));
    topo.tiers[2].fault =
        FaultSpec::none().with_slow(0, SimTime::from_secs(14), Some(SimTime::from_secs(20)), 6.0);
    Variant::paper(hw, soft)
        .labeled("storm")
        .with_topology(topo)
        .with_retry(RetryPolicy::naive(4))
}

/// The same single-point plan with resilience machinery that is armed but
/// can never trip on a healthy run: error breakers on the query tiers, a
/// brownout threshold no queue reaches, and a retry policy and budget that
/// never see a failure. The digest check proves they stayed inert.
pub fn resilience_inert(plan: &ExperimentPlan) -> ExperimentPlan {
    let mut plan = plan.clone();
    for v in &mut plan.variants {
        let mut topo = v
            .topology
            .clone()
            .unwrap_or_else(|| Topology::paper(v.hardware, v.soft));
        for t in 2..topo.tiers.len() {
            topo.tiers[t].breaker = Some(BreakerSpec::on_errors(1.0, SimTime::from_secs(1)));
        }
        topo.tiers[1].brownout = Some(BrownoutSpec::new(1_000_000_000, 0.5));
        v.topology = Some(topo);
        v.retry = RetryPolicy::backoff(3, SimTime::from_millis(200), 2.0, 0.5);
        v.retry_budget = RetryBudget::new(0.1, 10.0);
    }
    plan
}

/// Worker threads the host offers.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The executor of the traced pass's parallel probe: at most two threads,
/// never more than the host has. Timed repetitions run serially instead —
/// on a two-core host shared with other tenants a two-thread plan's
/// makespan varies too much from run to run to grade (see README).
pub fn parallel_executor() -> Executor {
    Executor::with_threads(host_threads().min(2))
}

/// What one repetition produced.
pub struct Rep {
    /// The plan's results.
    pub results: PlanResults,
    /// Host seconds for the whole repetition (plan plus post-run work).
    pub wall_secs: f64,
    /// Host seconds inside `run_plan` alone.
    pub plan_secs: f64,
}

impl Rep {
    /// Output digest of every point, in expansion order.
    pub fn digests(&self) -> Vec<u64> {
        self.results.outputs.iter().map(digest_output).collect()
    }

    /// Simulated events the repetition processed.
    pub fn events(&self) -> u64 {
        self.results
            .outputs
            .iter()
            .map(|o| o.events_processed)
            .sum()
    }
}

/// Times named calls into the layers. The end-to-end pass uses [`Untimed`];
/// the traced pass records a span per call.
pub trait Timer {
    /// Run `f` as the call `name`.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R;
}

/// A [`Timer`] that records nothing.
pub struct Untimed;

impl Timer for Untimed {
    fn time<R>(&mut self, _name: &str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Run one repetition: execute the plan, then the post-run work its users
/// run — for a metered, flight-recorded plan the diagnosis with exemplar
/// citations, the burn-rate alert stream, and the critical-path profile. A
/// panic anywhere inside is returned as an error, not propagated.
pub fn run_rep(
    plan: &ExperimentPlan,
    executor: &Executor,
    timer: &mut impl Timer,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let results = timer.time("lab.run_plan", || run_plan(plan, executor));
        let plan_secs = start.elapsed().as_secs_f64();
        post_run(&results, timer);
        Rep {
            results,
            wall_secs: start.elapsed().as_secs_f64(),
            plan_secs,
        }
    }))
    .map_err(panic_message)
}

/// The message a caught panic carried.
pub fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panicked".into())
}

/// The post-run analysis of a repetition. Each step is one timed call over
/// every point, so an unobserved plan times an empty loop.
fn post_run(results: &PlanResults, timer: &mut impl Timer) {
    fn flight(t: &Option<RunTrace>) -> Option<&FlightSummary> {
        t.as_ref().and_then(|t| t.flight.as_deref())
    }
    let metered: Vec<(&RunMetrics, Option<&FlightSummary>)> = results
        .metrics
        .iter()
        .zip(&results.traces)
        .filter_map(|(m, t)| Some((m.as_ref()?, flight(t))))
        .collect();
    let flights: Vec<&FlightSummary> = results.traces.iter().filter_map(flight).collect();
    timer.time("metrics.diagnose", || {
        for (m, f) in &metered {
            let diagnosis = Diagnosis::of_run(m);
            if let Some(f) = f {
                black_box(diagnosis.cite(f, 3));
            }
            black_box(diagnosis);
        }
    });
    timer.time("metrics.slo_alerts", || {
        for (m, _) in &metered {
            black_box(slo_burn::alerts(&m.client, m.window.as_secs_f64()));
        }
    });
    timer.time("flight.profile", || {
        for f in &flights {
            black_box(f.profile());
        }
    });
}
