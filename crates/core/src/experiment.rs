//! The experiment driver: the `RunExperiment(H, S, workload)` primitive of
//! Algorithm 1. (Grid sweeps live in `ntier-lab`: declare an
//! `ExperimentPlan` and run it on an `Executor` instead of looping here.)
//!
//! The algorithm is written against the [`Testbed`] trait so it can drive
//! either the full discrete-event simulator ([`SimTestbed`]) or the fast
//! [`AnalyticTestbed`] (an operational-analysis model in the spirit of the
//! model-based related work the paper cites — also used to unit-test the
//! algorithm in milliseconds).

use ntier_trace::TraceConfig;
use tiers::{
    run_system, run_system_traced, HardwareConfig, RetryBudget, RetryPolicy, RunOutput, RunTrace,
    SoftAllocation, SystemConfig, Tier, Topology,
};
use workload::WorkloadConfig;

/// What one trial tells the algorithm.
///
/// Every resource is keyed by **chain position** (tier id, front = 0), not
/// by a hardcoded tier role, so the algorithm runs unchanged on any
/// [`tiers::Topology`] — 3-tier chains, deeper replication, replicated
/// middleware. Role archetypes stay available through
/// [`TierLog::role`] / [`Observation::role_at`] for reporting.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Users offered.
    pub users: u32,
    /// Total throughput (req/s).
    pub throughput: f64,
    /// Goodput at the widest SLA threshold (req/s).
    pub goodput: f64,
    /// Per-second SLO-satisfaction samples.
    pub slo_samples: Vec<f64>,
    /// Saturated hardware resources `(tier id, idx, util)` — the `B_h` set.
    pub hw_saturated: Vec<(usize, u16, f64)>,
    /// Saturated soft resources `(tier id, idx, pool, fraction)` — the
    /// `B_s` set.
    pub soft_saturated: Vec<(usize, u16, &'static str, f64)>,
    /// Most-utilized hardware resource `(tier id, idx, util)`.
    pub max_cpu: (usize, u16, f64),
    /// Per-tier log summaries in chain order (index ≠ tier id when a tier
    /// has no logs; match on [`TierLog::tier_id`]).
    pub tier_logs: Vec<TierLog>,
}

impl Observation {
    /// Log summary of the tier at chain position `tier_id`.
    pub fn log_at(&self, tier_id: usize) -> Option<&TierLog> {
        self.tier_logs.iter().find(|l| l.tier_id == tier_id)
    }

    /// Log summary of the first tier playing `role`.
    pub fn log_of(&self, role: Tier) -> Option<&TierLog> {
        self.tier_logs.iter().find(|l| l.role == role)
    }

    /// Role archetype of the tier at chain position `tier_id`.
    pub fn role_at(&self, tier_id: usize) -> Option<Tier> {
        self.log_at(tier_id).map(|l| l.role)
    }
}

/// Per-tier log summary (the paper's per-server RTT / TP from Table I).
#[derive(Debug, Clone, Copy)]
pub struct TierLog {
    /// Chain position of the tier (front = 0).
    pub tier_id: usize,
    /// Role archetype of the tier.
    pub role: Tier,
    /// Mean residence time of one request/query in one server (seconds).
    pub rtt: f64,
    /// Throughput of one server of this tier (req/s or queries/s).
    pub tp_per_server: f64,
    /// Number of servers in the tier.
    pub servers: usize,
}

impl TierLog {
    /// Average jobs inside one server of this tier (Little's law).
    pub fn jobs_per_server(&self) -> f64 {
        self.tp_per_server * self.rtt
    }

    /// Average jobs across the whole tier.
    pub fn total_jobs(&self) -> f64 {
        self.jobs_per_server() * self.servers as f64
    }
}

/// Convert a full [`RunOutput`] into the algorithm's [`Observation`].
pub fn observe(out: &RunOutput, hw_threshold: f64, soft_threshold: f64) -> Observation {
    let mut tier_logs = Vec::new();
    for tier_id in 0..out.n_tiers() {
        let nodes = out.tier_nodes_at(tier_id);
        if nodes.is_empty() {
            continue;
        }
        let role = out.role_of(tier_id).expect("tier has nodes");
        let servers = nodes.len();
        let rtt = nodes.iter().map(|n| n.mean_rtt).sum::<f64>() / servers as f64;
        let tp = nodes
            .iter()
            .map(|n| n.throughput(out.window_secs))
            .sum::<f64>()
            / servers as f64;
        tier_logs.push(TierLog {
            tier_id,
            role,
            rtt,
            tp_per_server: tp,
            servers,
        });
    }
    let hw_saturated = out
        .nodes
        .iter()
        .filter(|n| n.cpu_util >= hw_threshold)
        .map(|n| (n.tier_id, n.idx, n.cpu_util))
        .collect();
    Observation {
        users: out.users,
        throughput: out.throughput,
        goodput: *out.goodput.last().expect("at least one threshold"),
        slo_samples: out.slo_samples.clone(),
        hw_saturated,
        soft_saturated: out.soft_saturated_at(soft_threshold),
        max_cpu: out.max_cpu_at(),
        tier_logs,
    }
}

/// A system the allocation algorithm can experiment on.
pub trait Testbed {
    /// Run one trial with the given soft allocation and user count.
    fn run(&mut self, soft: SoftAllocation, users: u32) -> Observation;
    /// The (fixed) hardware topology.
    fn hardware(&self) -> HardwareConfig;
    /// Mean client think time in seconds.
    fn think_time_secs(&self) -> f64;
    /// Average SQL queries per servlet request (`Req_ratio`).
    fn req_ratio(&self) -> f64;
}

/// Trial schedule used by driver helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// 10 s ramp, 30 s runtime — tests.
    Quick,
    /// 30 s ramp, 120 s runtime — benches (default).
    Default,
    /// The paper's 8 min ramp, 12 min runtime.
    Paper,
}

impl Schedule {
    /// Materialize the schedule for a population.
    pub fn workload(self, users: u32) -> WorkloadConfig {
        match self {
            Schedule::Quick => WorkloadConfig::quick(users),
            Schedule::Default => WorkloadConfig::new(users),
            Schedule::Paper => WorkloadConfig::paper_schedule(users),
        }
    }
}

/// Specification of one simulator trial.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Hardware topology.
    pub hardware: HardwareConfig,
    /// Soft allocation.
    pub soft: SoftAllocation,
    /// Users.
    pub users: u32,
    /// Trial schedule.
    pub schedule: Schedule,
    /// RNG seed.
    pub seed: u64,
    /// Per-request tracing ([`TraceConfig::Off`] by default — zero cost).
    pub trace: TraceConfig,
    /// Explicit tier chain. `None` resolves to the paper's 4-tier chain
    /// built from `hardware`/`soft`; set it to run non-paper chains (deeper
    /// replication, a 3-tier system, replicated middleware) through the
    /// same experiment drivers.
    pub topology: Option<Topology>,
    /// Client-side retry policy (disabled by default).
    pub retry: RetryPolicy,
    /// Fleet-wide retry budget layered on the retry policy (disabled by
    /// default).
    pub retry_budget: RetryBudget,
}

impl ExperimentSpec {
    /// Spec with the default schedule and seed, tracing off.
    pub fn new(hardware: HardwareConfig, soft: SoftAllocation, users: u32) -> Self {
        ExperimentSpec {
            hardware,
            soft,
            users,
            schedule: Schedule::Default,
            seed: 0x5eed_0001,
            trace: TraceConfig::Off,
            topology: None,
            retry: RetryPolicy::disabled(),
            retry_budget: RetryBudget::disabled(),
        }
    }

    /// Same spec with tracing enabled.
    pub fn traced(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Same spec pinned to an explicit tier-chain topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Build the full system configuration.
    pub fn to_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::new(self.hardware, self.soft, self.users);
        cfg.workload = self.schedule.workload(self.users);
        cfg.seed = self.seed;
        cfg.trace = self.trace;
        cfg.topology = self.topology.clone();
        cfg.retry = self.retry;
        cfg.retry_budget = self.retry_budget;
        cfg
    }
}

/// Run one simulator trial from a spec.
pub fn run_experiment(spec: &ExperimentSpec) -> RunOutput {
    run_system(spec.to_config())
}

/// Run one simulator trial and return the trace alongside the aggregates.
/// With `spec.trace == TraceConfig::Off` the trace is empty.
pub fn run_experiment_traced(spec: &ExperimentSpec) -> (RunOutput, RunTrace) {
    run_system_traced(spec.to_config())
}

/// The discrete-event simulator as a [`Testbed`].
pub struct SimTestbed {
    /// Template configuration; each trial overrides the allocation and the
    /// user count (so calibration overrides — scaled demands, custom GC —
    /// carry into every run the algorithm makes).
    pub base: SystemConfig,
    /// Trial schedule (re-materialized per user count).
    pub schedule: Schedule,
    /// CPU-utilization threshold that counts as hardware saturation.
    pub hw_threshold: f64,
    /// Pool saturated-fraction threshold that counts as soft saturation.
    pub soft_threshold: f64,
}

impl SimTestbed {
    /// Testbed on the given topology with default calibration and thresholds
    /// (95% CPU / 50% pool-saturated time).
    pub fn new(hardware: HardwareConfig, schedule: Schedule) -> Self {
        SimTestbed {
            base: SystemConfig::new(hardware, SoftAllocation::rule_of_thumb(), 1),
            schedule,
            hw_threshold: 0.95,
            soft_threshold: 0.5,
        }
    }

    /// Testbed from a fully customized template configuration.
    pub fn from_base(base: SystemConfig, schedule: Schedule) -> Self {
        SimTestbed {
            base,
            schedule,
            hw_threshold: 0.95,
            soft_threshold: 0.5,
        }
    }
}

impl Testbed for SimTestbed {
    fn run(&mut self, soft: SoftAllocation, users: u32) -> Observation {
        let mut cfg = self.base.clone();
        cfg.soft = soft;
        let think = cfg.workload.think_time;
        cfg.workload = self.schedule.workload(users);
        cfg.workload.think_time = think;
        let out = run_system(cfg);
        observe(&out, self.hw_threshold, self.soft_threshold)
    }

    fn hardware(&self) -> HardwareConfig {
        self.base.hardware
    }

    fn think_time_secs(&self) -> f64 {
        self.base.workload.think_time.as_secs_f64()
    }

    fn req_ratio(&self) -> f64 {
        let catalog = workload::InteractionCatalog::rubbos();
        let mix = match self.base.mix {
            tiers::config::MixKind::BrowseOnly => workload::Mix::browse_only(&catalog),
            tiers::config::MixKind::ReadWrite => workload::Mix::read_write(&catalog),
        };
        catalog.req_ratio(mix.weights())
    }
}

/// A fast analytic testbed: asymptotic operational analysis of the same
/// 4-tier topology (service demands per tier, soft pools as population
/// limits). Used to unit-test the algorithm and as the "analytical
/// model-based" comparator from the paper's related work (§V).
pub struct AnalyticTestbed {
    /// Topology.
    pub hardware: HardwareConfig,
    /// Think time (s).
    pub think: f64,
    /// Per-interaction CPU demand at each tier of ONE server (seconds):
    /// `[web, app, cmw, db]` — already divided by queries where applicable.
    pub demand: [f64; 4],
    /// Queries per interaction.
    pub req_ratio: f64,
    /// Fixed network/processing latency per interaction (s).
    pub latency: f64,
    /// SLA threshold (s).
    pub sla: f64,
    /// GC burden per C-JDBC connection at saturation (fraction of CPU per
    /// 100 connections) — the over-allocation penalty.
    pub gc_per_100_conns: f64,
}

impl AnalyticTestbed {
    /// An analytic testbed calibrated like the simulator's defaults.
    pub fn calibrated(hardware: HardwareConfig) -> Self {
        AnalyticTestbed {
            hardware,
            think: 7.0,
            demand: [0.00075, 0.0024, 0.0011, 0.0019],
            req_ratio: 2.44,
            latency: 0.022,
            sla: 2.0,
            gc_per_100_conns: 0.012,
        }
    }

    fn servers(&self, i: usize) -> f64 {
        [
            self.hardware.web,
            self.hardware.app,
            self.hardware.cmw,
            self.hardware.db,
        ][i] as f64
    }
}

impl Testbed for AnalyticTestbed {
    fn run(&mut self, soft: SoftAllocation, users: u32) -> Observation {
        let n = users as f64;
        // Per-tier effective demand (demand / servers), with the C-JDBC GC
        // penalty growing with the total connection count.
        let total_conns = (soft.app_db_conns * self.hardware.app) as f64;
        let gc = (total_conns / 100.0 * self.gc_per_100_conns).min(0.9);
        let mut eff: [f64; 4] = std::array::from_fn(|i| self.demand[i] / self.servers(i));
        eff[2] /= 1.0 - gc;
        // Hardware capacity bound.
        let hw_cap = 1.0 / eff.iter().cloned().fold(f64::MIN, f64::max);
        // Base residence (no contention).
        let r0: f64 = self.demand.iter().sum::<f64>() + self.latency;
        // Soft-pool population limits → throughput caps via Little's law.
        // Holding times: a web thread holds ~the full residence; an app
        // thread holds residence minus web part; a DB conn holds the per-query
        // downstream time (× req_ratio per request).
        let web_cap = (soft.web_threads * self.hardware.web) as f64 / r0;
        let app_hold = r0 - self.demand[0];
        let app_cap = (soft.app_threads * self.hardware.app) as f64 / app_hold;
        let conn_hold = self.demand[2] + self.demand[3] + self.latency * 0.6;
        let conn_cap = total_conns / conn_hold;
        let offered = n / (self.think + r0);
        let x = offered.min(hw_cap).min(web_cap).min(app_cap).min(conn_cap);
        // Closed-loop response time.
        let r = (n / x - self.think).max(r0);
        // Which resource is binding?
        let util: Vec<f64> = (0..4).map(|i| (x * eff[i]).min(1.0)).collect();
        // The analytic model is the paper's fixed 4-tier chain: chain
        // position i carries role Tier::ALL[i].
        let hw_saturated: Vec<(usize, u16, f64)> = (0..4)
            .filter(|&i| util[i] >= 0.95)
            .map(|i| (i, 0u16, util[i]))
            .collect();
        let mut soft_saturated = Vec::new();
        if x >= web_cap * 0.999 && x < hw_cap * 0.98 {
            soft_saturated.push((0usize, 0u16, "threads", 1.0));
        }
        if x >= app_cap * 0.999 && x < hw_cap * 0.98 {
            soft_saturated.push((1usize, 0u16, "threads", 1.0));
        }
        if x >= conn_cap * 0.999 && x < hw_cap * 0.98 {
            soft_saturated.push((1usize, 0u16, "db-conns", 1.0));
        }
        let max_i = (0..4)
            .max_by(|&a, &b| util[a].partial_cmp(&util[b]).expect("no NaN"))
            .expect("four tiers");
        // Satisfaction: deterministic sigmoid around the SLA threshold, with
        // tiny index jitter so variance is non-zero for the t-test.
        let sat = 1.0 / (1.0 + ((r - self.sla) / (0.10 * self.sla)).exp());
        let slo_samples: Vec<f64> = (0..60)
            .map(|i| (sat + 0.004 * ((i * 7 % 13) as f64 / 13.0 - 0.5)).clamp(0.0, 1.0))
            .collect();
        // Per-tier residence split: queueing in proportion to utilization.
        let mut tier_logs = Vec::new();
        let extra = (r - r0).max(0.0);
        let util_sum: f64 = util.iter().sum();
        for (i, &tier) in Tier::ALL.iter().enumerate() {
            let share = if util_sum > 0.0 {
                util[i] / util_sum
            } else {
                0.25
            };
            let visits = if i >= 2 { self.req_ratio } else { 1.0 };
            let rtt = (self.demand[i] / visits + self.latency / 8.0)
                / (1.0 - (x * eff[i]).min(0.99))
                + extra * share / visits;
            let tp = x * visits / self.servers(i);
            tier_logs.push(TierLog {
                tier_id: i,
                role: tier,
                rtt,
                tp_per_server: tp,
                servers: self.servers(i) as usize,
            });
        }
        Observation {
            users,
            throughput: x,
            goodput: x * sat,
            slo_samples,
            hw_saturated,
            soft_saturated,
            max_cpu: (max_i, 0, util[max_i]),
            tier_logs,
        }
    }

    fn hardware(&self) -> HardwareConfig {
        self.hardware
    }

    fn think_time_secs(&self) -> f64 {
        self.think
    }

    fn req_ratio(&self) -> f64 {
        self.req_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_testbed_saturates_the_right_tier() {
        // 1/2/1/2: Tomcat effective demand 1.2 ms dominates.
        let mut tb = AnalyticTestbed::calibrated(HardwareConfig::one_two_one_two());
        let soft = SoftAllocation::new(400, 150, 60);
        let obs = tb.run(soft, 8000);
        assert_eq!(
            obs.role_at(obs.max_cpu.0),
            Some(Tier::App),
            "{:?}",
            obs.max_cpu
        );
        assert!(!obs.hw_saturated.is_empty());
        // 1/4/1/4: C-JDBC dominates.
        let mut tb = AnalyticTestbed::calibrated(HardwareConfig::one_four_one_four());
        let obs = tb.run(soft, 9000);
        assert_eq!(
            obs.role_at(obs.max_cpu.0),
            Some(Tier::Cmw),
            "{:?}",
            obs.max_cpu
        );
    }

    #[test]
    fn analytic_testbed_detects_soft_bottleneck() {
        let mut tb = AnalyticTestbed::calibrated(HardwareConfig::one_two_one_two());
        // Tiny app thread pool: soft bottleneck, hardware unsaturated.
        let soft = SoftAllocation::new(400, 3, 60);
        let obs = tb.run(soft, 8000);
        assert!(obs.hw_saturated.is_empty(), "{:?}", obs.hw_saturated);
        assert!(
            obs.soft_saturated
                .iter()
                .any(|s| s.2 == "threads" && obs.role_at(s.0) == Some(Tier::App)),
            "{:?}",
            obs.soft_saturated
        );
    }

    #[test]
    fn analytic_throughput_grows_until_knee() {
        let mut tb = AnalyticTestbed::calibrated(HardwareConfig::one_two_one_two());
        let soft = SoftAllocation::new(400, 150, 60);
        let x3000 = tb.run(soft, 3000).throughput;
        let x5000 = tb.run(soft, 5000).throughput;
        let x9000 = tb.run(soft, 9000).throughput;
        assert!(x5000 > x3000);
        assert!((x9000 - x5000).abs() / x5000 < 0.30, "{x5000} vs {x9000}");
    }

    #[test]
    fn analytic_slo_degrades_past_saturation() {
        let mut tb = AnalyticTestbed::calibrated(HardwareConfig::one_two_one_two());
        let soft = SoftAllocation::new(400, 150, 60);
        let low = tb.run(soft, 3000);
        let high = tb.run(soft, 12_000);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&low.slo_samples) > 0.95);
        assert!(mean(&high.slo_samples) < 0.5);
    }

    #[test]
    fn tier_log_littles_law() {
        let log = TierLog {
            tier_id: 1,
            role: Tier::App,
            rtt: 0.03,
            tp_per_server: 400.0,
            servers: 2,
        };
        assert!((log.jobs_per_server() - 12.0).abs() < 1e-12);
        assert!((log.total_jobs() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn observe_extracts_tier_logs() {
        let mut spec = ExperimentSpec::new(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::new(50, 20, 10),
            150,
        );
        spec.schedule = Schedule::Quick;
        let out = run_experiment(&spec);
        let obs = observe(&out, 0.95, 0.5);
        assert_eq!(obs.tier_logs.len(), 4);
        let app = obs.log_of(Tier::App).expect("app tier log");
        assert_eq!(app.tier_id, 1);
        assert_eq!(app.servers, 2);
        assert!(app.rtt > 0.0 && app.tp_per_server > 0.0);
        // Forced flow: C-JDBC per-server TP ≈ system TP × req_ratio.
        let cmw = obs.log_of(Tier::Cmw).expect("cmw tier log");
        assert_eq!(obs.log_at(2).expect("tier 2").role, Tier::Cmw);
        let ratio = cmw.tp_per_server / obs.throughput;
        assert!((2.0..3.0).contains(&ratio), "req ratio {ratio}");
    }
}
