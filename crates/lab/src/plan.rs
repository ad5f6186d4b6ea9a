//! Declarative experiment plans.
//!
//! An [`ExperimentPlan`] is the grid every figure of the paper is built
//! from: a set of [`Variant`]s (topology + soft allocation + fault/retry
//! policy) crossed with a workload ramp, under one trial schedule, seed, and
//! trace/metrics configuration. [`ExperimentPlan::expand`] resolves the grid
//! deterministically (variant-major, workloads in declaration order) into
//! [`RunPoint`]s, each carrying a fully resolved [`ExperimentSpec`] and a
//! content digest: the FNV-1a hash of the spec's canonical JSON, covering
//! every semantic knob down to per-tier fault windows. Two points collide
//! exactly when they would simulate the same trial, which is what lets the
//! artifact store skip re-execution on resume.

use ntier_core::experiment::{ExperimentSpec, Schedule};
use ntier_core::Strategy;
use ntier_trace::json::{obj, Json};
use ntier_trace::TraceConfig;
use tiers::topology::SelectPolicy;
use tiers::{
    FaultSpec, FlightConfig, HardwareConfig, MetricsConfig, RetryBudget, RetryPolicy, ShedPolicy,
    SloPolicy, SoftAllocation, Topology,
};

use crate::digest::digest_str;

/// One configuration under test: a labeled topology/allocation pair with
/// optional fault, retry, and per-variant workload overrides.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Column label in reports, e.g. `1/2/1/2(400-150-60)`.
    pub label: String,
    /// Hardware topology.
    pub hardware: HardwareConfig,
    /// Soft allocation.
    pub soft: SoftAllocation,
    /// Explicit tier chain (carries fault schedules, shedding, timeouts).
    /// `None` resolves to the paper chain built from `hardware`/`soft`.
    pub topology: Option<Topology>,
    /// Client-side retry policy.
    pub retry: RetryPolicy,
    /// Fleet-wide retry budget layered on the retry policy.
    pub retry_budget: RetryBudget,
    /// Workload override; `None` uses the plan's shared ramp.
    pub users: Option<Vec<u32>>,
}

impl Variant {
    /// Variant on the paper's 4-tier chain for this hardware/allocation,
    /// labeled with the paper notation (e.g. `1/2/1/2(400-150-60)`).
    pub fn paper(hardware: HardwareConfig, soft: SoftAllocation) -> Self {
        let topology = Topology::paper(hardware, soft);
        Variant {
            label: topology.label(),
            hardware,
            soft,
            topology: Some(topology),
            retry: RetryPolicy::disabled(),
            retry_budget: RetryBudget::disabled(),
            users: None,
        }
    }

    /// Variant from one of the paper's static allocation strategies.
    pub fn strategy(hardware: HardwareConfig, strategy: Strategy) -> Self {
        Variant::paper(hardware, strategy.allocation(hardware)).labeled(strategy.name())
    }

    /// Same variant with an explicit label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Same variant pinned to an explicit tier chain (fault schedules,
    /// shedding, timeouts, non-paper chains).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Same variant with a client retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Same variant with a fleet-wide retry budget.
    pub fn with_retry_budget(mut self, budget: RetryBudget) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Same variant with its own workload points instead of the plan ramp.
    pub fn with_users(mut self, users: impl Into<Vec<u32>>) -> Self {
        self.users = Some(users.into());
        self
    }
}

/// A declarative experiment grid: variants × workload ramp under one
/// schedule/seed/trace/metrics configuration.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Plan name (artifact-store namespace, report headings).
    pub name: String,
    /// Configurations under test, in report-column order.
    pub variants: Vec<Variant>,
    /// Shared workload ramp (user counts, in row order).
    pub users: Vec<u32>,
    /// Trial schedule.
    pub schedule: Schedule,
    /// RNG seed shared by every point (per-run streams fork from it).
    pub seed: u64,
    /// Per-request tracing.
    pub trace: TraceConfig,
    /// Windowed time-series collection (passive; results are bit-identical
    /// with it on or off, but metered plans always re-execute — series are
    /// not persisted in the artifact store).
    pub metrics: MetricsConfig,
    /// Engine profiling (passive; results are bit-identical with it on or
    /// off, but profiled plans always re-execute — phase timings describe
    /// *this* execution, not a store replay).
    pub profile: bool,
    /// Tail-sampling flight recorder (passive; requires `trace` to be
    /// enabled to arm). Summaries ride on the per-point [`tiers::RunTrace`],
    /// so — like traces — they are only present for executed points, never
    /// store replays. Excluded from the content digest.
    pub flight: FlightConfig,
    /// Latency SLO attached to the windowed metrics pipeline (per-window
    /// violation counts feeding the burn-rate alert stream). Passive and
    /// excluded from the content digest; has no effect unless `metrics` is
    /// enabled.
    pub slo: Option<SloPolicy>,
}

impl ExperimentPlan {
    /// Empty plan with the default schedule, seed, and everything off.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentPlan {
            name: name.into(),
            variants: Vec::new(),
            users: Vec::new(),
            schedule: Schedule::Default,
            seed: 0x5eed_0001,
            trace: TraceConfig::Off,
            metrics: MetricsConfig::Off,
            profile: false,
            flight: FlightConfig::Off,
            slo: None,
        }
    }

    /// The three static strategies of §III crossed with a workload ramp —
    /// the comparison grid behind Table 1 and the capacity-planning flows.
    pub fn strategies(
        name: impl Into<String>,
        hardware: HardwareConfig,
        users: impl Into<Vec<u32>>,
    ) -> Self {
        let mut plan = ExperimentPlan::new(name).with_users(users);
        for s in Strategy::ALL {
            plan.variants.push(Variant::strategy(hardware, s));
        }
        plan
    }

    /// Add one variant.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variants.push(variant);
        self
    }

    /// Set the shared workload ramp.
    pub fn with_users(mut self, users: impl Into<Vec<u32>>) -> Self {
        self.users = users.into();
        self
    }

    /// Set the trial schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the shared RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable per-request tracing.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Enable windowed time-series collection.
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enable engine profiling on every point of the plan.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Arm the tail-sampling flight recorder on every point (passive; only
    /// takes effect when the plan also enables tracing).
    pub fn with_flight(mut self, flight: FlightConfig) -> Self {
        self.flight = flight;
        self
    }

    /// Attach a latency SLO to the windowed metrics of every point
    /// (passive; only takes effect when the plan also enables metrics).
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Resolve the grid into run points: variant-major, workloads in
    /// declaration order, indices dense. Expansion is pure — the same plan
    /// always yields the same points, labels, and digests.
    pub fn expand(&self) -> Vec<RunPoint> {
        let mut points = Vec::new();
        for (v, variant) in self.variants.iter().enumerate() {
            let ramp = variant.users.as_deref().unwrap_or(&self.users);
            for &users in ramp {
                let mut spec = ExperimentSpec::new(variant.hardware, variant.soft, users);
                spec.schedule = self.schedule;
                spec.seed = self.seed;
                spec.trace = self.trace;
                spec.topology = variant.topology.clone();
                spec.retry = variant.retry;
                spec.retry_budget = variant.retry_budget;
                let digest = digest_str(&spec_json(&spec).to_compact());
                points.push(RunPoint {
                    index: points.len(),
                    variant: v,
                    label: format!("{}@{}", variant.label, users),
                    spec,
                    digest,
                });
            }
        }
        points
    }

    /// Content digest of the whole plan: the combined digest of every
    /// point's digest, in expansion order.
    pub fn digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        for p in self.expand() {
            h.u64(p.digest);
        }
        h.finish()
    }
}

/// One fully resolved trial of a plan.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Dense index in expansion order.
    pub index: usize,
    /// Index of the variant this point belongs to.
    pub variant: usize,
    /// Report label, `<variant label>@<users>`.
    pub label: String,
    /// The resolved trial specification.
    pub spec: ExperimentSpec,
    /// Content address: FNV-1a over the spec's canonical JSON.
    pub digest: u64,
}

impl RunPoint {
    /// The content address as the artifact store's hex file-name stem.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// Canonical JSON form of a spec — the content-addressing preimage. Every
/// semantic knob that changes simulation output must appear here; purely
/// observational settings (windowed metrics, engine profiling) must not.
pub fn spec_json(spec: &ExperimentSpec) -> Json {
    obj([
        (
            "hardware",
            Json::Arr(
                [
                    spec.hardware.web,
                    spec.hardware.app,
                    spec.hardware.cmw,
                    spec.hardware.db,
                ]
                .map(|n| Json::UInt(n as u64))
                .to_vec(),
            ),
        ),
        (
            "soft",
            Json::Arr(
                [
                    spec.soft.web_threads,
                    spec.soft.app_threads,
                    spec.soft.app_db_conns,
                ]
                .map(|n| Json::UInt(n as u64))
                .to_vec(),
            ),
        ),
        ("users", Json::UInt(spec.users as u64)),
        (
            "schedule",
            Json::Str(
                match spec.schedule {
                    Schedule::Quick => "quick",
                    Schedule::Default => "default",
                    Schedule::Paper => "paper",
                }
                .into(),
            ),
        ),
        ("seed", Json::UInt(spec.seed)),
        (
            "trace",
            match spec.trace {
                TraceConfig::Off => Json::Str("off".into()),
                TraceConfig::Sampled(p) => obj([("sampled", Json::Num(p))]),
                TraceConfig::Full => Json::Str("full".into()),
            },
        ),
        (
            "retry",
            obj([
                ("max_attempts", Json::UInt(spec.retry.max_attempts as u64)),
                (
                    "backoff_base",
                    Json::Num(spec.retry.backoff_base.as_secs_f64()),
                ),
                ("backoff_mult", Json::Num(spec.retry.backoff_mult)),
                ("jitter_frac", Json::Num(spec.retry.jitter_frac)),
            ]),
        ),
        (
            "retry_budget",
            if spec.retry_budget.is_disabled() {
                Json::Str("off".into())
            } else {
                obj([
                    ("ratio", Json::Num(spec.retry_budget.ratio)),
                    ("burst", Json::Num(spec.retry_budget.burst)),
                ])
            },
        ),
        (
            "topology",
            match &spec.topology {
                None => Json::Null,
                Some(t) => Json::Arr(t.tiers.iter().map(tier_spec_json).collect()),
            },
        ),
    ])
}

fn tier_spec_json(t: &tiers::TierSpec) -> Json {
    obj([
        ("role", Json::Str(t.role.to_string())),
        ("name", Json::Str(t.name.into())),
        ("replicas", Json::UInt(t.replicas as u64)),
        (
            "threads",
            t.threads.map_or(Json::Null, |n| Json::UInt(n as u64)),
        ),
        (
            "conns",
            t.conns.map_or(Json::Null, |n| Json::UInt(n as u64)),
        ),
        (
            "gc",
            match &t.gc {
                None => Json::Null,
                Some(g) => Json::Arr(
                    [
                        g.heap_bytes,
                        g.base_live_bytes,
                        g.live_per_thread_bytes,
                        g.live_per_conn_bytes,
                        g.live_per_active_bytes,
                        g.pause_base_secs,
                        g.pause_per_live_mib_secs,
                        g.min_free_bytes,
                    ]
                    .map(Json::Num)
                    .to_vec(),
                ),
            },
        ),
        ("linger", Json::Bool(t.linger)),
        (
            "select",
            Json::Str(
                match t.select {
                    SelectPolicy::RoundRobin => "round-robin",
                    SelectPolicy::LeastOutstanding => "least-outstanding",
                    SelectPolicy::HashById => "hash-by-id",
                    SelectPolicy::FailFast => "fail-fast",
                }
                .into(),
            ),
        ),
        ("fault", fault_json(&t.fault)),
        (
            "timeout",
            t.timeout.map_or(Json::Null, |d| Json::Num(d.as_secs_f64())),
        ),
        (
            "shed",
            match t.shed {
                ShedPolicy::None => Json::Str("none".into()),
                ShedPolicy::QueueDepth(n) => obj([("queue_depth", Json::UInt(n as u64))]),
                ShedPolicy::DeadlineAware { budget, est_hold } => obj([(
                    "deadline_aware",
                    Json::Arr(vec![
                        Json::Num(budget.as_secs_f64()),
                        Json::Num(est_hold.as_secs_f64()),
                    ]),
                )]),
            },
        ),
        (
            "breaker",
            match &t.breaker {
                None => Json::Null,
                Some(b) => Json::Arr(
                    [
                        b.window.as_secs_f64(),
                        b.min_samples as f64,
                        b.error_threshold,
                        b.latency_slo.as_secs_f64(),
                        b.slow_threshold,
                        b.open_for.as_secs_f64(),
                        b.half_open_successes as f64,
                    ]
                    .map(Json::Num)
                    .to_vec(),
                ),
            },
        ),
        (
            "brownout",
            match &t.brownout {
                None => Json::Null,
                Some(b) => Json::Arr(vec![
                    Json::UInt(b.queue_threshold as u64),
                    Json::Num(b.factor),
                ]),
            },
        ),
        (
            "hedge",
            t.hedge
                .map_or(Json::Null, |h| Json::Num(h.delay.as_secs_f64())),
        ),
    ])
}

fn fault_json(f: &FaultSpec) -> Json {
    obj([
        (
            "crashes",
            Json::Arr(
                f.crashes
                    .iter()
                    .map(|c| {
                        Json::Arr(vec![
                            Json::UInt(c.replica as u64),
                            Json::Num(c.crash_at.as_secs_f64()),
                            c.recover_at
                                .map_or(Json::Null, |t| Json::Num(t.as_secs_f64())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "slow",
            Json::Arr(
                f.slow
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::UInt(s.replica as u64),
                            Json::Num(s.from.as_secs_f64()),
                            s.until.map_or(Json::Null, |t| Json::Num(t.as_secs_f64())),
                            Json::Num(s.multiplier),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("drop_prob", Json::Num(f.drop_prob)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn two_by_three() -> ExperimentPlan {
        ExperimentPlan::new("test")
            .with_variant(Variant::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::rule_of_thumb(),
            ))
            .with_variant(Variant::paper(
                HardwareConfig::one_four_one_four(),
                SoftAllocation::rule_of_thumb(),
            ))
            .with_users([1000u32, 2000, 3000])
            .with_schedule(Schedule::Quick)
    }

    #[test]
    fn expansion_is_variant_major_and_dense() {
        let points = two_by_three().expand();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points.iter().map(|p| p.index).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(
            points.iter().map(|p| p.variant).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1]
        );
        assert_eq!(points[0].label, "1/2/1/2(400-150-60)@1000");
        assert_eq!(points[5].label, "1/4/1/4(400-150-60)@3000");
        assert_eq!(points[1].spec.users, 2000);
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = two_by_three().expand();
        let b = two_by_three().expand();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest);
            assert_eq!(x.label, y.label);
        }
        assert_eq!(two_by_three().digest(), two_by_three().digest());
    }

    #[test]
    fn digests_are_content_addresses() {
        let points = two_by_three().expand();
        // All six points differ in hardware or users → all digests distinct.
        let mut ds: Vec<u64> = points.iter().map(|p| p.digest).collect();
        ds.sort_unstable();
        ds.dedup();
        assert_eq!(ds.len(), 6);
        // The same logical point in a differently named plan has the SAME
        // address (content, not identity).
        let renamed = ExperimentPlan {
            name: "other".into(),
            ..two_by_three()
        };
        assert_eq!(renamed.expand()[0].digest, points[0].digest);
        // Any semantic knob changes the address.
        let reseeded = two_by_three().with_seed(7);
        assert_ne!(reseeded.expand()[0].digest, points[0].digest);
        let traced = two_by_three().with_trace(TraceConfig::Sampled(0.25));
        assert_ne!(traced.expand()[0].digest, points[0].digest);
    }

    #[test]
    fn variant_users_override_plan_ramp() {
        let plan = two_by_three().with_variant(
            Variant::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::conservative(),
            )
            .with_users([500u32]),
        );
        let points = plan.expand();
        assert_eq!(points.len(), 7);
        assert_eq!(points[6].spec.users, 500);
        assert_eq!(points[6].variant, 2);
    }

    #[test]
    fn fault_windows_reach_the_content_address() {
        let hw = HardwareConfig::one_two_one_two();
        let soft = SoftAllocation::rule_of_thumb();
        let mut topo = Topology::paper(hw, soft);
        let fault = std::mem::take(&mut topo.tiers[3].fault);
        topo.tiers[3].fault = fault.with_crash(0, SimTime::from_secs(40), None);
        let base = ExperimentPlan::new("p")
            .with_variant(Variant::paper(hw, soft))
            .with_users([1000u32]);
        let faulted = ExperimentPlan::new("p")
            .with_variant(Variant::paper(hw, soft).with_topology(topo))
            .with_users([1000u32]);
        assert_ne!(base.expand()[0].digest, faulted.expand()[0].digest);
    }

    #[test]
    fn strategies_plan_covers_all_three() {
        let plan =
            ExperimentPlan::strategies("t", HardwareConfig::one_two_one_two(), [1000u32, 2000]);
        assert_eq!(plan.variants.len(), 3);
        let points = plan.expand();
        assert_eq!(points.len(), 6);
        assert!(points[0].label.starts_with("conservative"));
        assert!(points[4].label.starts_with("liberal"));
    }
}
