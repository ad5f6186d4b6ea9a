//! System configuration: hardware topology, soft-resource allocation, and
//! calibration parameters.
//!
//! The paper's notation: hardware `#W/#A/#C/#D` (web / app / clustering /
//! db server counts) and soft allocation `#W_T-#A_T-#A_C` (web thread pool,
//! app thread pool, app DB-connection pool — the latter two *per server*).
//! `1/2/1/2` with `400-150-60` is the practitioners' baseline configuration.

use crate::linger::LingerConfig;
use crate::topology::Topology;
use jvm_gc::GcConfig;
use metrics::{MetricsConfig, SloPolicy};
use ntier_trace::{FlightConfig, TraceConfig};
use simcore::SimTime;
use std::str::FromStr;
use workload::{RetryBudget, RetryPolicy, WorkloadConfig};

fn parse_fields(s: &str, sep: char, n: usize, what: &str) -> Result<Vec<usize>, String> {
    let parts: Vec<&str> = s.split(sep).collect();
    if parts.len() != n {
        return Err(format!(
            "{what} '{s}' must have {n} '{sep}'-separated fields"
        ));
    }
    parts
        .iter()
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("{what} '{s}': '{p}' is not a number"))
        })
        .collect()
}

/// Hardware topology `#W/#A/#C/#D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareConfig {
    /// Apache web servers.
    pub web: usize,
    /// Tomcat application servers.
    pub app: usize,
    /// C-JDBC clustering middleware servers.
    pub cmw: usize,
    /// MySQL database servers.
    pub db: usize,
}

impl HardwareConfig {
    /// Construct, validating that every tier has at least one server.
    pub fn new(web: usize, app: usize, cmw: usize, db: usize) -> Self {
        assert!(
            web >= 1 && app >= 1 && cmw >= 1 && db >= 1,
            "every tier needs at least one server"
        );
        HardwareConfig { web, app, cmw, db }
    }

    /// The paper's `1/2/1/2` topology.
    pub fn one_two_one_two() -> Self {
        HardwareConfig::new(1, 2, 1, 2)
    }

    /// The paper's `1/4/1/4` topology.
    pub fn one_four_one_four() -> Self {
        HardwareConfig::new(1, 4, 1, 4)
    }

    /// Total server count.
    pub fn total_servers(&self) -> usize {
        self.web + self.app + self.cmw + self.db
    }
}

impl std::fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}/{}", self.web, self.app, self.cmw, self.db)
    }
}

impl FromStr for HardwareConfig {
    type Err = String;

    /// Parse the paper's `#W/#A/#C/#D` notation (round-trips with
    /// [`Display`](std::fmt::Display)).
    fn from_str(s: &str) -> Result<Self, String> {
        let v = parse_fields(s.trim(), '/', 4, "hardware config")?;
        if v.contains(&0) {
            return Err(format!(
                "hardware config '{s}': every tier needs at least one server"
            ));
        }
        Ok(HardwareConfig::new(v[0], v[1], v[2], v[3]))
    }
}

/// Soft-resource allocation `#W_T-#A_T-#A_C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftAllocation {
    /// Worker threads per Apache server.
    pub web_threads: usize,
    /// Threads per Tomcat server.
    pub app_threads: usize,
    /// DB connections per Tomcat server (= C-JDBC threads contributed).
    pub app_db_conns: usize,
}

impl SoftAllocation {
    /// Construct, validating positivity.
    pub fn new(web_threads: usize, app_threads: usize, app_db_conns: usize) -> Self {
        assert!(
            web_threads >= 1 && app_threads >= 1 && app_db_conns >= 1,
            "soft resource pools need at least one unit"
        );
        SoftAllocation {
            web_threads,
            app_threads,
            app_db_conns,
        }
    }

    /// The practitioners' rule-of-thumb allocation `400-150-60` the paper
    /// calls "considered a good choice by practitioners from industry".
    pub fn rule_of_thumb() -> Self {
        SoftAllocation::new(400, 150, 60)
    }

    /// The conservative allocation `400-6-6` studied in §II-C.
    pub fn conservative() -> Self {
        SoftAllocation::new(400, 6, 6)
    }

    /// Double every pool (the `S = 2S` step of Algorithm 1).
    pub fn doubled(&self) -> Self {
        SoftAllocation::new(
            self.web_threads * 2,
            self.app_threads * 2,
            self.app_db_conns * 2,
        )
    }
}

impl std::fmt::Display for SoftAllocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-{}-{}",
            self.web_threads, self.app_threads, self.app_db_conns
        )
    }
}

impl FromStr for SoftAllocation {
    type Err = String;

    /// Parse the paper's `#W_T-#A_T-#A_C` notation (round-trips with
    /// [`Display`](std::fmt::Display)).
    fn from_str(s: &str) -> Result<Self, String> {
        let v = parse_fields(s.trim(), '-', 3, "soft allocation")?;
        if v.contains(&0) {
            return Err(format!(
                "soft allocation '{s}': every pool needs at least one unit"
            ));
        }
        Ok(SoftAllocation::new(v[0], v[1], v[2]))
    }
}

/// Calibrated service-demand and platform parameters (see DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct ServiceParams {
    /// Apache CPU before forwarding to Tomcat (ms per request).
    pub apache_pre_ms: f64,
    /// Apache CPU after the Tomcat response (ms per request).
    pub apache_post_ms: f64,
    /// Apache CPU per trailing static-content request (ms; served from cache).
    pub static_ms: f64,
    /// Multiplier on the catalogue's Tomcat demand.
    pub tomcat_scale: f64,
    /// C-JDBC routing CPU per SQL query (ms).
    pub cjdbc_ms_per_query: f64,
    /// Multiplier on the catalogue's MySQL demand.
    pub mysql_scale: f64,
    /// Coefficient of variation of the lognormal service-time jitter.
    pub demand_cv: f64,
    /// One-way per-message latency per tier hop: network propagation plus
    /// protocol processing (TCP stack, mod_jk, JDBC driver marshalling).
    /// Calibrated against the paper's per-tier residence times (Table I:
    /// ~30 ms Tomcat residence at saturation onset).
    pub net_latency: SimTime,
    /// Extra time a Tomcat thread+connection stay occupied per query after
    /// the C-JDBC reply (result-set transfer and JDBC driver processing —
    /// the `t1'`/`t2'` connection busy periods of the paper's Fig. 9).
    pub query_result_hold: SimTime,
    /// Probability that a query misses the MySQL buffer pool.
    pub disk_miss_prob: f64,
    /// Disk service time on a miss (ms).
    pub disk_ms: f64,
    /// Context-switch overhead per runnable job above the core count.
    pub csw_overhead_per_job: f64,
    /// Cores per server (Emulab PC3000 = 1).
    pub cores: u32,
    /// Transient JVM allocation per request at Tomcat (bytes).
    pub tomcat_alloc_per_req: f64,
    /// Transient JVM allocation per query at C-JDBC (bytes).
    pub cjdbc_alloc_per_query: f64,
}

impl ServiceParams {
    /// One-way delivery delay for a `bytes`-sized message crossing one tier
    /// hop: `net_latency` plus serialization at gigabit line rate.
    ///
    /// Every cross-tier event in the system is scheduled at least one
    /// 300-byte hop in the future, which makes `hop(300)` the cross-shard
    /// *lookahead* of the sharded executor (DESIGN.md §15) — the shard
    /// layout derives its lookahead from this exact expression.
    pub fn hop(&self, bytes: u64) -> SimTime {
        self.net_latency + SimTime::from_secs_f64(bytes as f64 / 125_000_000.0)
    }
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            apache_pre_ms: 0.15,
            apache_post_ms: 0.20,
            static_ms: 0.10,
            tomcat_scale: 1.0,
            cjdbc_ms_per_query: 0.45,
            mysql_scale: 0.85,
            demand_cv: 0.30,
            net_latency: SimTime::from_micros(1500),
            query_result_hold: SimTime::from_micros(400),
            disk_miss_prob: 0.05,
            disk_ms: 4.0,
            csw_overhead_per_job: 0.0004,
            cores: 1,
            tomcat_alloc_per_req: 200.0 * 1024.0,
            cjdbc_alloc_per_query: 100.0 * 1024.0,
        }
    }
}

/// Which interaction mix the clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// RUBBoS browsing-only mode.
    BrowseOnly,
    /// RUBBoS read/write mode.
    ReadWrite,
}

/// Full configuration of one simulated trial.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Hardware topology.
    pub hardware: HardwareConfig,
    /// Soft-resource allocation.
    pub soft: SoftAllocation,
    /// Calibrated demands and platform constants.
    pub params: ServiceParams,
    /// Client population and trial schedule.
    pub workload: WorkloadConfig,
    /// Interaction mix.
    pub mix: MixKind,
    /// JVM/GC parameters for Tomcat servers.
    pub tomcat_gc: GcConfig,
    /// JVM/GC parameters for the C-JDBC server.
    pub cjdbc_gc: GcConfig,
    /// Lingering-close model.
    pub linger: LingerConfig,
    /// SLA thresholds in seconds (ascending).
    pub sla_thresholds: Vec<f64>,
    /// Client-side retry policy for failed/timed-out responses (disabled by
    /// default: a failure is final and the session goes back to thinking).
    pub retry: RetryPolicy,
    /// Fleet-wide retry budget layered on top of `retry`: a token bucket
    /// capping the fraction of traffic that may be retries (disabled by
    /// default — no bucket arithmetic, bit-identical digests).
    pub retry_budget: RetryBudget,
    /// RNG seed for the whole trial.
    pub seed: u64,
    /// Per-request distributed tracing (off by default; see `ntier-trace`).
    pub trace: TraceConfig,
    /// Fine-grained windowed metrics (off by default). The collection layer
    /// is purely passive — write-only accumulators fed from existing state
    /// transitions — so enabling it changes no simulation outcome.
    pub metrics: MetricsConfig,
    /// Tail-sampling flight recorder (off by default; requires `trace` to be
    /// enabled to see any spans). Purely passive like `metrics`: it consumes
    /// spans the tracer already records, draws no RNG, schedules no events,
    /// and emits nothing — golden digests are bit-identical with it armed.
    /// Its window width is aligned to the metrics window when windowed
    /// metrics are also on, so exemplar links join on window index.
    pub flight: FlightConfig,
    /// Span-ring capacity override (`None` = `ntier_trace`'s default 1 M
    /// spans). Observational only — a smaller ring just overwrites earlier,
    /// which the flight recorder reports as window truncation.
    pub trace_capacity: Option<usize>,
    /// Burn-rate SLO policy for the windowed metrics (`None` = no extra
    /// counting). Passive: adds one per-window over-threshold counter to the
    /// registry, from which the alert stream is derived after the run.
    pub slo: Option<SloPolicy>,
    /// Engine phase profiling (off by default). Like `metrics`, profiling is
    /// purely observational — wall-clock timers and counters around the
    /// event loop, no events, no RNG draws — so the simulation output of a
    /// profiled run is bit-identical to an unprofiled one; the profile rides
    /// along as [`RunOutput::profile`](crate::RunOutput).
    pub profile: bool,
    /// Explicit tier-chain topology. `None` (the default) resolves to the
    /// paper's 4-tier chain built from `hardware`/`soft`/the GC fields at
    /// system-construction time, so late mutation of those fields still
    /// takes effect (the ablation harness relies on this).
    pub topology: Option<Topology>,
}

impl SystemConfig {
    /// A trial on the given topology/allocation with all defaults: browse-only
    /// mix, paper SLA thresholds (0.5/1/2 s), calibrated demands.
    pub fn new(hardware: HardwareConfig, soft: SoftAllocation, users: u32) -> Self {
        SystemConfig {
            hardware,
            soft,
            params: ServiceParams::default(),
            workload: WorkloadConfig::new(users),
            mix: MixKind::BrowseOnly,
            tomcat_gc: GcConfig::jdk6_server(),
            cjdbc_gc: GcConfig::jdk6_server(),
            linger: LingerConfig::emulab_clients(),
            sla_thresholds: vec![0.5, 1.0, 2.0],
            retry: RetryPolicy::disabled(),
            retry_budget: RetryBudget::disabled(),
            seed: 0x5eed_0001,
            trace: TraceConfig::Off,
            flight: FlightConfig::Off,
            trace_capacity: None,
            slo: None,
            metrics: MetricsConfig::Off,
            profile: false,
            topology: None,
        }
    }

    /// Run this trial on an explicit topology instead of the default paper
    /// chain derived from `hardware`/`soft`.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// The topology the system will be assembled from: the explicit one if
    /// set, otherwise the paper chain derived from `hardware`, `soft`, and
    /// the per-tier GC configurations.
    pub fn effective_topology(&self) -> Topology {
        self.topology.clone().unwrap_or_else(|| {
            Topology::paper_with_gc(
                self.hardware,
                self.soft,
                self.tomcat_gc.clone(),
                self.cjdbc_gc.clone(),
            )
        })
    }

    /// Compact label `#W/#A/#C/#D(#W_T-#A_T-#A_C)@users`, used in reports.
    pub fn label(&self) -> String {
        match &self.topology {
            Some(t) => format!("{}@{}", t.label(), self.workload.users),
            None => format!("{}({})@{}", self.hardware, self.soft, self.workload.users),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_display() {
        let hw = HardwareConfig::one_two_one_two();
        assert_eq!(hw.to_string(), "1/2/1/2");
        let soft = SoftAllocation::rule_of_thumb();
        assert_eq!(soft.to_string(), "400-150-60");
        let cfg = SystemConfig::new(hw, soft, 5800);
        assert_eq!(cfg.label(), "1/2/1/2(400-150-60)@5800");
    }

    #[test]
    fn doubling() {
        let s = SoftAllocation::new(10, 20, 30);
        let d = s.doubled();
        assert_eq!((d.web_threads, d.app_threads, d.app_db_conns), (20, 40, 60));
    }

    #[test]
    fn total_servers() {
        assert_eq!(HardwareConfig::one_four_one_four().total_servers(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_tier_rejected() {
        let _ = HardwareConfig::new(1, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_pool_rejected() {
        let _ = SoftAllocation::new(0, 1, 1);
    }

    #[test]
    fn from_str_round_trips_display() {
        for s in ["1/2/1/2", "1/4/1/4", "1/8/1/8", "2/16/1/3"] {
            let hw: HardwareConfig = s.parse().unwrap();
            assert_eq!(hw.to_string(), s);
        }
        for s in ["400-150-60", "400-6-6", "1-1-1", "800-300-120"] {
            let soft: SoftAllocation = s.parse().unwrap();
            assert_eq!(soft.to_string(), s);
        }
        // Whitespace is tolerated on input.
        assert_eq!(
            " 1/2/1/2 ".parse::<HardwareConfig>().unwrap(),
            HardwareConfig::one_two_one_two()
        );
    }

    #[test]
    fn from_str_rejects_malformed() {
        for s in ["1/2/1", "1/2/1/2/9", "1/2/x/2", "0/2/1/2", "", "a/b/c/d"] {
            let err = s.parse::<HardwareConfig>().unwrap_err();
            assert!(err.contains("hardware config"), "{err}");
        }
        for s in ["400-150", "400-150-60-10", "400-x-60", "400-0-60", ""] {
            let err = s.parse::<SoftAllocation>().unwrap_err();
            assert!(err.contains("soft allocation"), "{err}");
        }
    }

    #[test]
    fn topology_label_overrides_default() {
        let hw = HardwareConfig::one_two_one_two();
        let soft = SoftAllocation::rule_of_thumb();
        let cfg = SystemConfig::new(hw, soft, 100);
        assert_eq!(cfg.effective_topology().n_tiers(), 4);
        let cfg3 = SystemConfig::new(hw, soft, 100).with_topology(Topology::three_tier(
            1,
            2,
            2,
            soft,
            GcConfig::jdk6_server(),
        ));
        assert_eq!(cfg3.label(), "1/2/2(400-150-60)@100");
        assert_eq!(cfg3.effective_topology().n_tiers(), 3);
    }

    #[test]
    fn defaults_are_calibration_values() {
        let p = ServiceParams::default();
        assert_eq!(p.cores, 1);
        assert!((p.cjdbc_ms_per_query - 0.45).abs() < 1e-12);
        let cfg = SystemConfig::new(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::conservative(),
            1000,
        );
        assert_eq!(cfg.sla_thresholds, vec![0.5, 1.0, 2.0]);
    }
}
