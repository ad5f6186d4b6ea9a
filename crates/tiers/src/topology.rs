//! Declarative tier-chain topology.
//!
//! A [`Topology`] is an ordered chain of [`TierSpec`]s, front tier first.
//! [`crate::System`] assembles one tier node per spec and routes typed
//! messages along the chain, so the paper's `1/2/1/2`+`400-150-60` and
//! `1/4/1/4` configurations are two literals ([`Topology::paper`]) and new
//! scenarios — deeper replication (`1/8/1/8`), a 3-tier chain without the
//! C-JDBC middleware, a replicated C-JDBC — are configuration, not code.
//!
//! Supported chains (validated by [`Topology::validate`]):
//!
//! ```text
//! Web → App → Cmw → Db      (the paper's 4-tier RUBBoS testbed)
//! Web → App → Db            (3-tier: Tomcat speaks JDBC directly to MySQL)
//! ```
//!
//! Each spec carries its replica count, soft-resource pool sizes, GC model
//! on/off, linger model on/off, and the policy used to pick a replica when a
//! message is sent to the tier.

use crate::config::{HardwareConfig, SoftAllocation};
use crate::fault::{FaultSpec, ShedPolicy, TopologyError};
use crate::ids::Tier;
use crate::resilience::{BreakerSpec, BrownoutSpec, HedgeSpec};
use jvm_gc::GcConfig;
use simcore::SimTime;

/// Position of a tier in the chain (0 = front tier).
pub type TierId = usize;

/// Maximum chain length supported by the per-request routing table.
pub const MAX_TIERS: usize = 8;

/// Maximum server count across the whole chain: events carry a server's
/// flat index in the chain as a `u16`.
pub const MAX_SERVERS: usize = u16::MAX as usize + 1;

/// How a sender picks a replica of a downstream tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPolicy {
    /// Cycle through replicas in order (stateful, per tier).
    RoundRobin,
    /// Pick the replica with the fewest outstanding jobs (ties → lowest
    /// index), tracked at selection/departure.
    LeastOutstanding,
    /// Hash the message id onto a replica (stateless, deterministic).
    HashById,
    /// Round-robin that does *not* route around crashed replicas: work sent
    /// to a down replica fails immediately instead of being redirected
    /// (identical to [`SelectPolicy::RoundRobin`] while every replica is up).
    FailFast,
}

/// One tier of the chain: a role archetype plus its knobs.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Behavioral archetype (admission, service, fan-out pattern).
    pub role: Tier,
    /// Display name; also the trace track and the `ServerLog` name prefix.
    pub name: &'static str,
    /// Number of replica servers.
    pub replicas: usize,
    /// Worker/servlet thread pool per replica ([`Tier::Web`], [`Tier::App`]);
    /// for [`Tier::Cmw`] this is the *implicit* thread count (one per
    /// upstream DB connection, the paper's coupling) used only to size the
    /// JVM live set — no actual pool gates admission there.
    pub threads: Option<usize>,
    /// DB connection pool per replica ([`Tier::App`] only).
    pub conns: Option<usize>,
    /// Attached JVM garbage collector (None = no JVM on this tier).
    pub gc: Option<GcConfig>,
    /// Whether workers linger on close after responding ([`Tier::Web`]).
    pub linger: bool,
    /// Replica-selection policy used by senders targeting this tier.
    pub select: SelectPolicy,
    /// Fault injection on this tier (crash/recovery windows, slow replicas,
    /// connection drops). Default: [`FaultSpec::none`] — zero cost.
    pub fault: FaultSpec,
    /// Per-request deadline measured from arrival at this tier
    /// ([`Tier::Web`]/[`Tier::App`] only). The innermost armed deadline wins.
    pub timeout: Option<SimTime>,
    /// Admission control (front [`Tier::Web`] tier only).
    pub shed: ShedPolicy,
    /// Circuit breaker guarding the calls entering this tier (front tier:
    /// request admission; query tiers: queries dispatched to the tier).
    /// Default `None` — zero cost, no state, bit-identical digests.
    pub breaker: Option<BreakerSpec>,
    /// Brownout cheap-mode degradation on this tier's replicas
    /// ([`Tier::App`]/[`Tier::Cmw`]/[`Tier::Db`]). Default `None`.
    pub brownout: Option<BrownoutSpec>,
    /// Hedged-request policy (front [`Tier::Web`] tier only; needs ≥2
    /// replicas on the next tier). Default `None`.
    pub hedge: Option<HedgeSpec>,
}

impl TierSpec {
    /// A web (Apache-style) front tier: worker pool + lingering close.
    pub fn web(replicas: usize, threads: usize) -> Self {
        TierSpec {
            role: Tier::Web,
            name: Tier::Web.server_name(),
            replicas,
            threads: Some(threads),
            conns: None,
            gc: None,
            linger: true,
            select: SelectPolicy::RoundRobin,
            fault: FaultSpec::none(),
            timeout: None,
            shed: ShedPolicy::None,
            breaker: None,
            brownout: None,
            hedge: None,
        }
    }

    /// An application (Tomcat-style) tier: thread pool + DB connection pool
    /// + JVM.
    pub fn app(replicas: usize, threads: usize, conns: usize, gc: GcConfig) -> Self {
        TierSpec {
            role: Tier::App,
            name: Tier::App.server_name(),
            replicas,
            threads: Some(threads),
            conns: Some(conns),
            gc: Some(gc),
            linger: false,
            select: SelectPolicy::RoundRobin,
            fault: FaultSpec::none(),
            timeout: None,
            shed: ShedPolicy::None,
            breaker: None,
            brownout: None,
            hedge: None,
        }
    }

    /// A clustering-middleware (C-JDBC-style) tier. `implicit_threads` is the
    /// total DB connections opened by the upstream app tier (sizes the JVM
    /// live set; there is no admission pool).
    pub fn cmw(replicas: usize, implicit_threads: usize, gc: GcConfig) -> Self {
        TierSpec {
            role: Tier::Cmw,
            name: Tier::Cmw.server_name(),
            replicas,
            threads: Some(implicit_threads),
            conns: None,
            gc: Some(gc),
            linger: false,
            select: SelectPolicy::HashById,
            fault: FaultSpec::none(),
            timeout: None,
            shed: ShedPolicy::None,
            breaker: None,
            brownout: None,
            hedge: None,
        }
    }

    /// A database (MySQL-style) back tier: CPU + buffer-pool/disk model.
    /// Reads load-balance across replicas; writes broadcast to all.
    pub fn db(replicas: usize) -> Self {
        TierSpec {
            role: Tier::Db,
            name: Tier::Db.server_name(),
            replicas,
            threads: None,
            conns: None,
            gc: None,
            linger: false,
            select: SelectPolicy::RoundRobin,
            fault: FaultSpec::none(),
            timeout: None,
            shed: ShedPolicy::None,
            breaker: None,
            brownout: None,
            hedge: None,
        }
    }

    /// Override the replica-selection policy.
    pub fn with_select(mut self, select: SelectPolicy) -> Self {
        self.select = select;
        self
    }

    /// Disable (or enable) the lingering-close model on this tier.
    pub fn with_linger(mut self, linger: bool) -> Self {
        self.linger = linger;
        self
    }

    /// Override the GC model (None disables the JVM entirely).
    pub fn with_gc(mut self, gc: Option<GcConfig>) -> Self {
        self.gc = gc;
        self
    }

    /// Override the display name (also the trace track).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Attach a fault-injection spec (crashes/slow windows are supported on
    /// [`Tier::Cmw`]/[`Tier::Db`] tiers; drops on any non-front tier).
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Arm a per-request deadline on this tier ([`Tier::Web`]/[`Tier::App`]).
    pub fn with_timeout(mut self, timeout: SimTime) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Set the admission-control policy (front [`Tier::Web`] tier only).
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Guard the calls entering this tier with a circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerSpec) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Enable brownout cheap-mode degradation on this tier.
    pub fn with_brownout(mut self, brownout: BrownoutSpec) -> Self {
        self.brownout = Some(brownout);
        self
    }

    /// Enable hedged requests (front tier only).
    pub fn with_hedge(mut self, hedge: HedgeSpec) -> Self {
        self.hedge = Some(hedge);
        self
    }
}

/// An ordered chain of tier specs, front tier first.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The chain (index = [`TierId`]).
    pub tiers: Vec<TierSpec>,
}

impl Topology {
    /// The paper's 4-tier chain for a hardware topology and soft allocation,
    /// with the default JDK6-server GC on Tomcat and C-JDBC.
    pub fn paper(hardware: HardwareConfig, soft: SoftAllocation) -> Self {
        Self::paper_with_gc(
            hardware,
            soft,
            GcConfig::jdk6_server(),
            GcConfig::jdk6_server(),
        )
    }

    /// The paper's 4-tier chain with explicit GC configurations (what
    /// [`crate::SystemConfig`] resolves to when no topology is given, so GC
    /// overrides set on the config carry through).
    pub fn paper_with_gc(
        hardware: HardwareConfig,
        soft: SoftAllocation,
        app_gc: GcConfig,
        cmw_gc: GcConfig,
    ) -> Self {
        let total_conns = soft.app_db_conns * hardware.app;
        Topology {
            tiers: vec![
                TierSpec::web(hardware.web, soft.web_threads),
                TierSpec::app(hardware.app, soft.app_threads, soft.app_db_conns, app_gc),
                TierSpec::cmw(hardware.cmw, total_conns, cmw_gc),
                TierSpec::db(hardware.db),
            ],
        }
    }

    /// A 3-tier chain without clustering middleware: the app tier speaks
    /// directly to the database (reads load-balance, writes broadcast).
    pub fn three_tier(
        web: usize,
        app: usize,
        db: usize,
        soft: SoftAllocation,
        app_gc: GcConfig,
    ) -> Self {
        Topology {
            tiers: vec![
                TierSpec::web(web, soft.web_threads),
                TierSpec::app(app, soft.app_threads, soft.app_db_conns, app_gc),
                TierSpec::db(db),
            ],
        }
    }

    /// Number of tiers in the chain.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Total server count across all tiers.
    pub fn total_servers(&self) -> usize {
        self.tiers.iter().map(|t| t.replicas).sum()
    }

    /// Compact label: replica counts, then the real pool sizes, e.g.
    /// `1/2/1/2(400-150-60)`.
    pub fn label(&self) -> String {
        let hw: Vec<String> = self.tiers.iter().map(|t| t.replicas.to_string()).collect();
        let mut pools: Vec<String> = Vec::new();
        for t in &self.tiers {
            // Only pools that actually gate admission (Cmw threads are
            // implicit — derived, not allocated).
            if matches!(t.role, Tier::Web | Tier::App) {
                if let Some(n) = t.threads {
                    pools.push(n.to_string());
                }
                if let Some(c) = t.conns {
                    pools.push(c.to_string());
                }
            }
        }
        format!("{}({})", hw.join("/"), pools.join("-"))
    }

    /// Check the chain shape the runtime supports: a Web front, one App
    /// tier, an optional Cmw tier, and a Db back tier, all with ≥1 replica
    /// and at most [`MAX_SERVERS`] in total, role-appropriate pools, and
    /// well-formed fault/timeout/shed specs.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let roles: Vec<Tier> = self.tiers.iter().map(|t| t.role).collect();
        let ok = matches!(
            roles.as_slice(),
            [Tier::Web, Tier::App, Tier::Cmw, Tier::Db] | [Tier::Web, Tier::App, Tier::Db]
        );
        if !ok {
            return Err(TopologyError::UnsupportedChain(format!("{roles:?}")));
        }
        if self.tiers.len() > MAX_TIERS {
            return Err(TopologyError::TooManyTiers(self.tiers.len()));
        }
        for (i, t) in self.tiers.iter().enumerate() {
            if t.replicas == 0 || t.replicas > u16::MAX as usize {
                return Err(TopologyError::BadReplicaCount {
                    tier: i,
                    name: t.name.to_string(),
                    replicas: t.replicas,
                });
            }
            let bad_pool = |what: &'static str| TopologyError::BadPool {
                tier: i,
                name: t.name.to_string(),
                what,
            };
            match t.role {
                Tier::Web | Tier::App => {
                    if t.threads.is_none() {
                        return Err(bad_pool("needs a thread pool"));
                    }
                    if t.role == Tier::App && t.conns.is_none() {
                        return Err(bad_pool("needs a connection pool"));
                    }
                    if t.threads == Some(0) || t.conns == Some(0) {
                        return Err(bad_pool("has a zero-size pool"));
                    }
                }
                Tier::Cmw | Tier::Db => {}
            }
            self.validate_faults(i, t)?;
        }
        if self.total_servers() > MAX_SERVERS {
            return Err(TopologyError::TooManyServers(self.total_servers()));
        }
        Ok(())
    }

    /// Check one tier's fault/timeout/shed spec against the failure model's
    /// scope rules (see DESIGN.md §"Failure model").
    fn validate_faults(&self, i: usize, t: &TierSpec) -> Result<(), TopologyError> {
        let bad = |what: String| TopologyError::BadFault {
            tier: i,
            name: t.name.to_string(),
            what,
        };
        let backend = matches!(t.role, Tier::Cmw | Tier::Db);
        if !t.fault.crashes.is_empty() && !backend {
            return Err(bad(
                "crash windows are only supported on Cmw/Db tiers".into()
            ));
        }
        if !t.fault.slow.is_empty() && !backend {
            return Err(bad("slow windows are only supported on Cmw/Db tiers".into()));
        }
        if t.fault.drop_prob != 0.0 && !backend {
            return Err(bad(
                "connection drops are only supported on Cmw/Db tiers".into()
            ));
        }
        if !(0.0..=1.0).contains(&t.fault.drop_prob) {
            return Err(bad(format!(
                "drop probability {} outside [0,1]",
                t.fault.drop_prob
            )));
        }
        for c in &t.fault.crashes {
            if c.replica as usize >= t.replicas {
                return Err(bad(format!(
                    "crash window references replica {} of {}",
                    c.replica, t.replicas
                )));
            }
            if let Some(r) = c.recover_at {
                if r <= c.crash_at {
                    return Err(bad(format!(
                        "crash window recovers at {r} before crashing at {}",
                        c.crash_at
                    )));
                }
            }
        }
        for s in &t.fault.slow {
            if s.replica as usize >= t.replicas {
                return Err(bad(format!(
                    "slow window references replica {} of {}",
                    s.replica, t.replicas
                )));
            }
            if !(s.multiplier > 0.0 && s.multiplier.is_finite()) {
                return Err(bad(format!(
                    "slow multiplier {} must be positive",
                    s.multiplier
                )));
            }
            if let Some(u) = s.until {
                if u <= s.from {
                    return Err(bad(format!(
                        "slow window ends at {u} before starting at {}",
                        s.from
                    )));
                }
            }
        }
        if t.timeout.is_some() && !matches!(t.role, Tier::Web | Tier::App) {
            return Err(bad("timeouts are only supported on Web/App tiers".into()));
        }
        if t.timeout == Some(SimTime::ZERO) {
            return Err(bad("a zero timeout would cancel every request".into()));
        }
        let front_web = t.role == Tier::Web && i == 0;
        if !t.shed.is_none() && !front_web {
            return Err(bad(
                "shedding is only supported on the front Web tier".into()
            ));
        }
        self.validate_resilience(i, t)?;
        Ok(())
    }

    /// Check one tier's resilience policies (breaker/brownout/hedge) against
    /// the scope rules of their dispatch-path enforcement points.
    fn validate_resilience(&self, i: usize, t: &TierSpec) -> Result<(), TopologyError> {
        let bad = |what: String| TopologyError::BadFault {
            tier: i,
            name: t.name.to_string(),
            what,
        };
        if let Some(b) = &t.breaker {
            if let Some(why) = b.invalid_reason() {
                return Err(bad(why));
            }
            // Enforcement points exist at request admission (front tier) and
            // on the query dispatch path (Cmw/Db); an App-tier breaker has
            // no fail-fast site.
            let guarded = i == 0 || matches!(t.role, Tier::Cmw | Tier::Db);
            if !guarded {
                return Err(bad(
                    "breakers guard the front tier or the query (Cmw/Db) tiers".into(),
                ));
            }
        }
        if let Some(b) = &t.brownout {
            if let Some(why) = b.invalid_reason() {
                return Err(bad(why));
            }
            if !matches!(t.role, Tier::App | Tier::Cmw | Tier::Db) {
                return Err(bad("brownout is only supported on App/Cmw/Db tiers".into()));
            }
        }
        if let Some(h) = &t.hedge {
            if let Some(why) = h.invalid_reason() {
                return Err(bad(why));
            }
            if i != 0 || t.role != Tier::Web {
                return Err(bad("hedging is only supported on the front Web tier".into()));
            }
            let downstream = self.tiers.get(i + 1).map_or(0, |n| n.replicas);
            if downstream < 2 {
                return Err(bad(format!(
                    "hedging needs >= 2 replicas on the next tier, found {downstream}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_notation() {
        let t = Topology::paper(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::rule_of_thumb(),
        );
        assert_eq!(t.n_tiers(), 4);
        assert_eq!(t.total_servers(), 6);
        assert_eq!(t.label(), "1/2/1/2(400-150-60)");
        assert!(t.validate().is_ok());
        // C-JDBC implicit threads = conns × app servers.
        assert_eq!(t.tiers[2].threads, Some(120));
    }

    #[test]
    fn three_tier_chain_validates() {
        let t = Topology::three_tier(
            1,
            2,
            2,
            SoftAllocation::rule_of_thumb(),
            GcConfig::jdk6_server(),
        );
        assert_eq!(t.n_tiers(), 3);
        assert_eq!(t.label(), "1/2/2(400-150-60)");
        assert!(t.validate().is_ok());
    }

    #[test]
    fn wrong_chain_order_rejected() {
        let mut t = Topology::paper(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::rule_of_thumb(),
        );
        t.tiers.swap(0, 1);
        assert!(t.validate().is_err());
        let db_only = Topology {
            tiers: vec![TierSpec::db(2)],
        };
        assert!(db_only.validate().is_err());
    }

    #[test]
    fn zero_replicas_rejected() {
        let mut t = Topology::paper(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::rule_of_thumb(),
        );
        t.tiers[3].replicas = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn spec_builders_override_knobs() {
        let s = TierSpec::web(2, 100)
            .with_select(SelectPolicy::LeastOutstanding)
            .with_linger(false)
            .named("Nginx");
        assert_eq!(s.select, SelectPolicy::LeastOutstanding);
        assert!(!s.linger);
        assert_eq!(s.name, "Nginx");
        let a = TierSpec::app(1, 10, 5, GcConfig::jdk6_server()).with_gc(None);
        assert!(a.gc.is_none());
    }

    #[test]
    fn fault_specs_validate_scope_rules() {
        let mk = || {
            Topology::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::rule_of_thumb(),
            )
        };
        // A well-formed crash window on the DB tier passes.
        let mut t = mk();
        t.tiers[3].fault =
            FaultSpec::none().with_crash(1, SimTime::from_secs(10), Some(SimTime::from_secs(20)));
        t.tiers[0].timeout = Some(SimTime::from_secs(4));
        t.tiers[0].shed = ShedPolicy::QueueDepth(100);
        assert!(t.validate().is_ok());
        // Crash windows are backend-only.
        let mut t = mk();
        t.tiers[0].fault = FaultSpec::none().with_crash(0, SimTime::from_secs(1), None);
        assert!(matches!(t.validate(), Err(TopologyError::BadFault { .. })));
        // Replica index must exist.
        let mut t = mk();
        t.tiers[2].fault = FaultSpec::none().with_crash(5, SimTime::from_secs(1), None);
        assert!(t.validate().is_err());
        // Recovery must come after the crash.
        let mut t = mk();
        t.tiers[3].fault =
            FaultSpec::none().with_crash(0, SimTime::from_secs(9), Some(SimTime::from_secs(3)));
        assert!(t.validate().is_err());
        // Drop probability range is inclusive: 0 and 1 are valid, anything
        // outside [0,1] (or NaN) is rejected at validate time.
        let mut t = mk();
        t.tiers[3].fault = FaultSpec::none().with_drop_prob(1.5);
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[3].fault = FaultSpec::none().with_drop_prob(-0.1);
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[3].fault = FaultSpec::none().with_drop_prob(f64::NAN);
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[3].fault = FaultSpec::none().with_drop_prob(1.0);
        assert!(t.validate().is_ok(), "drop everything is a valid fault");
        // Slow windows: multiplier must be positive and finite, and the
        // window must not end before it starts.
        let mut t = mk();
        t.tiers[3].fault = FaultSpec::none().with_slow(0, SimTime::from_secs(5), None, 0.0);
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[3].fault =
            FaultSpec::none().with_slow(0, SimTime::from_secs(5), None, f64::INFINITY);
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[3].fault =
            FaultSpec::none().with_slow(0, SimTime::from_secs(9), Some(SimTime::from_secs(3)), 2.0);
        assert!(t.validate().is_err());
        // Timeouts are Web/App-only; shedding is front-tier-only.
        let mut t = mk();
        t.tiers[3].timeout = Some(SimTime::from_secs(1));
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[1].shed = ShedPolicy::QueueDepth(5);
        assert!(t.validate().is_err());
    }

    #[test]
    fn resilience_specs_validate_scope_rules() {
        let mk = || {
            Topology::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::rule_of_thumb(),
            )
        };
        // A full defended topology passes: front breaker + hedge, backend
        // breaker, brownout on the middleware.
        let mut t = mk();
        t.tiers[0].breaker = Some(BreakerSpec::on_errors(0.5, SimTime::from_secs(1)));
        t.tiers[0].hedge = Some(HedgeSpec::after(SimTime::from_millis(50)));
        t.tiers[2].breaker = Some(
            BreakerSpec::on_errors(0.5, SimTime::from_secs(1))
                .with_latency_slo(SimTime::from_millis(500)),
        );
        t.tiers[2].brownout = Some(BrownoutSpec::new(16, 0.5));
        assert!(t.validate().is_ok(), "{:?}", t.validate());
        // Breakers have no enforcement point on the App tier.
        let mut t = mk();
        t.tiers[1].breaker = Some(BreakerSpec::on_errors(0.5, SimTime::from_secs(1)));
        assert!(matches!(t.validate(), Err(TopologyError::BadFault { .. })));
        // Malformed breaker parameters are caught at validate time.
        let mut t = mk();
        let mut b = BreakerSpec::on_errors(0.5, SimTime::from_secs(1));
        b.error_threshold = 2.0;
        t.tiers[0].breaker = Some(b);
        assert!(t.validate().is_err());
        // Brownout is backend-side only, and its factor must be < 1.
        let mut t = mk();
        t.tiers[0].brownout = Some(BrownoutSpec::new(16, 0.5));
        assert!(t.validate().is_err());
        let mut t = mk();
        t.tiers[3].brownout = Some(BrownoutSpec::new(16, 1.5));
        assert!(t.validate().is_err());
        // Hedging is front-tier only and needs downstream fan-out.
        let mut t = mk();
        t.tiers[1].hedge = Some(HedgeSpec::after(SimTime::from_millis(50)));
        assert!(t.validate().is_err());
        let mut hw = HardwareConfig::one_two_one_two();
        hw.app = 1;
        let mut t = Topology::paper(hw, SoftAllocation::rule_of_thumb());
        t.tiers[0].hedge = Some(HedgeSpec::after(SimTime::from_millis(50)));
        assert!(t.validate().is_err(), "single app replica cannot hedge");
    }
}
