//! The failure model: fault injection specs, admission control, terminal
//! request outcomes, and structured topology validation errors.
//!
//! Faults are *data on the topology* ([`FaultSpec`] per [`crate::TierSpec`])
//! realised as ordinary engine events, so a faulty run is exactly as
//! deterministic as a healthy one: crash/recovery instants come from the
//! spec, slow-replica windows multiply sampled service demands, and
//! probabilistic connection drops draw from a dedicated `RunRng` fork that is
//! never touched when every drop probability is zero. With
//! [`FaultSpec::none`] everywhere the layer schedules no events and draws no
//! random numbers — bit-identical to a build without it (guarded by
//! `tests/golden.rs`).
//!
//! Every request ends in exactly one [`Outcome`]; per-node and per-run
//! [`OutcomeTotals`] make the conservation law
//! `admitted == completed + timed_out + shed + failed` checkable
//! (`tests/conservation.rs`).

use simcore::SimTime;

/// One scheduled replica crash (and optional recovery) window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// Replica index within the tier.
    pub replica: u16,
    /// Instant the replica goes down.
    pub crash_at: SimTime,
    /// Instant it comes back, or `None` for a permanent crash.
    pub recover_at: Option<SimTime>,
}

/// A window during which one replica's service demands are multiplied
/// (degraded hardware, noisy neighbor, failing disk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Replica index within the tier.
    pub replica: u16,
    /// Window start.
    pub from: SimTime,
    /// Window end, or `None` for permanent degradation.
    pub until: Option<SimTime>,
    /// Service-time multiplier (> 1 slows the replica down).
    pub multiplier: f64,
}

/// Per-tier fault injection spec. The default ([`FaultSpec::none`]) injects
/// nothing and costs nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Scheduled crash/recovery windows.
    pub crashes: Vec<CrashWindow>,
    /// Slow-replica degradation windows.
    pub slow: Vec<SlowWindow>,
    /// Probability that a query dispatched *to* this tier is dropped on the
    /// wire (connection reset). Drawn from the dedicated fault RNG stream.
    pub drop_prob: f64,
}

impl FaultSpec {
    /// No faults (the default everywhere).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Whether this spec injects anything at all.
    pub fn is_none(&self) -> bool {
        self.crashes.is_empty() && self.slow.is_empty() && self.drop_prob == 0.0
    }

    /// Add a crash window.
    pub fn with_crash(
        mut self,
        replica: u16,
        crash_at: SimTime,
        recover_at: Option<SimTime>,
    ) -> Self {
        self.crashes.push(CrashWindow {
            replica,
            crash_at,
            recover_at,
        });
        self
    }

    /// Add a slow-replica window.
    pub fn with_slow(
        mut self,
        replica: u16,
        from: SimTime,
        until: Option<SimTime>,
        multiplier: f64,
    ) -> Self {
        self.slow.push(SlowWindow {
            replica,
            from,
            until,
            multiplier,
        });
        self
    }

    /// Set the connection-drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }
}

/// Front-tier admission control: reject early instead of buffering into a
/// saturated or dead backend (the paper's §III-C buffering effect is exactly
/// what this prevents).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ShedPolicy {
    /// Admit everything (the default).
    #[default]
    None,
    /// Shed when the worker pool is full and `max` requests already wait.
    QueueDepth(usize),
    /// Shed when the pool is full and the projected wait —
    /// `(waiting + 1) × est_hold / capacity` — exceeds the deadline budget:
    /// the request would time out anyway, so reject it now.
    DeadlineAware {
        /// Response-time budget the projection is compared against.
        budget: SimTime,
        /// Estimated per-request worker hold time.
        est_hold: SimTime,
    },
}

impl ShedPolicy {
    /// Whether this policy can ever shed.
    pub fn is_none(&self) -> bool {
        matches!(self, ShedPolicy::None)
    }

    /// Decide whether to shed given the front pool's state at admission.
    pub fn should_shed(&self, capacity: usize, in_use: usize, waiting: usize) -> bool {
        if in_use < capacity && waiting == 0 {
            return false;
        }
        match *self {
            ShedPolicy::None => false,
            ShedPolicy::QueueDepth(max) => waiting >= max,
            ShedPolicy::DeadlineAware { budget, est_hold } => {
                let projected = (waiting + 1) as f64 * est_hold.as_secs_f64() / capacity as f64;
                projected > budget.as_secs_f64()
            }
        }
    }
}

/// Terminal outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Served normally.
    #[default]
    Completed,
    /// Hit a per-tier deadline and was cancelled.
    TimedOut,
    /// Rejected by front-tier admission control.
    Shed,
    /// Lost to a crashed replica or a dropped connection.
    Failed,
}

/// Outcome counters; `total()` equals the number of terminal responses, so
/// `admitted == completed + timed_out + shed + failed` is the conservation
/// law per node and per run. `retries` counts re-issues (not a terminal
/// state: a retried interaction still ends in exactly one outcome per
/// attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeTotals {
    /// Requests served normally.
    pub completed: u64,
    /// Requests cancelled by a deadline.
    pub timed_out: u64,
    /// Requests rejected at admission.
    pub shed: u64,
    /// Requests lost to crashes/drops.
    pub failed: u64,
    /// Client re-issues triggered by the retry policy.
    pub retries: u64,
    /// Work units served in brownout cheap mode (not a terminal state: a
    /// degraded request still completes — this counts quality loss, like
    /// `retries` counts re-issues).
    pub degraded: u64,
    /// Hedge re-issues at the front tier (not a terminal state: the hedged
    /// request still ends in exactly one outcome, whichever leg wins).
    pub hedged: u64,
}

impl OutcomeTotals {
    /// Total terminal responses.
    pub fn total(&self) -> u64 {
        self.completed + self.timed_out + self.shed + self.failed
    }

    /// Count one terminal outcome.
    pub fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Completed => self.completed += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }
}

/// Structured topology/configuration validation error (replaces the
/// stringly-typed `Result<(), String>` and the panicking asserts that used
/// to live in node assembly).
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// The chain is not `Web→App[→Cmw]→Db`.
    UnsupportedChain(String),
    /// More tiers than the per-request routing table supports.
    TooManyTiers(usize),
    /// More servers across the chain than an event's node index can name.
    TooManyServers(usize),
    /// A tier with no replicas (or more than `u16::MAX`).
    BadReplicaCount {
        tier: usize,
        name: String,
        replicas: usize,
    },
    /// A Web/App tier missing a required pool, or a zero-sized pool.
    BadPool {
        tier: usize,
        name: String,
        what: &'static str,
    },
    /// An invalid fault/timeout/shed spec on a tier.
    BadFault {
        tier: usize,
        name: String,
        what: String,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnsupportedChain(roles) => {
                write!(
                    f,
                    "unsupported tier chain {roles}: expected Web→App[→Cmw]→Db"
                )
            }
            TopologyError::TooManyTiers(n) => {
                write!(
                    f,
                    "chain of {n} tiers exceeds MAX_TIERS={}",
                    crate::MAX_TIERS
                )
            }
            TopologyError::TooManyServers(n) => {
                write!(
                    f,
                    "chain of {n} servers exceeds MAX_SERVERS={}",
                    crate::topology::MAX_SERVERS
                )
            }
            TopologyError::BadReplicaCount {
                tier,
                name,
                replicas,
            } => {
                write!(f, "tier {tier} ({name}) has a bad replica count {replicas}")
            }
            TopologyError::BadPool { tier, name, what } => {
                write!(f, "tier {tier} ({name}): {what}")
            }
            TopologyError::BadFault { tier, name, what } => {
                write!(f, "tier {tier} ({name}): {what}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_none() {
        assert!(FaultSpec::none().is_none());
        assert!(FaultSpec::default().is_none());
        let f = FaultSpec::none().with_drop_prob(0.01);
        assert!(!f.is_none());
    }

    #[test]
    fn outcome_totals_partition() {
        let mut t = OutcomeTotals::default();
        t.count(Outcome::Completed);
        t.count(Outcome::Completed);
        t.count(Outcome::TimedOut);
        t.count(Outcome::Shed);
        t.count(Outcome::Failed);
        assert_eq!(t.total(), 5);
        assert_eq!((t.completed, t.timed_out, t.shed, t.failed), (2, 1, 1, 1));
    }

    #[test]
    fn queue_depth_sheds_only_when_full_and_deep() {
        let p = ShedPolicy::QueueDepth(2);
        assert!(!p.should_shed(10, 5, 0)); // pool has room
        assert!(!p.should_shed(10, 10, 1)); // full but queue shallow
        assert!(p.should_shed(10, 10, 2));
        assert!(ShedPolicy::None.is_none());
        assert!(!ShedPolicy::None.should_shed(1, 1, 100));
    }

    #[test]
    fn deadline_aware_projects_queue_wait() {
        let p = ShedPolicy::DeadlineAware {
            budget: SimTime::from_secs(1),
            est_hold: SimTime::from_millis(100),
        };
        // capacity 10, hold 0.1 s → each queue slot costs 10 ms of wait.
        assert!(!p.should_shed(10, 10, 50)); // 51*0.01 = 0.51 s ≤ 1 s
        assert!(p.should_shed(10, 10, 150)); // 151*0.01 = 1.51 s > 1 s
        assert!(!p.should_shed(10, 3, 0)); // pool not full
    }

    #[test]
    fn topology_error_displays() {
        let e = TopologyError::BadFault {
            tier: 2,
            name: "CJDBC".into(),
            what: "crash window references replica 3 of 1".into(),
        };
        assert!(e.to_string().contains("CJDBC"));
        assert!(e.to_string().contains("replica 3"));
    }
}
