//! Golden digests of the sharded executor on seven configurations that
//! stress cross-shard traffic: the full observable surface of each run is
//! pinned, not just the `RunOutput` fields `tests/golden.rs` covers.
//!
//! Per configuration the suite digests the `RunOutput` Debug rendering
//! (every field; Rust's shortest-roundtrip float formatting makes it
//! bit-faithful), the trace JSONL byte stream with the sampling/ring
//! counters, the windowed-metrics CSV, the flight-recorder summary where one
//! is armed, and the drain-time conservation report. The constants were
//! captured from the barrier-round executor that preceded the round-free
//! one (DESIGN.md §15), where every worker-thread count produced them; the
//! round-free executor must reproduce them bit for bit. Do not update them
//! without first establishing that an output change is intended.
//!
//! The tiny-lookahead case drops `net_latency` to zero, shrinking the
//! cross-shard lookahead to the 300-byte serialization time (~2.4 µs) — the
//! regime with the densest cross-shard interleaving, where an ordering bug
//! would have the most chances to show itself.

mod common;

use rubbos_ntier::jvm_gc::GcConfig;
use rubbos_ntier::metrics::export::to_csv;
use rubbos_ntier::ntier_lab::digest_str;
use rubbos_ntier::ntier_trace::export;
use rubbos_ntier::prelude::*;
use rubbos_ntier::simcore::SimTime;
use rubbos_ntier::workload::WorkloadConfig;

/// Digests of one run's observable surface.
#[derive(Debug, PartialEq)]
struct Digests {
    /// `RunOutput` minus the wall-clock profile — the profile measures the
    /// host, not the simulation, and is the only exclusion.
    output: u64,
    /// Trace JSONL plus the admitted/rejected/overwritten/event counters.
    trace: u64,
    /// Windowed-metrics CSV (the digest of `""` when metrics are off).
    csv: u64,
    /// Flight-recorder summary, when one is armed.
    flight: Option<u64>,
}

fn digests(cfg: SystemConfig) -> Digests {
    let (mut out, trace, metrics) = run_system_full(cfg);
    out.profile = None;
    let jsonl = export::to_jsonl(trace.spans.iter());
    let trace_side = format!(
        "admitted={} rejected={} overwritten={} events={}\n{jsonl}",
        trace.admitted, trace.rejected, trace.overwritten, trace.engine.events_processed,
    );
    Digests {
        output: digest_str(&format!("{out:?}")),
        trace: digest_str(&trace_side),
        csv: digest_str(&metrics.map(|m| to_csv(&m)).unwrap_or_default()),
        flight: trace.flight.map(|f| digest_str(&format!("{f:?}"))),
    }
}

/// Digest of the empty string: what a run without metrics pins as its CSV.
const NO_CSV: u64 = 0xcbf29ce484222325;

/// The paper 1/2/1/2 chain with the full passive-observability stack armed:
/// sampled tracing, windowed metrics, engine profiling, the tail-sampling
/// flight recorder, and an SLO.
#[test]
fn pinned_with_everything_armed() {
    let mut cfg = common::scaled_config(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        900,
    );
    cfg.trace = TraceConfig::Sampled(0.25);
    cfg.metrics = MetricsConfig::windowed_default();
    cfg.flight = FlightConfig::tail(4);
    cfg.slo = Some(SloPolicy::new(0.99, 0.5));
    cfg.profile = true;
    assert_eq!(
        digests(cfg),
        Digests {
            output: 0xb27bfcad2aeb2d8a,
            trace: 0xbef554d46543eb66,
            csv: 0xddca3d69cdd8828a,
            flight: Some(0xbfdbeb2670640ccd),
        }
    );
}

/// The wider 1/4/1/4 chain (more replicas per back shard).
#[test]
fn pinned_on_1414() {
    let mut cfg = common::scaled_config(
        HardwareConfig::one_four_one_four(),
        SoftAllocation::rule_of_thumb(),
        1000,
    );
    cfg.trace = TraceConfig::Full;
    assert_eq!(
        digests(cfg),
        Digests {
            output: 0xd80f74ac76648b4c,
            trace: 0x345169b74e1feed0,
            csv: NO_CSV,
            flight: None,
        }
    );
}

/// A 3-tier chain (no clustering middleware): one fewer shard, app queries
/// go straight to the DB shard.
#[test]
fn pinned_on_three_tier() {
    let soft = SoftAllocation::rule_of_thumb();
    let topo = Topology::three_tier(1, 2, 2, soft, GcConfig::jdk6_server());
    let mut cfg =
        SystemConfig::new(HardwareConfig::one_two_one_two(), soft, 400).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(400);
    common::scale_params(&mut cfg);
    cfg.trace = TraceConfig::Sampled(0.5);
    cfg.metrics = MetricsConfig::windowed_default();
    assert_eq!(
        digests(cfg),
        Digests {
            output: 0x0152ddb60375b777,
            trace: 0x571a03d6cd88e8ff,
            csv: 0xbce9ad981adc10d4,
            flight: None,
        }
    );
}

/// Every fault mechanism at once: DB crash + recovery + cold-cache slow
/// window, middleware wire drops, an app deadline, front-tier shedding, and
/// backoff retries. Crash/Recover events are replicated to every shard
/// (owner runs the crash path, the rest flip the liveness bit), so this is
/// the test that would catch a replication-ordering bug.
#[test]
fn pinned_under_faults() {
    let hw = HardwareConfig::one_two_one_two();
    let soft = SoftAllocation::rule_of_thumb();
    let mut topo = Topology::paper(hw, soft);
    topo.tiers[0].shed = ShedPolicy::QueueDepth(60);
    topo.tiers[1].timeout = Some(SimTime::from_secs_f64(2.0));
    topo.tiers[2].fault = FaultSpec::none().with_drop_prob(0.01);
    topo.tiers[3].fault = FaultSpec::none()
        .with_crash(
            1,
            SimTime::from_secs_f64(15.0),
            Some(SimTime::from_secs_f64(25.0)),
        )
        .with_slow(
            1,
            SimTime::from_secs_f64(25.0),
            Some(SimTime::from_secs_f64(32.0)),
            5.0,
        );
    let mut cfg = SystemConfig::new(hw, soft, 900).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(900);
    common::scale_params(&mut cfg);
    cfg.retry = RetryPolicy::backoff(3, SimTime::from_secs_f64(0.3), 2.0, 0.5);
    cfg.trace = TraceConfig::Sampled(0.25);
    cfg.metrics = MetricsConfig::windowed_default();
    assert_eq!(
        digests(cfg),
        Digests {
            output: 0x2834f7c91777f564,
            trace: 0x531c9eb9395c61b5,
            csv: 0x3cc7daca416c4d48,
            flight: None,
        }
    );
}

/// A retry storm: a permanent mid-run DB crash with naive retries and a
/// retry budget — failure wires, breaker transitions, and budget tokens all
/// crossing shard boundaries under load.
#[test]
fn pinned_under_retry_storm() {
    let hw = HardwareConfig::one_two_one_two();
    let soft = SoftAllocation::rule_of_thumb();
    let mut topo = Topology::paper(hw, soft);
    topo.tiers[1].timeout = Some(SimTime::from_secs_f64(1.5));
    topo.tiers[3].fault = FaultSpec::none().with_crash(0, SimTime::from_secs_f64(18.0), None);
    let mut cfg = SystemConfig::new(hw, soft, 1000).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(1000);
    common::scale_params(&mut cfg);
    cfg.retry = RetryPolicy::naive(3);
    cfg.retry_budget = RetryBudget::new(0.2, 20.0);
    cfg.metrics = MetricsConfig::windowed_default();
    assert_eq!(
        digests(cfg),
        Digests {
            output: 0x4d3185a4d50e1b67,
            trace: 0xf5e69be00427f2de,
            csv: 0x6f4922f76aa6af1c,
            flight: None,
        }
    );
}

/// Zero `net_latency` shrinks the lookahead to the 300-byte wire
/// serialization time (~2.4 µs), the densest cross-shard interleaving.
#[test]
fn pinned_with_tiny_lookahead() {
    let mut cfg = common::scaled_config(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        500,
    );
    cfg.params.net_latency = SimTime::ZERO;
    cfg.trace = TraceConfig::Sampled(0.5);
    assert_eq!(
        digests(cfg),
        Digests {
            output: 0x37a7561b4a4768fd,
            trace: 0x400f3afb4387cebe,
            csv: NO_CSV,
            flight: None,
        }
    );
}

/// The drain-time conservation report is gathered per shard before the
/// telemetry merge; it is pinned together with the drained run's output.
#[test]
fn pinned_through_drain() {
    let cfg = common::scaled_config(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        700,
    );
    let (out, report) = run_system_to_drain(cfg);
    let report = format!("{report:?}");
    assert!(report.contains("in_flight_requests: 0"));
    assert!(report.contains("in_flight_queries: 0"));
    assert_eq!(
        (digest_str(&format!("{out:?}")), digest_str(&report)),
        (0x329f1163d32429cf, 0xf8e6e47d2528d951)
    );
}
