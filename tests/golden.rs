//! Golden determinism fixtures for the two paper topologies.
//!
//! These tests pin an FNV-1a digest of every semantic field of `RunOutput`
//! (and of the sampled trace JSONL bytes) for `1/2/1/2(400-150-60)` and
//! `1/4/1/4(400-150-60)`. They were captured before the topology refactor
//! and must keep passing after it: any change to event ordering, RNG draw
//! order, float arithmetic, or report layout shows up as a digest mismatch.
//!
//! The digest deliberately covers only *semantic* fields (names, counts,
//! float bit patterns) — not struct shapes or enum discriminants — so the
//! fixture compiles unchanged across refactors of the report types.

use rubbos_ntier::ntier_trace::export;
use rubbos_ntier::prelude::*;
use rubbos_ntier::tiers::output::{NodeReport, PoolReport};
use rubbos_ntier::workload::WorkloadConfig;

/// FNV-1a 64-bit running digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest_pool(h: &mut Fnv, p: &Option<PoolReport>) {
    match p {
        None => h.u64(0),
        Some(p) => {
            h.u64(1);
            h.u64(p.capacity as u64);
            h.f64(p.mean_occupancy);
            h.f64(p.full_fraction);
            h.f64(p.saturated_fraction);
            h.f64(p.mean_wait_secs);
            h.u64(p.waits);
            h.f64s(&p.series);
            h.u64(p.density.total());
            for &c in p.density.counts() {
                h.u64(c);
            }
        }
    }
}

fn digest_node(h: &mut Fnv, n: &NodeReport) {
    h.str(&n.name);
    h.f64(n.cpu_util);
    h.f64(n.gc_fraction);
    h.f64(n.gc_seconds);
    h.u64(n.gc_collections);
    h.f64s(&n.cpu_series);
    digest_pool(h, &n.thread_pool);
    digest_pool(h, &n.conn_pool);
    h.f64(n.mean_rtt);
    h.u64(n.completions);
    h.f64(n.disk_util);
}

fn digest_output(out: &RunOutput) -> u64 {
    let mut h = Fnv::new();
    h.str(&out.label);
    h.u64(out.users as u64);
    h.f64(out.window_secs);
    h.f64s(&out.sla_thresholds);
    h.u64(out.completed);
    h.f64(out.throughput);
    h.f64s(&out.goodput);
    h.f64s(&out.badput);
    h.f64s(&out.satisfaction);
    h.f64(out.mean_rt);
    h.f64s(&out.rt_quantiles);
    for &c in &out.rt_dist_counts {
        h.u64(c);
    }
    h.f64s(&out.slo_samples);
    h.f64s(&out.completed_per_sec);
    h.u64(out.nodes.len() as u64);
    for n in &out.nodes {
        digest_node(&mut h, n);
    }
    h.f64s(&out.apache_probes.processed_per_sec);
    h.f64s(&out.apache_probes.pt_total_ms);
    h.f64s(&out.apache_probes.pt_tomcat_ms);
    h.f64s(&out.apache_probes.threads_active);
    h.f64s(&out.apache_probes.threads_tomcat);
    h.u64(out.events_processed);
    h.0
}

fn digest_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.0
}

/// One traced trial of a paper config under the quick schedule, returning
/// the output digest and the sampled-trace JSONL digest.
fn run_golden(hw: HardwareConfig, users: u32) -> (u64, u64) {
    run_golden_with(hw, users, MetricsConfig::Off)
}

fn run_golden_with(hw: HardwareConfig, users: u32, metrics: MetricsConfig) -> (u64, u64) {
    run_golden_cfg(hw, users, metrics, false)
}

fn run_golden_cfg(
    hw: HardwareConfig,
    users: u32,
    metrics: MetricsConfig,
    profile: bool,
) -> (u64, u64) {
    let mut cfg = SystemConfig::new(hw, SoftAllocation::rule_of_thumb(), users);
    cfg.workload = WorkloadConfig::quick(users);
    cfg.trace = TraceConfig::Sampled(0.25);
    cfg.metrics = metrics;
    cfg.profile = profile;
    let (out, trace) = run_system_traced(cfg);
    let jsonl = export::to_jsonl(trace.spans.iter());
    assert!(!trace.spans.is_empty(), "sampled run produced no spans");
    (digest_output(&out), digest_str(&jsonl))
}

/// Like [`run_golden_cfg`], but with the full observability stack armed:
/// tail-sampling flight recorder + critical-path analysis + SLO violation
/// counting on top of windowed metrics.
fn run_golden_armed(hw: HardwareConfig, users: u32) -> (u64, u64) {
    let mut cfg = SystemConfig::new(hw, SoftAllocation::rule_of_thumb(), users);
    cfg.workload = WorkloadConfig::quick(users);
    cfg.trace = TraceConfig::Sampled(0.25);
    cfg.metrics = MetricsConfig::windowed_default();
    cfg.flight = FlightConfig::tail(8);
    cfg.slo = Some(SloPolicy::new(0.99, 0.5));
    let (out, trace, _) = run_system_full(cfg);
    let flight = trace.flight.as_ref().expect("flight recorder armed");
    assert!(flight.classified > 0, "no requests classified");
    assert!(flight.retained() > 0, "no exemplars retained");
    let jsonl = export::to_jsonl(trace.spans.iter());
    (digest_output(&out), digest_str(&jsonl))
}

// Golden digests captured when the engine moved to the horizon-sharded
// runner (mirrored queries, sender-side routing, per-shard RNG forks —
// see DESIGN.md §15; the previous constants dated from the pre-refactor
// monolithic `System`). Do not update these constants without first
// establishing that an output change is intended and understood. They held
// unchanged across the move from barrier rounds to the round-free executor
// (DESIGN.md §15; tests/executor_golden.rs pins seven more configurations).
const GOLD_1212_OUT: u64 = 0xc0182045b7981689;
const GOLD_1212_TRACE: u64 = 0x53d94fa0985c5de6;
const GOLD_1414_OUT: u64 = 0x779ff0ce572132ed;
const GOLD_1414_TRACE: u64 = 0x259708a55379e7fe;

#[test]
fn golden_1_2_1_2_rule_of_thumb() {
    let (out, trace) = run_golden(HardwareConfig::one_two_one_two(), 2000);
    assert_eq!(
        out, GOLD_1212_OUT,
        "RunOutput digest drifted for 1/2/1/2(400-150-60): got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1212_TRACE,
        "trace JSONL digest drifted for 1/2/1/2(400-150-60): got {trace:#018x}"
    );
}

/// The windowed metrics pipeline is purely passive (write-only accumulators
/// at existing state transitions, no events, no RNG draws), so a metrics-on
/// run must reproduce the metrics-off golden digests *bit for bit* — the
/// same constants, with no correction terms for extra events.
#[test]
fn golden_digests_unchanged_with_metrics_enabled() {
    let (out, trace) = run_golden_with(
        HardwareConfig::one_two_one_two(),
        2000,
        MetricsConfig::windowed_default(),
    );
    assert_eq!(
        out, GOLD_1212_OUT,
        "metrics collection perturbed 1/2/1/2 output: got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1212_TRACE,
        "metrics collection perturbed 1/2/1/2 trace: got {trace:#018x}"
    );
    let (out, trace) = run_golden_with(
        HardwareConfig::one_four_one_four(),
        2400,
        MetricsConfig::windowed_default(),
    );
    assert_eq!(
        out, GOLD_1414_OUT,
        "metrics collection perturbed 1/4/1/4 output: got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1414_TRACE,
        "metrics collection perturbed 1/4/1/4 trace: got {trace:#018x}"
    );
}

/// The engine profiler, like the metrics pipeline, is write-only
/// observability: counters and monotonic clocks around existing event-loop
/// phases, no events, no RNG draws. A profiled run must therefore reproduce
/// the profiler-off golden digests bit for bit.
#[test]
fn golden_digests_unchanged_with_profiling_enabled() {
    let (out, trace) = run_golden_cfg(
        HardwareConfig::one_two_one_two(),
        2000,
        MetricsConfig::Off,
        true,
    );
    assert_eq!(
        out, GOLD_1212_OUT,
        "engine profiling perturbed 1/2/1/2 output: got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1212_TRACE,
        "engine profiling perturbed 1/2/1/2 trace: got {trace:#018x}"
    );
    let (out, trace) = run_golden_cfg(
        HardwareConfig::one_four_one_four(),
        2400,
        MetricsConfig::Off,
        true,
    );
    assert_eq!(
        out, GOLD_1414_OUT,
        "engine profiling perturbed 1/4/1/4 output: got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1414_TRACE,
        "engine profiling perturbed 1/4/1/4 trace: got {trace:#018x}"
    );
}

/// The flight recorder + critical-path analysis + SLO counting are passive
/// observers of spans and state transitions the run already produces: no
/// events, no RNG draws, no timing changes. A fully armed run must therefore
/// reproduce the instrumentation-off golden digests bit for bit.
#[test]
fn golden_digests_unchanged_with_flight_recorder_armed() {
    let (out, trace) = run_golden_armed(HardwareConfig::one_two_one_two(), 2000);
    assert_eq!(
        out, GOLD_1212_OUT,
        "flight recorder perturbed 1/2/1/2 output: got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1212_TRACE,
        "flight recorder perturbed 1/2/1/2 trace: got {trace:#018x}"
    );
    let (out, trace) = run_golden_armed(HardwareConfig::one_four_one_four(), 2400);
    assert_eq!(
        out, GOLD_1414_OUT,
        "flight recorder perturbed 1/4/1/4 output: got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1414_TRACE,
        "flight recorder perturbed 1/4/1/4 trace: got {trace:#018x}"
    );
}

#[test]
fn golden_1_4_1_4_rule_of_thumb() {
    let (out, trace) = run_golden(HardwareConfig::one_four_one_four(), 2400);
    assert_eq!(
        out, GOLD_1414_OUT,
        "RunOutput digest drifted for 1/4/1/4(400-150-60): got {out:#018x}"
    );
    assert_eq!(
        trace, GOLD_1414_TRACE,
        "trace JSONL digest drifted for 1/4/1/4(400-150-60): got {trace:#018x}"
    );
}
