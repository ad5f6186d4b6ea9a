//! End-to-end contract of the critical-path attribution engine and the
//! tail-sampling flight recorder:
//!
//! 1. **Conservation** — on varied topologies, allocations, seeds, and
//!    retry policies, every classified request's attribution partitions its
//!    client-observed latency *exactly* (integer microseconds, no residue),
//!    window profiles included.
//! 2. **Determinism** — the retained exemplar set is identical under serial
//!    and multi-threaded plan execution (retention is decided by sim-time
//!    state, never wall-clock races).
//! 3. **Truncation honesty** — when the span ring overwrites, windows are
//!    marked truncated and partially-evicted traces are dropped rather than
//!    cited with incomplete span trees.
//! 4. **Exemplar-linked diagnosis** — each of the paper's three pathologies
//!    yields at least one retained exemplar whose dominant critical-path
//!    bucket supports the verdict, and `Diagnosis::cite` surfaces it.

mod common;

use common::{scaled_config, scaled_knee};
use rubbos_ntier::metrics::RunMetrics;
use rubbos_ntier::ntier_trace::RETRY;
use rubbos_ntier::prelude::*;
use simcore::SimTime;

/// Arm the full observability stack on a scaled config.
fn arm(cfg: &mut SystemConfig) {
    cfg.trace = TraceConfig::Full;
    cfg.flight = FlightConfig::tail(8);
    cfg.metrics = MetricsConfig::windowed_default();
}

fn armed_run(mut cfg: SystemConfig) -> (RunMetrics, FlightSummary, RunTrace) {
    arm(&mut cfg);
    let (_, trace, metrics) = run_system_full(cfg);
    let flight = *trace.flight.clone().expect("flight recorder armed");
    (*metrics.expect("metrics armed"), flight, trace)
}

/// Every attribution in the summary must sum to its latency exactly.
fn assert_conservation(flight: &FlightSummary, label: &str) {
    assert!(flight.classified > 0, "{label}: nothing classified");
    for w in &flight.windows {
        assert_eq!(
            w.profile.total_micros(),
            w.profile.latency_micros,
            "{label}: window {} profile does not conserve latency",
            w.index
        );
        for e in &w.exemplars {
            assert_eq!(
                e.attribution.total_micros(),
                e.attribution.latency_micros,
                "{label}: trace {} attribution does not conserve latency",
                e.trace
            );
            assert_eq!(
                e.attribution.latency_micros,
                e.latency.as_micros(),
                "{label}: trace {} attribution disagrees with observed latency",
                e.trace
            );
        }
    }
}

#[test]
fn attribution_conserves_latency_across_topologies_and_seeds() {
    let combos = [
        // (hw, soft, users, seed, retry)
        (
            HardwareConfig::one_two_one_two(),
            SoftAllocation::rule_of_thumb(),
            680,
            0xc0ffee,
            RetryPolicy::disabled(),
        ),
        // Starved Tomcat pool: latency is dominated by soft-resource waits.
        (
            HardwareConfig::one_two_one_two(),
            SoftAllocation::new(400, 3, 100),
            980,
            7,
            RetryPolicy::disabled(),
        ),
        // Large pools near the knee, different chain, different seed.
        (
            HardwareConfig::one_four_one_four(),
            SoftAllocation::new(400, 200, 200),
            1060,
            99,
            RetryPolicy::disabled(),
        ),
        // Client retries put backoff windows on the critical path.
        (
            HardwareConfig::one_four_one_four(),
            SoftAllocation::new(8, 30, 10),
            900,
            3,
            RetryPolicy::backoff(3, SimTime::from_millis(50), 2.0, 0.2),
        ),
    ];
    for (hw, soft, users, seed, retry) in combos {
        let mut cfg = scaled_config(hw, soft, users);
        cfg.seed = seed;
        cfg.retry = retry;
        let label = format!("{hw}({soft})@{users}/seed{seed}");
        let (_, flight, _) = armed_run(cfg);
        assert_conservation(&flight, &label);
    }
}

#[test]
fn tail_sample_retention_is_identical_under_parallel_execution() {
    let plan = ExperimentPlan::new("flight-determinism")
        .with_variant(Variant::paper(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::new(50, 20, 10),
        ))
        .with_users([150u32, 300, 450])
        .with_schedule(Schedule::Quick)
        .with_trace(TraceConfig::Full)
        .with_flight(FlightConfig::tail(4));
    let serial = run_plan(&plan, &Executor::serial());
    let four = run_plan(&plan, &Executor::with_threads(4));
    assert_eq!(serial.digest(), four.digest());
    for (i, (s, p)) in serial.traces.iter().zip(&four.traces).enumerate() {
        let s = s.as_ref().and_then(|t| t.flight.as_deref());
        let p = p.as_ref().and_then(|t| t.flight.as_deref());
        let (s, p) = (s.expect("serial flight"), p.expect("parallel flight"));
        assert_eq!(s.classified, p.classified, "point {i}");
        let key = |f: &FlightSummary| {
            f.windows
                .iter()
                .flat_map(|w| {
                    w.exemplars.iter().map(move |e| {
                        (
                            w.index,
                            e.trace,
                            e.latency,
                            e.outcome,
                            e.attribution.clone(),
                        )
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(s), key(p), "point {i}: retained exemplars diverged");
    }
}

#[test]
fn ring_overwrite_marks_windows_truncated_not_silently_wrong() {
    let hw = HardwareConfig::one_two_one_two();
    let mut cfg = scaled_config(hw, SoftAllocation::rule_of_thumb(), 700);
    // A span ring far too small for a fully-traced run: overwrite is
    // guaranteed, and with it partial eviction of retained traces.
    cfg.trace_capacity = Some(512);
    let (_, flight, trace) = armed_run(cfg);
    assert!(trace.overwritten > 0, "ring never overwrote");
    assert!(
        flight.truncated_windows() > 0,
        "overwrite left no truncation mark"
    );
    // Whatever survived is still complete evidence: conservation holds for
    // every remaining exemplar.
    assert_conservation(&flight, "truncated run");
    // The control run with the default ring keeps every window clean.
    let control = scaled_config(hw, SoftAllocation::rule_of_thumb(), 700);
    let (_, control_flight, control_trace) = armed_run(control);
    assert_eq!(control_trace.overwritten, 0);
    assert_eq!(control_flight.truncated_windows(), 0);
}

/// Regression: a failed attempt's retry-backoff span is emitted after the
/// recorder classified that attempt, so the recorder never counted it; the
/// teardown cross-check did, so as soon as the ring overwrote anything,
/// every window citing a retried request was flagged truncated and lost its
/// exemplars. A ring that evicts only ramp-up spans, long before the
/// measurement window, must leave the summary exactly as an unbounded ring
/// does, on a retry storm (front-tier timeouts, naive retries, and a slow
/// middleware replica mid-window).
#[test]
fn ring_overwrite_before_the_window_truncates_nothing_under_retries() {
    let mut cfg = scaled_config(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        700,
    );
    let mut topo = cfg.effective_topology();
    topo.tiers[0].timeout = Some(SimTime::from_secs(2));
    topo.tiers[2].fault =
        FaultSpec::none().with_slow(0, SimTime::from_secs(14), Some(SimTime::from_secs(20)), 6.0);
    let front = [topo.tiers[0].name, topo.tiers[1].name];
    cfg.topology = Some(topo);
    cfg.retry = RetryPolicy::naive(4);

    let (_, unbounded, trace) = armed_run(cfg.clone());
    assert_eq!(trace.overwritten, 0);
    let retried = unbounded
        .windows
        .iter()
        .flat_map(|w| &w.exemplars)
        .filter(|e| {
            trace
                .spans
                .iter()
                .any(|s| s.trace == e.trace && s.name == RETRY)
        })
        .count();
    assert!(retried > 0, "no retained exemplar was retried");

    // The front ring evicts oldest first: size it to drop exactly the
    // spans that ended during the first two seconds of the ramp.
    let front_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| front.contains(&s.track))
        .collect();
    let early = front_spans
        .iter()
        .filter(|s| s.end < SimTime::from_secs(2))
        .count();
    assert!(early > 0);
    cfg.trace_capacity = Some(front_spans.len() - early);
    let (_, bounded, trace) = armed_run(cfg);
    assert!(trace.overwritten > 0, "ring never overwrote");
    assert_eq!(bounded.truncated_windows(), 0);
    assert_eq!(format!("{bounded:?}"), format!("{unbounded:?}"));
}

/// Manual acceptance check (release builds only — debug timings are
/// meaningless): arming the flight recorder + critical-path analysis on the
/// paper's 1/2/1/2 point at 7 800 users must cost < 15% wall-clock over the
/// same traced run without the recorder.
///
/// ```text
/// cargo test --release --test critical_path -- --ignored overhead
/// ```
#[test]
#[ignore = "wall-clock measurement; run manually in release"]
fn flight_recorder_overhead_is_bounded() {
    let run = |armed: bool| {
        let hw = HardwareConfig::one_two_one_two();
        let mut cfg = SystemConfig::new(hw, SoftAllocation::rule_of_thumb(), 7800);
        cfg.trace = TraceConfig::Full;
        if armed {
            cfg.flight = FlightConfig::tail(8);
        }
        let t = std::time::Instant::now();
        let (out, trace, _) = run_system_full(cfg);
        (t.elapsed().as_secs_f64(), out.completed, trace)
    };
    // Warm-up, then interleave measurements to share any machine drift.
    let _ = run(false);
    let mut base = f64::MAX;
    let mut armed = f64::MAX;
    for _ in 0..3 {
        let (b, completed_b, _) = run(false);
        let (a, completed_a, trace) = run(true);
        assert_eq!(completed_a, completed_b, "recorder perturbed the run");
        assert!(trace.flight.expect("armed").retained() > 0);
        base = base.min(b);
        armed = armed.min(a);
    }
    let overhead = (armed - base) / base;
    println!(
        "baseline {base:.3}s armed {armed:.3}s overhead {:.1}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.15,
        "flight recorder overhead {:.1}% exceeds 15% (baseline {base:.3}s, armed {armed:.3}s)",
        overhead * 100.0
    );
}

#[test]
fn pathology_verdicts_cite_matching_exemplars() {
    // §III-A under-allocation, §III-B over-allocation, §III-C buffering:
    // the same scaled scenarios `tests/diagnosis.rs` pins the verdicts on,
    // now with the flight recorder armed — each verdict must be backed by
    // at least one exemplar whose dominant bucket supports it.
    let hw12 = HardwareConfig::one_two_one_two();
    let hw14 = HardwareConfig::one_four_one_four();
    let under = {
        let (m, flight, _) = armed_run(scaled_config(
            hw12,
            SoftAllocation::new(400, 3, 100),
            scaled_knee(hw12),
        ));
        (Diagnosis::of_run(&m), flight)
    };
    let over = {
        let users = scaled_knee(hw14) + 150;
        let (m, flight, _) = armed_run(scaled_config(
            hw14,
            SoftAllocation::new(400, 200, 200),
            users,
        ));
        (Diagnosis::of_run(&m), flight)
    };
    let buffering = {
        let soft = SoftAllocation::new(8, 30, 10);
        let (lo, _, _) = armed_run(scaled_config(hw14, soft, scaled_knee(hw14) - 200));
        let (hi, flight, _) = armed_run(scaled_config(hw14, soft, scaled_knee(hw14) + 200));
        (Diagnosis::of_sweep(&[&lo, &hi]), flight)
    };

    for (name, (diagnosis, flight)) in [
        ("under-allocation", under),
        ("over-allocation", over),
        ("buffering-effect", buffering),
    ] {
        assert_ne!(
            diagnosis,
            Diagnosis::Healthy,
            "{name}: pathology not diagnosed"
        );
        let evidence = diagnosis.evidence(&flight);
        assert!(
            !evidence.is_empty(),
            "{name}: verdict {diagnosis} has no matching exemplar"
        );
        for e in &evidence {
            assert!(
                diagnosis.supporting_buckets().contains(&e.bucket),
                "{name}: cited bucket {} does not support the verdict",
                e.bucket.label()
            );
            let (dominant, _) = e.exemplar.attribution.dominant();
            assert_eq!(dominant, e.bucket, "{name}: evidence is not dominant");
        }
        let cited = diagnosis.cite(&flight, 3);
        assert!(
            cited.contains("evidence: trace"),
            "{name}: cite() surfaced no evidence:\n{cited}"
        );
    }
}
