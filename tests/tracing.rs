//! End-to-end tracing guarantees: a traced request's span segments tile its
//! residence exactly, identical seeds give byte-identical trace exports, and
//! the span-reconstructed per-tier observables agree with the aggregate
//! `ServerLog` path.

mod common;

use common::scaled_config;
use rubbos_ntier::ntier_trace::{self, export, Span, TraceConfig, ENGINE_TRACE};
use rubbos_ntier::prelude::*;
use rubbos_ntier::tiers::run_system_traced;
use std::collections::BTreeMap;

fn traced_run(users: u32, trace: TraceConfig) -> (RunOutput, rubbos_ntier::tiers::RunTrace) {
    let hw = HardwareConfig::one_two_one_two();
    let soft = SoftAllocation::new(50, 20, 10);
    let mut cfg = scaled_config(hw, soft, users);
    cfg.trace = trace;
    run_system_traced(cfg)
}

/// Group request-level spans by trace id.
fn by_trace(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut map: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.trace != ENGINE_TRACE {
            map.entry(s.trace).or_default().push(s);
        }
    }
    map
}

#[test]
fn apache_segments_tile_the_request_residence_exactly() {
    let (_, trace) = traced_run(300, TraceConfig::Full);
    assert!(trace.overwritten == 0, "ring overflowed; grow the capacity");
    assert!(trace.admitted > 100, "admitted={}", trace.admitted);

    let mut complete = 0u64;
    let all: Vec<Span> = trace.spans.iter().collect();
    for (id, spans) in by_trace(&all) {
        // The five Apache-side segments, in the order the tiling defines.
        let mut segs: Vec<&Span> = ntier_trace::E2E_TILING
            .iter()
            .filter_map(|name| spans.iter().find(|s| s.name == *name).copied())
            .collect();
        if segs.len() != ntier_trace::E2E_TILING.len() {
            continue; // request still in flight at trial end
        }
        complete += 1;

        // Ordered and contiguous: each segment starts where the last ended,
        // with zero slack (shared event timestamps, integer microseconds).
        for w in segs.windows(2) {
            assert_eq!(
                w[0].end, w[1].start,
                "trace {id}: {} → {} not contiguous",
                w[0].name, w[1].name
            );
        }
        // Disjoint and ordered follows from contiguity plus non-negative
        // durations; check the latter explicitly.
        for s in &segs {
            assert!(s.start <= s.end, "trace {id}: {} runs backwards", s.name);
        }
        // The segments sum to the end-to-end Apache residence including the
        // lingering close: [first arrival, linger done).
        let sum: u64 = segs.iter().map(|s| s.micros()).sum();
        let first = segs.first().unwrap().start;
        let last = segs.last().unwrap().end;
        assert_eq!(sum, last.0 - first.0, "trace {id}: tiling has gaps");

        // And the Apache residence span covers exactly the first four
        // segments (the log path excludes the lingering close).
        let residence = spans
            .iter()
            .find(|s| s.name == ntier_trace::RESIDENCE && s.track == "Apache")
            .expect("complete request has an Apache residence span");
        assert_eq!(residence.start, first, "trace {id}");
        segs.pop();
        let served: u64 = segs.iter().map(|s| s.micros()).sum();
        assert_eq!(residence.micros(), served, "trace {id}");
    }
    assert!(complete > 100, "only {complete} complete traces");
}

#[test]
fn identical_seeds_give_byte_identical_jsonl() {
    let (_, a) = traced_run(200, TraceConfig::Full);
    let (_, b) = traced_run(200, TraceConfig::Full);
    let ja = export::to_jsonl(a.spans.iter());
    let jb = export::to_jsonl(b.spans.iter());
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "traced runs are not reproducible");
    // The Chrome export is derived from the same stream: also deterministic.
    assert_eq!(
        export::to_chrome(a.spans.iter()),
        export::to_chrome(b.spans.iter())
    );
}

#[test]
fn head_sampling_partitions_requests() {
    let (_, full) = traced_run(200, TraceConfig::Full);
    let (_, sampled) = traced_run(200, TraceConfig::Sampled(0.25));
    assert_eq!(full.rejected, 0);
    // Same trial, same request stream: admitted + rejected is invariant.
    assert_eq!(sampled.admitted + sampled.rejected, full.admitted);
    assert!(sampled.admitted > 0 && sampled.rejected > 0);
    let frac = sampled.admitted as f64 / full.admitted as f64;
    assert!((frac - 0.25).abs() < 0.05, "sampled fraction {frac}");
}

#[test]
fn trace_summary_matches_server_logs() {
    let (out, trace) = traced_run(300, TraceConfig::Full);
    let summary = trace.summary();
    for tier in [Tier::Web, Tier::App, Tier::Cmw, Tier::Db] {
        let ts = summary.tier(tier.server_name()).expect("tier has spans");
        let nodes = out.tier_nodes(tier);
        let log_tp: f64 = nodes.iter().map(|n| n.throughput(out.window_secs)).sum();
        let log_rtt = nodes.iter().map(|n| n.mean_rtt).sum::<f64>() / nodes.len() as f64;
        let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-12);
        assert!(
            rel(ts.throughput, log_tp) < 0.05,
            "{}: TP {} vs {}",
            ts.track,
            ts.throughput,
            log_tp
        );
        assert!(
            rel(ts.mean_rtt_secs, log_rtt) < 0.05,
            "{}: RTT {} vs {}",
            ts.track,
            ts.mean_rtt_secs,
            log_rtt
        );
    }
}

#[test]
fn tracing_does_not_change_the_physics() {
    let (traced, _) = traced_run(250, TraceConfig::Full);
    let (off, empty) = traced_run(250, TraceConfig::Off);
    assert!(empty.spans.is_empty());
    assert_eq!(traced.completed, off.completed);
    assert_eq!(traced.events_processed, off.events_processed);
    assert!((traced.mean_rt - off.mean_rt).abs() < 1e-15);
}
