//! Post-trial conservation checks: freeze the closed loop, drain every
//! in-flight request, and snapshot pool balance and outcome totals on the
//! empty system.

use super::run::{build_engine, merge_shards, seed_engine_events};
use super::*;

/// Pool balance and conservation counters of one server at drain.
#[derive(Debug, Clone)]
pub struct NodeDrain {
    /// Display name, e.g. `Tomcat-0`.
    pub name: String,
    /// Jobs admitted over the whole trial.
    pub arrivals: u64,
    /// Jobs that finished and left over the whole trial.
    pub departures: u64,
    /// Thread-pool units still held at drain.
    pub pool_in_use: usize,
    /// Thread-pool acquisitions still queued at drain.
    pub pool_waiting: usize,
    /// Connection-pool units still held at drain.
    pub conn_in_use: usize,
    /// Connection-pool acquisitions still queued at drain.
    pub conn_waiting: usize,
    /// Requests/queries this node cancelled on a deadline.
    pub timed_out: u64,
    /// Requests this node rejected at admission (front tier only).
    pub shed: u64,
    /// Queries this node lost to a crash or a dropped connection.
    pub failed: u64,
}

/// Conservation snapshot taken after the event queue fully drained.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Requests still in flight (must be 0 after a clean drain).
    pub in_flight_requests: usize,
    /// Queries still in flight (must be 0 after a clean drain).
    pub in_flight_queries: usize,
    /// Per-server counters, front tier first.
    pub nodes: Vec<NodeDrain>,
    /// Full-trial terminal outcomes: after a clean drain
    /// `outcomes.total()` equals the front tier's total arrivals (every
    /// admitted request ends in exactly one outcome).
    pub outcomes: OutcomeTotals,
}

/// Run one full trial, then freeze the client think loop and drain every
/// in-flight request to completion. Returns the run summary plus a
/// conservation snapshot ([`DrainReport`]) taken on the empty system:
/// admitted == departed per tier node and every pool back to balance.
pub fn run_system_to_drain(cfg: SystemConfig) -> (RunOutput, DrainReport) {
    let (out, report, _) = run_system_to_drain_metered(cfg);
    (out, report)
}

/// [`run_system_to_drain`] that also surfaces the windowed time series when
/// `cfg.metrics` enables them — the combination the chaos campaigns need:
/// conservation oracles from the drain snapshot *and* recovery oracles from
/// the per-window client series of the same trial.
pub fn run_system_to_drain_metered(
    cfg: SystemConfig,
) -> (RunOutput, DrainReport, Option<Box<RunMetrics>>) {
    let trial_end = cfg.workload.trial_end();

    let mut engine = build_engine(cfg);
    seed_engine_events(&mut engine);
    engine.run_until(trial_end);
    // Freeze the closed loop: in-flight requests complete, nothing new
    // starts, so every shard's queue runs dry. Only the front shard issues
    // requests, but the flag is replicated for uniformity.
    for shard in 0..engine.n_shards() {
        engine.model_mut(shard).ctx.draining = true;
    }
    engine.run_to_quiescence(100_000_000);
    let events = engine.events_processed();
    let shards = engine.into_models();
    // Conservation counters live on the owning shard: snapshot each shard's
    // owned node range (owned ranges partition the chain in chain order) and
    // sum the in-flight query mirrors before the telemetry merge.
    let mut nodes = Vec::new();
    let mut in_flight_queries = 0;
    for sys in &shards {
        in_flight_queries += sys.ctx.queries.len();
        for ni in sys.ctx.owned.clone() {
            let n = &sys.ctx.nodes[ni];
            nodes.push(NodeDrain {
                name: n.name(),
                arrivals: n.arrivals,
                departures: n.departures,
                pool_in_use: n.pool.as_ref().map_or(0, |p| p.in_use()),
                pool_waiting: n.pool.as_ref().map_or(0, |p| p.waiting()),
                conn_in_use: n.conn_pool.as_ref().map_or(0, |p| p.in_use()),
                conn_waiting: n.conn_pool.as_ref().map_or(0, |p| p.waiting()),
                timed_out: n.timed_out,
                shed: n.shed,
                failed: n.failed,
            });
        }
    }
    let (mut system, _tracers) = merge_shards(shards);
    let metrics = system.ctx.metrics_out.take();
    let report = DrainReport {
        in_flight_requests: system.ctx.requests.len(),
        in_flight_queries,
        nodes,
        outcomes: system.ctx.outcomes,
    };
    let out = system.ctx.into_output(events);
    (out, report, metrics)
}
