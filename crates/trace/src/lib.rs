//! # ntier-trace — per-request distributed tracing for the n-tier simulator
//!
//! The paper's method assumes "each individual server response time for every
//! request is logged" (§IV-B); this crate makes that literal. Instrumented
//! tiers emit [`Span`] segments — Apache accept-queue wait, worker service,
//! lingering close; Tomcat pool wait + service; C-JDBC connection wait and
//! query fan-out; MySQL service; JVM GC pauses — into a bounded ring buffer
//! ([`Tracer`]) with deterministic head sampling ([`TraceConfig`]).
//!
//! Three consumers:
//!
//! * [`export::to_jsonl`] — one span per line, integer microseconds, byte
//!   deterministic for a given seed.
//! * [`export::to_chrome`] — Chrome trace-event JSON, loadable in Perfetto:
//!   one track per tier, GC pauses flagged as instant events.
//! * [`summary::summarize`] — reconstructs Table I per-tier RTT/TP/jobs from
//!   the span tree of a single traced run, cross-checkable against the
//!   aggregate `ServerLog` path.
//! * [`critical::attribute`] — classifies every microsecond of a completed
//!   request's latency into a fixed taxonomy (tier service, pool waits, GC,
//!   run-queue, wire), summing to the latency exactly.
//! * [`flight::FlightRecorder`] — tail-sampling reservoir retaining the K
//!   slowest / all failed traces per window plus a uniform baseline, with
//!   per-window critical-path profiles and exemplar links.
//!
//! The crate depends only on `simcore` and is `Off` by default everywhere —
//! with tracing disabled no tracer exists and the simulator pays nothing.

pub mod critical;
pub mod export;
pub mod flight;
pub mod json;
pub mod summary;
pub mod tracer;

pub use critical::{attribute, Attribution, Bucket, GcTimeline, TrackRole, TrackRoles};
pub use flight::{
    CompletionOutcome, Exemplar, ExemplarKind, FlightConfig, FlightRecorder, FlightSummary,
    FlightWindow,
};
pub use summary::{summarize, TierStats, TraceSummary};
pub use tracer::{Span, SpanLog, TraceConfig, TraceId, Tracer, ENGINE_TRACE};

/// Span name: a full tier residence (mirrors one `ServerLog::record` call).
pub const RESIDENCE: &str = "residence";
/// Span name: a stop-the-world JVM GC pause (engine-level, trace id 0).
pub const GC_PAUSE: &str = "gc-pause";
/// Span name: request waiting in Apache's accept queue for a worker.
pub const ACCEPT_WAIT: &str = "accept-wait";
/// Span name: Apache worker service before forwarding to Tomcat.
pub const WORKER_PRE: &str = "worker-pre";
/// Span name: Apache worker blocked interacting with Tomcat.
pub const TOMCAT_INTERACT: &str = "tomcat-interact";
/// Span name: Apache worker service after the backend response.
pub const WORKER_POST: &str = "worker-post";
/// Span name: Apache worker held through lingering close (FIN wait).
pub const LINGER_CLOSE: &str = "linger-close";
/// Span name: waiting for a Tomcat servlet thread.
pub const THREAD_WAIT: &str = "thread-wait";
/// Span name: in-thread service time (Tomcat, MySQL).
pub const SERVICE: &str = "service";
/// Span name: waiting for a Tomcat→C-JDBC DB connection.
pub const CONN_WAIT: &str = "conn-wait";
/// Span name: one SQL query's C-JDBC residence (fan-out child).
pub const QUERY: &str = "query";
/// Span name: a request hit its per-tier deadline and was cancelled.
pub const TIMEOUT: &str = "timeout";
/// Span name: a client backoff window before re-issuing a failed interaction.
pub const RETRY: &str = "retry";
/// Span name: a request rejected by front-tier admission control.
pub const SHED: &str = "shed";
/// Span name: a replica down window (engine-level, trace id 0), from crash
/// to recovery (or to the end of the run for a permanent crash).
pub const CRASH: &str = "crash";
/// Span name: a request rejected fail-fast by an open circuit breaker.
pub const BREAKER: &str = "breaker";
/// Span name: a queued request re-dispatched to another replica after the
/// hedge delay elapsed (tied request; the queued leg is cancelled).
pub const HEDGE: &str = "hedge";

/// The five Apache-side segment names that tile a request's end-to-end
/// residence exactly: every boundary is a simulation event, so for each
/// traced request these spans are disjoint, ordered, and sum to the
/// end-to-end window with zero slack.
pub const E2E_TILING: [&str; 5] = [
    ACCEPT_WAIT,
    WORKER_PRE,
    TOMCAT_INTERACT,
    WORKER_POST,
    LINGER_CLOSE,
];
