//! In-flight request and query state machines.
//!
//! The phase machines are written against tier *roles* (front/app/middleware/
//! db), not concrete server products: the same request walks a 3-tier chain
//! (no middleware) or a 4-tier chain unchanged. Which replica of each tier
//! serves the request is recorded in a per-tier routing table indexed by
//! [`crate::topology::TierId`].

use crate::fault::Outcome;
use crate::ids::{QueryId, ReqId};
use crate::topology::MAX_TIERS;
use simcore::SimTime;
use workload::InteractionId;

/// Where an HTTP request currently is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqPhase {
    /// On the wire from client to the front (web) tier.
    ToFront,
    /// Queued for a front-tier worker thread.
    WaitWorker,
    /// Front-tier pre-processing CPU (header parsing, routing).
    FrontPre,
    /// On the wire / queued for an app-tier thread.
    WaitAppThread,
    /// Executing an app-tier CPU slice.
    AppCpu,
    /// Queued for a DB connection from the app-tier pool.
    WaitDbConn,
    /// A SQL query is outstanding below this request.
    QueryInFlight,
    /// Front-tier post-processing CPU (response assembly + static content).
    FrontPost,
    /// Response sent; worker lingering on close (FIN wait).
    Linger,
}

/// One in-flight HTTP request (= one RUBBoS interaction execution).
#[derive(Debug, Clone)]
pub struct Request {
    /// Owning client session.
    pub session: u32,
    /// Interaction type, stored compactly (the catalog is far smaller than
    /// `u16::MAX`; at 1M in-flight requests this saves 6 MB of slab).
    pub interaction: u16,
    /// Current phase.
    pub phase: ReqPhase,
    /// Replica of each tier serving this request, indexed by tier id
    /// (meaningful only for request-carrying tiers: front and app).
    pub route: [u16; MAX_TIERS],
    /// Queries issued so far.
    pub queries_done: u32,
    /// Time the client issued the request.
    pub t_start: SimTime,
    /// Arrival at the front tier.
    pub t_arrive_front: SimTime,
    /// Time the front-tier worker thread was acquired.
    pub t_worker_acquired: SimTime,
    /// Arrival at the app tier (start of the app residence, Fig. 9's `T`).
    pub t_arrive_app: SimTime,
    /// When the front-tier worker started interacting with the backend.
    pub t_backend_start: SimTime,
    /// Accumulated worker time spent interacting with the backend tiers.
    pub backend_interact_secs: f64,
    /// Outstanding completion arms (client response + linger); the slot is
    /// freed when this reaches zero.
    pub arms_remaining: u8,
    /// Total app-tier CPU demand sampled for this execution (seconds).
    pub app_demand_secs: f64,
    /// Terminal outcome (meaningful once the response reaches the client).
    pub outcome: Outcome,
    /// 1-based attempt number (> 1 after a client retry).
    pub attempt: u8,
    /// Armed deadline-timer sequence number (0 = no deadline armed). A
    /// `ReqTimeout` event only fires if its sequence still matches, which
    /// makes stale timers harmless across slab-slot reuse.
    pub timeout_seq: u32,
    /// The deadline fired while the request was at a point that cannot be
    /// cancelled synchronously; unwind at the next checkpoint.
    pub deadline_exceeded: bool,
    /// Armed hedge-timer sequence number (0 = no hedge armed). Same monotone
    /// generation guard as `timeout_seq`; a `HedgeFire` event only acts if
    /// its sequence still matches.
    pub hedge_seq: u32,
    /// The request was rejected fail-fast by an open circuit breaker; such
    /// responses carry no backend signal and are excluded from the breaker's
    /// error/latency window (recording them would latch the breaker open).
    pub fast_failed: bool,
}

impl Request {
    /// Create a fresh request issued by `session` at `t_start`.
    pub fn new(session: u32, interaction: InteractionId, t_start: SimTime) -> Self {
        Request {
            session,
            interaction: u16::try_from(interaction).expect("interaction id fits in u16"),
            phase: ReqPhase::ToFront,
            route: [0; MAX_TIERS],
            queries_done: 0,
            t_start,
            t_arrive_front: SimTime::ZERO,
            t_worker_acquired: SimTime::ZERO,
            t_arrive_app: SimTime::ZERO,
            t_backend_start: SimTime::ZERO,
            backend_interact_secs: 0.0,
            arms_remaining: 2,
            app_demand_secs: 0.0,
            outcome: Outcome::Completed,
            attempt: 1,
            timeout_seq: 0,
            deadline_exceeded: false,
            hedge_seq: 0,
            fast_failed: false,
        }
    }

    /// Whether the front-tier worker serving this request is currently
    /// interacting (or waiting to interact) with the backend —
    /// the `Threads_connectingTomcat` probe of Fig. 7(c)/(f).
    pub fn worker_interacting_with_backend(&self) -> bool {
        matches!(
            self.phase,
            ReqPhase::WaitAppThread
                | ReqPhase::AppCpu
                | ReqPhase::WaitDbConn
                | ReqPhase::QueryInFlight
        )
    }
}

// Every in-flight request pays for every byte here: a 1M-session run holds
// about a million of them at once. Observation-only state belongs in
// [`ReqObs`].
const _: () = assert!(std::mem::size_of::<Request>() <= 96);

/// Observation-only state of one in-flight request: what the span sites and
/// the flight-recorder hand-off read, and nothing the simulation itself
/// does. It lives in a side table indexed by request slab slot that exists
/// only while tracing is on, so an untraced run never allocates it.
#[derive(Debug, Clone, Copy)]
pub struct ReqObs {
    /// Trace id when this request was admitted for tracing (0 = untraced;
    /// ids are monotone per trial, never reused even though slab slots are).
    pub trace: u64,
    /// CPU demand submitted on behalf of this request (its queries charge
    /// it too), per tier, in seconds. Maintained only while the flight
    /// recorder is armed and flushed to it in one batch at the client
    /// response — per-submit recorder charges would dominate its cost.
    pub demand_secs: [f64; MAX_TIERS],
    /// When the app-tier thread was granted (first app CPU slice).
    pub t_thread_granted: SimTime,
    /// When the request started waiting for a DB connection.
    pub t_conn_wait_start: SimTime,
    /// When the current query was issued (DB connection granted).
    pub t_query_issued: SimTime,
    /// When front-tier post-processing began (backend response received).
    pub t_front_post_start: SimTime,
    /// When the front tier finished the response (start of lingering close).
    pub t_front_done: SimTime,
}

impl ReqObs {
    /// The record of an untraced request: what every read sees when the
    /// side table does not exist.
    pub const UNTRACED: ReqObs = ReqObs {
        trace: 0,
        demand_secs: [0.0; MAX_TIERS],
        t_thread_granted: SimTime::ZERO,
        t_conn_wait_start: SimTime::ZERO,
        t_query_issued: SimTime::ZERO,
        t_front_post_start: SimTime::ZERO,
        t_front_done: SimTime::ZERO,
    };

    /// A fresh record for a request carrying trace id `trace`.
    pub fn new(trace: u64) -> Self {
        ReqObs {
            trace,
            ..ReqObs::UNTRACED
        }
    }
}

/// Where a SQL query currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPhase {
    /// Middleware routing CPU before dispatch (4-tier chains only).
    MwPre,
    /// Executing at one or more database servers.
    AtDb,
    /// Middleware result-merge CPU after the replies (4-tier chains only).
    MwPost,
}

/// One in-flight SQL query.
///
/// A query that leaves its issuing tier's shard is *mirrored*: the accessing
/// tier keeps its slab entry (keyed by the ids riding the wire structs below)
/// and the serving tier inserts a local entry of its own, linked back through
/// [`Query::upstream_qid`]. Everything the serving tier needs to execute —
/// interaction id, trace id, write flag — rides the wire so no shard ever
/// dereferences another shard's slab.
#[derive(Debug, Clone)]
pub struct Query {
    /// Owning request (`NO_REQ` on serving-tier mirrors, whose owner lives
    /// on the issuing shard).
    pub req: ReqId,
    /// Whether this is a write (broadcast to all replicas).
    pub is_write: bool,
    /// Current phase.
    pub phase: QueryPhase,
    /// Replica of the serving tier handling this query: on an issuing-tier
    /// mirror, the middleware replica it was dispatched to (`NO_REPLICA`
    /// until dispatch, or forever in 3-tier chains where the database
    /// replica is settled per reply); on a serving-tier mirror, the local
    /// replica index.
    pub mw_idx: u16,
    /// Outstanding database replies (1 for reads, replica count for writes).
    pub pending_replies: u8,
    /// Arrival at the middleware tier (start of its residence).
    pub t_enter_mw: SimTime,
    /// Arrival at the database tier (for the db residence log).
    pub t_enter_db: SimTime,
    /// The query was lost (crashed replica, dropped connection) or one of a
    /// write broadcast's branches failed; the owning request fails when the
    /// error reply propagates up.
    pub failed: bool,
    /// When the app tier issued this query (for breaker latency signals).
    pub t_issued: SimTime,
    /// The query was rejected fail-fast by an open breaker guarding the tier
    /// below; excluded from breaker signal recording.
    pub fast_failed: bool,
    /// Slab id of the issuing tier's mirror of this query (`NO_QUERY` on
    /// the issuing side itself). Echoed back on reply wires so the issuer
    /// can find its mirror without a shared slab.
    pub upstream_qid: QueryId,
    /// Interaction type, copied from the owning request at issue time so
    /// serving tiers can look up per-interaction demand locally.
    pub interaction: InteractionId,
    /// Trace id of the owning request (0 = untraced), copied at issue time
    /// for span emission on serving shards.
    pub trace: u64,
    /// CPU demand charged at this query's own tier (seconds), accumulated
    /// while flight-recorder charging is on; settled upstream via the reply
    /// wires.
    pub demand: f64,
    /// Database CPU demand reported by reply wires from the tier below
    /// (middleware mirrors only); forwarded upstream on completion.
    pub db_demand: f64,
}

impl Query {
    /// Create a query under request `req`.
    pub fn new(req: ReqId, is_write: bool, t_enter_mw: SimTime) -> Self {
        Query {
            req,
            is_write,
            phase: QueryPhase::MwPre,
            mw_idx: NO_REPLICA,
            pending_replies: 0,
            t_enter_mw,
            t_enter_db: SimTime::ZERO,
            failed: false,
            t_issued: t_enter_mw,
            fast_failed: false,
            upstream_qid: NO_QUERY,
            interaction: 0,
            trace: 0,
            demand: 0.0,
            db_demand: 0.0,
        }
    }
}

/// Dummy placeholder query id for requests with no outstanding query.
pub const NO_QUERY: QueryId = u32::MAX;

/// Dummy placeholder request id for serving-tier query mirrors.
pub const NO_REQ: ReqId = u32::MAX;

/// "No replica selected" sentinel for [`Query::mw_idx`].
pub const NO_REPLICA: u16 = u16::MAX;

/// A query dispatch crossing from the issuing tier to a serving tier.
///
/// The wire structs are the only payloads that cross shard boundaries in a
/// sharded run: compact `Copy` values carrying everything the far side
/// needs, so events stay small and no shard reads another's slabs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWire {
    /// The issuing tier's slab id for its mirror (echoed back on replies).
    pub src_qid: QueryId,
    /// Interaction type (serving tiers sample demand from it locally).
    pub interaction: InteractionId,
    /// Trace id of the owning request (0 = untraced).
    pub trace: u64,
    /// Whether this is a write (broadcast to all database replicas).
    pub is_write: bool,
}

/// A database reply returning to the tier that dispatched the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryReplyWire {
    /// The dispatching tier's slab id for its mirror.
    pub dst_qid: QueryId,
    /// Database replica that served (or failed) this branch; the dispatcher
    /// settles its sender-side outstanding count with it.
    pub rep: u16,
    /// This branch failed (crashed or down replica).
    pub failed: bool,
    /// When the query arrived at the database (for residence bookkeeping and
    /// breaker latency signals upstream).
    pub t_enter_db: SimTime,
    /// Database CPU demand charged to this branch (seconds).
    pub demand: f64,
}

/// A middleware completion (success or failure) returning to the app tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDoneWire {
    /// The app tier's slab id for its mirror.
    pub dst_qid: QueryId,
    /// The query failed somewhere below the app tier.
    pub failed: bool,
    /// The failure was a fail-fast breaker rejection (excluded from breaker
    /// signal recording upstream).
    pub fast_failed: bool,
    /// Middleware CPU demand charged to this query (seconds).
    pub mw_demand: f64,
    /// Database CPU demand accumulated below the middleware (seconds).
    pub db_demand: f64,
}

impl QueryDoneWire {
    /// A completion that never left the issuing shard (fail-fast and drop
    /// paths): all state already lives on the local mirror, so the wire
    /// carries nothing.
    pub fn local(dst_qid: QueryId) -> Self {
        QueryDoneWire {
            dst_qid,
            failed: false,
            fast_failed: false,
            mw_demand: 0.0,
            db_demand: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_initial_state() {
        let r = Request::new(7, 3, SimTime::from_secs(1));
        assert_eq!(r.phase, ReqPhase::ToFront);
        assert_eq!(r.arms_remaining, 2);
        assert_eq!(r.queries_done, 0);
        assert_eq!(r.route, [0; MAX_TIERS]);
        assert!(!r.worker_interacting_with_backend());
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.attempt, 1);
        assert_eq!(r.timeout_seq, 0);
        assert!(!r.deadline_exceeded);
        assert_eq!(r.interaction, 3);
    }

    #[test]
    fn fresh_observation_record_is_untraced_but_for_its_id() {
        let o = ReqObs::new(42);
        assert_eq!(o.trace, 42);
        assert_eq!(o.demand_secs, [0.0; MAX_TIERS]);
        assert_eq!(o.t_front_done, SimTime::ZERO);
        assert_eq!(ReqObs::UNTRACED.trace, 0);
    }

    #[test]
    fn backend_interaction_probe_covers_backend_phases() {
        let mut r = Request::new(0, 0, SimTime::ZERO);
        for phase in [
            ReqPhase::WaitAppThread,
            ReqPhase::AppCpu,
            ReqPhase::WaitDbConn,
            ReqPhase::QueryInFlight,
        ] {
            r.phase = phase;
            assert!(r.worker_interacting_with_backend(), "{phase:?}");
        }
        for phase in [
            ReqPhase::ToFront,
            ReqPhase::WaitWorker,
            ReqPhase::FrontPre,
            ReqPhase::FrontPost,
            ReqPhase::Linger,
        ] {
            r.phase = phase;
            assert!(!r.worker_interacting_with_backend(), "{phase:?}");
        }
    }

    #[test]
    fn query_initial_state() {
        let q = Query::new(5, true, SimTime::from_secs(2));
        assert_eq!(q.phase, QueryPhase::MwPre);
        assert!(q.is_write);
        assert_eq!(q.pending_replies, 0);
        assert_eq!(q.mw_idx, NO_REPLICA);
        assert_eq!(q.upstream_qid, NO_QUERY);
        assert_eq!(q.demand, 0.0);
    }
}
