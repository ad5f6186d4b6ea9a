//! Composable tier nodes: the per-tier behaviour behind [`TierNode`].
//!
//! Each chain position of a [`crate::topology::Topology`] is realised by one
//! stateless node object (all mutable state lives in the shared
//! [`Ctx`](crate::system::Ctx) — the nodes only know *which* tier id they
//! are). The dispatcher in `system.rs` routes `Ev::Tier(id, msg)` to
//! `tiers[id].handle(..)` and CPU completions to `tiers[id].cpu_done(..)`;
//! everything tier-specific — admission, soft-pool acquire/release, service
//! demand, downstream fan-out and the reply path — is here.
//!
//! Adding a new tier role means implementing this trait and teaching
//! [`make_tier`] about the role; the event alphabet, dispatcher and runner
//! stay untouched.

use crate::fault::Outcome;
use crate::ids::{QueryId, ReqId, Tier, Token};
use crate::request::{
    Query, QueryDoneWire, QueryPhase, QueryReplyWire, QueryWire, ReqPhase, NO_REPLICA, NO_REQ,
};
use crate::system::{Ctx, Ev, SimQueue, TierMsg};
use crate::topology::TierId;
use simcore::SimTime;

/// One position in the tier chain: consumes the typed messages addressed to
/// it and reacts to its servers' CPU completions.
pub(crate) trait TierNode {
    /// Handle a message addressed to this tier.
    fn handle(&self, msg: TierMsg, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>);

    /// A CPU job finished on node `ni` (one of this tier's replicas).
    fn cpu_done(
        &self,
        tok: Token,
        ni: usize,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    );
}

/// Instantiate the node implementation for a tier role at chain position
/// `id`.
pub(crate) fn make_tier(role: Tier, id: TierId) -> Box<dyn TierNode> {
    match role {
        Tier::Web => Box::new(WebNode { id }),
        Tier::App => Box::new(AppNode { id }),
        Tier::Cmw => Box::new(CmwNode { id }),
        Tier::Db => Box::new(DbNode { id }),
    }
}

// ----------------------------------------------------------------------
// front (web) tier — Apache in the paper's testbed
// ----------------------------------------------------------------------

/// Front tier: worker-pool admission, pre/post processing CPU, lingering
/// close.
struct WebNode {
    id: TierId,
}

impl WebNode {
    fn req_arrive(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let rep = {
            let req = ctx.requests.get_mut(r);
            req.t_arrive_front = now;
            req.phase = ReqPhase::WaitWorker;
            req.route[self.id] as usize
        };
        let ni = ctx.links[self.id].base + rep;
        ctx.nodes[ni].arrivals += 1;
        // Admission control: reject before touching the worker pool, so a
        // shed leaves no trace in the pool's occupancy or wait statistics.
        if !ctx.links[self.id].shed.is_none() {
            let pool = ctx.nodes[ni].pool.as_ref().expect("front tier has workers");
            let shed =
                ctx.links[self.id]
                    .shed
                    .should_shed(pool.capacity(), pool.in_use(), pool.waiting());
            if shed {
                ctx.requests.get_mut(r).outcome = Outcome::Shed;
                let trace = ctx.obs(r).trace;
                ctx.nodes[ni].departures += 1;
                ctx.nodes[ni].shed += 1;
                ctx.route_departed(self.id, rep);
                let track = ctx.links[self.id].name;
                ctx.req_span(trace, track, ntier_trace::SHED, now, now);
                // No worker ⇒ no linger arm.
                ctx.free_request_arm(r);
                q.schedule(now + ctx.hop(512), Ev::ResponseToClient(r));
                return;
            }
        }
        // Open front breaker: fail fast. Like a shed, the rejection never
        // touches the worker pool; unlike a shed it reports as `Failed` (the
        // client sees an error page, not an admission refusal) and is
        // excluded from the breaker's own signal window.
        if !ctx.breaker_admit(self.id, now) {
            {
                let req = ctx.requests.get_mut(r);
                req.outcome = Outcome::Failed;
                req.fast_failed = true;
            }
            let trace = ctx.obs(r).trace;
            ctx.nodes[ni].departures += 1;
            ctx.nodes[ni].failed += 1;
            ctx.route_departed(self.id, rep);
            let track = ctx.links[self.id].name;
            ctx.req_span(trace, track, ntier_trace::BREAKER, now, now);
            // No worker ⇒ no linger arm.
            ctx.free_request_arm(r);
            q.schedule(now + ctx.hop(512), Ev::ResponseToClient(r));
            return;
        }
        ctx.arm_timeout(r, self.id, now, q);
        let pool = ctx.nodes[ni].pool.as_mut().expect("front tier has workers");
        match pool.acquire(now, r as u64) {
            resources::Acquire::Granted => self.start_pre(r, now, ctx, q),
            resources::Acquire::Enqueued { .. } => {}
        }
    }

    fn start_pre(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let demand = ctx.jitter_ms(ctx.cfg.params.apache_pre_ms);
        let (ni, t_arrive) = {
            let req = ctx.requests.get_mut(r);
            req.t_worker_acquired = now;
            req.phase = ReqPhase::FrontPre;
            (
                ctx.links[self.id].base + req.route[self.id] as usize,
                req.t_arrive_front,
            )
        };
        let trace = ctx.obs(r).trace;
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::ACCEPT_WAIT, t_arrive, now);
        ctx.cpu_submit(ni, Token::Req(r), demand, now, q);
    }

    /// Pre-CPU finished: forward to the downstream (app) tier.
    fn forward_downstream(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (rep, t_worker) = {
            let req = ctx.requests.get_mut(r);
            req.phase = ReqPhase::WaitAppThread;
            req.t_backend_start = now;
            (req.route[self.id] as usize, req.t_worker_acquired)
        };
        let trace = ctx.obs(r).trace;
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::WORKER_PRE, t_worker, now);
        ctx.probes[rep].interacting += 1;
        let down = ctx.links[self.id]
            .down
            .expect("front tier has a downstream");
        q.schedule(
            now + ctx.hop(512),
            Ev::Tier(down as u8, TierMsg::ReqArrive(r)),
        );
        ctx.arm_hedge(r, now, q);
    }

    /// Post-CPU finished: send the response and linger on close.
    fn finish(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (rep, response_kb, t_arrive, served) = {
            let req = ctx.requests.get(r);
            (
                req.route[self.id] as usize,
                ctx.catalog.get(req.interaction.into()).response_kb,
                req.t_arrive_front,
                req.outcome == Outcome::Completed,
            )
        };
        let (trace, t_post) = {
            let o = ctx.obs(r);
            (o.trace, o.t_front_post_start)
        };
        let ni = ctx.links[self.id].base + rep;
        // Error pages don't count as served work: the node's completion log
        // and processed-rate probe describe successful responses only.
        if served {
            ctx.nodes[ni].log.record(t_arrive, now);
            ctx.probes[rep].processed.incr(now);
        }
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::WORKER_POST, t_post, now);
        ctx.req_span(trace, track, ntier_trace::RESIDENCE, t_arrive, now);
        if let Some(o) = ctx.obs_mut(r) {
            o.t_front_done = now;
        }
        // The response is on its way; any outstanding deadline is moot.
        ctx.requests.get_mut(r).timeout_seq = 0;
        q.schedule(
            now + ctx.hop(response_kb as u64 * 1024),
            Ev::ResponseToClient(r),
        );
        let linger = if ctx.links[self.id].linger {
            ctx.cfg
                .linger
                .sample(ctx.cfg.workload.users, &mut ctx.rng_linger)
        } else {
            SimTime::ZERO
        };
        ctx.requests.get_mut(r).phase = ReqPhase::Linger;
        ctx.nodes[ni].linger_begin(now);
        q.schedule(
            now + linger,
            Ev::Tier(self.id as u8, TierMsg::LingerDone(r)),
        );
    }

    fn linger_done(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let rep = ctx.requests.get(r).route[self.id] as usize;
        let (trace, t_done) = {
            let o = ctx.obs(r);
            (o.trace, o.t_front_done)
        };
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::LINGER_CLOSE, t_done, now);
        // Worker busy-time probes (Fig. 7(b)/(e)).
        {
            let req = ctx.requests.get(r);
            let probe = &mut ctx.probes[rep];
            let pt_total_ms = now.saturating_sub(req.t_worker_acquired).as_millis_f64();
            probe.pt_total_sum.add(now, pt_total_ms);
            probe.pt_total_cnt.add(now, 1.0);
            probe
                .pt_tomcat_sum
                .add(now, req.backend_interact_secs * 1e3);
            probe.pt_tomcat_cnt.add(now, 1.0);
        }
        let ni = ctx.links[self.id].base + rep;
        ctx.nodes[ni].linger_end(now);
        let pool = ctx.nodes[ni].pool.as_mut().expect("front tier has workers");
        if let Some(next) = pool.release(now) {
            q.schedule_now(Ev::Tier(self.id as u8, TierMsg::PoolGranted(next as ReqId)));
        }
        ctx.nodes[ni].departures += 1;
        ctx.route_departed(self.id, rep);
        ctx.free_request_arm(r);
    }

    /// The downstream tier's response arrived: run post-processing CPU.
    fn req_reply(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (ni, demand_ms, rep, t_interact) = {
            let req = ctx.requests.get_mut(r);
            req.backend_interact_secs += now.saturating_sub(req.t_backend_start).as_secs_f64();
            req.phase = ReqPhase::FrontPost;
            let inter = ctx.catalog.get(req.interaction.into());
            (
                ctx.links[self.id].base + req.route[self.id] as usize,
                ctx.cfg.params.apache_post_ms
                    + inter.static_requests as f64 * ctx.cfg.params.static_ms,
                req.route[self.id] as usize,
                req.t_backend_start,
            )
        };
        let trace = match ctx.obs_mut(r) {
            Some(o) => {
                o.t_front_post_start = now;
                o.trace
            }
            None => ntier_trace::ENGINE_TRACE,
        };
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::TOMCAT_INTERACT, t_interact, now);
        ctx.probes[rep].interacting -= 1;
        let demand = ctx.jitter_ms(demand_ms);
        ctx.cpu_submit(ni, Token::Req(r), demand, now, q);
    }
}

impl TierNode for WebNode {
    fn handle(&self, msg: TierMsg, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        match msg {
            TierMsg::ReqArrive(r) => self.req_arrive(r, now, ctx, q),
            TierMsg::PoolGranted(r) => self.start_pre(r, now, ctx, q),
            TierMsg::ReqReply(r) => self.req_reply(r, now, ctx, q),
            TierMsg::LingerDone(r) => self.linger_done(r, now, ctx, q),
            other => unreachable!("web tier got {other:?}"),
        }
    }

    fn cpu_done(
        &self,
        tok: Token,
        _ni: usize,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let Token::Req(r) = tok else {
            unreachable!("token {tok:?} on web tier")
        };
        match ctx.requests.get(r).phase {
            ReqPhase::FrontPre => self.forward_downstream(r, now, ctx, q),
            ReqPhase::FrontPost => self.finish(r, now, ctx, q),
            other => unreachable!("web CPU done in phase {other:?}"),
        }
    }
}

// ----------------------------------------------------------------------
// application tier — Tomcat in the paper's testbed
// ----------------------------------------------------------------------

/// Application tier: thread-pool admission, CPU slices interleaved with
/// queries issued through a connection pool.
struct AppNode {
    id: TierId,
}

impl AppNode {
    fn req_arrive(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (ni, demand_ms) = {
            let req = ctx.requests.get_mut(r);
            req.t_arrive_app = now;
            let inter = ctx.catalog.get(req.interaction.into());
            (
                ctx.links[self.id].base + req.route[self.id] as usize,
                inter.tomcat_ms * ctx.cfg.params.tomcat_scale,
            )
        };
        let mut demand = ctx.jitter_ms(demand_ms);
        // Brownout: under a deep run queue, serve the cheap variant of the
        // page (fewer personalisation queries' worth of CPU).
        if let Some(f) = ctx.nodes[ni].brownout_mult() {
            demand *= f;
            ctx.record_degraded(now);
        }
        ctx.requests.get_mut(r).app_demand_secs = demand;
        ctx.nodes[ni].arrivals += 1;
        // The app deadline (if any) overrides the front tier's: innermost
        // armed deadline wins.
        ctx.arm_timeout(r, self.id, now, q);
        let pool = ctx.nodes[ni].pool.as_mut().expect("app tier has threads");
        match pool.acquire(now, r as u64) {
            resources::Acquire::Granted => self.start_slice(r, now, ctx, q),
            resources::Acquire::Enqueued { .. } => {}
        }
    }

    /// Run the next CPU slice (slices interleave with queries).
    fn start_slice(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (ni, slice_demand, slice_alloc, first_slice) = {
            let req = ctx.requests.get_mut(r);
            // Only the first slice enters through the thread-pool queue;
            // later slices resume after a query with the thread still held.
            let first_slice = req.phase == ReqPhase::WaitAppThread;
            req.phase = ReqPhase::AppCpu;
            let inter = ctx.catalog.get(req.interaction.into());
            let slices = (inter.queries + 1) as f64;
            (
                ctx.links[self.id].base + req.route[self.id] as usize,
                req.app_demand_secs / slices,
                ctx.cfg.params.tomcat_alloc_per_req / slices,
                first_slice,
            )
        };
        if first_slice {
            let t_arrive = ctx.requests.get(r).t_arrive_app;
            let trace = match ctx.obs_mut(r) {
                Some(o) => {
                    o.t_thread_granted = now;
                    o.trace
                }
                None => ntier_trace::ENGINE_TRACE,
            };
            let track = ctx.links[self.id].name;
            ctx.req_span(trace, track, ntier_trace::THREAD_WAIT, t_arrive, now);
        }
        ctx.jvm_alloc(ni, slice_alloc, now, q);
        ctx.cpu_submit(ni, Token::Req(r), slice_demand, now, q);
    }

    /// A CPU slice completed: issue the next query or finish.
    fn after_slice(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        if ctx.requests.get(r).deadline_exceeded {
            // A deadline fired mid-slice; this is the unwind checkpoint.
            ctx.fail_at_app(r, Outcome::TimedOut, now, q);
            return;
        }
        let (ni, rep, more_queries) = {
            let req = ctx.requests.get(r);
            let inter = ctx.catalog.get(req.interaction.into());
            (
                ctx.links[self.id].base + req.route[self.id] as usize,
                req.route[self.id] as usize,
                req.queries_done < inter.queries,
            )
        };
        if more_queries {
            ctx.requests.get_mut(r).phase = ReqPhase::WaitDbConn;
            if let Some(o) = ctx.obs_mut(r) {
                o.t_conn_wait_start = now;
            }
            let pool = ctx.nodes[ni]
                .conn_pool
                .as_mut()
                .expect("app tier has conns");
            match pool.acquire(now, r as u64) {
                resources::Acquire::Granted => self.issue_query(r, now, ctx, q),
                resources::Acquire::Enqueued { .. } => {}
            }
        } else {
            // All queries done: respond upstream and release the thread.
            let t_arrive = ctx.requests.get(r).t_arrive_app;
            let (trace, t_granted) = {
                let o = ctx.obs(r);
                (o.trace, o.t_thread_granted)
            };
            ctx.nodes[ni].log.record(t_arrive, now);
            let track = ctx.links[self.id].name;
            ctx.req_span(trace, track, ntier_trace::SERVICE, t_granted, now);
            ctx.req_span(trace, track, ntier_trace::RESIDENCE, t_arrive, now);
            if ctx.links[self.id].timeout.is_some() {
                // The app tier armed the active deadline; its residence is
                // over, so disarm (a front-tier deadline, if configured,
                // was already superseded on entry).
                ctx.requests.get_mut(r).timeout_seq = 0;
            }
            let pool = ctx.nodes[ni].pool.as_mut().expect("app tier has threads");
            if let Some(next) = pool.release(now) {
                q.schedule_now(Ev::Tier(self.id as u8, TierMsg::PoolGranted(next as ReqId)));
            }
            let up = ctx.links[self.id].up.expect("app tier has an upstream");
            q.schedule(
                now + ctx.hop(2048),
                Ev::Tier(up as u8, TierMsg::ReqReply(r)),
            );
            ctx.nodes[ni].departures += 1;
            ctx.route_departed(self.id, rep);
        }
    }

    fn issue_query(&self, r: ReqId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (is_write, interaction) = {
            let req = ctx.requests.get_mut(r);
            req.phase = ReqPhase::QueryInFlight;
            let interaction = req.interaction.into();
            let inter = ctx.catalog.get(interaction);
            (req.queries_done < inter.write_queries, interaction)
        };
        let (trace, t_wait) = match ctx.obs_mut(r) {
            Some(o) => {
                o.t_query_issued = now;
                (o.trace, o.t_conn_wait_start)
            }
            None => (ntier_trace::ENGINE_TRACE, SimTime::ZERO),
        };
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::CONN_WAIT, t_wait, now);
        let qid = {
            let mut query = Query::new(r, is_write, SimTime::ZERO);
            query.t_issued = now;
            query.interaction = interaction;
            query.trace = trace;
            ctx.queries.insert(query)
        };
        let down = ctx.links[self.id].down.expect("app tier has a downstream");
        // Open breaker on the tier below: fail the query locally without
        // touching the wire, routing state, or the downstream tier. The
        // self-loop is immediate — failing fast is the point.
        if !ctx.breaker_admit(down, now) {
            let query = ctx.queries.get_mut(qid);
            query.failed = true;
            query.fast_failed = true;
            q.schedule_now(Ev::Tier(
                self.id as u8,
                TierMsg::QueryDone(QueryDoneWire::local(qid)),
            ));
            return;
        }
        if ctx.links[down].role == Tier::Cmw {
            // Middleware routes by query id; the replica is fixed at send.
            let rep = ctx.select_replica_up(down, qid as usize) as u16;
            if ctx.drop_query_to(down) {
                // Connection reset on the wire: the query never reaches the
                // middleware; the app discovers the reset after one hop.
                ctx.route_departed(down, rep as usize);
                ctx.queries.get_mut(qid).failed = true;
                q.schedule(
                    now + ctx.hop(300),
                    Ev::Tier(self.id as u8, TierMsg::QueryDone(QueryDoneWire::local(qid))),
                );
            } else {
                // Sender-side routing: remember the pick so the outstanding
                // count settles here when the middleware's answer lands.
                ctx.queries.get_mut(qid).mw_idx = rep;
                let wire = QueryWire {
                    src_qid: qid,
                    interaction,
                    trace,
                    is_write,
                };
                q.schedule(
                    now + ctx.hop(300),
                    Ev::Tier(down as u8, TierMsg::QueryArrive(wire, rep)),
                );
            }
        } else if ctx.drop_query_to(down) {
            // 3-tier chain, dropped on the way to the database.
            ctx.queries.get_mut(qid).failed = true;
            q.schedule(
                now + ctx.hop(300),
                Ev::Tier(self.id as u8, TierMsg::QueryDone(QueryDoneWire::local(qid))),
            );
        } else {
            // 3-tier chain: the app tier talks to the databases directly.
            ctx.dispatch_query_to_db(qid, down, now, q);
        }
    }

    /// A database replied directly (3-tier chains, no middleware). The wire
    /// merges the branch's outcome into the app-side query and settles the
    /// sender-side replica pick for reads.
    fn query_reply(
        &self,
        rw: QueryReplyWire,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let qid = rw.dst_qid;
        let (done, is_write, r) = {
            let query = ctx.queries.get_mut(qid);
            query.pending_replies -= 1;
            query.failed |= rw.failed;
            query.t_enter_db = rw.t_enter_db;
            (query.pending_replies == 0, query.is_write, query.req)
        };
        let down = ctx.links[self.id].down.expect("app tier has a downstream");
        // Reads settle the replica pick made at dispatch; broadcast writes
        // bypass least-outstanding bookkeeping entirely.
        if !is_write {
            ctx.route_departed(down, rw.rep as usize);
        }
        // Demand observed at the database settles into the request's
        // attribution vector here (back shards never touch `requests`).
        if let Some(o) = ctx.obs_mut(r) {
            o.demand_secs[down] += rw.demand;
        }
        if done {
            // The result set is consumed by the JDBC driver while the app
            // thread and DB connection stay occupied.
            q.schedule(
                now + ctx.cfg.params.query_result_hold,
                Ev::Tier(self.id as u8, TierMsg::QueryDone(QueryDoneWire::local(qid))),
            );
        }
    }

    fn query_done(&self, dw: QueryDoneWire, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let qid = dw.dst_qid;
        let mut query = ctx.queries.remove(qid);
        query.failed |= dw.failed;
        query.fast_failed |= dw.fast_failed;
        let r = query.req;
        let down = ctx.links[self.id].down.expect("app tier has a downstream");
        // Sender-side routing: settle the middleware pick recorded at issue
        // (4-tier wire sends only; drops and fail-fasts never recorded one).
        if query.mw_idx != NO_REPLICA {
            ctx.route_departed(down, query.mw_idx as usize);
        }
        // Breaker signal for the tier below: one finished call per query.
        // Fail-fast rejections (by this breaker or one further down) carry no
        // backend signal and are skipped.
        if ctx.breakers[down].is_some() && !query.fast_failed {
            let latency = now.saturating_sub(query.t_issued);
            ctx.breaker_record(down, now, query.failed, latency);
        }
        // Downstream service demand rides the wire home: middleware CPU to
        // the middleware tier, database CPU to the tier below it.
        let db_t = ctx.links[down].down.unwrap_or(down);
        if let Some(o) = ctx.obs_mut(r) {
            o.demand_secs[down] += dw.mw_demand;
            o.demand_secs[db_t] += dw.db_demand;
        }
        let (ni, deadline) = {
            let req = ctx.requests.get_mut(r);
            req.queries_done += 1;
            (
                ctx.links[self.id].base + req.route[self.id] as usize,
                req.deadline_exceeded,
            )
        };
        let (trace, t_issued) = {
            let o = ctx.obs(r);
            (o.trace, o.t_query_issued)
        };
        // The fan-out child as the app thread sees it: DB connection held
        // from issue to reply consumption (the paper's `t1'`/`t2'` periods).
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::QUERY, t_issued, now);
        let pool = ctx.nodes[ni]
            .conn_pool
            .as_mut()
            .expect("app tier has conns");
        if let Some(next) = pool.release(now) {
            q.schedule_now(Ev::Tier(self.id as u8, TierMsg::ConnGranted(next as ReqId)));
        }
        if query.failed {
            ctx.fail_at_app(r, Outcome::Failed, now, q);
        } else if deadline {
            ctx.fail_at_app(r, Outcome::TimedOut, now, q);
        } else {
            self.start_slice(r, now, ctx, q);
        }
    }
}

impl TierNode for AppNode {
    fn handle(&self, msg: TierMsg, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        match msg {
            TierMsg::ReqArrive(r) => self.req_arrive(r, now, ctx, q),
            TierMsg::PoolGranted(r) => self.start_slice(r, now, ctx, q),
            TierMsg::ConnGranted(r) => self.issue_query(r, now, ctx, q),
            TierMsg::QueryReply(rw) => self.query_reply(rw, now, ctx, q),
            TierMsg::QueryDone(dw) => self.query_done(dw, now, ctx, q),
            other => unreachable!("app tier got {other:?}"),
        }
    }

    fn cpu_done(
        &self,
        tok: Token,
        _ni: usize,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let Token::Req(r) = tok else {
            unreachable!("token {tok:?} on app tier")
        };
        self.after_slice(r, now, ctx, q);
    }
}

// ----------------------------------------------------------------------
// clustering middleware tier — C-JDBC in the paper's testbed
// ----------------------------------------------------------------------

/// Middleware tier: routing CPU before dispatch, merge CPU after the
/// database replies, write broadcast.
struct CmwNode {
    id: TierId,
}

impl CmwNode {
    fn query_arrive(
        &self,
        wire: QueryWire,
        rep: u16,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        // Insert the local mirror of the app-side query: a serving shard
        // never dereferences the issuing shard's slabs, so everything the
        // middleware needs rides the wire in.
        let qid = {
            let mut query = Query::new(NO_REQ, wire.is_write, now);
            query.upstream_qid = wire.src_qid;
            query.interaction = wire.interaction;
            query.trace = wire.trace;
            query.mw_idx = rep;
            ctx.queries.insert(query)
        };
        let ni = ctx.links[self.id].base + rep as usize;
        ctx.nodes[ni].arrivals += 1;
        if !ctx.nodes[ni].up {
            self.fail_query(qid, ni, now, ctx, q);
            return;
        }
        ctx.jvm_alloc(ni, ctx.cfg.params.cjdbc_alloc_per_query, now, q);
        let mut demand =
            ctx.jitter_ms(ctx.cfg.params.cjdbc_ms_per_query / 2.0) * ctx.nodes[ni].demand_mult(now);
        // Brownout: cheap-mode routing under a deep run queue.
        if let Some(f) = ctx.nodes[ni].brownout_mult() {
            demand *= f;
            ctx.record_degraded(now);
        }
        ctx.cpu_submit(ni, Token::Query(qid), demand, now, q);
    }

    /// Fail query `qid` at middleware node `ni`: settle the node's
    /// conservation counters and error-reply to the app tier (no merge CPU).
    /// The issuing shard's outstanding count settles when the wire lands.
    fn fail_query(
        &self,
        qid: QueryId,
        ni: usize,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let wire = {
            let query = ctx.queries.get_mut(qid);
            query.failed = true;
            QueryDoneWire {
                dst_qid: query.upstream_qid,
                failed: true,
                fast_failed: query.fast_failed,
                mw_demand: query.demand,
                db_demand: query.db_demand,
            }
        };
        ctx.queries.remove(qid);
        ctx.nodes[ni].departures += 1;
        ctx.nodes[ni].failed += 1;
        let up = ctx.links[self.id].up.expect("middleware has an upstream");
        q.schedule(
            now + ctx.hop(2048),
            Ev::Tier(up as u8, TierMsg::QueryDone(wire)),
        );
    }

    /// A database reply reached the middleware.
    fn query_reply(
        &self,
        rw: QueryReplyWire,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let qid = rw.dst_qid;
        let (done, ni, is_write) = {
            let query = ctx.queries.get_mut(qid);
            query.pending_replies -= 1;
            query.failed |= rw.failed;
            query.t_enter_db = rw.t_enter_db;
            query.db_demand += rw.demand;
            (
                query.pending_replies == 0,
                ctx.links[self.id].base + query.mw_idx as usize,
                query.is_write,
            )
        };
        let down = ctx.links[self.id]
            .down
            .expect("middleware has a downstream");
        // Reads settle the replica pick made at dispatch; broadcast writes
        // bypass least-outstanding bookkeeping entirely.
        if !is_write {
            ctx.route_departed(down, rw.rep as usize);
        }
        if done {
            // Breaker signal for the database tier: one finished round-trip
            // per query (broadcast writes count once, when the last branch
            // lands).
            if ctx.breakers[down].is_some() {
                let (failed, t_db) = {
                    let query = ctx.queries.get(qid);
                    (query.failed, query.t_enter_db)
                };
                ctx.breaker_record(down, now, failed, now.saturating_sub(t_db));
            }
            // A failed branch (crashed/dropped replica, partial write) or a
            // middleware crash while the query was at the databases both
            // poison the result: error-reply instead of merging.
            if ctx.queries.get(qid).failed || !ctx.nodes[ni].up {
                self.fail_query(qid, ni, now, ctx, q);
                return;
            }
            ctx.queries.get_mut(qid).phase = QueryPhase::MwPost;
            let demand = ctx.jitter_ms(ctx.cfg.params.cjdbc_ms_per_query / 2.0)
                * ctx.nodes[ni].demand_mult(now);
            ctx.cpu_submit(ni, Token::Query(qid), demand, now, q);
        }
    }

    /// Merge CPU done: reply to the app tier.
    fn reply(&self, qid: QueryId, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let (wire, ni, trace, t_enter) = {
            let query = ctx.queries.get(qid);
            (
                QueryDoneWire {
                    dst_qid: query.upstream_qid,
                    failed: false,
                    fast_failed: false,
                    mw_demand: query.demand,
                    db_demand: query.db_demand,
                },
                ctx.links[self.id].base + query.mw_idx as usize,
                query.trace,
                query.t_enter_mw,
            )
        };
        ctx.nodes[ni].log.record(t_enter, now);
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::RESIDENCE, t_enter, now);
        // The result set travels back and is consumed by the JDBC driver
        // while the app thread and DB connection stay occupied.
        let up = ctx.links[self.id].up.expect("middleware has an upstream");
        q.schedule(
            now + ctx.hop(2048) + ctx.cfg.params.query_result_hold,
            Ev::Tier(up as u8, TierMsg::QueryDone(wire)),
        );
        ctx.nodes[ni].departures += 1;
        ctx.queries.remove(qid);
    }
}

impl TierNode for CmwNode {
    fn handle(&self, msg: TierMsg, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        match msg {
            TierMsg::QueryArrive(wire, rep) => self.query_arrive(wire, rep, now, ctx, q),
            TierMsg::QueryReply(rw) => self.query_reply(rw, now, ctx, q),
            other => unreachable!("middleware tier got {other:?}"),
        }
    }

    fn cpu_done(
        &self,
        tok: Token,
        _ni: usize,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let Token::Query(qid) = tok else {
            unreachable!("token {tok:?} on middleware tier")
        };
        match ctx.queries.get(qid).phase {
            QueryPhase::MwPre => {
                let down = ctx.links[self.id]
                    .down
                    .expect("middleware has a downstream");
                if !ctx.breaker_admit(down, now) {
                    // Open breaker on the database tier: error-reply without
                    // touching the wire; tagged so neither this breaker nor
                    // the middleware's own counts it as a backend signal.
                    let ni = {
                        let query = ctx.queries.get_mut(qid);
                        query.fast_failed = true;
                        ctx.links[self.id].base + query.mw_idx as usize
                    };
                    self.fail_query(qid, ni, now, ctx, q);
                } else if ctx.drop_query_to(down) {
                    // Dropped on the middleware→database wire.
                    let ni = ctx.links[self.id].base + ctx.queries.get(qid).mw_idx as usize;
                    self.fail_query(qid, ni, now, ctx, q);
                } else {
                    ctx.dispatch_query_to_db(qid, down, now, q);
                }
            }
            QueryPhase::MwPost => self.reply(qid, now, ctx, q),
            other => unreachable!("middleware CPU done in phase {other:?}"),
        }
    }
}

// ----------------------------------------------------------------------
// database tier — MySQL in the paper's testbed
// ----------------------------------------------------------------------

/// Database tier: query CPU, probabilistic disk access, reply upstream.
struct DbNode {
    id: TierId,
}

impl DbNode {
    fn query_arrive(
        &self,
        wire: QueryWire,
        db: u16,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        // Insert the local mirror (one per broadcast branch for writes); the
        // database never dereferences the issuing shard's slabs.
        let qid = {
            let mut query = Query::new(NO_REQ, wire.is_write, SimTime::ZERO);
            query.upstream_qid = wire.src_qid;
            query.interaction = wire.interaction;
            query.trace = wire.trace;
            query.phase = QueryPhase::AtDb;
            query.t_enter_db = now;
            query.t_issued = now;
            ctx.queries.insert(query)
        };
        let demand_ms =
            ctx.catalog.get(wire.interaction).mysql_ms_per_query * ctx.cfg.params.mysql_scale;
        let ni = ctx.links[self.id].base + db as usize;
        ctx.nodes[ni].arrivals += 1;
        if !ctx.nodes[ni].up {
            // Connection refused by the crashed replica: error-reply without
            // consuming any service demand. For broadcast writes this fails
            // one branch; the owning query is poisoned either way.
            self.fail_query(qid, db, now, ctx, q);
            return;
        }
        let mut demand = ctx.jitter_ms(demand_ms.max(0.05)) * ctx.nodes[ni].demand_mult(now);
        // Brownout: skip the expensive plan / serve a cached partial result
        // when the run queue is deep.
        if let Some(f) = ctx.nodes[ni].brownout_mult() {
            demand *= f;
            ctx.record_degraded(now);
        }
        ctx.cpu_submit(ni, Token::Query(qid), demand, now, q);
    }

    /// Fail query `qid` at replica `db` (crashed replica): settle the node's
    /// counters and send an error reply upstream. The issuing shard settles
    /// its own outstanding count when the wire lands there.
    fn fail_query(
        &self,
        qid: QueryId,
        db: u16,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let ni = ctx.links[self.id].base + db as usize;
        let wire = {
            let query = ctx.queries.get_mut(qid);
            query.failed = true;
            QueryReplyWire {
                dst_qid: query.upstream_qid,
                rep: db,
                failed: true,
                t_enter_db: query.t_enter_db,
                demand: query.demand,
            }
        };
        ctx.queries.remove(qid);
        ctx.nodes[ni].departures += 1;
        ctx.nodes[ni].failed += 1;
        let up = ctx.links[self.id].up.expect("db tier has an upstream");
        q.schedule(
            now + ctx.hop(2048),
            Ev::Tier(up as u8, TierMsg::QueryReply(wire)),
        );
    }

    /// CPU done: maybe hit the disk, then reply.
    fn after_cpu(
        &self,
        qid: QueryId,
        db: u16,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        if ctx.rng_route.chance(ctx.cfg.params.disk_miss_prob) {
            let ni = ctx.links[self.id].base + db as usize;
            let disk = ctx.nodes[ni].disk.as_mut().expect("db has a disk");
            let done = disk.submit(now, SimTime::from_millis_f64(ctx.cfg.params.disk_ms));
            q.schedule(done, Ev::Tier(self.id as u8, TierMsg::DiskDone(qid, db)));
        } else {
            self.finish(qid, db, now, ctx, q);
        }
    }

    fn finish(&self, qid: QueryId, db: u16, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        let ni = ctx.links[self.id].base + db as usize;
        if !ctx.nodes[ni].up {
            // The replica crashed while this query was at the disk (CPU
            // aborts are reclaimed by the crash itself; disk completions
            // discover the crash here).
            self.fail_query(qid, db, now, ctx, q);
            return;
        }
        let (wire, trace, t_enter) = {
            let query = ctx.queries.get(qid);
            (
                QueryReplyWire {
                    dst_qid: query.upstream_qid,
                    rep: db,
                    failed: false,
                    t_enter_db: query.t_enter_db,
                    demand: query.demand,
                },
                query.trace,
                query.t_enter_db,
            )
        };
        ctx.nodes[ni].log.record(t_enter, now);
        let track = ctx.links[self.id].name;
        ctx.req_span(trace, track, ntier_trace::RESIDENCE, t_enter, now);
        let up = ctx.links[self.id].up.expect("db tier has an upstream");
        q.schedule(
            now + ctx.hop(2048),
            Ev::Tier(up as u8, TierMsg::QueryReply(wire)),
        );
        ctx.nodes[ni].departures += 1;
        ctx.queries.remove(qid);
    }
}

impl TierNode for DbNode {
    fn handle(&self, msg: TierMsg, now: SimTime, ctx: &mut Ctx, q: &mut SimQueue<'_, '_>) {
        match msg {
            TierMsg::QueryArrive(wire, db) => self.query_arrive(wire, db, now, ctx, q),
            TierMsg::DiskDone(qid, db) => self.finish(qid, db, now, ctx, q),
            other => unreachable!("db tier got {other:?}"),
        }
    }

    fn cpu_done(
        &self,
        tok: Token,
        ni: usize,
        now: SimTime,
        ctx: &mut Ctx,
        q: &mut SimQueue<'_, '_>,
    ) {
        let Token::Query(qid) = tok else {
            unreachable!("token {tok:?} on db tier")
        };
        let db = (ni - ctx.links[self.id].base) as u16;
        self.after_cpu(qid, db, now, ctx, q);
    }
}
