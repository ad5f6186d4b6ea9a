//! Causal critical-path attribution for completed requests.
//!
//! Given the spans one traced request emitted, [`attribute`] classifies every
//! microsecond of the client-observed latency window `[t_start, t_response)`
//! into a fixed taxonomy ([`Bucket`]) — tier service, pool waits, accept
//! wait, run-queue inflation, GC pauses, wire latency, and retry backoff.
//! The classification is a *partition*: the bucket totals sum to the latency
//! **exactly** (integer microseconds, no slack), which is the invariant the
//! conservation tests pin on randomized topologies.
//!
//! The algorithm is an interval sweep. Each span kind maps to a bucket with
//! a blocking *depth* (a DB residence is deeper than the connection wait
//! that precedes it, which is deeper than the enclosing app-tier service
//! slice). Span boundaries partition the latency window into elementary
//! intervals; each elementary interval is charged to the deepest active
//! span, and uncovered intervals — the message is on the network between
//! tiers — are charged to [`Bucket::Wire`]. Two refinements run after the
//! sweep without breaking the partition:
//!
//! * **GC overlay** — instants classified as service on a track whose JVM
//!   was inside a stop-the-world pause ([`GcTimeline`]) are re-charged to
//!   [`Bucket::GcPause`]. GC spans are engine-level and shared by replicas
//!   on the same track, so on multi-replica tiers this is a small
//!   over-approximation (a pause on replica 0 shades a request served by
//!   replica 1); single-replica tiers — where the paper's GC collapse
//!   lives — are exact.
//! * **Run-queue carve** — the simulator's processor-sharing CPUs stretch a
//!   service slice when the run queue is deep. When the recorder charged
//!   the request's actual CPU demand per track, the stretch
//!   `service − gc − demand` (clamped at zero) moves from the tier-service
//!   bucket to [`Bucket::RunQueue`]. On the DB tier the carve also absorbs
//!   disk waits, which is the honest reading: time the request was at the
//!   tier but not executing on a CPU.
//!
//! Lingering close happens *after* the response left for the client, so it
//! contributes zero latency; its duration is reported out-of-band in
//! [`Attribution::linger_micros`].

use crate::tracer::Span;
use crate::{
    ACCEPT_WAIT, CONN_WAIT, LINGER_CLOSE, RESIDENCE, RETRY, SERVICE, THREAD_WAIT, WORKER_POST,
    WORKER_PRE,
};
use simcore::SimTime;

/// Blocking role of a trace track (tier), used to map generic `residence`
/// spans to taxonomy buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackRole {
    /// Front tier (Apache): accept queue, worker pre/post, linger.
    Web,
    /// Application tier (Tomcat): thread pool, service slices, query fan-out.
    App,
    /// Middleware tier (C-JDBC): query routing/merge residence.
    Mw,
    /// Database tier (MySQL): query execution residence.
    Db,
}

/// The attribution taxonomy: every microsecond of client-observed latency
/// lands in exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Apache worker CPU before/after the backend interaction.
    WebService,
    /// Tomcat in-thread service (slices, query-result holds).
    AppService,
    /// C-JDBC residence (routing, merge, result marshalling).
    MwService,
    /// MySQL residence (query execution).
    DbService,
    /// Waiting for a Tomcat servlet thread.
    ThreadPoolWait,
    /// Waiting for a Tomcat→C-JDBC connection (the paper's critical soft
    /// resource).
    ConnPoolWait,
    /// Waiting in Apache's accept queue for a worker.
    AcceptWait,
    /// Service-slice inflation from CPU run-queue sharing (and DB disk).
    RunQueue,
    /// Stop-the-world JVM GC pause overlapping a service interval.
    GcPause,
    /// Network hops between client and tiers (uncovered intervals).
    Wire,
    /// Client retry backoff windows between attempts (retry/hedge overhead).
    RetryBackoff,
}

impl Bucket {
    /// Number of buckets in the taxonomy.
    pub const COUNT: usize = 11;

    /// Every bucket, in canonical (index) order.
    pub const ALL: [Bucket; Bucket::COUNT] = [
        Bucket::WebService,
        Bucket::AppService,
        Bucket::MwService,
        Bucket::DbService,
        Bucket::ThreadPoolWait,
        Bucket::ConnPoolWait,
        Bucket::AcceptWait,
        Bucket::RunQueue,
        Bucket::GcPause,
        Bucket::Wire,
        Bucket::RetryBackoff,
    ];

    /// Canonical array index of this bucket.
    pub fn index(self) -> usize {
        match self {
            Bucket::WebService => 0,
            Bucket::AppService => 1,
            Bucket::MwService => 2,
            Bucket::DbService => 3,
            Bucket::ThreadPoolWait => 4,
            Bucket::ConnPoolWait => 5,
            Bucket::AcceptWait => 6,
            Bucket::RunQueue => 7,
            Bucket::GcPause => 8,
            Bucket::Wire => 9,
            Bucket::RetryBackoff => 10,
        }
    }

    /// Stable kebab-case label (CSV/JSONL column, flamegraph frame).
    pub fn label(self) -> &'static str {
        match self {
            Bucket::WebService => "web-service",
            Bucket::AppService => "app-service",
            Bucket::MwService => "mw-service",
            Bucket::DbService => "db-service",
            Bucket::ThreadPoolWait => "thread-pool-wait",
            Bucket::ConnPoolWait => "conn-pool-wait",
            Bucket::AcceptWait => "accept-wait",
            Bucket::RunQueue => "run-queue",
            Bucket::GcPause => "gc-pause",
            Bucket::Wire => "wire",
            Bucket::RetryBackoff => "retry-backoff",
        }
    }

    /// Flamegraph stack-frame group: service vs wait vs overhead.
    pub fn group(self) -> &'static str {
        match self {
            Bucket::WebService | Bucket::AppService | Bucket::MwService | Bucket::DbService => {
                "service"
            }
            Bucket::ThreadPoolWait | Bucket::ConnPoolWait | Bucket::AcceptWait => "pool-wait",
            Bucket::RunQueue | Bucket::GcPause => "contention",
            Bucket::Wire | Bucket::RetryBackoff => "overhead",
        }
    }

    /// True for the tier-service buckets subject to GC/run-queue carving.
    fn is_service(self) -> bool {
        matches!(
            self,
            Bucket::WebService | Bucket::AppService | Bucket::MwService | Bucket::DbService
        )
    }

    /// The service bucket a track of this role contributes to.
    fn service_of(role: TrackRole) -> Bucket {
        match role {
            TrackRole::Web => Bucket::WebService,
            TrackRole::App => Bucket::AppService,
            TrackRole::Mw => Bucket::MwService,
            TrackRole::Db => Bucket::DbService,
        }
    }
}

/// Map from trace track names to blocking roles, built once per run from the
/// topology (track names are tier display names, shared by replicas).
#[derive(Debug, Clone, Default)]
pub struct TrackRoles {
    entries: Vec<(&'static str, TrackRole)>,
}

impl TrackRoles {
    /// Empty map (every `residence` span is left to the sweep's defaults).
    pub fn new() -> Self {
        TrackRoles::default()
    }

    /// Register a track. Later registrations win on duplicate names.
    pub fn insert(&mut self, track: &'static str, role: TrackRole) {
        self.entries.retain(|(t, _)| *t != track);
        self.entries.push((track, role));
    }

    /// Role of a track, if registered. Track names are `&'static str`
    /// constants shared by every span of a tier, so pointer-and-length
    /// equality short-circuits the byte compare on the hot lookup path
    /// (same pointer and length imply same contents; a content-equal copy
    /// at a different address still matches through the slow compare).
    pub fn role(&self, track: &str) -> Option<TrackRole> {
        self.entries
            .iter()
            .find(|(t, _)| {
                (std::ptr::eq(t.as_ptr(), track.as_ptr()) && t.len() == track.len()) || *t == track
            })
            .map(|&(_, r)| r)
    }
}

/// Per-track union of stop-the-world GC pause intervals, fed in event order.
#[derive(Debug, Clone, Default)]
pub struct GcTimeline {
    tracks: Vec<(&'static str, Vec<(u64, u64)>)>,
}

impl GcTimeline {
    /// Empty timeline.
    pub fn new() -> Self {
        GcTimeline::default()
    }

    /// Record a pause `[start, end)` on `track`. Pushes arrive in
    /// nondecreasing start order (simulation event time), so the per-track
    /// list stays a sorted disjoint union: an overlapping push (a replica
    /// pausing while a sibling still is) merges into the previous interval.
    pub fn push(&mut self, track: &'static str, start: SimTime, end: SimTime) {
        let (s, e) = (start.as_micros(), end.as_micros());
        if e <= s {
            return;
        }
        let list = match self.tracks.iter_mut().find(|(t, _)| *t == track) {
            Some((_, list)) => list,
            None => {
                self.tracks.push((track, Vec::new()));
                &mut self.tracks.last_mut().expect("just pushed").1
            }
        };
        match list.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => list.push((s, e)),
        }
    }

    /// Total overlap of the union with `[a, b)` on `track`, in microseconds.
    pub fn overlap(&self, track: &str, a: u64, b: u64) -> u64 {
        let Some((_, list)) = self.tracks.iter().find(|(t, _)| *t == track) else {
            return 0;
        };
        // First interval that could intersect: the union is sorted and
        // disjoint, so binary search by end.
        let mut i = list.partition_point(|&(_, e)| e <= a);
        let mut total = 0;
        while let Some(&(s, e)) = list.get(i) {
            if s >= b {
                break;
            }
            total += e.min(b) - s.max(a);
            i += 1;
        }
        total
    }

    /// Number of distinct pause intervals recorded (after merging).
    pub fn len(&self) -> usize {
        self.tracks.iter().map(|(_, l)| l.len()).sum()
    }

    /// True when no pause was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where one request's latency went: a partition of `[t_start, t_response)`
/// into taxonomy buckets, in integer microseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Microseconds per bucket, indexed by [`Bucket::index`]. Sums to
    /// `latency_micros` exactly.
    pub micros: [u64; Bucket::COUNT],
    /// Client-observed latency of the request(s) attributed here.
    pub latency_micros: u64,
    /// Post-response lingering-close time (front worker held after the
    /// client already has its answer) — *not* part of the latency partition.
    pub linger_micros: u64,
}

impl Attribution {
    /// Microseconds in one bucket.
    pub fn get(&self, b: Bucket) -> u64 {
        self.micros[b.index()]
    }

    /// Seconds in one bucket.
    pub fn secs(&self, b: Bucket) -> f64 {
        self.get(b) as f64 / 1e6
    }

    /// Sum over all buckets — equals `latency_micros` by construction.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().sum()
    }

    /// Fraction of latency in one bucket (0 when latency is zero).
    pub fn fraction(&self, b: Bucket) -> f64 {
        if self.latency_micros == 0 {
            0.0
        } else {
            self.get(b) as f64 / self.latency_micros as f64
        }
    }

    /// The bucket holding the most time (ties break on canonical order),
    /// with its microsecond total.
    pub fn dominant(&self) -> (Bucket, u64) {
        let mut best = (Bucket::ALL[0], self.micros[0]);
        for b in Bucket::ALL {
            if self.micros[b.index()] > best.1 {
                best = (b, self.micros[b.index()]);
            }
        }
        best
    }

    /// Fold another attribution into this one (per-window profiles).
    pub fn merge(&mut self, other: &Attribution) {
        for i in 0..Bucket::COUNT {
            self.micros[i] += other.micros[i];
        }
        self.latency_micros += other.latency_micros;
        self.linger_micros += other.linger_micros;
    }
}

/// One mapped span interval awaiting the sweep.
#[derive(Debug)]
struct Seg {
    s: u64,
    e: u64,
    depth: u8,
    bucket: Bucket,
    track: &'static str,
}

/// Reusable scratch for repeated [`attribute_with`] calls: the flight
/// recorder classifies every completed request, so the sweep's working
/// vectors are worth keeping warm instead of reallocating per request.
#[derive(Debug, Default)]
pub struct AttributionScratch {
    segs: Vec<Seg>,
    bounds: Vec<u64>,
    active: Vec<u32>,
    track_service: Vec<(&'static str, u64)>,
}

impl AttributionScratch {
    /// Clamp one resolved span to the latency window `[s0, e0)` and stage
    /// it for the sweep.
    #[inline]
    fn push_seg(&mut self, s0: u64, e0: u64, sp: ClassifiedSpan) {
        let (s, e) = (sp.start.as_micros().max(s0), sp.end.as_micros().min(e0));
        if e > s {
            self.bounds.push(s);
            self.bounds.push(e);
            self.segs.push(Seg {
                s,
                e,
                depth: sp.depth,
                bucket: sp.bucket,
                track: sp.track,
            });
        }
    }
}

/// One span already resolved to its sweep role: bucket, blocking depth, and
/// the track the GC / run-queue refinements key on. The flight recorder
/// buffers these instead of full [`Span`]s — classification runs once when
/// the span is observed, and the buffered form drops the fields the sweep
/// never reads (trace id, name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifiedSpan {
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Track (tier) the span ran on.
    pub track: &'static str,
    /// Taxonomy bucket the span charges.
    pub bucket: Bucket,
    /// Blocking depth; deeper segments win overlapping instants.
    pub depth: u8,
}

/// One span's role in the sweep.
enum SpanClass {
    /// TCP linger window — accounted out-of-band, never on the sweep line.
    Linger,
    /// A sweep segment: bucket plus blocking depth.
    Seg(Bucket, u8),
}

/// Blocking depth per span kind: deeper spans win overlapping instants.
/// A DB residence (9) outranks the conn wait (8) that enqueued behind it,
/// which outranks the thread wait / accept wait (7) upstream, the C-JDBC
/// residence (5), the app service slice (4), the Apache worker segments (3),
/// and a retry backoff window (2).
///
/// Every span funnels through here (once in `observe`, once in the sweep),
/// and the emitted names form a closed set whose (length, first byte)
/// signatures are unique — so dispatch is two loads and a jump instead of a
/// chain of string compares. Debug builds verify each signature against the
/// full name.
fn classify_span(span: &Span, roles: &TrackRoles) -> Option<SpanClass> {
    let bytes = span.name.as_bytes();
    let &first = bytes.first()?;
    let check = |expect: &str| {
        debug_assert_eq!(span.name, expect, "span-name signature collision");
    };
    match (bytes.len(), first) {
        (9, b'c') => {
            check(CONN_WAIT);
            Some(SpanClass::Seg(Bucket::ConnPoolWait, 8))
        }
        (11, b't') => {
            check(THREAD_WAIT);
            Some(SpanClass::Seg(Bucket::ThreadPoolWait, 7))
        }
        (11, b'a') => {
            check(ACCEPT_WAIT);
            Some(SpanClass::Seg(Bucket::AcceptWait, 7))
        }
        (7, b's') => {
            check(SERVICE);
            Some(SpanClass::Seg(Bucket::AppService, 4))
        }
        (10, b'w') | (11, b'w') => {
            check(if bytes.len() == 10 {
                WORKER_PRE
            } else {
                WORKER_POST
            });
            Some(SpanClass::Seg(Bucket::WebService, 3))
        }
        (5, b'r') => {
            check(RETRY);
            Some(SpanClass::Seg(Bucket::RetryBackoff, 2))
        }
        (12, b'l') => {
            check(LINGER_CLOSE);
            Some(SpanClass::Linger)
        }
        (9, b'r') => {
            check(RESIDENCE);
            match roles.role(span.track) {
                Some(TrackRole::Db) => Some(SpanClass::Seg(Bucket::DbService, 9)),
                Some(TrackRole::Mw) => Some(SpanClass::Seg(Bucket::MwService, 5)),
                // Web/App residences are tiled by finer spans; unknown
                // tracks conservatively count as middleware-depth service.
                Some(TrackRole::Web) | Some(TrackRole::App) => None,
                None => Some(SpanClass::Seg(Bucket::MwService, 5)),
            }
        }
        _ => None,
    }
}

/// Resolve a span to its pre-classified sweep form, or `None` when the
/// sweep would never charge it: query bookkeeping, resilience markers and
/// web/app residences already tiled by finer spans are ignored by the
/// sweep, and linger spans carry no latency (only the full [`attribute`]
/// path accounts them, out-of-band past the end of the latency window). So
/// callers buffering spans for later classification (the flight recorder)
/// need not keep any of them.
#[inline]
pub fn classify(span: &Span, roles: &TrackRoles) -> Option<ClassifiedSpan> {
    match classify_span(span, roles)? {
        SpanClass::Linger => None,
        SpanClass::Seg(bucket, depth) => Some(ClassifiedSpan {
            start: span.start,
            end: span.end,
            track: span.track,
            bucket,
            depth,
        }),
    }
}

/// Classify one request's latency window. `spans` are the request's own
/// spans (any order, duplicates from hedged legs allowed); `demand` is the
/// CPU demand charged per track for this trace, in microseconds (empty when
/// demand charging is off — the run-queue carve is then skipped).
///
/// Returns a partition of `[start, end)`: `total_micros() == latency_micros`
/// exactly, for any span set.
pub fn attribute(
    spans: &[Span],
    start: SimTime,
    end: SimTime,
    roles: &TrackRoles,
    gc: &GcTimeline,
    demand: &[(&'static str, u64)],
) -> Attribution {
    attribute_with(
        &mut AttributionScratch::default(),
        spans,
        start,
        end,
        roles,
        gc,
        demand,
    )
}

/// [`attribute`] with caller-owned scratch buffers (see
/// [`AttributionScratch`]); identical results, no per-call allocation once
/// the scratch has warmed up.
pub fn attribute_with(
    scratch: &mut AttributionScratch,
    spans: &[Span],
    start: SimTime,
    end: SimTime,
    roles: &TrackRoles,
    gc: &GcTimeline,
    demand: &[(&'static str, u64)],
) -> Attribution {
    let (s0, e0) = (start.as_micros(), end.as_micros());
    let mut out = Attribution::default();
    if e0 > s0 {
        out.latency_micros = e0 - s0;
    }

    // Map spans to sweep segments, clamped to the latency window.
    scratch.segs.clear();
    scratch.bounds.clear();
    for sp in spans {
        match classify_span(sp, roles) {
            Some(SpanClass::Linger) => out.linger_micros += sp.micros(),
            Some(SpanClass::Seg(bucket, depth)) => scratch.push_seg(
                s0,
                e0,
                ClassifiedSpan {
                    start: sp.start,
                    end: sp.end,
                    track: sp.track,
                    bucket,
                    depth,
                },
            ),
            None => {}
        }
    }
    sweep(scratch, out, s0, e0, roles, gc, demand)
}

/// [`attribute_with`] over spans already resolved by [`classify`] — the
/// flight recorder's completion path. Skips every per-span string dispatch
/// and role lookup; results are identical to feeding the original spans
/// through [`attribute`] (minus `linger_micros`, since linger spans are not
/// classifiable and never reach a pre-classified buffer).
pub fn attribute_classified_with(
    scratch: &mut AttributionScratch,
    spans: impl IntoIterator<Item = ClassifiedSpan>,
    start: SimTime,
    end: SimTime,
    roles: &TrackRoles,
    gc: &GcTimeline,
    demand: &[(&'static str, u64)],
) -> Attribution {
    let (s0, e0) = (start.as_micros(), end.as_micros());
    let mut out = Attribution::default();
    if e0 > s0 {
        out.latency_micros = e0 - s0;
    }
    scratch.segs.clear();
    scratch.bounds.clear();
    for sp in spans {
        scratch.push_seg(s0, e0, sp);
    }
    sweep(scratch, out, s0, e0, roles, gc, demand)
}

/// Shared sweep over the staged segments in `scratch`: charge every
/// elementary interval, apply the GC overlay and the run-queue carve, and
/// return the completed partition.
fn sweep(
    scratch: &mut AttributionScratch,
    mut out: Attribution,
    s0: u64,
    e0: u64,
    roles: &TrackRoles,
    gc: &GcTimeline,
    demand: &[(&'static str, u64)],
) -> Attribution {
    if out.latency_micros == 0 {
        return out;
    }
    let segs = &mut scratch.segs;
    let bounds = &mut scratch.bounds;
    bounds.push(s0);
    bounds.push(e0);
    bounds.sort_unstable();
    bounds.dedup();

    // Per-track net service time (post-GC), for the run-queue carve.
    let track_service = &mut scratch.track_service;
    track_service.clear();

    // Sweep the elementary intervals: each is fully covered or fully missed
    // by every segment (all edges are bounds). Segments are sorted by start
    // and enter/leave a small active set as the sweep line advances, so the
    // cost per interval is the nesting depth, not the span count; the
    // deepest active segment wins the interval.
    segs.sort_unstable_by_key(|seg| seg.s);
    let active = &mut scratch.active;
    active.clear();
    let mut next = 0usize;
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a < s0 || b > e0 {
            continue;
        }
        while next < segs.len() && segs[next].s <= a {
            if segs[next].e > a {
                active.push(next as u32);
            }
            next += 1;
        }
        // All edges are bounds, so a live segment covers [a, b) exactly
        // when it extends to b or beyond: drop the expired ones and find
        // the deepest survivor in the same pass.
        let mut deepest: Option<&Seg> = None;
        let mut live = 0;
        for j in 0..active.len() {
            let i = active[j];
            let seg = &segs[i as usize];
            if seg.e < b {
                continue;
            }
            active[live] = i;
            live += 1;
            let deeper = match deepest {
                None => true,
                Some(cur) => (seg.depth, seg.bucket.index()) > (cur.depth, cur.bucket.index()),
            };
            if deeper {
                deepest = Some(seg);
            }
        }
        active.truncate(live);
        let len = b - a;
        match deepest {
            None => out.micros[Bucket::Wire.index()] += len,
            Some(seg) if seg.bucket.is_service() => {
                let paused = gc.overlap(seg.track, a, b);
                out.micros[Bucket::GcPause.index()] += paused;
                out.micros[seg.bucket.index()] += len - paused;
                match track_service.iter_mut().find(|(t, _)| *t == seg.track) {
                    Some((_, n)) => *n += len - paused,
                    None => track_service.push((seg.track, len - paused)),
                }
            }
            Some(seg) => out.micros[seg.bucket.index()] += len,
        }
    }

    // Run-queue carve: the part of a track's net service time exceeding the
    // CPU demand actually charged there is queueing inflation, not work.
    for &(track, d) in demand {
        let Some(&(_, s)) = track_service.iter().find(|(t, _)| *t == track) else {
            continue;
        };
        let Some(role) = roles.role(track) else {
            continue;
        };
        let bucket = Bucket::service_of(role);
        let rq = s.saturating_sub(d).min(out.micros[bucket.index()]);
        out.micros[bucket.index()] -= rq;
        out.micros[Bucket::RunQueue.index()] += rq;
    }

    debug_assert_eq!(out.total_micros(), out.latency_micros);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOMCAT_INTERACT;

    fn span(track: &'static str, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            trace: 1,
            track,
            name,
            start: SimTime(s),
            end: SimTime(e),
        }
    }

    fn paper_roles() -> TrackRoles {
        let mut r = TrackRoles::new();
        r.insert("Apache", TrackRole::Web);
        r.insert("Tomcat", TrackRole::App);
        r.insert("C-JDBC", TrackRole::Mw);
        r.insert("MySQL", TrackRole::Db);
        r
    }

    #[test]
    fn empty_trace_is_all_wire() {
        let a = attribute(
            &[],
            SimTime(100),
            SimTime(600),
            &paper_roles(),
            &GcTimeline::new(),
            &[],
        );
        assert_eq!(a.latency_micros, 500);
        assert_eq!(a.get(Bucket::Wire), 500);
        assert_eq!(a.total_micros(), 500);
    }

    #[test]
    fn nested_spans_charge_the_deepest() {
        // Apache [0,100): accept 0-10, pre 10-20, interact 20-90, post 90-100.
        // Tomcat service 25-85 inside the interact; conn wait 30-40 and
        // MySQL residence 45-70 inside the service.
        let spans = [
            span("Apache", ACCEPT_WAIT, 0, 10),
            span("Apache", WORKER_PRE, 10, 20),
            span("Apache", TOMCAT_INTERACT, 20, 90),
            span("Apache", WORKER_POST, 90, 100),
            span("Tomcat", SERVICE, 25, 85),
            span("Tomcat", CONN_WAIT, 30, 40),
            span("MySQL", RESIDENCE, 45, 75),
        ];
        let a = attribute(
            &spans,
            SimTime(0),
            SimTime(100),
            &paper_roles(),
            &GcTimeline::new(),
            &[],
        );
        assert_eq!(a.get(Bucket::AcceptWait), 10);
        assert_eq!(a.get(Bucket::WebService), 20);
        assert_eq!(a.get(Bucket::ConnPoolWait), 10);
        assert_eq!(a.get(Bucket::DbService), 30);
        assert_eq!(a.get(Bucket::AppService), 20); // 25-30, 40-45, 75-85
        assert_eq!(a.get(Bucket::Wire), 10); // 20-25 and 85-90
        assert_eq!(a.total_micros(), a.latency_micros);
        assert_eq!(a.dominant().0, Bucket::DbService);
    }

    #[test]
    fn gc_overlay_recharges_service_time() {
        let spans = [span("Tomcat", SERVICE, 0, 100)];
        let mut gc = GcTimeline::new();
        gc.push("Tomcat", SimTime(20), SimTime(50));
        gc.push("MySQL", SimTime(0), SimTime(100)); // other track: ignored
        let a = attribute(&spans, SimTime(0), SimTime(100), &paper_roles(), &gc, &[]);
        assert_eq!(a.get(Bucket::GcPause), 30);
        assert_eq!(a.get(Bucket::AppService), 70);
        assert_eq!(a.total_micros(), 100);
    }

    #[test]
    fn run_queue_carve_respects_demand() {
        let spans = [span("Tomcat", SERVICE, 0, 100)];
        let a = attribute(
            &spans,
            SimTime(0),
            SimTime(100),
            &paper_roles(),
            &GcTimeline::new(),
            &[("Tomcat", 60)],
        );
        assert_eq!(a.get(Bucket::AppService), 60);
        assert_eq!(a.get(Bucket::RunQueue), 40);
        assert_eq!(a.total_micros(), 100);
    }

    #[test]
    fn linger_is_excluded_from_latency() {
        let spans = [
            span("Apache", WORKER_POST, 0, 100),
            span("Apache", LINGER_CLOSE, 100, 400),
        ];
        let a = attribute(
            &spans,
            SimTime(0),
            SimTime(100),
            &paper_roles(),
            &GcTimeline::new(),
            &[],
        );
        assert_eq!(a.latency_micros, 100);
        assert_eq!(a.linger_micros, 300);
        assert_eq!(a.get(Bucket::WebService), 100);
    }

    #[test]
    fn spans_clamp_to_the_latency_window() {
        // A hedge leg still in service when the winning response returned.
        let spans = [span("Tomcat", SERVICE, 50, 500)];
        let a = attribute(
            &spans,
            SimTime(0),
            SimTime(100),
            &paper_roles(),
            &GcTimeline::new(),
            &[],
        );
        assert_eq!(a.get(Bucket::AppService), 50);
        assert_eq!(a.get(Bucket::Wire), 50);
        assert_eq!(a.total_micros(), 100);
    }

    #[test]
    fn gc_timeline_merges_overlapping_replica_pauses() {
        let mut gc = GcTimeline::new();
        gc.push("Tomcat", SimTime(10), SimTime(30));
        gc.push("Tomcat", SimTime(20), SimTime(40)); // sibling replica
        gc.push("Tomcat", SimTime(60), SimTime(70));
        assert_eq!(gc.len(), 2);
        assert_eq!(gc.overlap("Tomcat", 0, 100), 40);
        assert_eq!(gc.overlap("Tomcat", 35, 65), 10);
        assert_eq!(gc.overlap("C-JDBC", 0, 100), 0);
    }

    #[test]
    fn preclassified_path_matches_full_attribution() {
        let spans = [
            span("Apache", ACCEPT_WAIT, 0, 30),
            span("Apache", WORKER_PRE, 30, 60),
            span("Tomcat", THREAD_WAIT, 60, 120),
            span("Tomcat", SERVICE, 120, 900),
            span("Tomcat", CONN_WAIT, 200, 600),
            span("C-JDBC", RESIDENCE, 250, 550),
            span("MySQL", RESIDENCE, 300, 500),
            span("Apache", WORKER_POST, 900, 950),
            span("Apache", TOMCAT_INTERACT, 60, 900), // not classifiable
        ];
        let roles = paper_roles();
        let mut gc = GcTimeline::new();
        gc.push("MySQL", SimTime(350), SimTime(420));
        let demand = [("Tomcat", 100u64)];
        let classified: Vec<ClassifiedSpan> =
            spans.iter().filter_map(|s| classify(s, &roles)).collect();
        assert_eq!(classified.len(), 8);
        let full = attribute(&spans, SimTime(0), SimTime(950), &roles, &gc, &demand);
        let pre = attribute_classified_with(
            &mut AttributionScratch::default(),
            classified.iter().copied(),
            SimTime(0),
            SimTime(950),
            &roles,
            &gc,
            &demand,
        );
        assert_eq!(full, pre);
    }

    #[test]
    fn conservation_holds_on_arbitrary_overlaps() {
        // Adversarial: overlapping, duplicated, out-of-window spans.
        let spans = [
            span("Tomcat", SERVICE, 0, 1000),
            span("Tomcat", SERVICE, 100, 900),
            span("Tomcat", THREAD_WAIT, 0, 50),
            span("Tomcat", CONN_WAIT, 200, 600),
            span("C-JDBC", RESIDENCE, 250, 550),
            span("MySQL", RESIDENCE, 300, 500),
            span("Apache", ACCEPT_WAIT, 0, 30),
            span("Apache", RETRY, 950, 2000),
        ];
        let mut gc = GcTimeline::new();
        gc.push("MySQL", SimTime(350), SimTime(420));
        let a = attribute(
            &spans,
            SimTime(10),
            SimTime(990),
            &paper_roles(),
            &gc,
            &[("Tomcat", 100)],
        );
        assert_eq!(a.total_micros(), a.latency_micros);
        assert_eq!(a.latency_micros, 980);
    }
}
