//! Tail-sampling flight recorder: bounded, deterministic exemplar retention
//! with per-window critical-path profiles.
//!
//! Head sampling ([`crate::TraceConfig`]) decides *which* requests emit
//! spans; the flight recorder decides *which completed requests are worth
//! keeping* once their latency and outcome are known — the classic
//! tail-sampling split. Per metrics window (default 100 ms, aligned with
//! `MetricsRegistry` when both are on) it retains:
//!
//! * the **K slowest** traces (latency desc, trace id asc on ties),
//! * **all failed-outcome** traces up to a cap, and
//! * a **uniform baseline** — every trace whose `splitmix64(seed, id)` hash
//!   lands in a 1-in-N residue class, so the healthy population stays
//!   visible next to the tail.
//!
//! Retention is a pure function of `(seed, trace id, latency, outcome)` —
//! no RNG stream is drawn, no event is scheduled, no span is emitted — so
//! arming the recorder cannot perturb the simulation (golden digests stay
//! bit-identical) and retention is reproducible across serial and parallel
//! plan execution.
//!
//! Every completed request (retained or not) is classified with
//! [`crate::critical::attribute`] and folded into its window's aggregate
//! critical-path profile, so the per-window CSV/JSONL exports describe the
//! whole population while exemplars carry the per-request evidence.
//!
//! **Truncation honesty:** the span ring overwrites its oldest entries when
//! full. The recorder counts the classification-relevant spans it observed
//! per retained trace ([`FlightRecorder::observes`]); at teardown
//! [`FlightRecorder::finish`] compares those counts against the same-filter
//! spans that actually survived in the ring and *drops* exemplars that were
//! partially evicted, marking the window [`FlightWindow::truncated`] instead
//! of citing a trace whose evidence can no longer be replayed.

use simcore::SimTime;

use crate::critical::{
    attribute_classified_with, classify, Attribution, AttributionScratch, Bucket, ClassifiedSpan,
    GcTimeline, TrackRoles,
};
use crate::json::{obj, Json};
use crate::tracer::{Span, TraceId, ENGINE_TRACE};
use crate::RETRY;

/// Tail-sampling configuration. `Off` costs nothing; `On` requires tracing
/// to be enabled (no spans, no evidence).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FlightConfig {
    /// No recorder is constructed.
    #[default]
    Off,
    /// Retain exemplars per window.
    On {
        /// Reservoir window width (aligned to the metrics window when
        /// windowed metrics are also enabled).
        window: SimTime,
        /// Slowest traces kept per window.
        k_slowest: u32,
        /// Failed-outcome traces kept per window (all up to this cap).
        failed_cap: u32,
        /// Uniform baseline: keep every trace whose hash ≡ 0 (mod this);
        /// 0 disables the baseline stream.
        baseline_every: u32,
    },
}

impl FlightConfig {
    /// Default window width: 100 ms, matching the metrics registry.
    pub const DEFAULT_WINDOW: SimTime = SimTime(100_000);

    /// Tail-sample the `k` slowest traces per 100 ms window, with the
    /// default failed cap (32) and 1-in-64 baseline.
    pub fn tail(k: u32) -> Self {
        FlightConfig::On {
            window: Self::DEFAULT_WINDOW,
            k_slowest: k,
            failed_cap: 32,
            baseline_every: 64,
        }
    }

    /// Whether a recorder should be constructed.
    pub fn enabled(&self) -> bool {
        !matches!(self, FlightConfig::Off)
    }

    /// Same configuration with the window overridden (metrics alignment).
    pub fn with_window(self, w: SimTime) -> Self {
        match self {
            FlightConfig::Off => FlightConfig::Off,
            FlightConfig::On {
                k_slowest,
                failed_cap,
                baseline_every,
                ..
            } => FlightConfig::On {
                window: w,
                k_slowest,
                failed_cap,
                baseline_every,
            },
        }
    }
}

/// Terminal outcome of a completed request, as handed to
/// [`FlightRecorder::complete`].
#[derive(Debug, Clone, Copy)]
pub struct CompletionOutcome {
    /// True when the outcome was a normal completion.
    pub ok: bool,
    /// Stable outcome label (`"completed"`, `"timed-out"`, …).
    pub label: &'static str,
}

/// Why an exemplar was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExemplarKind {
    /// Among the K slowest of its window.
    Slow,
    /// Terminated with a non-completed outcome.
    Failed,
    /// Uniform baseline sample.
    Baseline,
}

impl ExemplarKind {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            ExemplarKind::Slow => "slow",
            ExemplarKind::Failed => "failed",
            ExemplarKind::Baseline => "baseline",
        }
    }
}

/// One retained trace: the exemplar link from a metrics window to the span
/// ring, with its critical-path attribution.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Trace id — the join key into the span ring / JSONL export.
    pub trace: TraceId,
    /// Client-observed latency.
    pub latency: SimTime,
    /// Terminal outcome label (`"completed"`, `"timed-out"`, …).
    pub outcome: &'static str,
    /// True when the outcome was a normal completion.
    pub ok: bool,
    /// Retention reason.
    pub kind: ExemplarKind,
    /// Classification-relevant spans observed for this trace while it was
    /// live (see [`FlightRecorder::observes`]; truncation check).
    pub spans: u32,
    /// Where the latency went.
    pub attribution: Attribution,
}

/// Reservoir state for one window.
#[derive(Debug, Default)]
struct WindowState {
    /// K slowest, sorted latency desc then trace asc.
    slowest: Vec<Exemplar>,
    failed: Vec<Exemplar>,
    baseline: Vec<Exemplar>,
    profile: Attribution,
    completed: u32,
    failures: u32,
}

/// Buffered form of [`ClassifiedSpan`] with the track interned to an index
/// into [`FlightRecorder::tracks`]: 24 bytes instead of 40, so span buffers
/// pack denser on the per-span hot path and the completion sweep reads
/// fewer cache lines.
#[derive(Debug, Clone, Copy)]
struct CompactSpan {
    start: u64,
    end: u64,
    bucket: Bucket,
    depth: u8,
    track: u8,
}

/// Per-trace accumulation while the request is in flight. Spans are stored
/// pre-classified ([`classify`] runs once, at observe time), so completion
/// sweeps the resolved segments without re-dispatching on span names.
#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<CompactSpan>,
}

/// The tail-sampling flight recorder. Purely observational: it is fed spans
/// as they happen plus each request's accumulated CPU demand at its
/// terminal response, classifies the request there, and never touches the
/// simulation.
#[derive(Debug)]
pub struct FlightRecorder {
    window: u64,
    k_slowest: usize,
    failed_cap: usize,
    baseline_every: u64,
    seed: u64,
    origin: u64,
    roles: TrackRoles,
    gc: GcTimeline,
    /// Interned track names; [`CompactSpan::track`] indexes here. Tracks
    /// are tier display names, so this stays a handful of entries.
    tracks: Vec<&'static str>,
    /// `slot_of[trace] - 1` is the trace's slot in `bufs`; 0 means no
    /// buffer. The tracer issues trace ids densely from 1, so a direct
    /// index beats any hash map — `observe` runs once per span, making this
    /// lookup the recorder's hottest path. Memory is `4 bytes × max trace
    /// id`, i.e. linear in the number of requests the run ever started.
    slot_of: Vec<u32>,
    /// Slot-indexed buffers; freed slots are recycled via `free`, so the
    /// slab's length is the peak number of concurrently traced requests.
    bufs: Vec<TraceBuf>,
    free: Vec<u32>,
    /// Sweep working memory, reused across classifications.
    scratch: AttributionScratch,
    /// Demand-conversion working memory (seconds → integer microseconds).
    demand_us: Vec<(&'static str, u64)>,
    windows: Vec<WindowState>,
    completed: u64,
    /// Set once the measurement window closes: every later completion has
    /// `retain == false`, so buffering further spans or demand is waste.
    disarmed: bool,
}

impl FlightRecorder {
    /// Recorder for an armed configuration; `None` when `cfg` is `Off`.
    /// `origin` is the measurement-window start (window 0 begins there).
    pub fn new(cfg: FlightConfig, seed: u64, origin: SimTime, roles: TrackRoles) -> Option<Self> {
        let FlightConfig::On {
            window,
            k_slowest,
            failed_cap,
            baseline_every,
        } = cfg
        else {
            return None;
        };
        Some(FlightRecorder {
            window: window.as_micros().max(1),
            k_slowest: k_slowest as usize,
            failed_cap: failed_cap as usize,
            baseline_every: baseline_every as u64,
            seed,
            origin: origin.as_micros(),
            roles,
            gc: GcTimeline::new(),
            tracks: Vec::new(),
            slot_of: Vec::new(),
            bufs: Vec::new(),
            free: Vec::new(),
            scratch: AttributionScratch::default(),
            demand_us: Vec::new(),
            windows: Vec::new(),
            completed: 0,
            disarmed: false,
        })
    }

    /// Whether a span is relevant to the recorder. Only spans that can feed
    /// the critical-path sweep count; the rest (query bookkeeping,
    /// resilience markers, coarse residences) would be discarded by
    /// [`crate::critical::attribute`] anyway. Linger and retry-backoff
    /// spans are also excluded: both are emitted at or after the client
    /// response that closes the latency window (a linger span when the
    /// worker finally releases the connection, a retry span as the failed
    /// attempt schedules its reissue), hence after classification already
    /// ran. Teardown uses this same predicate to count ring-surviving spans,
    /// so [`Exemplar::spans`] and the truncation check always agree on what
    /// "a span" is — which is why it deliberately ignores
    /// [`FlightRecorder::disarm`]: the count runs after the recorder was
    /// disarmed, over spans buffered while it was armed. Only live
    /// buffering ([`FlightRecorder::observe`]) stops at disarm.
    #[inline]
    pub fn observes(&self, span: &Span) -> bool {
        self.segment(span).is_some()
    }

    /// The sweep segment a relevant span is buffered as; `None` exactly
    /// outside the [`FlightRecorder::observes`] set.
    #[inline]
    fn segment(&self, span: &Span) -> Option<ClassifiedSpan> {
        if span.trace == ENGINE_TRACE || span.name == RETRY {
            return None;
        }
        classify(span, &self.roles)
    }

    /// Resolve (or allocate) the buffer slot for a trace.
    #[inline]
    fn slot(&mut self, trace: TraceId) -> u32 {
        let i = trace as usize;
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1024, 0);
        }
        let entry = self.slot_of[i];
        if entry != 0 {
            return entry - 1;
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.bufs.push(TraceBuf::default());
                (self.bufs.len() - 1) as u32
            }
        };
        self.slot_of[i] = idx + 1;
        idx
    }

    /// Intern a track name (tracks are `&'static str` tier constants, so
    /// the pointer-equality scan hits on the first few entries).
    #[inline]
    fn track_index(&mut self, track: &'static str) -> u8 {
        let found = self.tracks.iter().position(|&t| {
            (std::ptr::eq(t.as_ptr(), track.as_ptr()) && t.len() == track.len()) || t == track
        });
        match found {
            Some(i) => i as u8,
            None => {
                debug_assert!(self.tracks.len() < u8::MAX as usize, "track table overflow");
                self.tracks.push(track);
                (self.tracks.len() - 1) as u8
            }
        }
    }

    /// Observe one request span (same feed as the tracer ring). Keeps
    /// exactly the [`FlightRecorder::observes`] set, already resolved to
    /// sweep segments.
    #[inline]
    pub fn observe(&mut self, span: Span) {
        if self.disarmed {
            return;
        }
        let Some(c) = self.segment(&span) else {
            return;
        };
        let track = self.track_index(c.track);
        let idx = self.slot(span.trace);
        self.bufs[idx as usize].spans.push(CompactSpan {
            start: c.start.as_micros(),
            end: c.end.as_micros(),
            bucket: c.bucket,
            depth: c.depth,
            track,
        });
    }

    /// Observe a stop-the-world GC pause on a track.
    pub fn observe_gc(&mut self, track: &'static str, start: SimTime, end: SimTime) {
        if self.disarmed {
            return;
        }
        self.gc.push(track, start, end);
    }

    /// Whether the recorder is still collecting (the measurement window has
    /// not closed yet).
    pub fn armed(&self) -> bool {
        !self.disarmed
    }

    /// Close the measurement window: later completions can no longer be
    /// retained, so observation, demand charging, and GC tracking stop.
    /// Classification of already-buffered traces is unaffected.
    pub fn disarm(&mut self) {
        self.disarmed = true;
    }

    /// Terminal response for a traced request: classify and run retention.
    /// `retain == false` (outside the measurement window) still frees the
    /// trace's buffer but keeps nothing. `demand_secs` is the CPU demand
    /// the request accumulated per track (run-queue carve input), handed
    /// over in one batch here — per-submit charging would put the recorder
    /// on the CPU-scheduling hot path. Duplicate tracks are merged.
    pub fn complete(
        &mut self,
        trace: TraceId,
        start: SimTime,
        end: SimTime,
        outcome: CompletionOutcome,
        retain: bool,
        demand_secs: &[(&'static str, f64)],
    ) {
        let Some(entry) = self.slot_of.get_mut(trace as usize) else {
            return;
        };
        if *entry == 0 {
            return;
        }
        let idx = *entry - 1;
        *entry = 0;
        if !retain || end.as_micros() < self.origin {
            self.recycle(idx);
            return;
        }
        self.demand_us.clear();
        for &(track, secs) in demand_secs {
            let us = SimTime::from_secs_f64(secs).as_micros();
            match self.demand_us.iter_mut().find(|(t, _)| *t == track) {
                Some((_, d)) => *d += us,
                None => self.demand_us.push((track, us)),
            }
        }
        let tracks = &self.tracks;
        let attribution = attribute_classified_with(
            &mut self.scratch,
            self.bufs[idx as usize]
                .spans
                .iter()
                .map(|c| ClassifiedSpan {
                    start: SimTime(c.start),
                    end: SimTime(c.end),
                    track: tracks[c.track as usize],
                    bucket: c.bucket,
                    depth: c.depth,
                }),
            start,
            end,
            &self.roles,
            &self.gc,
            &self.demand_us,
        );
        let span_count = self.bufs[idx as usize].spans.len() as u32;
        self.recycle(idx);
        let w = ((end.as_micros() - self.origin) / self.window) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, WindowState::default);
        }
        let ex = Exemplar {
            trace,
            latency: end.saturating_sub(start),
            outcome: outcome.label,
            ok: outcome.ok,
            kind: ExemplarKind::Baseline,
            spans: span_count,
            attribution,
        };
        self.completed += 1;
        let k_slowest = self.k_slowest;
        let failed_cap = self.failed_cap;
        let baseline = self.baseline_every > 0
            && splitmix64(self.seed ^ splitmix64(trace.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .is_multiple_of(self.baseline_every);
        let win = &mut self.windows[w];
        win.profile.merge(&ex.attribution);
        win.completed += 1;
        if !outcome.ok {
            win.failures += 1;
            if win.failed.len() < failed_cap {
                let mut e = ex.clone();
                e.kind = ExemplarKind::Failed;
                win.failed.push(e);
            }
        }
        if baseline && win.baseline.len() < failed_cap {
            win.baseline.push(ex.clone());
        }
        // Deterministic top-K: latency desc, trace id asc on ties.
        let key = (std::cmp::Reverse(ex.latency), ex.trace);
        let pos = win
            .slowest
            .partition_point(|e| (std::cmp::Reverse(e.latency), e.trace) < key);
        if pos < k_slowest {
            let mut e = ex;
            e.kind = ExemplarKind::Slow;
            win.slowest.insert(pos, e);
            win.slowest.truncate(k_slowest);
        }
    }

    /// Return a completed trace's slot to the free list (buffer capacity is
    /// kept, so steady state allocates nothing).
    fn recycle(&mut self, idx: u32) {
        self.bufs[idx as usize].spans.clear();
        self.free.push(idx);
    }

    /// Number of requests classified so far.
    pub fn classified(&self) -> u64 {
        self.completed
    }

    /// Trace ids retained so far, across every window and stream (a trace
    /// can appear in more than one stream). Lets teardown restrict the ring
    /// surviving-count to traces that can actually be cited instead of
    /// classifying every surviving span.
    pub fn retained_traces(&self) -> impl Iterator<Item = TraceId> + '_ {
        self.windows.iter().flat_map(|w| {
            w.failed
                .iter()
                .chain(&w.slowest)
                .chain(&w.baseline)
                .map(|e| e.trace)
        })
    }

    /// Finalize into a [`FlightSummary`]. `surviving` is indexed by trace
    /// id and holds the span count still present in the ring, counted under
    /// the same [`FlightRecorder::observes`] filter the recorder buffers
    /// with (ids past the end count as zero); pass `None` when the ring
    /// never overwrote (no truncation possible). Exemplars whose observed
    /// span count no longer matches are dropped and their window is marked
    /// truncated.
    pub fn finish(self, surviving: Option<&[u32]>) -> FlightSummary {
        let mut windows = Vec::with_capacity(self.windows.len());
        for (index, win) in self.windows.into_iter().enumerate() {
            let WindowState {
                slowest,
                failed,
                baseline,
                profile,
                completed,
                failures,
            } = win;
            // Merge the three streams, deduplicating by trace id with
            // precedence failed > slow > baseline.
            let mut exemplars: Vec<Exemplar> = Vec::new();
            for e in failed.into_iter().chain(slowest).chain(baseline) {
                if !exemplars.iter().any(|x| x.trace == e.trace) {
                    exemplars.push(e);
                }
            }
            let mut truncated = false;
            if let Some(counts) = surviving {
                exemplars.retain(|e| {
                    let intact = counts.get(e.trace as usize).copied().unwrap_or(0) == e.spans;
                    truncated |= !intact;
                    intact
                });
            }
            exemplars.sort_by_key(|e| (std::cmp::Reverse(e.latency), e.trace));
            windows.push(FlightWindow {
                index,
                completed,
                failures,
                profile,
                exemplars,
                truncated,
            });
        }
        FlightSummary {
            window: SimTime(self.window),
            origin: SimTime(self.origin),
            classified: self.completed,
            windows,
        }
    }
}

/// One finalized window: aggregate critical-path profile plus exemplar
/// links into the span ring.
#[derive(Debug, Clone)]
pub struct FlightWindow {
    /// Window index (aligned with `MetricsRegistry` window indices when the
    /// widths match, which is the default).
    pub index: usize,
    /// Requests classified in this window (the whole population).
    pub completed: u32,
    /// Non-completed outcomes among them.
    pub failures: u32,
    /// Aggregate attribution over every classified request of the window.
    pub profile: Attribution,
    /// Retained traces, latency-descending.
    pub exemplars: Vec<Exemplar>,
    /// True when ring overwrite partially evicted a retained trace: the
    /// remaining exemplars are intact, but the window's evidence is
    /// incomplete and links were dropped rather than left dangling.
    pub truncated: bool,
}

impl FlightWindow {
    /// Start of this window in seconds from the measurement origin.
    pub fn start_secs(&self, summary_window: SimTime) -> f64 {
        self.index as f64 * summary_window.as_secs_f64()
    }
}

/// Finalized flight-recorder output for one run.
#[derive(Debug, Clone)]
pub struct FlightSummary {
    /// Window width.
    pub window: SimTime,
    /// Measurement-window origin (window 0 starts here).
    pub origin: SimTime,
    /// Total requests classified.
    pub classified: u64,
    /// Per-window profiles + exemplars (dense, possibly empty windows).
    pub windows: Vec<FlightWindow>,
}

impl FlightSummary {
    /// Aggregate critical-path profile over the whole run.
    pub fn profile(&self) -> Attribution {
        let mut total = Attribution::default();
        for w in &self.windows {
            total.merge(&w.profile);
        }
        total
    }

    /// Total exemplars retained.
    pub fn retained(&self) -> usize {
        self.windows.iter().map(|w| w.exemplars.len()).sum()
    }

    /// Number of windows flagged truncated.
    pub fn truncated_windows(&self) -> usize {
        self.windows.iter().filter(|w| w.truncated).count()
    }

    /// The `n` slowest exemplars across all windows (latency desc, trace
    /// asc) — the run's p99-and-beyond evidence set.
    pub fn slowest(&self, n: usize) -> Vec<&Exemplar> {
        let mut all: Vec<&Exemplar> = self
            .windows
            .iter()
            .flat_map(|w| w.exemplars.iter())
            .collect();
        all.sort_by_key(|e| (std::cmp::Reverse(e.latency), e.trace));
        all.truncate(n);
        all
    }

    /// Per-window critical-path profiles in long-format CSV:
    /// `window,start_secs,completed,failures,truncated,bucket,micros,fraction`.
    pub fn to_csv(&self) -> String {
        use crate::critical::Bucket;
        let mut out =
            String::from("window,start_secs,completed,failures,truncated,bucket,micros,fraction\n");
        for w in &self.windows {
            for b in Bucket::ALL {
                out.push_str(&format!(
                    "{},{:.3},{},{},{},{},{},{:.6}\n",
                    w.index,
                    w.start_secs(self.window),
                    w.completed,
                    w.failures,
                    w.truncated,
                    b.label(),
                    w.profile.get(b),
                    w.profile.fraction(b),
                ));
            }
        }
        out
    }

    /// One JSON object per window (profiles + exemplar links), newline
    /// separated — the machine-readable exemplar index.
    pub fn to_jsonl(&self) -> String {
        use crate::critical::Bucket;
        let mut out = String::new();
        for w in &self.windows {
            let profile = Json::Obj(
                Bucket::ALL
                    .iter()
                    .map(|&b| (b.label().to_string(), Json::UInt(w.profile.get(b))))
                    .collect(),
            );
            let exemplars = Json::Arr(
                w.exemplars
                    .iter()
                    .map(|e| {
                        let (dom, _) = e.attribution.dominant();
                        obj([
                            ("trace", Json::UInt(e.trace)),
                            ("latency_us", Json::UInt(e.latency.as_micros())),
                            ("outcome", Json::Str(e.outcome.into())),
                            ("kind", Json::Str(e.kind.label().into())),
                            ("dominant", Json::Str(dom.label().into())),
                            ("dominant_fraction", Json::Num(e.attribution.fraction(dom))),
                        ])
                    })
                    .collect(),
            );
            let line = obj([
                ("window", Json::UInt(w.index as u64)),
                ("start_secs", Json::Num(w.start_secs(self.window))),
                ("completed", Json::UInt(w.completed as u64)),
                ("failures", Json::UInt(w.failures as u64)),
                ("truncated", Json::Bool(w.truncated)),
                ("profile_us", profile),
                ("exemplars", exemplars),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// SplitMix64 — the same mixer head sampling uses, duplicated privately so
/// retention stays a pure function of `(seed, trace id)`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::TrackRole;
    use crate::{ACCEPT_WAIT, CONN_WAIT, RESIDENCE, SERVICE, THREAD_WAIT, WORKER_POST, WORKER_PRE};

    fn roles() -> TrackRoles {
        let mut r = TrackRoles::new();
        r.insert("Apache", TrackRole::Web);
        r.insert("Tomcat", TrackRole::App);
        r
    }

    const COMPLETED: CompletionOutcome = CompletionOutcome {
        ok: true,
        label: "completed",
    };

    fn recorder(k: u32) -> FlightRecorder {
        FlightRecorder::new(
            FlightConfig::On {
                window: SimTime::from_millis(100),
                k_slowest: k,
                failed_cap: 4,
                baseline_every: 0,
            },
            42,
            SimTime::ZERO,
            roles(),
        )
        .expect("armed config")
    }

    fn run_one(rec: &mut FlightRecorder, trace: TraceId, start_us: u64, latency_us: u64, ok: bool) {
        let span = Span {
            trace,
            track: "Tomcat",
            name: SERVICE,
            start: SimTime(start_us),
            end: SimTime(start_us + latency_us),
        };
        rec.observe(span);
        rec.complete(
            trace,
            SimTime(start_us),
            SimTime(start_us + latency_us),
            CompletionOutcome {
                ok,
                label: if ok { "completed" } else { "failed" },
            },
            true,
            &[],
        );
    }

    #[test]
    fn off_config_builds_no_recorder() {
        assert!(FlightRecorder::new(FlightConfig::Off, 1, SimTime::ZERO, roles()).is_none());
        assert!(!FlightConfig::Off.enabled());
        assert!(FlightConfig::tail(4).enabled());
    }

    #[test]
    fn keeps_k_slowest_deterministically() {
        let mut rec = recorder(2);
        for (trace, lat) in [(1u64, 500u64), (2, 900), (3, 700), (4, 900), (5, 100)] {
            run_one(&mut rec, trace, 1000, lat, true);
        }
        let sum = rec.finish(None);
        assert_eq!(sum.windows.len(), 1);
        let w = &sum.windows[0];
        assert_eq!(w.completed, 5);
        let ids: Vec<TraceId> = w.exemplars.iter().map(|e| e.trace).collect();
        // 900 µs twice → lower trace id (2) wins the tie over 4.
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(w.exemplars[0].kind, ExemplarKind::Slow);
        assert!(!w.truncated);
    }

    #[test]
    fn failed_outcomes_are_always_kept() {
        let mut rec = recorder(1);
        run_one(&mut rec, 1, 1000, 900, true);
        run_one(&mut rec, 2, 1000, 100, false); // fast failure
        let sum = rec.finish(None);
        let w = &sum.windows[0];
        assert_eq!(w.failures, 1);
        let failed: Vec<_> = w
            .exemplars
            .iter()
            .filter(|e| e.kind == ExemplarKind::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].trace, 2);
    }

    #[test]
    fn windows_partition_by_completion_time() {
        let mut rec = recorder(4);
        run_one(&mut rec, 1, 10_000, 5_000, true); // ends 15 ms → window 0
        run_one(&mut rec, 2, 190_000, 20_000, true); // ends 210 ms → window 2
        let sum = rec.finish(None);
        assert_eq!(sum.windows.len(), 3);
        assert_eq!(sum.windows[0].completed, 1);
        assert_eq!(sum.windows[1].completed, 0);
        assert_eq!(sum.windows[2].completed, 1);
    }

    #[test]
    fn truncation_drops_evicted_exemplars_and_flags_the_window() {
        let mut rec = recorder(4);
        run_one(&mut rec, 1, 1000, 500, true);
        run_one(&mut rec, 2, 1000, 900, true);
        // Trace 1 lost a span to ring overwrite; trace 2 survived intact.
        let retained: Vec<_> = rec.retained_traces().collect();
        assert!(retained.contains(&1) && retained.contains(&2));
        let surviving = [0u32, 0, 1]; // indexed by trace id
        let sum = rec.finish(Some(&surviving));
        let w = &sum.windows[0];
        assert!(w.truncated);
        assert_eq!(w.exemplars.len(), 1);
        assert_eq!(w.exemplars[0].trace, 2);
    }

    #[test]
    fn profile_aggregates_all_completions_not_just_retained() {
        let mut rec = recorder(1);
        for t in 1..=10u64 {
            run_one(&mut rec, t, 1000, 100, true);
        }
        let sum = rec.finish(None);
        let w = &sum.windows[0];
        assert_eq!(w.exemplars.len(), 1);
        assert_eq!(w.profile.latency_micros, 1000);
        assert_eq!(sum.profile().latency_micros, 1000);
        assert_eq!(sum.classified, 10);
    }

    #[test]
    fn retention_is_reproducible() {
        let run = || {
            let mut rec = recorder(3);
            for t in 1..=50u64 {
                run_one(&mut rec, t, 1000, (t * 37) % 1000, t % 7 != 0);
            }
            rec.finish(None).to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exports_are_well_formed() {
        let mut rec = recorder(2);
        rec.observe(Span {
            trace: 1,
            track: "Apache",
            name: WORKER_PRE,
            start: SimTime(0),
            end: SimTime(300),
        });
        rec.complete(1, SimTime(0), SimTime(300), COMPLETED, true, &[]);
        let sum = rec.finish(None);
        let csv = sum.to_csv();
        assert!(csv.starts_with("window,start_secs,"));
        // header + 11 buckets for the single window
        assert_eq!(csv.lines().count(), 12);
        let jsonl = sum.to_jsonl();
        let parsed = Json::parse(jsonl.lines().next().expect("one line")).expect("valid json");
        assert_eq!(parsed.get("window").and_then(Json::as_u64), Some(0));
        assert_eq!(
            parsed
                .get("exemplars")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn disarm_stops_buffering_but_not_the_truncation_check() {
        let mut rec = recorder(4);
        run_one(&mut rec, 1, 1000, 500, true);
        rec.disarm();
        assert!(!rec.armed());
        // Spans arriving after disarm are not buffered...
        rec.observe(Span {
            trace: 2,
            track: "Tomcat",
            name: SERVICE,
            start: SimTime(0),
            end: SimTime(9),
        });
        rec.complete(2, SimTime(0), SimTime(9), COMPLETED, false, &[]);
        // ...but the relevance predicate is unchanged: the teardown
        // surviving-count runs after disarm, over spans buffered while
        // armed, and must still recognise them.
        let probe = Span {
            trace: 1,
            track: "Tomcat",
            name: SERVICE,
            start: SimTime(1000),
            end: SimTime(1500),
        };
        assert!(rec.observes(&probe));
        let surviving = [0u32, 1]; // indexed by trace id
        let sum = rec.finish(Some(&surviving));
        let w = &sum.windows[0];
        assert!(!w.truncated);
        assert_eq!(w.exemplars.len(), 1);
        assert_eq!(w.exemplars[0].trace, 1);
    }

    #[test]
    fn out_of_measurement_completions_free_buffers_silently() {
        let mut rec = recorder(2);
        rec.observe(Span {
            trace: 9,
            track: "Tomcat",
            name: SERVICE,
            start: SimTime(0),
            end: SimTime(100),
        });
        rec.complete(9, SimTime(0), SimTime(100), COMPLETED, false, &[]);
        let sum = rec.finish(None);
        assert_eq!(sum.classified, 0);
        assert!(sum.windows.is_empty());
    }

    /// A retry-backoff span is emitted as the failed attempt schedules its
    /// reissue, after that trace's `complete()` already freed its buffer.
    /// It must neither open a fresh buffer (trace ids are never reused, so
    /// nothing would ever free it) nor count toward the truncation check.
    #[test]
    fn a_span_after_completion_opens_no_buffer() {
        let mut rec = recorder(4);
        run_one(&mut rec, 1, 1000, 500, false);
        let retry = Span {
            trace: 1,
            track: "Apache",
            name: RETRY,
            start: SimTime(1500),
            end: SimTime(2500),
        };
        rec.observe(retry);
        assert_eq!(rec.slot_of[1], 0, "the completed trace reopened a slot");
        assert_eq!(rec.free.len(), rec.bufs.len(), "a buffer is still live");
        assert!(!rec.observes(&retry));
        // The ring holds both of trace 1's spans; only the service span
        // counts, as it did for the exemplar.
        let sum = rec.finish(Some(&[0, 1]));
        assert!(!sum.windows[0].truncated);
        assert_eq!(sum.windows[0].exemplars.len(), 1);
    }

    /// Shards feed the recorder as they run, so one trace's spans may
    /// arrive back tier first or front tier first, interleaved with another
    /// live trace's, and GC windows of different tracks in either order.
    /// The summary must be the same.
    #[test]
    fn summary_does_not_depend_on_delivery_order() {
        let mut roles = roles();
        roles.insert("C-JDBC", TrackRole::Mw);
        roles.insert("MySQL", TrackRole::Db);
        let span = |trace, track, name, start, end| Span {
            trace,
            track,
            name,
            start: SimTime(start),
            end: SimTime(end),
        };
        let front = [
            span(1, "Apache", ACCEPT_WAIT, 0, 10),
            span(1, "Apache", WORKER_PRE, 10, 60),
            span(1, "Tomcat", THREAD_WAIT, 60, 90),
            span(1, "Tomcat", SERVICE, 90, 200),
            span(1, "Tomcat", CONN_WAIT, 200, 260),
            span(1, "Tomcat", SERVICE, 720, 880),
            span(1, "Apache", WORKER_POST, 880, 950),
        ];
        let back = [
            span(1, "C-JDBC", RESIDENCE, 300, 700),
            span(1, "MySQL", RESIDENCE, 350, 650),
        ];
        let other = [
            span(2, "Tomcat", SERVICE, 100, 400),
            span(2, "MySQL", RESIDENCE, 420, 600),
            span(2, "Apache", WORKER_POST, 600, 640),
        ];
        let gc = [("MySQL", 400, 450), ("Tomcat", 100, 120)];
        let run = |back_first: bool| {
            let mut rec =
                FlightRecorder::new(FlightConfig::tail(4), 42, SimTime::ZERO, roles.clone())
                    .expect("armed config");
            let order: Vec<Span> = if back_first {
                back.iter().chain(&front).copied().collect()
            } else {
                front.iter().chain(&back).copied().collect()
            };
            for (i, s) in order.into_iter().enumerate() {
                rec.observe(s);
                if let Some(&o) = other.get(i) {
                    rec.observe(o);
                }
            }
            let mut pauses = gc;
            if back_first {
                pauses.reverse();
            }
            for (track, start, end) in pauses {
                rec.observe_gc(track, SimTime(start), SimTime(end));
            }
            let demand = [("Tomcat", 0.000_2), ("MySQL", 0.000_1)];
            rec.complete(1, SimTime(0), SimTime(1000), COMPLETED, true, &demand);
            let failed = CompletionOutcome {
                ok: false,
                label: "failed",
            };
            rec.complete(2, SimTime(50), SimTime(700), failed, true, &[]);
            format!("{:?}", rec.finish(None))
        };
        assert_eq!(run(true), run(false));
    }
}
