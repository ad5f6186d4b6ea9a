//! Trace configuration, span records, and the bounded span ring buffer.

use simcore::SimTime;

/// How much of the request population to trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TraceConfig {
    /// No tracing: no tracer is constructed, no per-event cost.
    #[default]
    Off,
    /// Head sampling — trace a deterministic pseudo-random fraction of
    /// requests (decided once, at request admission).
    Sampled(f64),
    /// Trace every request.
    Full,
}

impl TraceConfig {
    /// Whether any tracer should be constructed at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, TraceConfig::Off)
    }

    /// Head-sampling decision for a trace id. Deterministic in
    /// `(seed, id)` — independent of event interleaving, so sampled runs are
    /// exactly reproducible.
    pub fn admit(&self, seed: u64, id: u64) -> bool {
        match *self {
            TraceConfig::Off => false,
            TraceConfig::Full => true,
            TraceConfig::Sampled(rate) => {
                if rate <= 0.0 {
                    false
                } else if rate >= 1.0 {
                    true
                } else {
                    let h = splitmix64(seed ^ splitmix64(id.wrapping_add(1)));
                    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < rate
                }
            }
        }
    }
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifier of one traced request. Spans emitted for the queries a request
/// fans out carry the parent request's trace id, so the whole tree groups.
/// Trace id 0 is reserved for engine-level spans (GC pauses) that belong to a
/// server, not a request.
pub type TraceId = u64;

/// Engine-level spans (GC pauses, …) use this reserved trace id.
pub const ENGINE_TRACE: TraceId = 0;

/// One span segment: a half-open interval `[start, end)` of simulated time on
/// one tier's track. `track` and `name` are static strings so pushing a span
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Trace this span belongs to ([`ENGINE_TRACE`] for server-level spans).
    pub trace: TraceId,
    /// Display track, one per tier: `"Apache"`, `"Tomcat"`, `"C-JDBC"`,
    /// `"MySQL"`.
    pub track: &'static str,
    /// Segment kind, e.g. `"accept-wait"`, `"linger-close"`, `"gc-pause"`.
    pub name: &'static str,
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }

    /// Span duration in integer microseconds.
    pub fn micros(&self) -> u64 {
        self.end.0.saturating_sub(self.start.0)
    }
}

/// Default ring capacity: 1 M spans = 32 MiB packed (see [`SpanLog`]),
/// enough for a full 7 800-user trial under `TraceConfig::Full` while
/// keeping memory bounded.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A span as the ring stores it: the three integers of a [`Span`] plus
/// one-byte indexes into its segment's track and name tables, so a stored
/// span takes 32 bytes instead of the 56 of a `Span` with its two string
/// slices.
#[derive(Debug, Clone, Copy)]
struct PackedSpan {
    trace: TraceId,
    start: SimTime,
    end: SimTime,
    track: u8,
    name: u8,
}

const _: () = assert!(std::mem::size_of::<PackedSpan>() <= 32);

/// Packed spans plus the distinct track and name strings they index,
/// interned on push. Names are a closed set of constants, but tracks come
/// from the topology's tier names, so the tables belong to the segment:
/// a custom tier name decodes like a built-in one.
#[derive(Debug, Clone, Default)]
struct Segment {
    spans: Vec<PackedSpan>,
    tracks: Vec<&'static str>,
    names: Vec<&'static str>,
}

/// Iteration starts "inside" this segment, so the iterator needs no
/// `Option` for its current segment.
static EMPTY: Segment = Segment {
    spans: Vec::new(),
    tracks: Vec::new(),
    names: Vec::new(),
};

impl Segment {
    fn pack(&mut self, span: Span) -> PackedSpan {
        PackedSpan {
            trace: span.trace,
            start: span.start,
            end: span.end,
            track: intern(&mut self.tracks, span.track),
            name: intern(&mut self.names, span.name),
        }
    }

    #[inline]
    fn unpack(&self, p: &PackedSpan) -> Span {
        Span {
            trace: p.trace,
            track: self.tracks[p.track as usize],
            name: self.names[p.name as usize],
            start: p.start,
            end: p.end,
        }
    }
}

/// Index of `s` in `table`, appending it on first sight. The same constant
/// usually sits at one address, so a pointer scan settles almost every
/// lookup before any string is compared.
#[inline]
fn intern(table: &mut Vec<&'static str>, s: &'static str) -> u8 {
    let i = match table.iter().position(|t| std::ptr::eq(*t, s)) {
        Some(i) => i,
        None => match table.iter().position(|t| *t == s) {
            Some(i) => i,
            None => {
                table.push(s);
                table.len() - 1
            }
        },
    };
    u8::try_from(i).expect("a span segment interns at most 256 distinct tracks and names")
}

/// The spans a traced run kept: each shard's ring as one packed segment,
/// in shard order, each oldest-first — so iteration yields exactly the
/// rings concatenated front shard first. Spans stay packed (32 bytes
/// each) and decode as they are iterated; nothing is merged or copied.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    segments: Vec<Segment>,
}

impl SpanLog {
    /// Number of spans across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.spans.len()).sum()
    }

    /// True when no segment holds a span.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.spans.is_empty())
    }

    /// Spans in shard order, then oldest-first within each ring.
    pub fn iter(&self) -> SpanLogIter<'_> {
        SpanLogIter {
            segments: self.segments.iter(),
            segment: &EMPTY,
            spans: [].iter(),
        }
    }
}

impl<'a> IntoIterator for &'a SpanLog {
    type Item = Span;
    type IntoIter = SpanLogIter<'a>;

    fn into_iter(self) -> SpanLogIter<'a> {
        self.iter()
    }
}

impl FromIterator<Tracer> for SpanLog {
    /// One segment per tracer, in iteration order. Each ring is rotated in
    /// place to oldest-first, so no span is copied into a second buffer.
    fn from_iter<I: IntoIterator<Item = Tracer>>(tracers: I) -> Self {
        let segments = tracers
            .into_iter()
            .map(|mut t| {
                t.ring.spans.rotate_left(t.head);
                t.ring
            })
            .collect();
        SpanLog { segments }
    }
}

/// Decoding iterator over a [`SpanLog`].
#[derive(Debug, Clone)]
pub struct SpanLogIter<'a> {
    segments: std::slice::Iter<'a, Segment>,
    segment: &'a Segment,
    spans: std::slice::Iter<'a, PackedSpan>,
}

impl Iterator for SpanLogIter<'_> {
    type Item = Span;

    #[inline]
    fn next(&mut self) -> Option<Span> {
        loop {
            if let Some(p) = self.spans.next() {
                return Some(self.segment.unpack(p));
            }
            self.segment = self.segments.next()?;
            self.spans = self.segment.spans.iter();
        }
    }
}

/// Bounded span sink. When the ring is full the *oldest* spans are
/// overwritten (the tail of a run is usually what is being debugged), and the
/// overwrite count is reported so truncation is never silent.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    seed: u64,
    ring: Segment,
    capacity: usize,
    head: usize,
    overwritten: u64,
    admitted: u64,
    rejected: u64,
}

impl Tracer {
    /// Tracer with the default ring capacity.
    pub fn new(config: TraceConfig, seed: u64) -> Self {
        Self::with_capacity(config, seed, DEFAULT_CAPACITY)
    }

    /// Tracer with an explicit ring capacity (must be non-zero).
    pub fn with_capacity(config: TraceConfig, seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be non-zero");
        Tracer {
            config,
            seed,
            ring: Segment::default(),
            capacity,
            head: 0,
            overwritten: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    /// The configuration this tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Head-sampling decision for a new trace id; counts the outcome.
    pub fn admit(&mut self, id: TraceId) -> bool {
        let ok = self.config.admit(self.seed, id);
        if ok {
            self.admitted += 1;
        } else {
            self.rejected += 1;
        }
        ok
    }

    /// Record a span. O(1), allocation-free once the ring is warm.
    pub fn push(&mut self, span: Span) {
        let packed = self.ring.pack(span);
        if self.ring.spans.len() < self.capacity {
            self.ring.spans.push(packed);
        } else {
            self.ring.spans[self.head] = packed;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.ring.spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.spans.is_empty()
    }

    /// Spans lost to ring overwrite.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Traces admitted by head sampling.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Traces rejected by head sampling.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: TraceId, start: u64) -> Span {
        Span {
            trace,
            track: "Apache",
            name: "service",
            start: SimTime(start),
            end: SimTime(start + 10),
        }
    }

    #[test]
    fn off_admits_nothing_full_admits_all() {
        for id in 0..100 {
            assert!(!TraceConfig::Off.admit(1, id));
            assert!(TraceConfig::Full.admit(1, id));
        }
    }

    #[test]
    fn sampling_rate_is_roughly_respected_and_deterministic() {
        let cfg = TraceConfig::Sampled(0.25);
        let n = 20_000u64;
        let hits = (0..n).filter(|&id| cfg.admit(42, id)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
        for id in 0..100 {
            assert_eq!(cfg.admit(7, id), cfg.admit(7, id));
        }
    }

    #[test]
    fn sampling_extremes() {
        assert!(!TraceConfig::Sampled(0.0).admit(1, 5));
        assert!(TraceConfig::Sampled(1.0).admit(1, 5));
    }

    #[test]
    fn ring_keeps_most_recent_spans_in_order() {
        let names = [crate::SERVICE, crate::QUERY, crate::GC_PAUSE];
        let pushed: Vec<Span> = (0..7u64)
            .map(|i| Span {
                name: names[i as usize % names.len()],
                ..span(i, i * 100)
            })
            .collect();
        let mut t = Tracer::with_capacity(TraceConfig::Full, 0, 4);
        for s in &pushed {
            t.push(*s);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.overwritten(), 3);
        let log: SpanLog = [t].into_iter().collect();
        assert_eq!(log.len(), 4);
        assert_eq!(log.iter().collect::<Vec<_>>(), pushed[3..]);
    }

    #[test]
    fn custom_track_names_decode() {
        // A tier name that is not one of the paper's four, built at run time
        // the way a topology file would supply it.
        let custom: &'static str = Box::leak(String::from("Redis-cache").into_boxed_str());
        let mut t = Tracer::new(TraceConfig::Full, 0);
        t.push(span(1, 0));
        t.push(Span {
            track: custom,
            ..span(2, 50)
        });
        let log: SpanLog = [t].into_iter().collect();
        let got: Vec<&str> = log.iter().map(|s| s.track).collect();
        assert_eq!(got, ["Apache", "Redis-cache"]);
    }

    #[test]
    fn equal_strings_at_different_addresses_share_an_index() {
        let a: &'static str = Box::leak(String::from("Tomcat").into_boxed_str());
        let b: &'static str = Box::leak(String::from("Tomcat").into_boxed_str());
        let mut seg = Segment::default();
        let pa = seg.pack(Span {
            track: a,
            ..span(1, 0)
        });
        let pb = seg.pack(Span {
            track: b,
            ..span(2, 0)
        });
        assert_eq!(pa.track, pb.track);
        assert_eq!(seg.tracks.len(), 1);
    }

    #[test]
    fn log_iterates_segments_in_shard_order() {
        let mut front = Tracer::with_capacity(TraceConfig::Full, 0, 3);
        let mut back = Tracer::with_capacity(TraceConfig::Full, 0, 3);
        for i in 0..5u64 {
            front.push(span(i, i));
        }
        for i in 10..12u64 {
            back.push(Span {
                track: "MySQL",
                ..span(i, i)
            });
        }
        let log: SpanLog = [front, back].into_iter().collect();
        assert_eq!(log.segments.len(), 2);
        assert_eq!(log.len(), 5);
        let traces: Vec<TraceId> = (&log).into_iter().map(|s| s.trace).collect();
        assert_eq!(traces, [2, 3, 4, 10, 11]);
        assert_eq!(log.iter().last().unwrap().track, "MySQL");
    }

    #[test]
    fn empty_log() {
        let log: SpanLog = [Tracer::new(TraceConfig::Full, 0)].into_iter().collect();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert!(SpanLog::default().is_empty());
        assert_eq!(SpanLog::default().iter().next(), None);
    }

    #[test]
    fn admit_counts() {
        let mut t = Tracer::new(TraceConfig::Sampled(0.5), 9);
        for id in 0..1000 {
            t.admit(id);
        }
        assert_eq!(t.admitted() + t.rejected(), 1000);
        assert!(t.admitted() > 300 && t.admitted() < 700);
    }
}
