//! Span exporters: JSON Lines and Chrome trace-event format.

use crate::json::{obj, Json};
use crate::tracer::Span;
use std::borrow::Borrow;
use std::fmt::Write as _;

/// Export spans as JSON Lines, one span per line, in recording order.
/// Takes spans by reference (`&[Span]`) or by value (a
/// [`SpanLog`](crate::SpanLog), which decodes as it iterates).
///
/// Every field is a string or an integer microsecond count — no float
/// formatting — so a given span sequence always renders to byte-identical
/// output (the determinism contract tested at the workspace root).
pub fn to_jsonl(spans: impl IntoIterator<Item = impl Borrow<Span>>) -> String {
    let mut out = String::new();
    for s in spans {
        let s = s.borrow();
        let _ = writeln!(
            out,
            r#"{{"trace":{},"track":"{}","name":"{}","start_us":{},"end_us":{}}}"#,
            s.trace, s.track, s.name, s.start.0, s.end.0
        );
    }
    out
}

/// Export spans in Chrome trace-event JSON (load in Perfetto or
/// `chrome://tracing`). One process, one thread ("track") per tier; every
/// span is a complete (`"X"`) event, and GC pauses additionally emit an
/// instant (`"i"`) marker so they stand out on a zoomed-out timeline.
pub fn to_chrome(spans: impl IntoIterator<Item = impl Borrow<Span>>) -> String {
    let mut tracks: Vec<&'static str> = Vec::new();
    let mut events: Vec<Json> = Vec::new();

    for s in spans {
        let s = s.borrow();
        let tid = match tracks.iter().position(|t| *t == s.track) {
            Some(i) => i,
            None => {
                tracks.push(s.track);
                tracks.len() - 1
            }
        } as u64
            + 1;
        events.push(obj([
            ("name", Json::from(s.name)),
            ("cat", Json::from(s.track)),
            ("ph", Json::from("X")),
            ("ts", Json::from(s.start.0)),
            ("dur", Json::from(s.micros())),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(tid)),
            ("args", obj([("trace", Json::from(s.trace))])),
        ]));
        if s.name == crate::GC_PAUSE {
            events.push(obj([
                ("name", Json::from(crate::GC_PAUSE)),
                ("cat", Json::from(s.track)),
                ("ph", Json::from("i")),
                ("ts", Json::from(s.start.0)),
                ("s", Json::from("t")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(tid)),
            ]));
        }
    }

    // Thread-name metadata so Perfetto labels each tier's track.
    let mut meta: Vec<Json> = Vec::new();
    for (i, track) in tracks.iter().enumerate() {
        let tid = i as u64 + 1;
        meta.push(obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(tid)),
            ("args", obj([("name", Json::from(*track))])),
        ]));
        meta.push(obj([
            ("name", Json::from("thread_sort_index")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(tid)),
            ("args", obj([("sort_index", Json::from(tid))])),
        ]));
    }
    meta.extend(events);

    obj([
        ("traceEvents", Json::Arr(meta)),
        ("displayTimeUnit", Json::from("ms")),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn spans() -> Vec<Span> {
        vec![
            Span {
                trace: 1,
                track: "Apache",
                name: "accept-wait",
                start: SimTime(100),
                end: SimTime(250),
            },
            Span {
                trace: 0,
                track: "C-JDBC",
                name: crate::GC_PAUSE,
                start: SimTime(300),
                end: SimTime(900),
            },
        ]
    }

    #[test]
    fn jsonl_is_one_line_per_span_and_integer_only() {
        let out = to_jsonl(spans());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"trace":1,"track":"Apache","name":"accept-wait","start_us":100,"end_us":250}"#
        );
        assert!(
            !out.contains('.'),
            "JSONL must not contain float formatting"
        );
    }

    #[test]
    fn chrome_trace_has_tracks_durations_and_gc_instant() {
        let out = to_chrome(spans());
        assert!(out.contains(r#""traceEvents""#));
        assert!(out.contains(r#""ph":"X""#));
        assert!(out.contains(r#""dur":150"#));
        assert!(out.contains(r#""ph":"i""#), "GC instant marker missing");
        assert!(out.contains(r#""thread_name""#));
        assert!(out.contains(r#""name":"C-JDBC""#));
    }

    #[test]
    fn a_span_log_exports_like_the_same_spans_in_a_vec() {
        use crate::{SpanLog, TraceConfig, Tracer};
        let all: Vec<Span> = (0..5)
            .map(|i| Span {
                trace: i,
                ..spans()[i as usize % 2]
            })
            .collect();
        let mysql = |s: &Span| Span {
            track: "MySQL",
            ..*s
        };
        // The front ring wraps and keeps spans 1..4; the back ring keeps 4.
        let mut front = Tracer::with_capacity(TraceConfig::Full, 0, 3);
        let mut back = Tracer::with_capacity(TraceConfig::Full, 0, 3);
        all[..4].iter().for_each(|s| front.push(*s));
        all[4..].iter().for_each(|s| back.push(mysql(s)));
        let kept: Vec<Span> = all[1..4]
            .iter()
            .copied()
            .chain(all[4..].iter().map(mysql))
            .collect();
        let log: SpanLog = [front, back].into_iter().collect();
        assert_eq!(to_jsonl(&log), to_jsonl(&kept));
        assert_eq!(to_jsonl(log.iter()), to_jsonl(kept.iter()));
        assert_eq!(to_chrome(&log), to_chrome(&kept));
    }
}
