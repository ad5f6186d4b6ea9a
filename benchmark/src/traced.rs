//! The traced pass: per-layer metrics, measured from outside the program.
//!
//! The pass runs the workload bare once to warm up and once timed, then
//! once with engine profiling on and a span around every call the
//! benchmark makes into a layer. From that repetition it reads the
//! simulator's own `EngineProfile` and run statistics, and times the
//! post-run layers (trace export, metrics export, persistence, the artifact
//! store, the USL fit). It then runs the plan once on the parallel executor
//! (which must reproduce the serial digests), and finally the layer ladder:
//! one trial with one layer armed at a time, interleaved round-robin with
//! the bare trial. Spans are kept in memory and written at exit to
//! `<target>/benchmark/trace-<workload>.jsonl`, with self time per layer.

use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use ntier_lab::{digest_output, ArtifactStore, Executor, ExperimentPlan};
use ntier_report::UslFit;
use ntier_trace::json::{obj, Json};
use ntier_trace::{FlightConfig, TraceConfig};
use tiers::{output_from_json, output_to_json, MetricsConfig, RunOutput, Tier};

use crate::checks::Checks;
use crate::host;
use crate::report::PassOutput;
use crate::stats::median;
use crate::workloads::{
    parallel_executor, resilience_inert, run_rep, slo, Rep, Timer, Untimed, Workload,
};
use crate::Opts;

/// Every event label the simulator's model reports, one
/// `simcore.kind.<label>` metric each.
const EVENT_KINDS: [&str; 21] = [
    "think-done",
    "req-arrive",
    "pool-granted",
    "conn-granted",
    "req-reply",
    "linger-done",
    "query-arrive",
    "disk-done",
    "query-reply",
    "query-done",
    "response-to-client",
    "cpu-check",
    "gc-end",
    "sample",
    "begin-measure",
    "end-measure",
    "req-timeout",
    "reissue",
    "crash",
    "recover",
    "hedge-fire",
];

/// Shards the paper chains run on: web+app, middleware, database.
const SHARDS: usize = 3;

/// One recorded span.
struct Span {
    name: String,
    rep: u32,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; spans nest by call order.
struct Spans {
    origin: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            rep: self.rep,
            parent: self.stack.last().copied(),
            start: self.now(),
            end: f64::NAN,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, and any span a caught panic left open inside it;
    /// returns its duration in seconds.
    fn exit(&mut self, id: usize) -> f64 {
        let now = self.now();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end = now;
            if open == id {
                break;
            }
        }
        now - self.spans[id].start
    }

    /// Total seconds of the spans named `name` in repetition `rep`.
    fn total(&self, name: &str, rep: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Each span's duration minus the time its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Write every span, then the self time of each layer (the span-name
    /// prefix before the first `.`), as JSON lines.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_times();
        let layer = |name: &str| name.split('.').next().unwrap_or(name).to_string();
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("span", Json::UInt(i as u64)),
                ("name", Json::Str(s.name.clone())),
                ("layer", Json::Str(layer(&s.name))),
                ("rep", Json::UInt(s.rep as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("start_s", Json::Num(s.start)),
                ("end_s", Json::Num(s.end)),
                ("self_s", Json::Num(own[i])),
            ]);
            text.push_str(&line.to_compact());
            text.push('\n');
        }
        let mut layers: Vec<(String, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let l = layer(&s.name);
            match layers.iter_mut().find(|(n, _)| *n == l) {
                Some((_, t)) => *t += own,
                None => layers.push((l, *own)),
            }
        }
        for (l, t) in layers {
            text.push_str(&obj([("layer", Json::Str(l)), ("self_s", Json::Num(t))]).to_compact());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()
    }
}

impl Timer for Spans {
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }
}

/// Repetition labels of the spans.
const WARM: u32 = 0;
const BARE: u32 = 1;
const TRACED: u32 = 2;
const PARALLEL: u32 = 3;
/// Ladder round `r` is labelled `LADDER + r`.
const LADDER: u32 = 10;

/// Run the traced pass of one workload.
pub fn run(workload: Workload, opts: &Opts) -> PassOutput {
    let plan = workload.plan(opts.seed, opts.smoke);
    let executor = Executor::serial();
    let mut checks = Checks::new(workload, opts.seed, opts.smoke);
    let mut spans = Spans::new();
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut notes: Vec<(String, Json)> = Vec::new();

    spans.rep = WARM;
    let id = spans.enter("bench.warmup");
    let warm = run_rep(&plan, &executor, &mut Untimed);
    spans.exit(id);
    checks.digests("warm-up", warm.map(|r| r.digests()));

    spans.rep = BARE;
    let id = spans.enter("bench.bare");
    let bare = run_rep(&plan, &executor, &mut Untimed);
    let bare_wall = spans.exit(id);
    let bare_plan_secs = bare.as_ref().map_or(f64::NAN, |r| r.plan_secs);
    checks.digests("bare repetition", bare.map(|r| r.digests()));

    spans.rep = TRACED;
    let traced_plan = plan.clone().with_profile(true);
    let id = spans.enter("bench.traced_rep");
    let traced = run_rep(&traced_plan, &executor, &mut spans);
    let traced_wall = spans.exit(id);
    checks.digests(
        "traced repetition",
        traced.as_ref().map(Rep::digests).map_err(Clone::clone),
    );
    values.push(("bench.trace_overhead".into(), traced_wall / bare_wall));
    if let Ok(rep) = &traced {
        simcore_metrics(rep, &mut values, &mut notes);
        model_metrics(&rep.results.outputs, &mut values);
        let id = spans.enter("bench.layers");
        post_run_layers(&plan, rep, &mut spans, &mut checks);
        spans.exit(id);
        layer_metrics(rep, &spans, &mut values);
    }

    spans.rep = PARALLEL;
    let parallel = parallel_executor();
    let cpu0 = host::cpu_secs();
    let id = spans.enter("bench.parallel");
    let probe = run_rep(&plan, &parallel, &mut Untimed);
    spans.exit(id);
    let cpu = host::cpu_secs().zip(cpu0).map_or(0.0, |(b, a)| b - a);
    checks.digests(
        "parallel repetition",
        probe.as_ref().map(Rep::digests).map_err(Clone::clone),
    );
    if let Ok(rep) = &probe {
        executor_metrics(rep, &parallel, bare_plan_secs, cpu, &mut values);
    }

    ladder(workload, opts, &mut spans, &mut checks, &mut values);
    checks.conservation(workload.drain_config(opts.seed, opts.smoke));

    let path = host::out_dir().join(format!("trace-{}.jsonl", workload.name()));
    checks.op(
        "span file",
        spans
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display())),
    );
    notes.push(("span_file".into(), Json::Str(path.display().to_string())));

    let mut out = PassOutput::new(workload, true, checks);
    out.values = values;
    out.notes = notes;
    out
}

/// `simcore.*`: the engine profile, summed over the plan's points. The
/// phase shares are only published when the profile is self-consistent —
/// pop plus dispatch within 5% of wall-clock and no shard busier than
/// wall-clock — and read 0 with `simcore.profile_valid` = 0 otherwise.
fn simcore_metrics(rep: &Rep, values: &mut Vec<(String, f64)>, notes: &mut Vec<(String, Json)>) {
    let profiles: Vec<_> = rep
        .results
        .outputs
        .iter()
        .filter_map(|o| o.profile.as_ref())
        .collect();
    let sum =
        |f: &dyn Fn(&simcore::EngineProfile) -> f64| profiles.iter().map(|p| f(p)).sum::<f64>();
    let wall = sum(&|p| p.wall_secs);
    let pop = sum(&|p| p.pop_secs);
    let dispatch = sum(&|p| p.dispatch_secs);
    let sched = sum(&|p| p.sched_secs);
    let busy: Vec<f64> = (0..SHARDS)
        .map(|k| sum(&|p| p.shards.get(k).map_or(0.0, |s| s.busy_secs)))
        .collect();
    let valid = wall > 0.0 && pop + dispatch <= 1.05 * wall && busy.iter().all(|&b| b <= wall);
    let shown = |x: f64| if valid { x / wall } else { 0.0 };
    notes.push((
        "engine_profile".into(),
        obj([
            ("wall_s", Json::Num(wall)),
            ("pop_s", Json::Num(pop)),
            ("dispatch_s", Json::Num(dispatch)),
            ("sched_s", Json::Num(sched)),
            (
                "shard_busy_s",
                Json::Arr(busy.iter().map(|&b| Json::Num(b)).collect()),
            ),
        ]),
    ));
    let mut v = |name: &str, x: f64| values.push((format!("simcore.{name}"), x));
    v("events", sum(&|p| p.events_processed as f64));
    v("events_scheduled", sum(&|p| p.events_scheduled as f64));
    v(
        "queue_high_water",
        profiles
            .iter()
            .map(|p| p.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    v("rounds", sum(&|p| p.rounds as f64));
    v("pop_share", shown(pop));
    v("dispatch_share", shown(dispatch));
    v("sched_share", shown(sched));
    v("profile_valid", if valid { 1.0 } else { 0.0 });
    for (k, b) in busy.iter().enumerate() {
        v(&format!("shard{k}_busy"), shown(*b));
    }
    for kind in EVENT_KINDS {
        let n: u64 = profiles
            .iter()
            .flat_map(|p| &p.per_type)
            .filter(|(label, _)| *label == kind)
            .map(|(_, n)| n)
            .sum();
        v(&format!("kind.{kind}"), n as f64);
    }
    let unknown: Vec<Json> = profiles
        .iter()
        .flat_map(|p| &p.per_type)
        .filter(|(label, _)| !EVENT_KINDS.contains(label))
        .map(|(label, _)| Json::Str(label.to_string()))
        .collect();
    notes.push(("unlisted_event_kinds".into(), Json::Arr(unknown)));
}

/// `resources.*`, `jvm_gc.*`, `tiers.*`, `workload.*`: simulated statistics
/// of the plan's points — counts summed, utilizations averaged over points.
/// They describe the modelled system, so a change that only speeds up the
/// simulator leaves every one of them identical.
fn model_metrics(outputs: &[RunOutput], values: &mut Vec<(String, f64)>) {
    let points = outputs.len().max(1) as f64;
    let nodes = |tier: Tier| outputs.iter().flat_map(move |o| o.tier_nodes(tier));
    let waits = |tier: Tier, conns: bool| -> f64 {
        nodes(tier)
            .filter_map(|n| {
                if conns {
                    n.conn_pool.as_ref()
                } else {
                    n.thread_pool.as_ref()
                }
            })
            .map(|p| p.waits as f64)
            .sum()
    };
    // Mean over points of the mean over the tier's servers.
    let mean = |tier: Tier, f: &dyn Fn(&tiers::NodeReport) -> f64| -> f64 {
        outputs
            .iter()
            .map(|o| {
                let ns = o.tier_nodes(tier);
                ns.iter().map(|n| f(n)).sum::<f64>() / ns.len().max(1) as f64
            })
            .sum::<f64>()
            / points
    };
    let total = |f: &dyn Fn(&RunOutput) -> u64| outputs.iter().map(f).sum::<u64>() as f64;
    let mut v = |name: &str, x: f64| values.push((name.to_string(), x));
    v("resources.web.thread_waits", waits(Tier::Web, false));
    v("resources.app.thread_waits", waits(Tier::App, false));
    v("resources.app.conn_waits", waits(Tier::App, true));
    v("resources.app.cpu_util", mean(Tier::App, &|n| n.cpu_util));
    v("resources.cmw.cpu_util", mean(Tier::Cmw, &|n| n.cpu_util));
    v("resources.db.cpu_util", mean(Tier::Db, &|n| n.cpu_util));
    v("resources.db.disk_util", mean(Tier::Db, &|n| n.disk_util));
    v(
        "jvm_gc.app.gc_fraction",
        mean(Tier::App, &|n| n.gc_fraction),
    );
    v(
        "jvm_gc.cmw.gc_fraction",
        mean(Tier::Cmw, &|n| n.gc_fraction),
    );
    v(
        "jvm_gc.collections",
        outputs
            .iter()
            .flat_map(|o| &o.nodes)
            .map(|n| n.gc_collections as f64)
            .sum(),
    );
    v("tiers.completed", total(&|o| o.outcomes.completed));
    v("tiers.timed_out", total(&|o| o.outcomes.timed_out));
    v("tiers.shed", total(&|o| o.outcomes.shed));
    v("tiers.failed", total(&|o| o.outcomes.failed));
    v("tiers.hedged", total(&|o| o.outcomes.hedged));
    v("tiers.degraded", total(&|o| o.outcomes.degraded));
    v("workload.retries", total(&|o| o.outcomes.retries));
}

/// Time the post-run layers a user calls on a repetition's results, each
/// as one call over every point: plan expansion, output digests, the JSON
/// persistence round trip, the artifact store, the USL fit, the trace
/// summary and JSONL export, and the metrics CSV export. The round trips
/// must reproduce every output digest.
fn post_run_layers(plan: &ExperimentPlan, rep: &Rep, spans: &mut Spans, checks: &mut Checks) {
    let results = &rep.results;
    let outputs = &results.outputs;
    spans.time("lab.expand", || black_box(plan.expand()));
    let digests = spans.time("lab.digest", || {
        outputs.iter().map(digest_output).collect::<Vec<_>>()
    });
    let persisted = spans.time("lab.persist", || {
        outputs
            .iter()
            .map(|o| {
                let text = output_to_json(o).to_compact();
                let json = Json::parse(&text)?;
                output_from_json(&json).map(|o| digest_output(&o))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    checks.op(
        "persistence round trip",
        persisted.and_then(|got| {
            if got == digests {
                Ok(())
            } else {
                Err("a reloaded output digests differently".into())
            }
        }),
    );
    let dir = host::out_dir().join(format!("store-{}", std::process::id()));
    let stored = spans.time("lab.store", || -> Result<Vec<u64>, String> {
        let _ = fs::remove_dir_all(&dir);
        let mut store = ArtifactStore::open(&dir).map_err(|e| e.to_string())?;
        for (p, o) in results.points.iter().zip(outputs) {
            store.save(p, o).map_err(|e| e.to_string())?;
        }
        results
            .points
            .iter()
            .map(|p| {
                store
                    .load(p.digest)
                    .map(|o| digest_output(&o))
                    .map_err(|e| e.to_string())
            })
            .collect()
    });
    let _ = fs::remove_dir_all(&dir);
    checks.op(
        "artifact store round trip",
        stored.and_then(|got| {
            if got == digests {
                Ok(())
            } else {
                Err("a stored output loads back differently".into())
            }
        }),
    );
    spans.time("report.usl_fit", || {
        let curve: Vec<(f64, f64)> = results
            .variant_outputs(0)
            .iter()
            .map(|o| (o.users as f64, o.throughput))
            .collect();
        black_box(UslFit::fit(&curve))
    });
    let traces: Vec<_> = results.traces.iter().flatten().collect();
    spans.time("trace.summary", || {
        for t in &traces {
            black_box(t.summary());
        }
    });
    spans.time("trace.jsonl", || {
        for t in &traces {
            black_box(ntier_trace::export::to_jsonl(&t.spans));
        }
    });
    spans.time("metrics.csv", || {
        for m in results.metrics.iter().flatten() {
            black_box(metrics::export::to_csv(m));
        }
    });
}

/// `trace.*`, `flight.*`, `metrics.*`, `lab.*`, `report.*`: what the traced
/// repetition recorded and how long each layer call took.
fn layer_metrics(rep: &Rep, spans: &Spans, values: &mut Vec<(String, f64)>) {
    let results = &rep.results;
    let traces: Vec<_> = results.traces.iter().flatten().collect();
    let flights: Vec<_> = traces.iter().filter_map(|t| t.flight.as_deref()).collect();
    let mut v = |name: &str, x: f64| values.push((name.to_string(), x));
    let span = |name: &str| spans.total(name, TRACED);
    v(
        "trace.spans",
        traces.iter().map(|t| t.spans.len() as f64).sum(),
    );
    v(
        "trace.overwritten",
        traces.iter().map(|t| t.overwritten as f64).sum(),
    );
    v(
        "trace.admitted",
        traces.iter().map(|t| t.admitted as f64).sum(),
    );
    v("trace.summary_s", span("trace.summary"));
    v("trace.jsonl_s", span("trace.jsonl"));
    v(
        "flight.retained",
        flights.iter().map(|f| f.retained() as f64).sum(),
    );
    v(
        "flight.windows",
        flights.iter().map(|f| f.windows.len() as f64).sum(),
    );
    v(
        "flight.truncated_windows",
        flights.iter().map(|f| f.truncated_windows() as f64).sum(),
    );
    v("flight.profile_s", span("flight.profile"));
    v("metrics.diagnose_s", span("metrics.diagnose"));
    v("metrics.slo_alerts_s", span("metrics.slo_alerts"));
    v("metrics.csv_s", span("metrics.csv"));
    v("lab.points", results.points.len() as f64);
    v("lab.expand_s", span("lab.expand"));
    v("lab.digest_s", span("lab.digest"));
    v("lab.persist_s", span("lab.persist"));
    v("lab.store_s", span("lab.store"));
    v("report.usl_fit_s", span("report.usl_fit"));
}

/// `lab.executor_*`, `lab.parallel_speedup`, `lab.point_wall_max_s`,
/// `host.*`: the plan once more on the parallel executor. Its busy share is
/// the engine seconds of every point over workers × plan seconds, its
/// speed-up the serial plan seconds over the parallel ones, and the host
/// CPU seconds the whole process used while it ran.
fn executor_metrics(
    rep: &Rep,
    executor: &Executor,
    serial_plan_secs: f64,
    cpu_secs: f64,
    values: &mut Vec<(String, f64)>,
) {
    let walls: Vec<f64> = rep
        .results
        .perf
        .iter()
        .flatten()
        .map(|p| p.wall_secs)
        .collect();
    let workers = executor.threads().min(rep.results.points.len()).max(1) as f64;
    let mut v = |name: &str, x: f64| values.push((name.to_string(), x));
    v(
        "lab.executor_busy_share",
        walls.iter().sum::<f64>() / (workers * rep.plan_secs),
    );
    v("lab.parallel_speedup", serial_plan_secs / rep.plan_secs);
    v(
        "lab.point_wall_max_s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    v("host.cpu_s", cpu_secs);
    v("host.cpu_util", cpu_secs / rep.wall_secs);
}

/// `ladder.*`: the cost of each layer armed alone on the workload's ladder
/// trial, as the median armed wall-clock over the median bare wall-clock.
/// Configurations run interleaved round-robin (the start rotating each
/// round) so drift on the host hits all of them alike, for at least three
/// and at most five rounds within `--seconds`. Every armed run must
/// reproduce the bare run's digests: the observers are passive and the
/// resilience machinery never trips.
fn ladder(
    workload: Workload,
    opts: &Opts,
    spans: &mut Spans,
    checks: &mut Checks,
    values: &mut Vec<(String, f64)>,
) {
    let bare = workload.ladder_plan(opts.seed, opts.smoke);
    let configs: [(&str, ExperimentPlan); 7] = [
        ("bare", bare.clone()),
        ("profile", bare.clone().with_profile(true)),
        (
            "metrics",
            bare.clone().with_metrics(MetricsConfig::windowed_default()),
        ),
        (
            "metrics_slo",
            bare.clone()
                .with_metrics(MetricsConfig::windowed_default())
                .with_slo(slo()),
        ),
        ("trace", bare.clone().with_trace(TraceConfig::Full)),
        (
            "trace_flight",
            bare.clone()
                .with_trace(TraceConfig::Full)
                .with_flight(FlightConfig::tail(8)),
        ),
        ("resilience_inert", resilience_inert(&bare)),
    ];
    let (min_rounds, max_rounds) = if opts.smoke { (2, 2) } else { (3, 5) };
    let executor = Executor::serial();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut reference = None;
    let start = Instant::now();
    let mut round = 0;
    while round < max_rounds && (round < min_rounds || start.elapsed().as_secs_f64() < opts.seconds)
    {
        spans.rep = LADDER + round as u32;
        for k in 0..configs.len() {
            let i = (round + k) % configs.len();
            let (name, plan) = &configs[i];
            let id = spans.enter(&format!("ladder.{name}"));
            let rep = run_rep(plan, &executor, &mut Untimed);
            spans.exit(id);
            if let Ok(rep) = &rep {
                walls[i].push(rep.plan_secs);
            }
            checks.digests_against(
                &format!("ladder {name} round {round}"),
                rep.map(|r| r.digests()),
                &mut reference,
            );
        }
        round += 1;
    }
    if walls.iter().any(Vec::is_empty) {
        return;
    }
    let base = median(&walls[0]);
    for ((name, _), w) in configs.iter().zip(&walls).skip(1) {
        values.push((format!("ladder.{name}"), median(w) / base));
    }
}
