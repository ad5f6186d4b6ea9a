//! Trial runners: seed the engine, run to `trial_end`, and tear down into
//! the run summary plus whatever optional instrumentation was enabled.
//! [`run_system_full`] is public so callers that want the output, the
//! trace, *and* the windowed metrics of one trial (the experiment-plan
//! engine in `ntier-lab`) can get all three from a single run.

use super::*;
use ntier_trace::{FlightSummary, SpanLog};
use simcore::{EngineProfile, ShardedEngine};

/// Everything a traced run captures beyond the aggregate [`RunOutput`]:
/// the span stream, sampling/ring counters, and engine telemetry.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Span stream: each shard's ring, kept packed as one segment, in shard
    /// order (front shard first), then oldest surviving span first within
    /// each ring. Empty when tracing was off.
    pub spans: SpanLog,
    /// Requests admitted by head sampling.
    pub admitted: u64,
    /// Requests rejected by head sampling.
    pub rejected: u64,
    /// Spans lost to ring-buffer overwrite (0 ⇒ the stream is complete).
    pub overwritten: u64,
    /// Engine profile: event totals, queue high-water and wall-clock rate
    /// always; per-kind counts when tracing or profiling was on. The phase
    /// seconds stay 0 unless [`SystemConfig::profile`] was set.
    pub engine: EngineProfile,
    /// Measurement window `[start, end)` the aggregates were taken over.
    pub window: (SimTime, SimTime),
    /// Tail-sampled critical-path summary, present when
    /// [`SystemConfig::flight`] and tracing were both enabled. Windows whose
    /// exemplars lost spans to ring overwrite are marked truncated.
    pub flight: Option<Box<FlightSummary>>,
}

impl RunTrace {
    /// Per-tier summary (Table I view) over the measurement window.
    pub fn summary(&self) -> ntier_trace::TraceSummary {
        ntier_trace::summarize(&self.spans, self.window.0, self.window.1)
    }
}

/// Seed the initial event population: session starts across the ramp, the
/// measurement-window markers, and — only for tiers with scheduled crash
/// windows — the crash/recovery events. The healthy prefix is scheduled in
/// exactly the order the runners always used, and a faults-free topology
/// appends nothing, so healthy runs stay bit-identical.
///
/// Session arrivals go through the queue's **staged lane**
/// ([`ShardedEngine::stage`]): they draw the same RNG stream and claim the
/// same keys as direct pushes (so pop order is bit-identical), but sit in a
/// flat sorted array the calendar merges from lazily — a 1M-session run
/// starts without pushing a million calendar entries up front.
pub(super) fn seed_engine_events(engine: &mut ShardedEngine<System>) {
    let cfg = engine.model(0).config();
    let ramp = cfg.workload.ramp_up;
    let users = cfg.workload.users;
    let measure_start = cfg.workload.measure_start();
    let measure_end = cfg.workload.measure_end();
    let seed = cfg.seed;
    let mut crashes = Vec::new();
    {
        let ctx = &engine.model(0).ctx;
        for (t, f) in ctx.faults.iter().enumerate() {
            for w in &f.crashes {
                let ni = (ctx.links[t].base + w.replica as usize) as u16;
                crashes.push((w.crash_at, ni, w.recover_at));
            }
        }
    }
    let mut start_rng = RunRng::new(seed).fork("session-starts");
    for s in 0..users {
        let at = SimTime::from_secs_f64(start_rng.uniform(0.0, ramp.as_secs_f64().max(1e-9)));
        engine.stage(0, at, Ev::ThinkDone(s));
    }
    // Every shard runs its own sampling loop over the nodes it owns, and
    // every shard carries a replica of the liveness flags — so the window
    // markers and the crash/recovery flips are seeded everywhere. The owner
    // shard runs the full crash path; the rest only flip `up` (the
    // dispatcher's owner check keys off the layout).
    for shard in 0..engine.n_shards() {
        engine.schedule(shard, measure_start, Ev::BeginMeasure);
        engine.schedule(shard, measure_end, Ev::EndMeasure);
        for &(at, node, recover) in &crashes {
            engine.schedule(shard, at, Ev::Crash { node });
            if let Some(back) = recover {
                engine.schedule(shard, back, Ev::Recover { node });
            }
        }
    }
}

/// Build the sharded engine for `cfg`: one [`System`] shard per layout slot
/// and the layout's cross-shard lookahead. A single-shard layout (zero
/// lookahead, or a chain with no query tiers) is a classic serial run.
pub(super) fn build_engine(cfg: SystemConfig) -> ShardedEngine<System> {
    let shards = System::shards(cfg).expect("invalid topology");
    let lookahead = shards[0].layout().lookahead;
    ShardedEngine::new(shards, lookahead)
}

/// Fold the back shards' telemetry into the front shard after a run:
/// node reports and windowed replica series concatenate in shard order
/// (owned ranges partition the chain in chain order, so this is global
/// chain order), cross-shard client counters (brownout degradations,
/// breaker transitions) sum elementwise, and every shard's span ring is
/// returned (front first) for the trace stream.
pub(super) fn merge_shards(shards: Vec<System>) -> (System, Vec<Tracer>) {
    let mut iter = shards.into_iter();
    let mut front = iter.next().expect("at least one shard");
    let mut tracers = Vec::new();
    if let Some(tr) = front.ctx.tracer.take() {
        tracers.push(tr);
    }
    for mut sys in iter {
        front.ctx.final_nodes.append(&mut sys.ctx.final_nodes);
        front.ctx.outcomes.degraded += sys.ctx.outcomes.degraded;
        if let Some(tr) = sys.ctx.tracer.take() {
            tracers.push(tr);
        }
        if let Some(m) = sys.ctx.metrics_out.take() {
            if let Some(fm) = front.ctx.metrics_out.as_mut() {
                fm.replicas.extend(m.replicas);
                for (a, b) in fm.client.degraded.iter_mut().zip(&m.client.degraded) {
                    *a += b;
                }
                for (a, b) in fm
                    .client
                    .breaker_transitions
                    .iter_mut()
                    .zip(&m.client.breaker_transitions)
                {
                    *a += b;
                }
            }
        }
    }
    (front, tracers)
}

/// Run one full trial and return its observables.
pub fn run_system(cfg: SystemConfig) -> RunOutput {
    run_system_traced(cfg).0
}

/// Like [`run_system`], but surface topology/fault-spec validation errors
/// instead of panicking (the bench CLI reports these to the user).
pub fn try_run_system(cfg: SystemConfig) -> Result<RunOutput, TopologyError> {
    cfg.effective_topology().validate()?;
    Ok(run_system(cfg))
}

/// Run one full trial with engine profiling enabled, returning the run
/// summary with [`RunOutput::profile`] populated. Profiling is passive, so
/// every other field is bit-identical to an unprofiled run.
pub fn run_system_profiled(mut cfg: SystemConfig) -> RunOutput {
    cfg.profile = true;
    run_system(cfg)
}

/// Run one full trial, also returning the trace captured along the way.
///
/// With `cfg.trace == TraceConfig::Off` the trace is empty and the run does
/// no per-request trace work (the fast path `run_system` delegates here).
pub fn run_system_traced(cfg: SystemConfig) -> (RunOutput, RunTrace) {
    let (out, trace, _) = run_system_full(cfg);
    (out, trace)
}

/// Run one full trial with the windowed metrics pipeline enabled, returning
/// the run summary plus the per-window time series ([`RunMetrics`]).
///
/// When `cfg.metrics` is `Off` it is upgraded to the default 100 ms window
/// ([`MetricsConfig::windowed_default`](metrics::MetricsConfig)); an explicit
/// `Windowed` setting is kept. Collection is passive (write-only
/// accumulators at existing state transitions), so the [`RunOutput`] is
/// bit-identical to the same configuration run without metrics.
pub fn run_system_metered(mut cfg: SystemConfig) -> (RunOutput, RunMetrics) {
    if !cfg.metrics.enabled() {
        cfg.metrics = metrics::MetricsConfig::windowed_default();
    }
    let (out, _, metrics) = run_system_full(cfg);
    (out, *metrics.expect("metrics enabled for the run"))
}

/// Shared trial runner: build, seed, run to `trial_end`, and tear down into
/// the run summary plus whatever optional instrumentation was enabled.
pub fn run_system_full(cfg: SystemConfig) -> (RunOutput, RunTrace, Option<Box<RunMetrics>>) {
    let measure_start = cfg.workload.measure_start();
    let measure_end = cfg.workload.measure_end();
    let trial_end = cfg.workload.trial_end();
    let traced = cfg.trace.enabled();
    let profiled = cfg.profile;
    let mut engine = build_engine(cfg);
    if traced {
        engine.enable_telemetry();
    }
    if profiled {
        engine.enable_profiling();
    }
    seed_engine_events(&mut engine);
    engine.run_until(trial_end);
    let profile = engine.profile();
    let events = profile.events_processed;
    let (mut system, tracers) = merge_shards(engine.into_models());
    // The back shards' handles went with them, so the front's is the last.
    let recorder = system.ctx.flight.take().map(|f| {
        Rc::into_inner(f)
            .expect("the back shards released the flight recorder")
            .into_inner()
    });
    let metrics = system.ctx.metrics_out.take();
    // Head-sampling admit decisions all happen on the front shard; span
    // rings overwrite independently per shard.
    let (admitted, rejected) = tracers
        .first()
        .map(|t| (t.admitted(), t.rejected()))
        .unwrap_or((0, 0));
    let overwritten: u64 = tracers.iter().map(|t| t.overwritten()).sum();
    let spans: SpanLog = tracers.into_iter().collect();
    // An exemplar is only citable when every span it observed survived the
    // ring; after any overwrite, cross-check retained traces against the
    // surviving span counts (same relevance filter the recorder buffers
    // with) so truncation is flagged, never silent.
    let flight = recorder.map(|f| {
        let summary = if overwritten > 0 {
            // Only retained traces can be cited, so mark them in a bitmap
            // (trace ids are dense) and count surviving spans for them
            // alone — the ring scan stays a cheap lookup per span instead
            // of a classify-and-hash of everything.
            let mut retained: Vec<bool> = Vec::new();
            for t in f.retained_traces() {
                let i = t as usize;
                if i >= retained.len() {
                    retained.resize(i + 1, false);
                }
                retained[i] = true;
            }
            let mut surviving: Vec<u32> = vec![0; retained.len()];
            for s in &spans {
                let i = s.trace as usize;
                if retained.get(i).copied().unwrap_or(false) && f.observes(&s) {
                    surviving[i] += 1;
                }
            }
            f.finish(Some(&surviving))
        } else {
            f.finish(None)
        };
        Box::new(summary)
    });
    let mut out = system.ctx.into_output(events);
    let mut trace = RunTrace {
        spans,
        admitted,
        rejected,
        overwritten,
        engine: profile,
        window: (measure_start, measure_end),
        flight,
    };
    // The engine profile is taken before teardown; the process high-water
    // can still rise while the shards are merged and the trace assembled,
    // so the peak is read again once everything the caller gets exists.
    trace.engine.peak_rss_bytes = simcore::peak_rss_bytes();
    out.profile = profiled.then(|| trace.engine.clone());
    (out, trace, metrics)
}
