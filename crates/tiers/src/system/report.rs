//! Monitoring and summary construction: the per-second sampling loop, the
//! measurement-window begin/end handlers, and the fold from accumulated
//! telemetry into the final [`RunOutput`]. Every method operates on the
//! shared [`Ctx`].

use super::*;

impl Ctx {
    // ------------------------------------------------------------------
    // monitoring
    // ------------------------------------------------------------------

    pub(super) fn sample_all(&mut self, now: SimTime) {
        // Each shard samples only the replicas it owns; the merged run sees
        // every node exactly once (owned ranges partition the chain).
        for ni in self.owned.clone() {
            self.nodes[ni].sample(now);
        }
        let front_base = self.links[0].base;
        for (i, probe) in self.probes.iter_mut().enumerate() {
            let pool = self.nodes[front_base + i].pool.as_ref().expect("workers");
            probe.threads_active.push(pool.in_use() as f64);
            probe.threads_tomcat.push(probe.interacting as f64);
        }
    }

    pub(super) fn on_sample(&mut self, now: SimTime, q: &mut SimQueue<'_, '_>) {
        self.sample_all(now);
        // The final sample of the window is taken by EndMeasure itself.
        if now + SimTime::from_secs(1) < self.measure_end {
            q.schedule(now + SimTime::from_secs(1), Ev::Sample);
        }
    }

    pub(super) fn on_begin_measure(&mut self, now: SimTime, q: &mut SimQueue<'_, '_>) {
        self.measuring = true;
        for ni in self.owned.clone() {
            self.nodes[ni].begin_measurement(now);
        }
        if self.metrics.is_some() {
            let width = self.cfg.metrics.window().expect("metrics enabled");
            for ni in self.owned.clone() {
                self.nodes[ni].enable_metrics(now, width);
            }
        }
        q.schedule(now + SimTime::from_secs(1), Ev::Sample);
    }

    pub(super) fn on_end_measure(&mut self, now: SimTime) {
        self.measuring = false;
        // Completions after this instant can never be retained; stop the
        // flight recorder's span/demand collection for the drain phase.
        // Only the front shard's marker disarms: a back shard may pop its
        // own `EndMeasure` up to a lookahead ahead of the front, and
        // disarming there would drop front spans of traces that still
        // complete inside the window.
        if self.shard == 0 {
            if let Some(f) = &self.flight {
                f.borrow_mut().disarm();
            }
        }
        self.sample_all(now);
        let mut reports = Vec::with_capacity(self.owned.len());
        for ni in self.owned.clone() {
            reports.push(self.nodes[ni].report(now));
        }
        self.final_nodes = reports;
        if let Some(mut registry) = self.metrics.take() {
            let n = registry.n_windows();
            for ni in self.owned.clone() {
                if let Some(series) = self.nodes[ni].collect_metrics(now, n) {
                    registry.push_replica(series);
                }
            }
            self.metrics_out = Some(Box::new(registry.finish()));
        }
        // Front-tier worker probes exist only on the front shard.
        if self.probes.is_empty() {
            return;
        }
        let window_buckets = self.cfg.workload.runtime.as_secs_f64() as usize;
        let probe = &self.probes[0];
        let trim = |v: &[f64]| -> Vec<f64> { v.iter().copied().take(window_buckets).collect() };
        self.final_probes = Some(ApacheProbes {
            processed_per_sec: trim(probe.processed.buckets()),
            pt_total_ms: trim(&ApacheProbe::means(
                &probe.pt_total_sum,
                &probe.pt_total_cnt,
            )),
            pt_tomcat_ms: trim(&ApacheProbe::means(
                &probe.pt_tomcat_sum,
                &probe.pt_tomcat_cnt,
            )),
            threads_active: trim(&probe.threads_active),
            threads_tomcat: trim(&probe.threads_tomcat),
        });
    }

    /// Build the run summary (call after the trial finished).
    pub(super) fn into_output(self, events_processed: u64) -> RunOutput {
        let window = self.cfg.workload.runtime.as_secs_f64();
        let t = &self.telemetry;
        let n_thresholds = self.cfg.sla_thresholds.len();
        let goodput: Vec<f64> = (0..n_thresholds)
            .map(|i| t.sla.goodput(i, window))
            .collect();
        let badput: Vec<f64> = (0..n_thresholds).map(|i| t.sla.badput(i, window)).collect();
        let satisfaction: Vec<f64> = (0..n_thresholds).map(|i| t.sla.satisfaction(i)).collect();
        let q = |p: f64| t.rt_hist.quantile(p).unwrap_or(0.0);
        let window_buckets = window as usize;
        // Window-scoped outcomes; retries, brownout degradations and hedges
        // are only observable at the client / inside the tiers, so the
        // full-trial counts are reported.
        let mut outcomes = t.outcomes;
        outcomes.retries = self.outcomes.retries;
        outcomes.degraded = self.outcomes.degraded;
        outcomes.hedged = self.outcomes.hedged;
        let availability = t.sla.availability();
        RunOutput {
            label: self.cfg.label(),
            users: self.cfg.workload.users,
            window_secs: window,
            sla_thresholds: self.cfg.sla_thresholds.clone(),
            completed: t.sla.total() - t.sla.errors(),
            throughput: t.sla.throughput(window),
            goodput,
            badput,
            satisfaction,
            mean_rt: t.rt_stats.mean(),
            rt_quantiles: [q(0.50), q(0.90), q(0.99)],
            rt_dist_counts: t.rt_dist.counts(),
            slo_samples: t.slo.satisfaction_samples(3),
            completed_per_sec: t
                .completed_series
                .buckets()
                .iter()
                .copied()
                .take(window_buckets)
                .collect(),
            nodes: self.final_nodes,
            apache_probes: self.final_probes.unwrap_or_default(),
            events_processed,
            profile: None,
            outcomes,
            availability,
        }
    }
}
