//! Property tests of the simulation substrate: the executor's ordering
//! guarantees and the statistics accumulators' invariants. Each test sweeps a
//! fixed set of deterministic seeded cases (see `simcore::testkit`).

use simcore::stats::{Histogram, IntervalSeries, LogHistogram, TimeWeighted, Welford};
use simcore::testkit::{check, HeapBackend};
use simcore::{Scheduled, ShardIo, ShardModel, ShardedEngine, SimTime};

struct Recorder {
    seen: Vec<(u64, u32)>,
}

impl ShardModel for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _io: &mut ShardIo<'_, u32>) {
        self.seen.push((now.as_micros(), ev));
    }
}

/// The executor delivers every event exactly once, in non-decreasing time
/// order, with FIFO order at equal timestamps — the exact sequence the heap
/// oracle pops.
#[test]
fn engine_delivery_order() {
    check(64, |g| {
        let events = g.vec_u64(0, 1_000, 1, 200);
        let mut e = ShardedEngine::new(vec![Recorder { seen: Vec::new() }], SimTime::ZERO);
        let mut oracle = HeapBackend::default();
        for (i, &at) in events.iter().enumerate() {
            let at = SimTime::from_micros(at);
            e.schedule(0, at, i as u32);
            oracle.push(Scheduled {
                at,
                seq: i as u64,
                event: i as u32,
            });
        }
        e.run_until(SimTime::MAX);
        let seen = &e.model(0).seen;
        let want: Vec<(u64, u32)> =
            std::iter::from_fn(|| oracle.pop_min().map(|s| (s.at.as_micros(), s.event))).collect();
        assert_eq!(seen, &want, "seed {}", g.seed());
        // Times non-decreasing.
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0));
        // FIFO at equal timestamps: ids ascend within equal-time runs.
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0 || w[0].1 < w[1].1));
        // Every event delivered at its scheduled time.
        for &(at, id) in seen {
            assert_eq!(at, events[id as usize], "seed {}", g.seed());
        }
    });
}

/// Welford matches the naive two-pass computation.
#[test]
fn welford_matches_two_pass() {
    check(64, |g| {
        let xs = g.vec_f64(-1e6, 1e6, 2, 200);
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((w.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        assert!((w.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
        assert_eq!(w.count(), xs.len() as u64);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(w.min(), Some(min));
    });
}

/// Merging split Welford halves equals the whole.
#[test]
fn welford_merge_associativity() {
    check(64, |g| {
        let xs = g.vec_f64(-1e3, 1e3, 2, 100);
        let split = g.usize_in(1, 99).min(xs.len() - 1);
        let mut whole = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.add(x);
            if i < split {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
    });
}

/// Histogram conserves observations across bins + under/overflow.
#[test]
fn histogram_conserves_counts() {
    check(64, |g| {
        let xs = g.vec_f64(-10.0, 10.0, 0, 300);
        let mut h = Histogram::with_edges(&[0.0, 1.0, 2.0, 5.0]);
        for &x in &xs {
            h.add(x);
        }
        assert_eq!(h.total(), xs.len() as u64);
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.overflow() + h.underflow(), xs.len() as u64);
    });
}

/// LogHistogram quantiles are monotone and bracket the data.
#[test]
fn log_histogram_quantiles_monotone() {
    check(64, |g| {
        let xs = g.vec_f64(1e-4, 1e3, 1, 300);
        let mut h = LogHistogram::response_times();
        for &x in &xs {
            h.add(x);
        }
        let qs: Vec<f64> = [0.1, 0.5, 0.9, 0.99]
            .iter()
            .map(|&q| h.quantile(q).unwrap())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{qs:?}");
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        // p99 cannot exceed the max by more than one bucket width (2%).
        assert!(qs[3] <= max * 1.03 + 1e-4, "p99 {} max {}", qs[3], max);
    });
}

/// fraction_le is a monotone CDF reaching 1.
#[test]
fn log_histogram_cdf() {
    check(64, |g| {
        let xs = g.vec_f64(1e-3, 1e2, 1, 200);
        let mut h = LogHistogram::response_times();
        for &x in &xs {
            h.add(x);
        }
        let mut prev = 0.0;
        for t in [0.001, 0.01, 0.1, 1.0, 10.0, 1e4] {
            let f = h.fraction_le(t);
            assert!(f >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!((h.fraction_le(1e9) - 1.0).abs() < 1e-12);
    });
}

/// TimeWeighted average is always between the min and max level set.
#[test]
fn time_weighted_average_bounded() {
    check(64, |g| {
        let n = g.usize_in(1, 50);
        let segments: Vec<(u64, f64)> = (0..n)
            .map(|_| (g.u64_in(1, 1_000), g.f64_in(0.0, 10.0)))
            .collect();
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = SimTime::ZERO;
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &(dt, v) in &segments {
            t += SimTime::from_millis(dt);
            tw.set(t, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let avg = tw.average_until(t + SimTime::from_secs(1));
        assert!(
            avg >= lo - 1e-9 && avg <= hi + 1e-9,
            "avg={avg} lo={lo} hi={hi}"
        );
        assert!(tw.peak() >= hi);
    });
}

/// IntervalSeries conserves the total amount added after the origin.
#[test]
fn interval_series_conserves() {
    check(64, |g| {
        let n = g.usize_in(0, 200);
        let adds: Vec<(u64, f64)> = (0..n)
            .map(|_| (g.u64_in(0, 100_000), g.f64_in(0.0, 5.0)))
            .collect();
        let origin = SimTime::from_millis(10_000);
        let mut s = IntervalSeries::new(origin, SimTime::from_secs(1));
        let mut expected = 0.0;
        for &(at_ms, amt) in &adds {
            let t = SimTime::from_millis(at_ms);
            s.add(t, amt);
            if t >= origin {
                expected += amt;
            }
        }
        let total: f64 = s.buckets().iter().sum();
        assert!((total - expected).abs() < 1e-9);
    });
}
