//! The Apache lingering-close (FIN-wait) model.
//!
//! After an Apache worker writes the last byte of a response it performs a
//! *lingering close*: it keeps the connection (and therefore the worker
//! thread) until the client acknowledges and closes its end. The paper found
//! (§III-C, Fig. 7) that "under high workload, the main contributor of the
//! high busy time peaks is the wait time for a FIN reply from a client
//! closing a TCP connection" — client machines get congested at high
//! emulated-user counts and FIN replies straggle.
//!
//! ## The model
//!
//! The FIN wait is a two-component mixture:
//!
//! * with probability `1 − p(users)`: a fast close, exponential with mean
//!   `base` (~1 ms);
//! * with probability `p(users)`: a straggler, uniform in
//!   `[tail_min, tail_max]` (hundreds of ms).
//!
//! The straggler probability is zero below `onset_users` and grows linearly
//! with the user count above it, capped at `max_tail_prob` — client-side
//! congestion is a population effect, not a per-request one.

use simcore::{RunRng, SimTime};

/// Parameters of the lingering-close model.
#[derive(Debug, Clone)]
pub struct LingerConfig {
    /// Mean of the fast-close exponential (seconds).
    pub base_secs: f64,
    /// Straggler FIN delay lower bound (seconds).
    pub tail_min_secs: f64,
    /// Straggler FIN delay upper bound (seconds).
    pub tail_max_secs: f64,
    /// User count at which clients start straggling.
    pub onset_users: f64,
    /// Straggler probability added per user above the onset.
    pub tail_prob_per_user: f64,
    /// Cap on the straggler probability.
    pub max_tail_prob: f64,
}

impl LingerConfig {
    /// Calibration matching the paper's observations: clean closes up to
    /// ≈ 6 400 users, visible straggling by 7 400 (Fig. 7 vs Fig. 8).
    pub fn emulab_clients() -> Self {
        LingerConfig {
            base_secs: 0.001,
            tail_min_secs: 0.15,
            tail_max_secs: 0.60,
            onset_users: 6400.0,
            tail_prob_per_user: 1.0e-4,
            max_tail_prob: 0.14,
        }
    }

    /// Lingering close disabled (instant close) — the ablation configuration.
    pub fn disabled() -> Self {
        LingerConfig {
            base_secs: 0.0,
            tail_min_secs: 0.0,
            tail_max_secs: 0.0,
            onset_users: f64::INFINITY,
            tail_prob_per_user: 0.0,
            max_tail_prob: 0.0,
        }
    }

    /// Straggler probability at a given population size.
    pub fn tail_probability(&self, users: u32) -> f64 {
        let excess = users as f64 - self.onset_users;
        let p = excess * self.tail_prob_per_user;
        if p.is_nan() || p <= 0.0 {
            return 0.0; // NaN covers the disabled config's ∞·0
        }
        p.min(self.max_tail_prob)
    }

    /// Expected FIN wait at a given population size (seconds).
    pub fn mean_linger(&self, users: u32) -> f64 {
        let p = self.tail_probability(users);
        (1.0 - p) * self.base_secs + p * 0.5 * (self.tail_min_secs + self.tail_max_secs)
    }

    /// Sample one FIN wait.
    pub fn sample(&self, users: u32, rng: &mut RunRng) -> SimTime {
        let p = self.tail_probability(users);
        if p > 0.0 && rng.chance(p) {
            SimTime::from_secs_f64(rng.uniform(self.tail_min_secs, self.tail_max_secs))
        } else {
            SimTime::from_secs_f64(rng.exp_mean(self.base_secs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_below_onset() {
        let c = LingerConfig::emulab_clients();
        assert_eq!(c.tail_probability(6000), 0.0);
        assert_eq!(c.tail_probability(6400), 0.0);
    }

    #[test]
    fn tail_grows_then_caps() {
        let c = LingerConfig::emulab_clients();
        let p74 = c.tail_probability(7400);
        assert!((p74 - 0.10).abs() < 1e-9, "p(7400)={p74}");
        assert_eq!(c.tail_probability(50_000), c.max_tail_prob);
    }

    #[test]
    fn mean_linger_jumps_past_onset() {
        let c = LingerConfig::emulab_clients();
        let low = c.mean_linger(6000);
        let high = c.mean_linger(7400);
        assert!(low < 0.002, "low={low}");
        assert!(high > 0.030, "high={high}");
    }

    #[test]
    fn samples_match_mixture() {
        let c = LingerConfig::emulab_clients();
        let mut rng = RunRng::new(3);
        let n = 20_000;
        let mut tail_count = 0;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = c.sample(7400, &mut rng).as_secs_f64();
            if s >= c.tail_min_secs {
                tail_count += 1;
            }
            sum += s;
        }
        let frac = tail_count as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.01, "tail fraction {frac}");
        let mean = sum / n as f64;
        assert!((mean - c.mean_linger(7400)).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn disabled_closes_instantly() {
        let c = LingerConfig::disabled();
        let mut rng = RunRng::new(4);
        for users in [100, 10_000] {
            assert_eq!(c.sample(users, &mut rng), SimTime::ZERO);
        }
        assert_eq!(c.mean_linger(1_000_000), 0.0);
    }
}
