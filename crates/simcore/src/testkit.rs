//! Deterministic randomized-test support.
//!
//! The workspace's property-style tests used to be written against an
//! external property-testing framework; to keep the workspace buildable with
//! no registry access they now iterate a fixed number of seeded cases drawn
//! from [`Gen`] — same invariant coverage, deterministic by construction, and
//! a failing case is reproducible from the printed seed alone.
//!
//! [`HeapBackend`] is the reference future-event list the calendar queue and
//! the executor are tested against.

use crate::queue::Scheduled;
use crate::rng::RunRng;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Binary-heap future-event list: the differential oracle for
/// [`CalendarBackend`](crate::CalendarBackend) and the executor. A
/// `BinaryHeap` over reversed `(time, key)` entries is obviously correct,
/// which is the point; it is never used in production.
#[derive(Debug)]
pub struct HeapBackend<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
}

impl<E> Default for HeapBackend<E> {
    fn default() -> Self {
        HeapBackend {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> HeapBackend<E> {
    /// Insert one pending event.
    pub fn push(&mut self, item: Scheduled<E>) {
        self.heap.push(Reverse(item));
    }

    /// Key of the minimum pending event.
    pub fn min_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|r| r.0.key())
    }

    /// Remove and return the minimum pending event.
    pub fn pop_min(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|r| r.0)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A seeded case generator for randomized tests.
pub struct Gen {
    rng: RunRng,
    seed: u64,
}

impl Gen {
    /// Generator for one test case.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: RunRng::new(seed ^ 0x7e57_7e57_7e57_7e57),
            seed,
        }
    }

    /// The case seed — include it in assertion messages.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo);
        lo + (self.rng.index((hi - lo) as usize)) as u64
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo);
        lo + self.rng.index(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.uniform(lo, hi)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// Vector of uniform `f64`s with a length drawn from `[min_len, max_len)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// Vector of uniform `u64`s with a length drawn from `[min_len, max_len)`.
    pub fn vec_u64(&mut self, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.u64_in(lo, hi)).collect()
    }

    /// The underlying stream, for anything not covered above.
    pub fn rng(&mut self) -> &mut RunRng {
        &mut self.rng
    }
}

/// Run `body` for `cases` deterministic seeds (0, 1, …). Panics propagate
/// with the case seed, so failures reproduce exactly.
pub fn check(cases: u64, mut body: impl FnMut(&mut Gen)) {
    for seed in 0..cases {
        let mut g = Gen::new(seed);
        body(&mut g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_deterministic_per_seed() {
        let mut a = Gen::new(3);
        let mut b = Gen::new(3);
        assert_eq!(a.vec_f64(0.0, 1.0, 5, 20), b.vec_f64(0.0, 1.0, 5, 20));
        assert_eq!(a.u64_in(10, 100), b.u64_in(10, 100));
    }

    #[test]
    fn check_runs_every_case() {
        let mut n = 0;
        check(17, |_| n += 1);
        assert_eq!(n, 17);
    }

    #[test]
    fn ranges_are_respected() {
        check(8, |g| {
            let v = g.vec_u64(5, 9, 1, 30);
            assert!(!v.is_empty() && v.len() < 30);
            assert!(v.iter().all(|&x| (5..9).contains(&x)));
            let x = g.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        });
    }
}
