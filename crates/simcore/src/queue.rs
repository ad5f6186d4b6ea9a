//! The future-event list: a calendar queue plus the staged-arrivals lane.
//!
//! Each shard's pending-event set is a strict total order on `(time, key)`:
//! earlier times first, and among events at one instant the smaller key
//! first. Keys are drawn from the scheduling shard's own counter (see
//! [`crate::shard`]), so on a one-shard model same-instant events pop FIFO in
//! scheduling order.
//!
//! [`CalendarBackend`] maintains that order: a calendar queue (Brown 1988)
//! whose events hash into time buckets ("days") of width `2^shift` µs; pops
//! scan forward from the current day. Push and pop are amortized `O(1)`
//! when the bucket width tracks the event-time spread, which the backend
//! re-tunes on resize. It is the only production backend. The binary heap
//! [`crate::testkit::HeapBackend`] is the differential oracle: the tests
//! below (and the workspace-level `queue_backends` suite) prove that the
//! calendar pops the exact sequence the heap does, ties included.
//!
//! # The staged-arrivals lane
//!
//! Closed-loop runs seed one arrival event per session before the run starts
//! — at 1M users that is a million pushes (and a million live calendar
//! slots) before the first event fires.
//! [`ShardedEngine::stage`](crate::ShardedEngine::stage) instead
//! appends pre-run events to a plain vector under the keys they would have
//! had anyway; the vector is sorted once by `(time, key)` when the executor
//! primes its queues, before its timed loop starts, and merged lazily with
//! the backend at pop time (pop = min of the two fronts). Because the merge
//! respects the same total order, the pop sequence — and therefore every
//! digest — is bit-identical to pushing everything up front, while the
//! backend only ever holds the steady-state working set.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::VecDeque;

/// One pending event: the payload plus its total-order key `(at, seq)`.
///
/// `seq` is the event key assigned by the scheduling shard; it breaks
/// same-time ties deterministically.
#[derive(Debug)]
pub struct Scheduled<E> {
    /// Absolute delivery time.
    pub at: SimTime,
    /// Event key (same-time tie-break).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// The total-order key.
    #[inline]
    pub fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    /// Natural ascending order on `(at, seq)` — earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Smallest bucket-array size the calendar queue will shrink to.
const MIN_BUCKETS: usize = 64;
/// Largest bucket-array size (bounds the empty-bucket memory overhead; past
/// this the queue degrades gracefully to a few events per bucket).
const MAX_BUCKETS: usize = 1 << 19;
/// Initial bucket width exponent: `2^12` µs ≈ 4 ms days, a reasonable prior
/// for millisecond-scale service times; resize re-tunes it from the actual
/// pending-event spread.
const DEFAULT_SHIFT: u32 = 12;
/// Bucket-width exponent ceiling (`2^40` µs ≈ 13 days of sim time per
/// bucket — effectively "one bucket for everything").
const MAX_SHIFT: u32 = 40;
/// Initial bucket count of every shard's calendar.
const INITIAL_BUCKETS: usize = 1024;

/// Calendar-queue backend (Brown 1988).
///
/// Events hash into `buckets.len()` (a power of two) time buckets by their
/// "day" `at_µs >> shift`; each bucket is kept sorted ascending by
/// `(at, seq)`, so a bucket's front is its minimum. A pop scans days forward
/// from the last popped day (`cur_day`); within one "year" (`nbuckets` days)
/// each day maps to a distinct bucket, so the first front whose day matches
/// the scanned day is the global minimum. If a whole year is empty the pop
/// falls back to a direct min-scan over bucket fronts and jumps `cur_day`
/// there.
///
/// Determinism: pop order is decided *only* by `(at, seq)` comparisons —
/// bucket count, width, and resize timing affect where events sit, never
/// which one is the minimum — so the calendar queue pops the exact sequence
/// the heap oracle does. (The invariant that makes the day-scan sound: every
/// pending event's day is ≥ `cur_day`, because the executor never schedules
/// before `now` and `cur_day` only tracks popped minima.)
#[derive(Debug)]
pub struct CalendarBackend<E> {
    buckets: Vec<VecDeque<Scheduled<E>>>,
    /// `buckets.len() - 1`; bucket index = `day & mask`.
    mask: u64,
    /// Bucket width is `2^shift` microseconds.
    shift: u32,
    /// Day of the most recently popped event (lower bound on all pending days).
    cur_day: u64,
    len: usize,
    /// Memoized location of the current minimum: `(bucket, at, seq)`. Kept
    /// valid across pushes (a push either beats it and replaces it, or
    /// cannot be the minimum); consumed by `pop_min`.
    cached_min: Option<(usize, SimTime, u64)>,
}

impl<E> CalendarBackend<E> {
    /// Create sized for roughly `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        let nbuckets = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        CalendarBackend {
            buckets: (0..nbuckets).map(|_| VecDeque::new()).collect(),
            mask: (nbuckets - 1) as u64,
            shift: DEFAULT_SHIFT,
            cur_day: 0,
            len: 0,
            cached_min: None,
        }
    }

    #[inline]
    fn day_of(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.shift
    }

    /// Insert without resize checks or cache maintenance (rebuild path).
    fn insert_item(&mut self, item: Scheduled<E>) {
        let bucket = (self.day_of(item.at) & self.mask) as usize;
        let key = item.key();
        let deque = &mut self.buckets[bucket];
        // Sorted-ascending insert. Same-time events arrive with monotone
        // seq, so the common case is an append at the back, O(1).
        let pos = deque.partition_point(|s| s.key() < key);
        deque.insert(pos, item);
        self.len += 1;
    }

    /// Locate the minimum event: `(bucket, at, seq)`.
    fn locate_min(&self) -> (usize, SimTime, u64) {
        debug_assert!(self.len > 0, "locate_min on empty calendar");
        let nbuckets = self.buckets.len() as u64;
        for day in self.cur_day..self.cur_day + nbuckets {
            let bucket = (day & self.mask) as usize;
            if let Some(front) = self.buckets[bucket].front() {
                if self.day_of(front.at) == day {
                    return (bucket, front.at, front.seq);
                }
            }
        }
        // Sparse year: nothing within `nbuckets` days of cur_day. Direct
        // min-scan over bucket fronts (each front is its bucket's minimum).
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, d)| d.front().map(|f| (b, f.at, f.seq)))
            .min_by_key(|&(_, at, seq)| (at, seq))
            .expect("len > 0 but all buckets empty")
    }

    /// Rebuild with a new bucket count, re-tuning the bucket width to the
    /// pending-event spread (aiming for ~1 event per bucket-day). Layout
    /// changes only; pop order is unaffected by construction.
    fn rebuild(&mut self, target_buckets: usize) {
        let nbuckets = target_buckets
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let items: Vec<Scheduled<E>> = self.buckets.iter_mut().flat_map(|b| b.drain(..)).collect();
        let old_shift = self.shift;
        if let (Some(lo), Some(hi)) = (
            items.iter().map(|s| s.at).min(),
            items.iter().map(|s| s.at).max(),
        ) {
            let span = hi.as_micros() - lo.as_micros();
            let per_event = (span / items.len() as u64).max(1);
            self.shift = (63 - per_event.leading_zeros()).min(MAX_SHIFT);
        }
        // `cur_day` must stay a lower bound on every FUTURE push, not just
        // the currently pending events: pushes land anywhere ≥ now, and now
        // can be far below the minimum pending event (e.g. when only
        // far-future markers remain while arrivals stream in from the
        // staged lane). Jumping to the minimum pending day would start the
        // pop scan past those later pushes and break pop order — so carry
        // the old bound across the width change instead. Scanning extra
        // empty days is at worst one sparse-year fallback, and the next pop
        // re-anchors `cur_day`.
        self.cur_day = (self.cur_day << old_shift) >> self.shift;
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.cached_min = None;
        self.len = 0;
        for item in items {
            self.insert_item(item);
        }
    }

    /// Insert one pending event.
    pub fn push(&mut self, item: Scheduled<E>) {
        if self.len + 1 > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.len + 1);
        }
        let key = item.key();
        let bucket = (self.day_of(item.at) & self.mask) as usize;
        if let Some((_, at, seq)) = self.cached_min {
            if key < (at, seq) {
                self.cached_min = Some((bucket, item.at, item.seq));
            }
        }
        let deque = &mut self.buckets[bucket];
        let pos = deque.partition_point(|s| s.key() < key);
        deque.insert(pos, item);
        self.len += 1;
    }

    /// Key of the minimum pending event, memoizing its location so an
    /// immediately following [`pop_min`](Self::pop_min) is `O(1)`.
    pub fn min_key(&mut self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some((_, at, seq)) = self.cached_min {
            return Some((at, seq));
        }
        let found = self.locate_min();
        self.cached_min = Some(found);
        Some((found.1, found.2))
    }

    /// Remove and return the minimum pending event.
    pub fn pop_min(&mut self) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let (bucket, at, _) = match self.cached_min.take() {
            Some(found) => found,
            None => self.locate_min(),
        };
        let item = self.buckets[bucket]
            .pop_front()
            .expect("minimum bucket empty");
        debug_assert_eq!(item.at, at, "cached minimum out of date");
        self.len -= 1;
        self.cur_day = self.day_of(at);
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.len.max(MIN_BUCKETS));
        }
        Some(item)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity across all buckets (for telemetry).
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.capacity()).sum::<usize>()
    }
}

/// Staged-lane capacity below which drained storage is not worth a
/// reallocation (see [`EventQueue::pop`]).
const STAGED_RELEASE_MIN: usize = 4096;

/// One shard's pending-event set: the calendar backend plus the
/// staged-arrivals lane (see module docs), in one strict `(time, key)`
/// total order. Keys are assigned by the executor.
pub(crate) struct EventQueue<E> {
    backend: CalendarBackend<E>,
    /// Pre-run staged events; sorted *descending* by key when the run
    /// starts, so the current front is `last()` and consuming it is a
    /// by-value `pop()`.
    staged: Vec<Scheduled<E>>,
    /// Set when the staged lane is sorted; staging afterwards is a contract
    /// violation.
    started: bool,
    now: SimTime,
    high_water: usize,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            backend: CalendarBackend::with_capacity(INITIAL_BUCKETS),
            staged: Vec::new(),
            started: false,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// Push `event` at `at` under key `key`.
    ///
    /// # Panics
    /// If `at` is before the current time.
    #[inline]
    pub(crate) fn push_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.backend.push(Scheduled {
            at,
            seq: key,
            event,
        });
        self.high_water = self.high_water.max(self.len());
    }

    /// Stage a pre-run event into the arrivals lane (see module docs).
    ///
    /// # Panics
    /// If called after the run started, or with `at` in the past.
    pub(crate) fn stage_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(
            !self.started,
            "stage_keyed() is for pre-run seeding; the run has already started"
        );
        assert!(
            at >= self.now,
            "cannot stage into the past: at={at} now={}",
            self.now
        );
        self.staged.push(Scheduled {
            at,
            seq: key,
            event,
        });
        self.high_water = self.high_water.max(self.len());
    }

    /// Number of pending events (backend + staged lane).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.backend.len() + self.staged.len()
    }

    /// Largest number of events ever pending at once.
    #[inline]
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Allocated capacity of the calendar backend.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.backend.capacity()
    }

    /// Key of the minimum pending event. The first call sorts the staged
    /// lane (one deferred sort instead of n backend pushes) and closes it
    /// to further staging; the executor makes that call while priming its
    /// queues, before the timed loop.
    #[inline]
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.started {
            self.staged.sort_by_key(|s| Reverse(s.key()));
            self.started = true;
        }
        let staged = self.staged.last().map(Scheduled::key);
        match (staged, self.backend.min_key()) {
            (Some(s), Some(b)) => Some(s.min(b)),
            (s, b) => s.or(b),
        }
    }

    /// Remove the minimum pending event, advancing the clock to its time.
    ///
    /// The staged lane only ever drains, so once it holds under a quarter
    /// of its capacity the surplus goes back to the allocator (down to
    /// twice its length): a 1M-session run does not carry the whole
    /// seeding array to the end. That is a handful of reallocations per
    /// run, and storage only — the pop order cannot change.
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        let key = self.peek_key()?;
        let item = if self.staged.last().is_some_and(|s| s.key() == key) {
            let item = self.staged.pop();
            let (len, cap) = (self.staged.len(), self.staged.capacity());
            if cap >= STAGED_RELEASE_MIN && len * 4 < cap {
                self.staged.shrink_to(len * 2);
            }
            item
        } else {
            self.backend.pop_min()
        }
        .expect("peeked minimum vanished");
        debug_assert!(item.at >= self.now, "event queue time went backwards");
        self.now = item.at;
        Some(item)
    }

    /// Advance the clock to `t` if it is ahead (horizon handling).
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if self.now < t {
            self.now = t;
        }
    }

    /// Allocated capacity of the staged lane.
    #[cfg(test)]
    fn staged_capacity(&self) -> usize {
        self.staged.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{check, Gen, HeapBackend};

    fn sched(at_us: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            at: SimTime::from_micros(at_us),
            seq,
            event: seq,
        }
    }

    /// Drive the calendar and the heap oracle through an identical
    /// randomized push/pop script and assert identical pop sequences, ties
    /// included.
    #[test]
    fn calendar_pops_like_the_heap_oracle_on_randomized_schedules() {
        check(200, |g: &mut Gen| {
            let mut heap = HeapBackend::default();
            let mut cal = CalendarBackend::with_capacity(8);
            let mut seq = 0u64;
            let mut floor = 0u64; // pops only move time forward
            let ops = g.usize_in(1, 401);
            for _ in 0..ops {
                if g.chance(0.03) {
                    // Far-era flood: enough same-era far-future events to
                    // force a grow-rebuild while everything pending is far
                    // ahead of `floor` — the regression pattern where the
                    // scan start used to jump past later nearby pushes.
                    let era = floor + g.u64_in(5_000_000, 60_000_001);
                    for _ in 0..g.usize_in(120, 400) {
                        let at = era + g.u64_in(0, 100_001);
                        heap.push(sched(at, seq));
                        cal.push(sched(at, seq));
                        seq += 1;
                    }
                } else if g.chance(0.6) {
                    // Push: mostly nearby times, deliberate ties, occasional
                    // far-future outliers to force sparse-year scans.
                    let at = if g.chance(0.15) {
                        floor // exact tie with the current minimum's era
                    } else if g.chance(0.05) {
                        floor + g.u64_in(1_000_000, 50_000_001)
                    } else {
                        floor + g.u64_in(0, 5_001)
                    };
                    let burst = g.usize_in(1, 4); // same-time FIFO bursts
                    for _ in 0..burst {
                        heap.push(sched(at, seq));
                        cal.push(sched(at, seq));
                        seq += 1;
                    }
                } else {
                    assert_eq!(heap.min_key(), cal.min_key());
                    let a = heap.pop_min().map(|s| (s.at, s.seq, s.event));
                    let b = cal.pop_min().map(|s| (s.at, s.seq, s.event));
                    assert_eq!(a, b);
                    if let Some((at, _, _)) = a {
                        floor = at.as_micros();
                    }
                }
            }
            // Drain whatever remains; order must still agree exactly.
            loop {
                let a = heap.pop_min().map(|s| (s.at, s.seq));
                let b = cal.pop_min().map(|s| (s.at, s.seq));
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert!(heap.is_empty());
            assert!(cal.is_empty());
        });
    }

    /// Regression: a grow-rebuild while only far-future events were pending
    /// used to jump the calendar's scan start (`cur_day`) to the minimum
    /// *pending* day. Events pushed afterwards at earlier times (legal: any
    /// time ≥ now, and now can sit far below the pending minimum while
    /// arrivals stream from the staged lane) then landed behind the scan
    /// start, and the year-scan returned a later event first.
    #[test]
    fn pushes_behind_a_regrown_calendar_year_still_pop_first() {
        let mut heap = HeapBackend::default();
        let mut cal = CalendarBackend::with_capacity(8);
        let mut seq = 0u64;
        let mut push = |h: &mut HeapBackend<u64>, c: &mut CalendarBackend<u64>, at: u64| {
            h.push(sched(at, seq));
            c.push(sched(at, seq));
            seq += 1;
        };
        // Anchor time low, then pop so `now` ≈ 1ms.
        push(&mut heap, &mut cal, 1_000);
        assert_eq!(
            heap.pop_min().map(|s| s.key()),
            cal.pop_min().map(|s| s.key())
        );
        // Far-future flood forces grow-rebuilds with nothing pending below
        // 10 s; the width re-tune used to drag the scan start up there too.
        for i in 0..300u64 {
            push(&mut heap, &mut cal, 10_000_000 + i);
        }
        // A later push at 32.7 ms — ≥ now, far below every pending event —
        // must still pop first on both.
        push(&mut heap, &mut cal, 32_699);
        assert_eq!(cal.min_key(), Some((SimTime::from_micros(32_699), 301)));
        loop {
            let a = heap.pop_min().map(|s| s.key());
            let b = cal.pop_min().map(|s| s.key());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_resize_preserves_order_through_grow_and_shrink() {
        let mut cal = CalendarBackend::with_capacity(1);
        // Push far more than the initial bucket count to force grows...
        let n = 10_000u64;
        for seq in 0..n {
            // Reversed times so pops interleave eras; ties every 8th event.
            let at = (n - seq) * 97 % 5_000;
            cal.push(sched(at, seq));
        }
        // ...then drain fully, forcing shrinks on the way down.
        let mut prev: Option<(SimTime, u64)> = None;
        let mut popped = 0;
        while let Some(s) = cal.pop_min() {
            if let Some(p) = prev {
                assert!(
                    s.key() > p,
                    "pop order regressed: {:?} after {:?}",
                    s.key(),
                    p
                );
            }
            prev = Some(s.key());
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn calendar_sparse_far_future_events_pop_correctly() {
        let mut cal = CalendarBackend::<u64>::with_capacity(64);
        // Events separated by far more than a bucket "year".
        for (i, at) in [0u64, 3_600_000_000, 7_200_000_000, 7_200_000_001]
            .iter()
            .enumerate()
        {
            cal.push(sched(*at, i as u64));
        }
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop_min().map(|s| s.seq)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// The staged lane is indistinguishable from upfront pushes: same pop
    /// sequence, same keys, same high-water mark — with follow-up events
    /// pushed mid-run to interleave with still-staged arrivals, and with
    /// the lane releasing its drained storage along the way.
    #[test]
    fn staged_lane_matches_upfront_pushes_exactly() {
        check(100, |g: &mut Gen| {
            let mut staged = EventQueue::new();
            let mut pushed = EventQueue::new();
            let n = g.usize_in(1, 60);
            let mut key = 0u64;
            for _ in 0..n {
                let at = if g.chance(0.2) {
                    500
                } else {
                    g.u64_in(0, 10_000)
                };
                staged.stage_keyed(SimTime::from_micros(at), key, at);
                pushed.push_keyed(SimTime::from_micros(at), key, at);
                key += 1;
            }
            let mut chain = g.usize_in(0, 20);
            loop {
                let a = staged.pop().map(|s| (s.at, s.seq, s.event));
                let b = pushed.pop().map(|s| (s.at, s.seq, s.event));
                assert_eq!(a, b, "staged lane diverged (seed {})", g.seed());
                let Some((at, _, _)) = a else { break };
                // Mid-run follow-ups land among still-staged arrivals.
                if chain > 0 {
                    chain -= 1;
                    let follow = at + SimTime::from_micros(g.u64_in(0, 3_000));
                    staged.push_keyed(follow, key, at.as_micros() + 1);
                    pushed.push_keyed(follow, key, at.as_micros() + 1);
                    key += 1;
                }
            }
            assert_eq!(staged.high_water(), pushed.high_water());
            assert_eq!(staged.len() + pushed.len(), 0);
        });

        // At scale the lane gives its drained storage back as it empties:
        // with `k` events left it holds at most max(4096, 4k) slots, and
        // every pop still matches the upfront-push queue.
        let n = 100_000u64;
        let mut staged = EventQueue::new();
        let mut pushed = EventQueue::new();
        for key in 0..n {
            let at = SimTime::from_micros((n - key) * 7_919 % 1_000_003);
            staged.stage_keyed(at, key, key);
            pushed.push_keyed(at, key, key);
        }
        assert!(staged.staged_capacity() >= n as usize);
        for left in (0..n as usize).rev() {
            let a = staged.pop().map(|s| (s.at, s.seq, s.event));
            let b = pushed.pop().map(|s| (s.at, s.seq, s.event));
            assert_eq!(a, b, "staged lane diverged with {left} left");
            let cap = staged.staged_capacity();
            assert!(
                cap <= STAGED_RELEASE_MIN.max(4 * left),
                "staged capacity {cap} with {left} left"
            );
        }
        assert!(staged.pop().is_none() && pushed.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "run has already started")]
    fn staging_after_the_first_pop_panics() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime::from_micros(1), 0, 1u64);
        let _ = q.pop();
        q.stage_keyed(SimTime::from_micros(2), 1, 2u64);
    }

    #[test]
    fn peek_key_sees_staged_and_backend_events() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime::from_micros(9), 0, 0u64);
        q.stage_keyed(SimTime::from_micros(4), 1, 1u64);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_key(), Some((SimTime::from_micros(4), 1)));
        assert_eq!(q.pop().map(|s| s.at), Some(SimTime::from_micros(4)));
        assert_eq!(q.peek_key(), Some((SimTime::from_micros(9), 0)));
    }
}
