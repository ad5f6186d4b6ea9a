//! The future-event list: a calendar queue for the near band, a heap for
//! the far lane, and the staged-arrivals lane.
//!
//! Each shard's pending-event set is a strict total order on `(time, key)`:
//! earlier times first, and among events at one instant the smaller key
//! first. Keys are drawn from the scheduling shard's own counter (see
//! [`crate::shard`]), so on a one-shard model same-instant events pop FIFO in
//! scheduling order.
//!
//! [`CalendarBackend`] maintains that order. Its calendar queue (Brown 1988)
//! hashes events into time buckets ("days") of width `2^shift` µs, and pops
//! scan forward from the current day. It holds only the **near band**: the
//! events less than one calendar year (`nbuckets` days) ahead of the last
//! pop. A push further out goes to the **far lane**, a binary heap, and pops
//! take the smaller of the two fronts. A closed loop pushes a bimodal mix —
//! most events land milliseconds ahead, each session's think timer seconds
//! ahead — and a calendar that held both would size its days for the think
//! timers' spread and keep buckets full of near events. Split, the calendar's
//! width follows the near band alone (retuned when the pops and inserts it
//! observes get costly), its storage follows the few dozen events it holds,
//! and the think timers sit one slot each in the heap. It is the only
//! production backend. The binary heap [`crate::testkit::HeapBackend`] is
//! the differential oracle: the tests below (and the workspace-level
//! `queue_backends` suite) prove that the backend pops the exact sequence the
//! heap does, ties included.
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
use std::collections::{BinaryHeap, VecDeque};

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

/// Smallest bucket-array size the calendar queue will shrink to. It is also
/// the starting size: with the default width that makes a first year of
/// ~262 ms, so a closed loop's seconds-ahead think timers start in the far
/// lane instead of inflating the calendar.
const MIN_BUCKETS: usize = 64;
/// Largest bucket-array size (bounds the empty-bucket memory overhead; past
/// this the queue degrades gracefully to a few events per bucket).
const MAX_BUCKETS: usize = 1 << 19;
/// Initial bucket width exponent: `2^12` µs ≈ 4 ms days, a reasonable prior
/// for millisecond-scale service times; retunes adjust it from the gaps
/// between calendar pops.
const DEFAULT_SHIFT: u32 = 12;
/// Bucket-width exponent ceiling (`2^40` µs ≈ 13 days of sim time per
/// bucket — effectively "one bucket for everything").
const MAX_SHIFT: u32 = 40;
/// Mean days scanned per calendar pop, or mean events shifted per calendar
/// insert, past which a window of pops asks for a retune: the days are too
/// narrow for the near band in the first case, too wide in the second. A
/// well-tuned calendar has about one event per day, so both sit near 1.
const RETUNE_COST: u64 = 4;

/// Calendar-queue backend (Brown 1988) with a far lane.
///
/// The pending events split into a **near band** and a **far lane**. The
/// near band lives in the calendar: events hash into `buckets.len()` (a
/// power of two) time buckets by their "day" `at_µs >> shift`, each bucket
/// kept sorted ascending by `(at, seq)` so its front is its minimum. Every
/// near event lies within one "year" (`nbuckets` days) of `cur_day`, the
/// day of the last pop, so each of those days maps to a distinct bucket and
/// a pop's forward scan from `cur_day` finds the near minimum within one
/// year. A push whose day is a full year or more past `cur_day` goes to the
/// far lane instead: a binary heap on `(at, seq)`. Pops take the smaller of
/// the calendar front and the far-lane top, so far events leave from the
/// heap when their time comes and never move back into the calendar.
///
/// The width follows the near band only. Every `nbuckets` calendar pops
/// close a retune window, which checks the days those pops scanned and the
/// events the window's inserts shifted, each against an average of 4
/// (`RETUNE_COST`). When either is too high, the width is set to the mean
/// gap between the distinct times the window's calendar pops delivered,
/// and the calendar is rebuilt. Size crossings of the near count rebuild at the same width with more or
/// fewer buckets. Every rebuild moves whatever then lies beyond the year to
/// the far lane, and allocates fresh buckets, so calendar storage follows
/// the live near band rather than its peak.
///
/// Determinism: pop order is decided *only* by `(at, seq)` comparisons —
/// bucket count, width, lane and rebuild timing affect where events sit,
/// never which one is the minimum — so the backend pops the exact sequence
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
    /// Events in the calendar (the near band).
    len: usize,
    /// Events a year or more ahead when pushed, ordered by `(at, seq)`.
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Memoized location of the calendar's minimum: `(bucket, at, seq)`.
    /// Kept valid across pushes (a push either beats it and replaces it, or
    /// cannot be the minimum); consumed by a calendar pop.
    cached_min: Option<(usize, SimTime, u64)>,
    /// What the calendar observed since the last rebuild or retune.
    window: RetuneWindow,
}

/// Costs and pop times a calendar observes between two retunes.
#[derive(Debug, Default)]
struct RetuneWindow {
    /// Calendar pops, and the days they scanned.
    pops: u64,
    scanned: u64,
    /// Calendar inserts, and the events they shifted.
    inserts: u64,
    shifted: u64,
    /// First and last popped time (µs), and the distinct gaps between.
    first_pop: u64,
    last_pop: u64,
    pop_gaps: u64,
}

impl RetuneWindow {
    fn record_pop(&mut self, at: SimTime) {
        let t = at.as_micros();
        if self.pops == 0 {
            self.first_pop = t;
        } else if t != self.last_pop {
            self.pop_gaps += 1;
        }
        self.last_pop = t;
        self.pops += 1;
    }

    /// Whether pops scanned, or inserts shifted, more than [`RETUNE_COST`]
    /// on average.
    fn costly(&self) -> bool {
        self.scanned > RETUNE_COST * self.pops || self.shifted > RETUNE_COST * self.inserts
    }

    /// The width exponent the window asks for: the log of the mean gap
    /// between the distinct times its pops delivered, if there were two.
    fn shift(&self) -> Option<u32> {
        let gap = (self.last_pop - self.first_pop).checked_div(self.pop_gaps)?;
        Some((63 - gap.max(1).leading_zeros()).min(MAX_SHIFT))
    }
}

impl<E> CalendarBackend<E> {
    /// Create sized for roughly `capacity` pending near-band events.
    pub fn with_capacity(capacity: usize) -> Self {
        let nbuckets = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        CalendarBackend {
            buckets: (0..nbuckets).map(|_| VecDeque::new()).collect(),
            mask: (nbuckets - 1) as u64,
            shift: DEFAULT_SHIFT,
            cur_day: 0,
            len: 0,
            far: BinaryHeap::new(),
            cached_min: None,
            window: RetuneWindow::default(),
        }
    }

    #[inline]
    fn day_of(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.shift
    }

    /// Whether `day` lies a full year or more past `cur_day` (far lane).
    #[inline]
    fn beyond_year(&self, day: u64) -> bool {
        day >= self.cur_day + self.buckets.len() as u64
    }

    /// Locate the calendar's minimum event: `(bucket, at, seq)`. Every near
    /// event lies within a year of `cur_day`, so the day-scan finds it.
    fn locate_min(&mut self) -> (usize, SimTime, u64) {
        debug_assert!(self.len > 0, "locate_min on empty calendar");
        for day in self.cur_day..self.cur_day + self.buckets.len() as u64 {
            let bucket = (day & self.mask) as usize;
            if let Some(front) = self.buckets[bucket].front() {
                if self.day_of(front.at) == day {
                    self.window.scanned += day - self.cur_day + 1;
                    return (bucket, front.at, front.seq);
                }
            }
        }
        unreachable!("a near-band event lies beyond the calendar year")
    }

    /// Rebuild with a new bucket count and width `2^shift` µs, moving what
    /// lies beyond the new year to the far lane. Layout changes only; pop
    /// order is unaffected by construction.
    fn rebuild(&mut self, target_buckets: usize, shift: u32) {
        let nbuckets = target_buckets
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Every near event lies within the year, where days map to distinct
        // buckets, so draining the buckets in day order yields them sorted.
        let mut items = Vec::with_capacity(self.len);
        for day in self.cur_day..self.cur_day + self.buckets.len() as u64 {
            items.extend(self.buckets[(day & self.mask) as usize].drain(..));
        }
        debug_assert_eq!(items.len(), self.len, "near event outside the year");
        let old_shift = self.shift;
        self.shift = shift;
        // `cur_day` must stay a lower bound on every FUTURE push, not just
        // the currently pending events: pushes land anywhere ≥ now, and now
        // can be far below the minimum pending event (e.g. when the calendar
        // holds only events well ahead while arrivals stream in from the
        // staged lane). Jumping to the minimum pending day would start the
        // pop scan past those later pushes and break pop order — so carry
        // the old bound across the width change instead; the next pop
        // re-anchors `cur_day`.
        self.cur_day = (self.cur_day << old_shift) >> self.shift;
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.cached_min = None;
        self.len = 0;
        self.window = RetuneWindow::default();
        for item in items {
            let day = self.day_of(item.at);
            if self.beyond_year(day) {
                self.far.push(Reverse(item));
            } else {
                // Sorted input: each bucket only ever appends.
                self.buckets[(day & self.mask) as usize].push_back(item);
                self.len += 1;
            }
        }
    }

    /// Insert one pending event.
    pub fn push(&mut self, item: Scheduled<E>) {
        let day = self.day_of(item.at);
        debug_assert!(day >= self.cur_day, "push before cur_day");
        if self.beyond_year(day) {
            self.far.push(Reverse(item));
            return;
        }
        if self.len + 1 > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            // Same width, more buckets: the year only grows, so `day` stays
            // in the calendar.
            self.rebuild(self.len + 1, self.shift);
        }
        let key = item.key();
        let bucket = (day & self.mask) as usize;
        if let Some((_, at, seq)) = self.cached_min {
            if key < (at, seq) {
                self.cached_min = Some((bucket, item.at, item.seq));
            }
        }
        let deque = &mut self.buckets[bucket];
        // Sorted-ascending insert. Same-time events arrive with monotone
        // seq, so the common case is an append at the back, O(1).
        let pos = deque.partition_point(|s| s.key() < key);
        self.window.shifted += (deque.len() - pos) as u64;
        self.window.inserts += 1;
        deque.insert(pos, item);
        self.len += 1;
    }

    /// Location of the calendar's minimum, memoized so an immediately
    /// following pop is `O(1)`.
    #[inline]
    fn near_min(&mut self) -> Option<(usize, SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.cached_min.is_none() {
            self.cached_min = Some(self.locate_min());
        }
        self.cached_min
    }

    /// Key of the minimum pending event, memoizing the calendar's minimum
    /// so an immediately following [`pop_min`](Self::pop_min) is `O(1)`.
    pub fn min_key(&mut self) -> Option<(SimTime, u64)> {
        let near = self.near_min().map(|(_, at, seq)| (at, seq));
        let far = self.far.peek().map(|r| r.0.key());
        match (near, far) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (n, f) => n.or(f),
        }
    }

    /// Remove and return the minimum pending event.
    pub fn pop_min(&mut self) -> Option<Scheduled<E>> {
        let near = self.near_min();
        let far = self.far.peek().map(|r| r.0.key());
        let Some((bucket, at, _)) = near.filter(|&(_, at, seq)| far.is_none_or(|f| (at, seq) < f))
        else {
            let item = self.far.pop()?.0;
            self.cur_day = self.day_of(item.at);
            return Some(item);
        };
        let item = self.buckets[bucket]
            .pop_front()
            .expect("minimum bucket empty");
        debug_assert_eq!(item.at, at, "cached minimum out of date");
        self.cached_min = None;
        self.len -= 1;
        self.cur_day = self.day_of(at);
        self.window.record_pop(at);
        let nbuckets = self.buckets.len();
        if self.len < nbuckets / 4 && nbuckets > MIN_BUCKETS {
            self.rebuild(self.len.max(MIN_BUCKETS), self.shift);
        } else if self.window.pops >= nbuckets as u64 {
            self.retune();
        }
        Some(item)
    }

    /// Close a retune window: rebuild at the window's tuned width when its
    /// pops scanned too many days or its inserts shifted too many events,
    /// keeping the bucket count. A rebuild to the same width is skipped.
    fn retune(&mut self) {
        let window = std::mem::take(&mut self.window);
        let retuned = window
            .shift()
            .filter(|&s| window.costly() && s != self.shift);
        if let Some(shift) = retuned {
            self.rebuild(self.buckets.len(), shift);
        }
    }

    /// Number of pending events (calendar and far lane).
    #[inline]
    pub fn len(&self) -> usize {
        self.len + self.far.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated event slots across the calendar's buckets and the far lane
    /// (for telemetry).
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.capacity()).sum::<usize>() + self.far.capacity()
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
            backend: CalendarBackend::with_capacity(MIN_BUCKETS),
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

    /// Allocated event slots across every lane: the calendar's buckets,
    /// the far lane and the staged lane.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.backend.capacity() + self.staged.capacity()
    }

    /// Key of the minimum pending event. The first call sorts the staged
    /// lane (one deferred sort instead of n backend pushes) and closes it
    /// to further staging; the executor makes that call while priming its
    /// queues, before the timed loop.
    #[inline]
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.started {
            // `(at, seq)` keys are unique, so the unstable sort yields the
            // same order as a stable one without its scratch buffer (half
            // the lane: ~28 MB at a million sessions).
            self.staged.sort_unstable_by_key(|s| Reverse(s.key()));
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
    /// twice its length), and its last pop frees it: a 1M-session run does
    /// not carry the whole seeding array to the end. That is a handful of
    /// reallocations per run, and storage only — the pop order cannot
    /// change.
    ///
    /// # Panics
    /// If the popped event lies before the current time: a merge of the
    /// lanes that broke the `(time, key)` order would show here first.
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        let key = self.peek_key()?;
        let item = if self.staged.last().is_some_and(|s| s.key() == key) {
            let item = self.staged.pop();
            let (len, cap) = (self.staged.len(), self.staged.capacity());
            if len * 4 < cap && (cap >= STAGED_RELEASE_MIN || len == 0) {
                self.staged.shrink_to(len * 2);
            }
            item
        } else {
            self.backend.pop_min()
        }
        .expect("peeked minimum vanished");
        assert!(item.at >= self.now, "event queue time went backwards");
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
    use crate::rng::RunRng;
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
                    // far-future outliers for the far lane.
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
    /// start, and the year-scan returned a later event first. The flood now
    /// goes to the far lane; the later near push must still pop first.
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
        // Far-future flood with nothing pending below 10 s; a width re-tune
        // used to drag the scan start up there too.
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

    /// The calendar and the heap oracle, driven in lockstep: every push
    /// goes to both, every pop must agree on the event and on `min_key`.
    struct Lockstep {
        heap: HeapBackend<u64>,
        cal: CalendarBackend<u64>,
        floor: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                heap: HeapBackend::default(),
                cal: CalendarBackend::with_capacity(MIN_BUCKETS),
                floor: 0,
            }
        }

        /// Push at `floor + ahead_us` under key `seq`.
        fn push(&mut self, ahead_us: u64, seq: u64) {
            let at = self.floor + ahead_us;
            self.heap.push(sched(at, seq));
            self.cal.push(sched(at, seq));
        }

        /// Pop from both and compare; the floor follows popped time.
        /// Returns whether an event was pending.
        fn pop(&mut self) -> bool {
            assert_eq!(self.heap.min_key(), self.cal.min_key());
            let a = self.heap.pop_min().map(|s| (s.at, s.seq, s.event));
            let b = self.cal.pop_min().map(|s| (s.at, s.seq, s.event));
            assert_eq!(a, b);
            if let Some((at, _, _)) = a {
                self.floor = at.as_micros();
            }
            a.is_some()
        }

        fn drain(&mut self) {
            while self.pop() {}
            assert!(self.heap.is_empty() && self.cal.is_empty());
        }
    }

    /// The paper's mix: most pushes land within a few milliseconds, a few
    /// are think timers seconds ahead, and a handful are far markers
    /// (measurement windows, crashes) minutes ahead.
    #[test]
    fn bimodal_schedules_pop_like_the_heap_oracle() {
        let mut far_seen = 0;
        check(100, |g: &mut Gen| {
            let mut q = Lockstep::new();
            let mut seq = 0u64;
            for _ in 0..g.usize_in(1, 3_000) {
                if g.chance(0.5) {
                    q.pop();
                    continue;
                }
                let ahead = match g.u64_in(0, 100) {
                    0 => g.u64_in(60_000_000, 600_000_000),
                    1..=6 => g.u64_in(1_000_000, 15_000_000),
                    7..=20 => 0,
                    _ => g.u64_in(0, 8_000),
                };
                for _ in 0..g.usize_in(1, 3) {
                    q.push(ahead, seq);
                    seq += 1;
                }
                far_seen += q.cal.far.len();
            }
            q.drain();
        });
        assert!(far_seen > 0, "no schedule reached the far lane");
    }

    /// A push exactly one year past `cur_day` would share a bucket with the
    /// current day, out of the year-scan's reach: it goes to the far lane,
    /// and one day less stays in the calendar.
    #[test]
    fn a_push_one_full_year_ahead_goes_to_the_far_lane() {
        let mut q = Lockstep::new();
        let year = (MIN_BUCKETS as u64) << DEFAULT_SHIFT;
        q.push(year, 0);
        q.push(year - 1, 1);
        assert_eq!((q.cal.far.len(), q.cal.len), (1, 1));
        q.drain();
    }

    /// Events parked in the far lane are still there when time catches up
    /// with them, while new near pushes land at the same instants in the
    /// calendar. Keys are not monotone in push order (as with keys minted
    /// per origin shard), so a later near push can beat an earlier far
    /// event at the same time.
    #[test]
    fn far_events_crossing_into_the_near_band_pop_in_order() {
        check(50, |g: &mut Gen| {
            let mut q = Lockstep::new();
            let far_base = g.u64_in(2_000_000, 5_000_000);
            let far_times: Vec<u64> = (0..40).map(|i| far_base + i * g.u64_in(1, 3_000)).collect();
            for (i, &t) in far_times.iter().enumerate() {
                q.push(t, (1 << 56) + i as u64);
            }
            assert_eq!(q.cal.far.len(), far_times.len(), "far pushes stayed near");
            let mut seq = 0u64;
            let mut shared_instant = false;
            while !q.cal.is_empty() {
                // Near traffic a few ms ahead keeps time moving; some of it
                // lands exactly on a parked far event's instant.
                let next_far = q.cal.far.peek().map(|r| r.0.at.as_micros());
                match next_far {
                    Some(t) if t <= q.floor + 8_000 && g.chance(0.5) => {
                        let parked = q.cal.far.len();
                        q.push(t - q.floor, seq);
                        // Went to the calendar while its twin stays parked.
                        shared_instant |= q.cal.far.len() == parked;
                    }
                    Some(_) => q.push(g.u64_in(1, 8_000), seq),
                    None => {}
                }
                seq += 1;
                q.pop();
            }
            assert!(shared_instant, "no instant was held by both lanes");
        });
    }

    /// Reverse-order inserts make a window costly, so a retune narrows the
    /// days and spills what now lies past the shorter year into the far
    /// lane; a sparse chain afterwards makes scans costly and widens them
    /// again. Grow and shrink rebuilds ride along. Every pop still matches
    /// the heap.
    #[test]
    fn forced_retunes_and_rebuilds_spill_to_the_far_lane_in_order() {
        let mut q = Lockstep::new();
        // 120 events 250 µs apart within the first (4 ms-day) year, pushed
        // latest first: each insert shifts the later events of its bucket.
        for i in (0..120u64).rev() {
            q.push(i * 250, i);
        }
        assert_eq!((q.cal.far.len(), q.cal.shift), (0, DEFAULT_SHIFT));
        for _ in 0..MIN_BUCKETS {
            q.pop();
        }
        assert!(q.cal.shift < DEFAULT_SHIFT, "costly window did not narrow");
        assert!(!q.cal.far.is_empty(), "narrowed year spilled nothing");
        // Interleave near pushes with the spilled events, then force a
        // grow rebuild (more than two events per bucket) and drain, which
        // shrinks it again.
        let mut seq = 1_000u64;
        for _ in 0..3 * MIN_BUCKETS {
            q.push(seq % 997, seq);
            seq += 1;
        }
        assert!(q.cal.buckets.len() > MIN_BUCKETS, "no grow rebuild");
        q.drain();
        assert_eq!(q.cal.buckets.len(), MIN_BUCKETS, "no shrink rebuild");
        // A sparse near band: a chain of events 40 days apart, so every
        // pop scans 40 days until a retune widens them.
        let narrow = q.cal.shift;
        q.push(0, seq);
        for _ in 0..2 * MIN_BUCKETS {
            q.pop();
            seq += 1;
            q.push(40 << narrow, seq);
        }
        assert!(q.cal.shift > narrow, "costly scans did not widen the days");
        q.drain();
    }

    /// On a closed loop shaped like the paper's run (think timers seconds
    /// ahead, request chains a few milliseconds deep), queue storage stays
    /// within a small multiple of the events it holds once the loop is in
    /// steady state: the far lane holds the think timers and the calendar
    /// only the near band. Counting every lane, it never falls below them.
    #[test]
    fn storage_follows_live_events_on_a_paper_like_stream() {
        const USERS: u64 = 3_000;
        const STEPS: u64 = 20;
        // Event payload: `user << 8 | step`; step 0 is the think timer,
        // `LEAF` a side effect of a step that schedules nothing.
        const LEAF: u64 = 0xff;
        let mut rng = RunRng::new(7);
        let mut q = EventQueue::new();
        let mut key = 0u64;
        for user in 0..USERS {
            let at = SimTime::from_secs_f64(rng.exp_mean(7.0));
            q.stage_keyed(at, key, user << 8);
            key += 1;
        }
        let every_lane_counted = |q: &EventQueue<u64>| {
            let (cap, len) = (q.capacity(), q.len());
            assert!(cap >= len, "{cap} slots counted for {len} pending events");
        };
        every_lane_counted(&q);
        let mut worst = 0.0f64;
        let mut popped = 0u64;
        while let Some(item) = q.pop() {
            let now = item.at;
            if now > SimTime::from_secs(20) {
                break;
            }
            let (user, step) = (item.event >> 8, item.event & 0xff);
            if step == LEAF {
                continue;
            }
            let mut push = |q: &mut EventQueue<u64>, at, event| {
                q.push_keyed(at, key, event);
                key += 1;
            };
            if step == STEPS {
                let think = SimTime::from_secs_f64(rng.exp_mean(7.0));
                push(&mut q, now + think, user << 8);
                continue;
            }
            for _ in 0..3 {
                let at = now + SimTime::from_micros(rng.index(10_000) as u64);
                push(&mut q, at, user << 8 | LEAF);
            }
            let at = now + SimTime::from_micros(rng.index(10_000) as u64);
            push(&mut q, at, user << 8 | (step + 1));
            popped += 1;
            if popped.is_multiple_of(1_000) {
                every_lane_counted(&q);
                if now > SimTime::from_secs(8) {
                    worst = worst.max(q.capacity() as f64 / q.len() as f64);
                }
            }
        }
        assert!(worst > 0.0, "the loop never reached steady state");
        assert!(
            worst <= 3.0,
            "queue storage reached {worst:.1} slots per pending event"
        );
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
        // with `k` events left it holds at most max(4096, 4k) slots, none
        // once empty, and every pop still matches the upfront-push queue.
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
        assert_eq!(staged.staged_capacity(), 0, "the empty lane kept storage");

        // Most arrivals share a handful of timestamps and are staged out of
        // key order, so the lane's sort has to break ties on the key alone.
        let n = 20_000u64;
        let mut staged = EventQueue::new();
        let mut pushed = EventQueue::new();
        for i in 0..n {
            // 7 919 is prime and coprime to `n`: a permutation of 0..n.
            let key = i * 7_919 % n;
            let at = if key.is_multiple_of(3) {
                500
            } else {
                key % 4 * 250
            };
            staged.stage_keyed(SimTime::from_micros(at), key, key);
            pushed.push_keyed(SimTime::from_micros(at), key, key);
        }
        loop {
            let a = staged.pop().map(|s| (s.at, s.seq, s.event));
            let b = pushed.pop().map(|s| (s.at, s.seq, s.event));
            assert_eq!(a, b, "staged lane diverged on tied timestamps");
            if a.is_none() {
                break;
            }
        }
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
