//! Workspace-level differential proof that the executor delivers events in
//! exactly the order a binary heap would, through the *public* API, against
//! `simcore::testkit::HeapBackend` as the oracle.
//!
//! The unit-level half of this proof lives in `simcore::queue` (randomized
//! calendar-vs-heap pop parity). This file adds the layers above it: a
//! chaotic model that schedules ties, bursts, far-future events, and
//! lookahead-respecting cross-shard sends from inside its handlers, run on
//! the executor and on a plain heap loop that keys events the way the
//! executor does; and a full faulted n-tier run pinned to the digests the
//! heap and the calendar both produced when each was a selectable backend.

use rubbos_ntier::ntier_lab::digest_str;
use rubbos_ntier::prelude::*;
use rubbos_ntier::simcore::testkit::{check, Gen, HeapBackend};
use rubbos_ntier::simcore::{shard_key, Scheduled, ShardIo, ShardModel, ShardedEngine, SimTime};
use rubbos_ntier::workload::WorkloadConfig;

/// Cross-shard lookahead of the chaotic model.
const LOOKAHEAD: SimTime = SimTime(25);

/// A shard that reschedules pseudo-randomly (but deterministically) from
/// inside its handler: same-instant ties, near events, far-future jumps,
/// sends to the next shard, and quiet stretches — the access pattern that
/// tells event-list implementations apart if anything does.
struct Chaos {
    shard: usize,
    shards: usize,
    log: Vec<(u64, u32)>,
    budget: u32,
}

impl Chaos {
    /// Handle one event, returning the children it schedules as
    /// `(destination shard, time, id)`. Identical on both drivers by
    /// construction.
    fn step(&mut self, now: SimTime, event: u32) -> Vec<(usize, SimTime, u32)> {
        self.log.push((now.as_micros(), event));
        let h = (event as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.log.len() as u64);
        let mut children = Vec::new();
        for i in 0..(h % 3) as u32 {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            let child = event.wrapping_mul(31).wrapping_add(i + 1);
            let micros = SimTime::from_micros;
            children.push(match (h >> (8 + i)) % 5 {
                0 => (self.shard, now, child),
                1 => (self.shard, now + micros(h % 5_000), child),
                2 => (self.shard, now + micros(10_000_000 + h % 100_000), child),
                3 => (
                    (self.shard + 1) % self.shards,
                    now + LOOKAHEAD + micros(h % 50),
                    child,
                ),
                _ => (self.shard, now + micros(1 + h % 50), child),
            });
        }
        children
    }
}

impl ShardModel for Chaos {
    type Event = u32;

    fn handle(&mut self, now: SimTime, event: u32, io: &mut ShardIo<'_, u32>) {
        for (dest, at, child) in self.step(now, event) {
            io.send(dest, at, child);
        }
    }
}

fn chaos(shards: usize, budget: u32) -> Vec<Chaos> {
    (0..shards)
        .map(|shard| Chaos {
            shard,
            shards,
            log: Vec::new(),
            budget,
        })
        .collect()
}

/// The oracle: one global binary heap over every shard's events, keyed the
/// way the executor keys them (`shard_key(origin, origin's counter)`).
fn heap_oracle(mut models: Vec<Chaos>, seeds: &[(usize, u64, u32)]) -> Vec<Vec<(u64, u32)>> {
    let mut heap = HeapBackend::default();
    let mut counters = vec![0u64; models.len()];
    let mut push = |heap: &mut HeapBackend<(usize, u32)>, origin: usize, dest, at, id| {
        heap.push(Scheduled {
            at,
            seq: shard_key(origin, counters[origin]),
            event: (dest, id),
        });
        counters[origin] += 1;
    };
    for &(shard, at, id) in seeds {
        push(&mut heap, shard, shard, SimTime::from_micros(at), id);
    }
    while let Some(item) = heap.pop_min() {
        let (shard, id) = item.event;
        for (dest, at, child) in models[shard].step(item.at, id) {
            push(&mut heap, shard, dest, at, child);
        }
    }
    models.into_iter().map(|m| m.log).collect()
}

/// Drive the identical chaotic schedule through the executor (with and
/// without the staged-arrivals lane for the seeds) and through the heap
/// oracle, on one to three shards, and require the exact same delivery log
/// on every shard.
#[test]
fn chaotic_schedules_deliver_identically_across_backends() {
    check(25, |g: &mut Gen| {
        let shards = g.usize_in(1, 4);
        let seeds: Vec<(usize, u64, u32)> = (0..g.usize_in(1, 40))
            .map(|i| (i % shards, g.u64_in(0, 1_000_000), i as u32))
            .collect();
        let budget = g.usize_in(50, 2_000) as u32;
        let want = heap_oracle(chaos(shards, budget), &seeds);
        for stage in [false, true] {
            let mut e = ShardedEngine::new(chaos(shards, budget), LOOKAHEAD);
            for &(shard, at, id) in &seeds {
                if stage {
                    e.stage(shard, SimTime::from_micros(at), id);
                } else {
                    e.schedule(shard, SimTime::from_micros(at), id);
                }
            }
            e.run_to_quiescence(u64::MAX);
            let got: Vec<Vec<(u64, u32)>> = e.into_models().into_iter().map(|m| m.log).collect();
            assert_eq!(
                got,
                want,
                "executor diverged from the heap oracle on seed {:#x} (staged: {stage})",
                g.seed()
            );
        }
    });
}

/// A faulted, retrying 4-tier run — the messiest public entry point — must
/// reproduce the report both backends produced when the heap could still be
/// selected for production runs. Debug formatting round-trips every float
/// exactly, so equal digests mean equal bits everywhere it matters.
#[test]
fn faulted_ntier_run_matches_pinned_digests() {
    let hw = HardwareConfig::one_two_one_two();
    let soft = SoftAllocation::rule_of_thumb();
    let mut topo = Topology::paper(hw, soft);
    topo.tiers[3].fault = FaultSpec::none().with_crash(
        0,
        SimTime::from_secs_f64(15.0),
        Some(SimTime::from_secs_f64(22.0)),
    );
    let mut cfg = SystemConfig::new(hw, soft, 500).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(500);
    cfg.retry = RetryPolicy::naive(3);
    let (out, report) = run_system_to_drain(cfg);
    assert_eq!(
        digest_str(&format!("{out:?}")),
        0xb673e512ed2adc69,
        "RunOutput drifted"
    );
    assert_eq!(
        digest_str(&format!("{report:?}")),
        0x4965a20efcf8fdf8,
        "DrainReport drifted"
    );
}
