//! # simcore — discrete-event simulation substrate
//!
//! This crate is the foundation of the n-tier application simulator used to
//! reproduce *"The Impact of Soft Resource Allocation on n-Tier Application
//! Scalability"* (IPDPS 2011). It provides:
//!
//! * [`SimTime`] — simulated time as integer microseconds (cheap, total-ordered,
//!   no floating-point drift in the event queue).
//! * [`ShardedEngine`] / [`ShardModel`] / [`ShardIo`] — an event-list
//!   executor: a model is one or more shards, each a plain `&mut` state
//!   machine over a user-defined event enum with its own event list
//!   ([`queue`]: a calendar queue for the near band, a heap for timers
//!   further out). The executor drains one shard at a time, in `(time, key)`
//!   order, for as long as its next event lies within the lookahead window
//!   that no other shard can reach into; so each shard sees the event
//!   sequence a strict global `(time, key)` order would give it.
//!   No `Rc`, no `RefCell`, no dynamic dispatch on the hot path.
//! * [`rng`] — deterministic, forkable random-number streams so that every
//!   experiment is exactly reproducible and parallel parameter sweeps are
//!   independent of scheduling order.
//! * [`stats`] — streaming statistics: Welford accumulators, fixed and
//!   logarithmic histograms with quantiles, time-weighted integrals (for
//!   utilization), and per-interval series (the "SysStat at one second
//!   granularity" of the paper).
//! * [`testkit`] — seeded randomized-test support and the binary-heap
//!   oracle the event queue is tested against.
//!
//! The engine is deliberately minimal: all domain behaviour (CPUs, pools,
//! servers, clients) lives in the crates layered on top.

pub mod profile;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod testkit;
pub mod time;

pub use profile::{peak_rss_bytes, EngineProfile, ShardLoad};
pub use queue::{CalendarBackend, Scheduled};
pub use rng::RunRng;
pub use shard::{shard_key, ShardIo, ShardModel, ShardedEngine, SHARD_KEY_BITS};
pub use time::SimTime;
