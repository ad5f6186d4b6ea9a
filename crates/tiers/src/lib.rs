//! # tiers — the topology-driven n-tier application simulator
//!
//! This crate assembles the substrate crates into n-tier systems described
//! by a declarative [`Topology`]: an ordered chain of tier specs (replica
//! count, soft pools, GC on/off, lingering close, replica-selection policy).
//! The paper's testbed is the 4-tier chain
//!
//! ```text
//! clients ⇄ Apache (web) ⇄ Tomcat (app) ⇄ C-JDBC (clustering) ⇄ MySQL (db)
//! ```
//!
//! * **web tier (Apache)** — a worker-MPM web server: a worker-thread
//!   [`resources::SoftPool`], per-request static-content CPU work, and a
//!   **lingering-close** phase in which the worker waits for the client's
//!   TCP FIN after the response is sent (the mechanism behind the paper's
//!   buffering effect, §III-C).
//! * **app tier (Tomcat)** — servlet container: thread pool + *shared global
//!   DB connection pool* (the paper modified RUBBoS this way), CPU slices
//!   interleaved with SQL queries, and an attached JVM heap.
//! * **middleware tier (C-JDBC)** — clustering middleware: one implicit
//!   thread per app DB connection (the paper's one-connection-one-thread
//!   coupling), read load-balancing and write broadcast across DB replicas,
//!   and the JVM whose garbage collector dominates over-allocated
//!   configurations.
//! * **db tier (MySQL)** — per-connection threads, CPU demand per query, and
//!   a buffer-pool/disk model.
//!
//! Each chain position is realised by a tier node (see `tier_nodes.rs`)
//! behind a common `TierNode` trait; typed [`system::TierMsg`]s are routed
//! to nodes by a small dispatcher. Non-paper chains — `1/8/1/8`, a 3-tier
//! system without clustering middleware, replicated middleware — are
//! topology data, not new code.
//!
//! [`System`] implements [`simcore::ShardModel`]; [`run_system`] executes a full
//! trial (ramp-up → measured runtime → ramp-down) and returns a [`RunOutput`]
//! with every observable the paper's figures and algorithm need.

pub mod config;
pub mod fault;
pub mod ids;
pub mod linger;
pub mod nodes;
pub mod output;
pub mod persist;
pub mod request;
pub mod resilience;
pub mod slab;
pub mod system;
mod tier_nodes;
pub mod topology;

pub use config::{HardwareConfig, ServiceParams, SoftAllocation, SystemConfig};
pub use fault::{
    CrashWindow, FaultSpec, Outcome, OutcomeTotals, ShedPolicy, SlowWindow, TopologyError,
};
pub use ids::Tier;
pub use linger::LingerConfig;
pub use metrics::{
    Diagnosis, DiagnosisRules, Evidence, MetricsConfig, MetricsSink, RunMetrics, SloBurnSeries,
    SloPolicy,
};
pub use ntier_trace::{Bucket, FlightConfig, FlightSummary};
pub use output::{ApacheProbes, NodeReport, PoolReport, RunOutput};
pub use persist::{output_from_json, output_to_json};
pub use resilience::{BreakerPhase, BreakerSpec, BreakerState, BrownoutSpec, HedgeSpec};
pub use simcore::EngineProfile;
pub use system::{
    run_system, run_system_full, run_system_metered, run_system_profiled, run_system_to_drain,
    run_system_to_drain_metered, run_system_traced, try_run_system, DrainReport, NodeDrain,
    RunTrace, System,
};
pub use topology::{SelectPolicy, TierId, TierSpec, Topology, MAX_TIERS};
pub use workload::{RetryBudget, RetryPolicy};
