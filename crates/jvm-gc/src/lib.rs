//! # jvm-gc — stop-the-world garbage collector model
//!
//! The paper's over-allocation result (§III-B, Fig. 5) hinges on the JVM:
//! every idle DB connection keeps live objects (buffers, thread stacks) in the
//! C-JDBC server's heap, and Sun JDK 1.6's synchronous collector stops request
//! processing for the whole collection. With 800 connections the collector
//! consumed ~90% of the C-JDBC CPU; with 40 connections, ~1%.
//!
//! ## The model
//!
//! * **Live set** `L = base + threads·per_thread + conns·per_conn` — memory
//!   that survives every collection.
//! * **Allocation** — each request/query processed allocates transient bytes.
//!   A collection is triggered when transient allocation since the last GC
//!   exceeds the free heap `H − L`.
//! * **Pause** `= pause_base + pause_per_mb · L/MB` — mark cost scales with
//!   the live set.
//!
//! The overhead *fraction* is therefore
//! `pause · alloc_rate / (H − L)` — super-linear in the connection count,
//! diverging as `L → H`. That is exactly the shape of Fig. 5(b)/(c).
//!
//! The model is passive: the host server calls [`JvmGc::on_allocation`] as
//! work flows through, freezes its CPU for the returned pause, and calls
//! [`JvmGc::collection_finished`] when the pause ends.

use simcore::SimTime;

/// Bytes per mebibyte, for readable parameter tables.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Static JVM/GC parameters.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Total heap size in bytes.
    pub heap_bytes: f64,
    /// Live bytes independent of soft-resource allocation.
    pub base_live_bytes: f64,
    /// Live bytes pinned per registered thread.
    pub live_per_thread_bytes: f64,
    /// Live bytes pinned per registered connection (idle: socket buffers).
    pub live_per_conn_bytes: f64,
    /// Live bytes pinned per *occupied* connection/thread (in-flight request
    /// state: result sets, marshalling buffers). This is what makes a large
    /// connection pool cheap while the system is healthy and disastrous once
    /// queues fill every connection (paper §III-B).
    pub live_per_active_bytes: f64,
    /// Fixed component of a stop-the-world pause (seconds).
    pub pause_base_secs: f64,
    /// Pause seconds per MiB of live set (mark cost).
    pub pause_per_live_mib_secs: f64,
    /// Minimum free heap assumed even when over-committed, so GC frequency
    /// stays finite (models the JVM shrinking allocation buffers under
    /// pressure rather than dying).
    pub min_free_bytes: f64,
}

impl GcConfig {
    /// Parameters resembling a 2011-era Sun JDK 1.6 server JVM with a 512 MiB
    /// heap and a synchronous collector, calibrated so that ~800 registered
    /// connections drive the GC fraction toward ~90% under the paper's
    /// C-JDBC query rates (Fig. 5(c)).
    pub fn jdk6_server() -> Self {
        GcConfig {
            heap_bytes: 512.0 * MIB,
            base_live_bytes: 48.0 * MIB,
            live_per_thread_bytes: 0.02 * MIB,
            live_per_conn_bytes: 0.05 * MIB,
            live_per_active_bytes: 0.30 * MIB,
            pause_base_secs: 0.005,
            pause_per_live_mib_secs: 0.45e-3,
            min_free_bytes: 6.0 * MIB,
        }
    }

    /// A JVM that never collects — the GC-ablation configuration.
    pub fn disabled() -> Self {
        GcConfig {
            heap_bytes: f64::INFINITY,
            base_live_bytes: 0.0,
            live_per_thread_bytes: 0.0,
            live_per_conn_bytes: 0.0,
            live_per_active_bytes: 0.0,
            pause_base_secs: 0.0,
            pause_per_live_mib_secs: 0.0,
            min_free_bytes: 1.0,
        }
    }
}

/// Context of one triggered stop-the-world collection (tracing hook).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcPause {
    /// Pause length.
    pub pause: SimTime,
    /// Live set at trigger time (bytes) — what made the pause this long.
    pub live_bytes: f64,
    /// 1-based lifetime collection ordinal.
    pub collection: u64,
}

/// A garbage-collected JVM heap attached to one server.
#[derive(Debug)]
pub struct JvmGc {
    config: GcConfig,
    threads: usize,
    conns: usize,
    active: usize,
    allocated_since_gc: f64,
    in_collection: bool,
    // --- accounting ---
    collections: u64,
    total_pause_secs: f64,
    total_allocated: f64,
    // measurement window snapshots
    collections_mark: u64,
    pause_mark: f64,
}

impl JvmGc {
    /// Create a JVM with the given parameters and no registered soft resources.
    pub fn new(config: GcConfig) -> Self {
        assert!(config.heap_bytes > 0.0, "heap must be positive");
        JvmGc {
            config,
            threads: 0,
            conns: 0,
            active: 0,
            allocated_since_gc: 0.0,
            in_collection: false,
            collections: 0,
            total_pause_secs: 0.0,
            total_allocated: 0.0,
            collections_mark: 0,
            pause_mark: 0.0,
        }
    }

    /// Register the server's thread-pool size (live stacks).
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n;
    }

    /// Register the number of connections terminating at this JVM (live
    /// buffers). For C-JDBC this is the *sum of all Tomcat DB connection
    /// pools* — the paper's one-connection-one-thread coupling.
    pub fn set_conns(&mut self, n: usize) {
        self.conns = n;
    }

    /// Register the number of *occupied* connections/threads (jobs currently
    /// inside the server). Called by the host whenever its CPU population
    /// changes.
    pub fn set_active(&mut self, n: usize) {
        self.active = n;
    }

    /// Current live set in bytes.
    pub fn live_bytes(&self) -> f64 {
        self.config.base_live_bytes
            + self.threads as f64 * self.config.live_per_thread_bytes
            + self.conns as f64 * self.config.live_per_conn_bytes
            + self.active as f64 * self.config.live_per_active_bytes
    }

    /// Free heap available to transient allocation.
    pub fn free_bytes(&self) -> f64 {
        (self.config.heap_bytes - self.live_bytes()).max(self.config.min_free_bytes)
    }

    /// Record `bytes` of transient allocation. Returns the stop-the-world
    /// pause to apply if this allocation triggers a collection.
    ///
    /// While a collection is in progress further allocations accumulate but
    /// cannot trigger a nested collection.
    pub fn on_allocation(&mut self, bytes: f64) -> Option<SimTime> {
        self.on_allocation_traced(bytes).map(|p| p.pause)
    }

    /// Like [`on_allocation`](Self::on_allocation), but a triggered
    /// collection comes back with its context — the tracing hook for GC-pause
    /// spans and their attribution.
    pub fn on_allocation_traced(&mut self, bytes: f64) -> Option<GcPause> {
        debug_assert!(bytes >= 0.0);
        self.allocated_since_gc += bytes;
        self.total_allocated += bytes;
        if self.in_collection || !self.config.heap_bytes.is_finite() {
            return None;
        }
        if self.allocated_since_gc < self.free_bytes() {
            return None;
        }
        self.in_collection = true;
        let live_bytes = self.live_bytes();
        let pause =
            self.config.pause_base_secs + self.config.pause_per_live_mib_secs * (live_bytes / MIB);
        self.collections += 1;
        self.total_pause_secs += pause;
        Some(GcPause {
            pause: SimTime::from_secs_f64(pause),
            live_bytes,
            collection: self.collections,
        })
    }

    /// The host signals the end of the stop-the-world pause.
    pub fn collection_finished(&mut self) {
        debug_assert!(
            self.in_collection,
            "collection_finished without a collection"
        );
        self.in_collection = false;
        self.allocated_since_gc = 0.0;
    }

    /// Whether a collection is in progress.
    pub fn collecting(&self) -> bool {
        self.in_collection
    }

    /// Collections triggered since the measurement mark.
    pub fn collections(&self) -> u64 {
        self.collections - self.collections_mark
    }

    /// Total stop-the-world seconds since the measurement mark.
    pub fn total_pause_secs(&self) -> f64 {
        self.total_pause_secs - self.pause_mark
    }

    /// Total transient bytes allocated over the JVM's lifetime.
    pub fn total_allocated(&self) -> f64 {
        self.total_allocated
    }

    /// Begin a measurement window (GC-time counters reported relative to it).
    pub fn begin_measurement(&mut self) {
        self.collections_mark = self.collections;
        self.pause_mark = self.total_pause_secs;
    }

    /// Predicted steady-state GC CPU fraction at a given allocation rate
    /// (bytes/second) — the analytical form used in tests and docs:
    /// pause over (pause + inter-collection period).
    pub fn predicted_overhead(&self, alloc_rate: f64) -> f64 {
        if !self.config.heap_bytes.is_finite() {
            return 0.0;
        }
        let pause = self.config.pause_base_secs
            + self.config.pause_per_live_mib_secs * (self.live_bytes() / MIB);
        let period = self.free_bytes() / alloc_rate;
        (pause / (pause + period)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jvm() -> JvmGc {
        JvmGc::new(GcConfig::jdk6_server())
    }

    #[test]
    fn no_gc_until_free_heap_exhausted() {
        let mut j = jvm();
        // Free heap ≈ 512-48 = 464 MiB; allocate 100 MiB → no GC.
        assert!(j.on_allocation(100.0 * MIB).is_none());
        assert_eq!(j.collections(), 0);
    }

    #[test]
    fn gc_triggers_at_free_heap() {
        let mut j = jvm();
        let free = j.free_bytes();
        assert!(j.on_allocation(free * 0.9).is_none());
        let pause = j.on_allocation(free * 0.2);
        assert!(pause.is_some());
        assert_eq!(j.collections(), 1);
        assert!(j.collecting());
        j.collection_finished();
        assert!(!j.collecting());
        // Counter reset: the same allocation again does not immediately trigger.
        assert!(j.on_allocation(free * 0.5).is_none());
    }

    #[test]
    fn no_nested_collections() {
        let mut j = jvm();
        let free = j.free_bytes();
        assert!(j.on_allocation(free * 1.5).is_some());
        // Still collecting: further allocation pressure must not re-trigger.
        assert!(j.on_allocation(free * 5.0).is_none());
        assert_eq!(j.collections(), 1);
    }

    #[test]
    fn live_set_grows_with_threads_conns_and_active() {
        let mut j = jvm();
        let base = j.live_bytes();
        j.set_threads(100);
        j.set_conns(800);
        let idle = j.live_bytes();
        assert!(idle > base + 40.0 * MIB);
        j.set_active(800); // every connection occupied
        let busy = j.live_bytes();
        assert!(busy > idle + 200.0 * MIB);
        assert!(j.free_bytes() < 240.0 * MIB);
    }

    fn trigger(j: &mut JvmGc) -> SimTime {
        let free = j.free_bytes();
        let p = j.on_allocation(free + 1.0).expect("should trigger");
        j.collection_finished();
        p
    }

    #[test]
    fn pause_grows_with_live_set() {
        let mut small = jvm();
        small.set_conns(40);
        small.set_active(40);
        let mut large = jvm();
        large.set_conns(800);
        large.set_active(800);
        let p_small = trigger(&mut small);
        let p_large = trigger(&mut large);
        assert!(p_large > p_small, "pause {p_large:?} !> {p_small:?}");
    }

    #[test]
    fn overhead_is_superlinear_in_conns() {
        // Fixed allocation rate; overhead must grow faster than linearly in
        // the connection count (the Fig. 5(b) shape).
        let rate = 150.0 * MIB; // bytes/sec
        let overhead = |conns: usize| {
            let mut j = jvm();
            j.set_conns(conns);
            j.set_active(conns); // saturated: every connection occupied
            j.predicted_overhead(rate)
        };
        let o40 = overhead(40);
        let o200 = overhead(200);
        let o800 = overhead(800);
        assert!(o40 < 0.03, "40 conns should be cheap: {o40}");
        assert!(o800 > 0.10, "800 busy conns should hurt: {o800}");
        // Super-linearity: 4x the connections, much more than 4x the overhead
        // ratio growth.
        assert!(o800 / o200 > 2.0, "o200={o200} o800={o800}");
        assert!(o800 / o40 > 10.0, "o40={o40} o800={o800}");
    }

    #[test]
    fn disabled_gc_never_collects() {
        let mut j = JvmGc::new(GcConfig::disabled());
        j.set_conns(10_000);
        j.set_active(10_000);
        for _ in 0..1000 {
            assert!(j.on_allocation(1e9).is_none());
        }
        assert_eq!(j.collections(), 0);
        assert_eq!(j.predicted_overhead(1e12), 0.0);
    }

    #[test]
    fn measurement_window_resets_counters() {
        let mut j = jvm();
        trigger(&mut j);
        assert_eq!(j.collections(), 1);
        assert!(j.total_pause_secs() > 0.0);
        j.begin_measurement();
        assert_eq!(j.collections(), 0);
        assert_eq!(j.total_pause_secs(), 0.0);
    }

    #[test]
    fn traced_allocation_reports_pause_context() {
        let mut j = jvm();
        j.set_conns(200);
        j.set_active(200);
        let free = j.free_bytes();
        let p = j.on_allocation_traced(free + 1.0).expect("should trigger");
        assert_eq!(p.collection, 1);
        assert!((p.live_bytes - j.live_bytes()).abs() < 1.0);
        assert!(p.pause > SimTime::ZERO);
    }

    #[test]
    fn accounting_totals() {
        let mut j = jvm();
        j.on_allocation(10.0 * MIB);
        j.on_allocation(20.0 * MIB);
        assert!((j.total_allocated() - 30.0 * MIB).abs() < 1.0);
    }
}
