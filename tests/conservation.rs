//! Conservation property tests: run randomized topologies to full drain and
//! check flow balance — every request/query admitted by a tier node also
//! departed it, every soft pool returns to zero occupancy, and nothing is
//! left in flight once the closed loop is frozen and the event queue runs
//! dry.
//!
//! These invariants hold for *any* valid topology, so the generator draws
//! chain shape (3-tier vs 4-tier), replica counts (including the paper's
//! deeper `1/8/1/8`), pool sizes, selection policies, and workload at
//! random via `simcore::testkit`.

use rubbos_ntier::jvm_gc::GcConfig;
use rubbos_ntier::prelude::*;
use rubbos_ntier::simcore::testkit::{check, Gen};
use rubbos_ntier::simcore::SimTime;
use rubbos_ntier::workload::WorkloadConfig;

/// Build a random valid topology + config pair from the generator.
fn random_cfg(g: &mut Gen) -> SystemConfig {
    let users = g.usize_in(50, 300) as u32;
    let soft = SoftAllocation::new(g.usize_in(20, 400), g.usize_in(4, 150), g.usize_in(2, 60));
    let web = g.usize_in(1, 2);
    let app = g.usize_in(1, 8);
    let db = g.usize_in(1, 8);
    let four_tier = g.chance(0.6);
    let mut topo = if four_tier {
        let cmw = g.usize_in(1, 2);
        let mut hw = HardwareConfig::one_two_one_two();
        hw.web = web;
        hw.app = app;
        hw.cmw = cmw;
        hw.db = db;
        Topology::paper(hw, soft)
    } else {
        Topology::three_tier(web, app, db, soft, GcConfig::jdk6_server())
    };
    // Random replica-selection policies on the tiers that get fan-out.
    let policies = [
        SelectPolicy::RoundRobin,
        SelectPolicy::LeastOutstanding,
        SelectPolicy::HashById,
    ];
    for spec in &mut topo.tiers {
        spec.select = policies[g.usize_in(0, policies.len() - 1)];
    }
    // Occasionally disable lingering close on the front tier.
    if g.chance(0.3) {
        topo.tiers[0].linger = false;
    }
    topo.validate().expect("generator produces valid chains");

    let mut cfg =
        SystemConfig::new(HardwareConfig::one_two_one_two(), soft, users).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(users);
    cfg.seed = g.u64_in(0, u64::MAX - 1);
    cfg
}

/// Assert the full conservation contract on one drained run.
fn assert_conserved(label: &str, report: &DrainReport) {
    assert_eq!(
        report.in_flight_requests, 0,
        "{label}: requests still in flight after drain"
    );
    assert_eq!(
        report.in_flight_queries, 0,
        "{label}: queries still in flight after drain"
    );
    for node in &report.nodes {
        assert_eq!(
            node.arrivals, node.departures,
            "{label}/{}: admitted {} != completed+dropped {}",
            node.name, node.arrivals, node.departures
        );
        assert_eq!(
            (node.pool_in_use, node.pool_waiting),
            (0, 0),
            "{label}/{}: thread pool not back to balance",
            node.name
        );
        assert_eq!(
            (node.conn_in_use, node.conn_waiting),
            (0, 0),
            "{label}/{}: connection pool not back to balance",
            node.name
        );
    }
}

/// Layer random fault scenarios onto a config: replica crash/recovery on
/// the backend tiers, slow-replica windows, wire drops, deadlines, front
/// shedding, and client retries. Times target the quick schedule
/// (measurement window 10 s..40 s).
fn random_faults(g: &mut Gen, cfg: &mut SystemConfig) {
    let mut topo = cfg.effective_topology();
    let n_tiers = topo.tiers.len();
    for (t, spec) in topo.tiers.iter_mut().enumerate() {
        let backend = t >= 2; // Cmw or Db in both supported chains
        if backend {
            let mut fault = FaultSpec::none();
            let replicas = spec.replicas;
            let any_replica = |g: &mut Gen| -> u16 {
                if replicas > 1 {
                    g.usize_in(0, replicas - 1) as u16
                } else {
                    0
                }
            };
            if g.chance(0.5) {
                let replica = any_replica(g);
                let crash_at = SimTime::from_secs_f64(11.0 + g.usize_in(0, 20) as f64);
                let recover_at = if g.chance(0.7) {
                    Some(crash_at + SimTime::from_secs_f64(1.0 + g.usize_in(0, 10) as f64))
                } else {
                    None // permanent crash: the run must still drain clean
                };
                fault = fault.with_crash(replica, crash_at, recover_at);
            }
            if g.chance(0.3) {
                let replica = any_replica(g);
                let from = SimTime::from_secs_f64(11.0 + g.usize_in(0, 20) as f64);
                let until = g
                    .chance(0.7)
                    .then(|| from + SimTime::from_secs_f64(1.0 + g.usize_in(0, 10) as f64));
                fault = fault.with_slow(replica, from, until, 1.0 + g.usize_in(1, 6) as f64);
            }
            if g.chance(0.3) {
                fault = fault.with_drop_prob(g.usize_in(1, 50) as f64 / 1000.0);
            }
            spec.fault = fault;
        } else {
            // Front/app deadlines; shedding only on the front tier.
            if g.chance(0.4) {
                spec.timeout = Some(SimTime::from_secs_f64(if t == 0 {
                    4.0 + g.usize_in(0, 6) as f64
                } else {
                    1.0 + g.usize_in(0, 4) as f64
                }));
            }
            if t == 0 && g.chance(0.4) {
                spec.shed = if g.chance(0.5) {
                    ShedPolicy::QueueDepth(g.usize_in(5, 80))
                } else {
                    ShedPolicy::DeadlineAware {
                        budget: SimTime::from_secs_f64(2.0),
                        est_hold: SimTime::from_secs_f64(0.05),
                    }
                };
            }
        }
    }
    assert!(n_tiers >= 3);
    topo.validate().expect("fault generator stays in scope");
    cfg.topology = Some(topo);
    cfg.retry = if g.chance(0.5) {
        RetryPolicy::naive(g.usize_in(2, 3) as u8)
    } else {
        RetryPolicy::backoff(
            g.usize_in(2, 4) as u8,
            SimTime::from_secs_f64(0.2),
            2.0,
            0.5,
        )
    };
}

/// The run-level outcome law: every request admitted by the front tier ends
/// in exactly one terminal outcome (served, timed out, shed, or failed).
fn assert_outcome_law(label: &str, report: &DrainReport) {
    let front_tier = report.nodes[0]
        .name
        .rsplit_once('-')
        .map(|(t, _)| t.to_string())
        .unwrap_or_else(|| report.nodes[0].name.clone());
    let front_arrivals: u64 = report
        .nodes
        .iter()
        .filter(|n| n.name.starts_with(&front_tier))
        .map(|n| n.arrivals)
        .sum();
    assert_eq!(
        report.outcomes.total(),
        front_arrivals,
        "{label}: outcomes {:?} do not account for every admitted request",
        report.outcomes
    );
}

#[test]
fn random_fault_scenarios_conserve_flow() {
    check(10, |g| {
        let mut cfg = random_cfg(g);
        random_faults(g, &mut cfg);
        let label = format!("{}+faults", cfg.label());
        let (out, report) = run_system_to_drain(cfg);
        assert!(report.outcomes.total() > 0, "{label}: no traffic");
        assert_conserved(&label, &report);
        assert_outcome_law(&label, &report);
        // Availability is a probability, and goodput+badput==throughput must
        // survive errors-as-badput accounting.
        assert!((0.0..=1.0).contains(&out.availability), "{label}");
        for i in 0..out.sla_thresholds.len() {
            assert!(
                (out.goodput[i] + out.badput[i] - out.throughput).abs() < 1e-9,
                "{label}: goodput+badput != throughput under faults"
            );
        }
    });
}

#[test]
fn permanent_backend_crash_drains_clean() {
    // Kill both DB replicas for good mid-run: everything after that fails,
    // the closed loop keeps cycling errors, and the drain must still reach
    // a quiescent zero-in-flight state with the books balanced.
    let soft = SoftAllocation::rule_of_thumb();
    let hw = HardwareConfig::one_two_one_two();
    let mut topo = Topology::paper(hw, soft);
    topo.tiers[3].fault = FaultSpec::none()
        .with_crash(0, SimTime::from_secs_f64(15.0), None)
        .with_crash(1, SimTime::from_secs_f64(18.0), None);
    let mut cfg = SystemConfig::new(hw, soft, 300).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(300);
    cfg.retry = RetryPolicy::naive(3);
    let (out, report) = run_system_to_drain(cfg);
    assert!(out.outcomes.failed > 0, "crash produced no failures");
    assert!(out.availability < 1.0);
    assert_conserved("perma-crash", &report);
    assert_outcome_law("perma-crash", &report);
}

#[test]
fn random_topologies_conserve_flow() {
    check(10, |g| {
        let cfg = random_cfg(g);
        let label = cfg.label();
        let (out, report) = run_system_to_drain(cfg);
        assert!(out.completed > 0, "{label}: no traffic");
        assert_conserved(&label, &report);
        // The drained system saw real work on every *tier* (a single replica
        // of a wide tier may legitimately sit idle in a short run).
        let mut per_tier: std::collections::BTreeMap<&str, u64> = Default::default();
        for n in &report.nodes {
            let tier = n.name.rsplit_once('-').map(|(t, _)| t).unwrap_or(&n.name);
            *per_tier.entry(tier).or_default() += n.arrivals;
        }
        assert!(
            per_tier.values().all(|&a| a > 0),
            "{label}: an entire tier sat idle: {per_tier:?}"
        );
    });
}

#[test]
fn paper_topology_conserves_flow() {
    let mut cfg = SystemConfig::new(
        HardwareConfig::one_two_one_two(),
        SoftAllocation::rule_of_thumb(),
        400,
    );
    cfg.workload = WorkloadConfig::quick(400);
    let (_, report) = run_system_to_drain(cfg);
    assert_conserved("1/2/1/2", &report);
}

#[test]
fn deep_replication_conserves_flow() {
    let mut hw = HardwareConfig::one_two_one_two();
    hw.app = 8;
    hw.db = 8;
    let mut cfg = SystemConfig::new(hw, SoftAllocation::rule_of_thumb(), 600);
    cfg.workload = WorkloadConfig::quick(600);
    let (out, report) = run_system_to_drain(cfg);
    assert_eq!(report.nodes.len(), 18, "1+8+1+8 servers");
    assert!(out.completed > 0);
    assert_conserved("1/8/1/8", &report);
}

#[test]
fn hedged_requests_conserve_flow_and_never_double_count() {
    // Hedging re-dispatches a queued request to a sibling app replica; the
    // tied-request design cancels the original leg at the same instant, so
    // the app tier sees one extra arrival+departure pair per hedge while the
    // client still receives exactly one terminal outcome per interaction.
    let hw = HardwareConfig::one_two_one_two();
    let soft = SoftAllocation::new(400, 30, 20);
    let mut topo = Topology::paper(hw, soft);
    topo.tiers[2].fault = FaultSpec::none().with_slow(
        0,
        SimTime::from_secs(12),
        Some(SimTime::from_secs(25)),
        20.0,
    );
    topo.tiers[0].hedge = Some(HedgeSpec::after(SimTime::from_millis(200)));
    let mut cfg = SystemConfig::new(hw, soft, 700).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(700);
    let (out, report) = run_system_to_drain(cfg);

    assert!(out.outcomes.hedged > 0, "scenario produced no hedges");
    assert_conserved("hedged", &report);
    // The outcome law counts *front-tier* arrivals: a hedge re-issue lands
    // at the app tier only, so hedges must not inflate terminal outcomes.
    assert_outcome_law("hedged", &report);
    // `hedged` is a non-terminal counter: the terminal outcomes alone
    // account for every admitted request, with hedges tallied separately.
    assert_eq!(
        report.outcomes.total(),
        report.outcomes.completed
            + report.outcomes.timed_out
            + report.outcomes.shed
            + report.outcomes.failed,
        "hedged/retries must stay outside total()"
    );
    assert!(out.completed > 0);
}

#[test]
fn three_tier_chain_conserves_flow() {
    let soft = SoftAllocation::rule_of_thumb();
    let topo = Topology::three_tier(1, 2, 2, soft, GcConfig::jdk6_server());
    let mut cfg =
        SystemConfig::new(HardwareConfig::one_two_one_two(), soft, 400).with_topology(topo);
    cfg.workload = WorkloadConfig::quick(400);
    let (out, report) = run_system_to_drain(cfg);
    assert_eq!(report.nodes.len(), 5, "1+2+2 servers");
    assert!(out.completed > 0);
    assert_conserved("3-tier", &report);
}
