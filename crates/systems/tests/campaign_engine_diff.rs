//! Scheduler differential over fault-injected campaign fabrics.
//!
//! Every scenario campaign's fabric phase — the user-scale workload with
//! its [`FaultPlan`](p4auth_netsim::fault::FaultPlan) installed — must be
//! bit-identical on the heap scheduler and the calendar scheduler. This
//! extends the plain-workload differentials (`scheduler_diff.rs`,
//! `aggregate_diff.rs`) to runs with link churn: faults are first-class
//! sim events, so the scheduler choice must never leak into what a fault
//! run computes.

use p4auth_netsim::sched::SchedulerKind;
use p4auth_systems::campaigns::fabric_plans;
use p4auth_systems::userscale::{run_users, UserScaleConfig, UserScaleRun};

fn run(plan_name: &str, kind: SchedulerKind) -> UserScaleRun {
    let (_, plan) = fabric_plans()
        .into_iter()
        .find(|(n, _)| *n == plan_name)
        .expect("known campaign");
    let mut cfg = UserScaleConfig::for_k(4, 3_000, 2);
    cfg.faults = Some(plan);
    run_users(&cfg, kind, None)
}

#[test]
fn campaign_fabrics_are_engine_invariant() {
    let names: Vec<&'static str> = fabric_plans().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names.len(), 5);
    for name in &names {
        let cal = run(name, SchedulerKind::Calendar);
        let heap = run(name, SchedulerKind::Heap);
        assert_eq!(
            cal.fingerprint(),
            heap.fingerprint(),
            "{name}: heap diverged from calendar"
        );
        assert_eq!(
            cal.stats, heap.stats,
            "{name}: heap drop taxonomy/fault counts diverged"
        );
        assert!(
            cal.stats.faults_applied > 0 || *name == "boot_storm_digest_flood",
            "{name}: the fault plan must actually fire"
        );
    }
}
