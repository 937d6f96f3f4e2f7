//! End-to-end scenario for the replicated control plane: a fat-tree
//! fleet partitioned across ≥2 [`ControllerReplica`]s, attacked with the
//! §II-A playbook, defended, and bulk-rolled.
//!
//! [`ControllerReplica`]: p4auth_controller::ControllerReplica
//!
//! One run exercises every cooperative path the replica layer has:
//!
//! 1. **Bootstrap** — local keys for all switches (each driven by its
//!    owner replica) and port keys for every DP-DP link, including the
//!    cross-partition redirects with their sequence-counter handoff.
//! 2. **Digest flood** (`attacks::digest_flood`) — forged acks on one
//!    victim C-DP channel; the victim's owner replica rejects each one,
//!    its core's defence window crosses the threshold, and it auto-rolls
//!    the victim's key exactly once (one crossing, one action).
//! 3. **Control-plane MitM** (`attacks::ctrl_mitm`) — a tap inflates a
//!    register read response on a switch owned by the *other* replica;
//!    the stale digest is rejected there, proving both partitions
//!    authenticate independently.
//! 4. **Bulk rollover** — a versioned epoch fans out over both
//!    partitions through the shared rollover table; per-replica fan-out
//!    latency is recorded in the table and telemetry.
//!
//! The report (and the full telemetry snapshot inside it) serializes to
//! deterministic JSON; `repro -- replicas` and the CI two-run gate diff
//! two independent runs byte for byte.

use crate::harness::ReplicatedNetwork;
use p4auth_attacks::{ctrl_mitm, digest_flood};
use p4auth_controller::{ControllerConfig, ControllerEvent, DefenceConfig};
use p4auth_dataplane::register::RegisterArray;
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::{Topology, HOST_ID_BASE};
use p4auth_primitives::rng::SplitMix64;
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{RegId, SwitchId};
use std::sync::Arc;

/// The register mapped on every switch for the MitM phase.
const REG: RegId = RegId::new(1);
/// The C-DP channel hangs off front-panel port 63 (see
/// [`Topology::fat_tree_with_controller`]).
const CDP_PORT: u8 = 63;

/// Configuration of one replicated-control-plane run.
#[derive(Clone, Copy, Debug)]
pub struct ReplicatedConfig {
    /// Fat-tree arity (k=4 ⇒ 20 switches).
    pub k: u16,
    /// Controller replicas partitioning the fleet.
    pub replicas: usize,
    /// Forged frames in the digest-flood phase.
    pub flood_frames: u32,
    /// Workload / key seed.
    pub seed: u64,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig {
            k: 4,
            replicas: 2,
            flood_frames: 24,
            seed: 0x5e70_f2e9_11ca_5000,
        }
    }
}

/// Outcome of [`run`]; serializes deterministically via
/// [`ReplicatedReport::to_json`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicatedReport {
    /// Replicas in the set.
    pub replicas: usize,
    /// Switches in the fleet.
    pub switches: usize,
    /// Switches owned by each replica (index order).
    pub partition_sizes: Vec<usize>,
    /// DP-DP links whose endpoints hash to different replicas (each ran
    /// the redirect + seq-handoff path during bootstrap).
    pub cross_partition_links: usize,
    /// Simulated bootstrap duration.
    pub bootstrap_ns: u64,
    /// Mitigations the replicas' defence loops issued during the flood.
    pub flood_mitigations: u64,
    /// Whether the flood victim's local key was rolled automatically.
    pub victim_key_rolled: bool,
    /// Frames the MitM tap rewrote.
    pub mitm_tampered: u64,
    /// Digest rejects counted at the MitM target's owner replica.
    pub mitm_rejects_at_owner: u64,
    /// The bulk-rollover epoch that ran.
    pub rollover_epoch: u64,
    /// Whether every switch on every replica finished the epoch.
    pub rollover_complete: bool,
    /// Per-replica rollover fan-out latency (sim-ns, index order).
    pub fanout_ns: Vec<u64>,
    /// Final simulated time.
    pub final_time_ns: u64,
    /// Full telemetry snapshot (itself deterministic JSON).
    pub telemetry_json: String,
}

impl ReplicatedReport {
    /// Deterministic JSON: fixed key order, no floats, the telemetry
    /// snapshot embedded verbatim.
    pub fn to_json(&self) -> String {
        let sizes: Vec<String> = self.partition_sizes.iter().map(usize::to_string).collect();
        let fanout: Vec<String> = self.fanout_ns.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"replicas\":{},\"switches\":{},\"partition_sizes\":[{}],",
                "\"cross_partition_links\":{},\"bootstrap_ns\":{},",
                "\"flood_mitigations\":{},\"victim_key_rolled\":{},",
                "\"mitm_tampered\":{},\"mitm_rejects_at_owner\":{},",
                "\"rollover_epoch\":{},\"rollover_complete\":{},",
                "\"fanout_ns\":[{}],\"final_time_ns\":{},\"telemetry\":{}}}\n"
            ),
            self.replicas,
            self.switches,
            sizes.join(","),
            self.cross_partition_links,
            self.bootstrap_ns,
            self.flood_mitigations,
            self.victim_key_rolled,
            self.mitm_tampered,
            self.mitm_rejects_at_owner,
            self.rollover_epoch,
            self.rollover_complete,
            fanout.join(","),
            self.final_time_ns,
            self.telemetry_json.trim_end(),
        )
    }
}

fn is_dp_dp(l: &p4auth_netsim::topology::Link) -> bool {
    let is_switch = |id: SwitchId| !id.is_controller() && id.value() < HOST_ID_BASE;
    is_switch(l.a.node) && is_switch(l.b.node)
}

/// Runs the full scenario; see the module docs for the phases.
///
/// # Panics
///
/// Panics if any phase fails to produce its expected effect (a key that
/// does not establish, a flood that does not trigger the defence, a
/// rollover that does not converge) — the scenario doubles as an
/// end-to-end assertion for `repro` and the tests.
pub fn run(config: ReplicatedConfig) -> ReplicatedReport {
    assert!(config.replicas >= 2, "the scenario is about replication");
    let registry = Arc::new(Registry::new());
    let mut net = ReplicatedNetwork::build(
        Topology::fat_tree_with_controller(config.k, 1_000, 200_000),
        config.replicas,
        ControllerConfig::default(),
        config.seed,
        |_| None,
        |_, c| c.map_register(REG, "ctr"),
    );
    for agent in net.switches.values() {
        agent
            .borrow_mut()
            .chassis_mut()
            .declare_register(RegisterArray::new("ctr", 8, 64));
    }
    net.enable_telemetry(registry.clone());

    // Phase 1: bootstrap. Every partition must be non-empty and at least
    // one link must cross partitions, or the run proves nothing about
    // replication.
    let bootstrap_ns = net.bootstrap_keys().as_ns();
    let (partition_sizes, cross_partition_links) = {
        let set = net.set.borrow();
        let sizes: Vec<usize> = set.replicas().iter().map(|r| r.owned().len()).collect();
        assert!(sizes.iter().all(|&s| s > 0), "empty partition");
        let crossing = net
            .sim
            .topology()
            .links()
            .iter()
            .filter(|l| is_dp_dp(l) && set.owner(l.a.node) != set.owner(l.b.node))
            .count();
        assert!(crossing > 0, "no cross-partition links");
        (sizes, crossing)
    };
    let _ = net.take_events();

    // Phase 2: digest flood on the victim's C-DP channel.
    let victim = SwitchId::new(1);
    net.enable_defence(DefenceConfig {
        window_ns: 1_000_000,
        reject_threshold: 4,
        ..DefenceConfig::default()
    });
    let mut rng = SplitMix64::new(config.seed ^ 0xf100d);
    for frame in digest_flood::forged_acks(config.flood_frames, victim, 50_000, &mut rng) {
        net.sim
            .inject_frame(victim, p4auth_wire::ids::PortId::new(CDP_PORT), frame);
    }
    net.sim
        .run_until(SimTime::from_ns(net.sim.now().as_ns() + 200_000_000));
    let events = net.take_events();
    let flood_mitigations = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. }))
        .count() as u64;
    let victim_key_rolled = events
        .iter()
        .any(|e| matches!(e, ControllerEvent::LocalKeyRolled(sw) if *sw == victim));
    assert!(victim_key_rolled, "flood must auto-roll the victim's key");

    // Phase 3: MitM on a switch the *other* replica owns.
    let target = {
        let set = net.set.borrow();
        let home = set.owner(victim);
        net.switches
            .keys()
            .copied()
            .filter(|&sw| set.owner(sw) != home)
            .min()
            .expect("both partitions are non-empty")
    };
    net.controller_write(target, REG, 0, 200);
    net.sim
        .run_until(SimTime::from_ns(net.sim.now().as_ns() + 50_000_000));
    let owner_label = format!("replica{}", net.set.borrow().owner(target));
    let rejects_before = registry
        .snapshot()
        .counter("auth_reject_bad_digest", &owner_label)
        .unwrap_or(0);
    let (cdp_link, _) = net
        .sim
        .topology()
        .link_at(target, p4auth_wire::ids::PortId::new(CDP_PORT))
        .expect("C-DP link exists");
    let tampered = ctrl_mitm::tamper_counter();
    net.sim.install_tap(
        cdp_link,
        target,
        ctrl_mitm::inflate_read_response(REG, 0, 5, tampered.clone()),
    );
    net.controller_read(target, REG, 0);
    net.sim
        .run_until(SimTime::from_ns(net.sim.now().as_ns() + 50_000_000));
    net.sim.remove_tap(cdp_link, target);
    let mitm_tampered = *tampered.borrow();
    let mitm_rejects_at_owner = registry
        .snapshot()
        .counter("auth_reject_bad_digest", &owner_label)
        .unwrap_or(0)
        .saturating_sub(rejects_before);
    assert!(mitm_tampered > 0, "the tap must see the read response");
    assert!(
        mitm_rejects_at_owner > 0,
        "the owner replica must reject the tampered response"
    );

    // Phase 4: versioned bulk rollover across both partitions.
    let rollover_epoch = net.start_bulk_rollover().expect("no epoch in flight");
    net.sim
        .run_until(SimTime::from_ns(net.sim.now().as_ns() + 500_000_000));
    let (rollover_complete, fanout_ns) = {
        let set = net.set.borrow();
        let complete = set.rollover_complete();
        let fanout = (0..config.replicas)
            .map(|i| set.table().fanout_ns(i, rollover_epoch).unwrap_or(0))
            .collect();
        (complete, fanout)
    };
    assert!(rollover_complete, "epoch must converge on every partition");

    ReplicatedReport {
        replicas: config.replicas,
        switches: net.switches.len(),
        partition_sizes,
        cross_partition_links,
        bootstrap_ns,
        flood_mitigations,
        victim_key_rolled,
        mitm_tampered,
        mitm_rejects_at_owner,
        rollover_epoch,
        rollover_complete,
        fanout_ns,
        final_time_ns: net.sim.now().as_ns(),
        telemetry_json: registry.snapshot().to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_scenario_end_to_end() {
        let report = run(ReplicatedConfig::default());
        assert_eq!(report.replicas, 2);
        assert_eq!(report.switches, 20); // fat_tree(4): 4 core + 8 agg + 8 edge
                                         // One crossing, one action: the burst rolls the victim's key once.
        assert_eq!(report.flood_mitigations, 1);
        assert!(report.victim_key_rolled);
        assert!(
            report.telemetry_json.contains(
                r#"{"name": "ctrl_defence_mitigations", "label": "replica1", "value": 1}"#
            ),
            "the victim's owner replica mitigates exactly once"
        );
        assert_eq!(report.rollover_epoch, 1);
        assert!(report.rollover_complete);
        assert!(
            report.fanout_ns.iter().all(|&f| f > 0),
            "every partition records a positive fan-out latency"
        );
    }
}
