//! End-to-end gate for the replicated controller: the full scenario
//! (bootstrap across partitions, per-reject flood defence at the
//! victim's owner replica, MITM tamper rejection at the owner replica,
//! versioned bulk rollover)
//! must pass on a fat-tree with ≥2 replicas, and its machine-readable
//! report must be bit-identical across two in-process runs — the same
//! property CI checks across two separate processes.

use p4auth_systems::replicated::{run, ReplicatedConfig};

#[test]
fn replicated_fat_tree_two_runs_bit_identical() {
    let first = run(ReplicatedConfig::default());

    assert!(first.replicas >= 2, "scenario must exercise >= 2 replicas");
    assert_eq!(first.switches, 20, "fat_tree(4) has 20 switches");
    assert!(
        first.partition_sizes.iter().all(|&n| n > 0),
        "every replica must own at least one switch"
    );
    assert!(first.cross_partition_links > 0);
    // One crossing, one action: the burst rolls the victim's key once.
    assert_eq!(
        first.flood_mitigations, 1,
        "flood must trigger defence once"
    );
    assert!(
        first
            .telemetry_json
            .contains(r#"{"name": "ctrl_defence_mitigations", "label": "replica1", "value": 1}"#),
        "the victim's owner replica mitigates exactly once"
    );
    assert!(first.victim_key_rolled);
    assert!(first.mitm_tampered > 0 && first.mitm_rejects_at_owner > 0);
    assert_eq!(first.rollover_epoch, 1);
    assert!(first.rollover_complete);
    assert!(first.fanout_ns.iter().all(|&ns| ns > 0));

    let second = run(ReplicatedConfig::default());
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "replicated run must be deterministic (telemetry included)"
    );
}
