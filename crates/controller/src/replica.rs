//! Replicated control plane: N [`ControllerReplica`]s partitioning the
//! switches by a deterministic hash, coordinating through one shared
//! [`RolloverTable`].
//!
//! Each replica is a protocol [`Controller`] core plus the bulk-rollover
//! step it runs over the table for the switches it owns. Flood detection
//! stays in the core: with [`ReplicaSet::enable_defence`] armed, each
//! core's per-reject sliding windows watch the channels of the switches
//! it owns, exactly as the single [`Controller`] does. The
//! [`ReplicaSet`] owns the shared table, routes incoming frames to the
//! replica responsible for the sending switch, and implements the two
//! places where replicas must cooperate:
//!
//! * **Versioned bulk key rollover** — [`ReplicaSet::start_bulk_rollover`]
//!   bumps the epoch target in the table; every replica then rolls its
//!   own partition independently, recording per-switch progress (with
//!   the baseline key version) in the table. The epoch cannot start
//!   while the previous one is incomplete, a restarted replica resumes
//!   from the table without re-baselining, and completion is judged by
//!   key-version movement — together these make the rollover
//!   KMP-retry-safe and restart-safe (no skipped or doubled derivation;
//!   proptested in `tests/replica_rollover.rs`).
//!
//! * **Cross-partition port-key redirects** — Fig. 14(c) runs both legs
//!   of an ADHKD exchange through *one* controller endpoint, but the
//!   two switches may hash to different replicas. The initiator's owner
//!   becomes the redirect *home*: it mirrors the responder's local key
//!   (read from the responder owner's core), takes over the outbound
//!   sequence counter toward the responder (agents demand strictly
//!   increasing sequence numbers from `SwitchId::CONTROLLER`, whichever
//!   replica seals the frame), and a lease in the table keeps the
//!   responder's owner from rolling that switch mid-redirect. When the
//!   answer leg passes through — or the home core abandons the
//!   exchange — the counter is handed back and the lease dropped.
//!
//! Determinism: replicas step in index order, partitions iterate in
//! switch-id order, the table is `BTreeMap`-backed, and each replica's
//! RNG seed derives from the base seed and its index — so a run with the
//! same topology and seeds is bit-identical, which the CI two-run gate
//! checks end-to-end.

use crate::controller::{Controller, ControllerConfig, ControllerEvent, Outgoing};
use crate::defence::DefenceConfig;
use crate::statedb::{KexStatus, RolloverTable};
use p4auth_primitives::Key64;
use p4auth_telemetry::{Registry, SpanKind};
use p4auth_wire::body::{AdhkdRole, Body, KexContext, KeyExchange};
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use p4auth_wire::Message;
use std::collections::BTreeMap;
use std::sync::Arc;

/// SplitMix64 finalizer — the partition hash. Deterministic across
/// processes and runs (no hash-seed randomness), well-mixed enough that
/// consecutive switch ids spread over the replicas.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which of `n` replicas owns `switch`. Pure function of the id, so
/// every component (and every run) agrees without coordination.
pub fn partition_of(switch: SwitchId, n: usize) -> usize {
    (mix(switch.value() as u64) % n.max(1) as u64) as usize
}

/// One replica: a protocol core plus the switches it owns. Build via
/// [`ReplicaSet::new`]; the set owns the shared table.
pub struct ControllerReplica {
    /// Replica index within the set.
    pub index: usize,
    /// Telemetry label, `replica{index}`.
    pub label: String,
    /// The protocol core (sealing, verifying, exchanges).
    pub core: Controller,
    owned: Vec<SwitchId>,
    /// The table's write count when this replica last looked; a higher
    /// count at the next step is its wakeup edge.
    seen_writes: u64,
}

impl ControllerReplica {
    /// The switches this replica owns (sorted).
    pub fn owned(&self) -> &[SwitchId] {
        &self.owned
    }

    /// One deterministic rollover step: reconcile the partition against
    /// `table`, issue whatever exchanges are due, record the fan-out
    /// latency once the partition finishes the epoch, and re-drive
    /// stalled exchanges (capped backoff inside the core). Every
    /// decision re-derives from the table, so a restarted replica
    /// resumes exactly where the old one stopped.
    fn step(&mut self, table: &mut RolloverTable, now_ns: u64) -> Vec<Outgoing> {
        let core = &mut self.core;
        core.set_now(now_ns);
        let moved = table.writes() - self.seen_writes;
        self.seen_writes = table.writes();
        if moved > 0 {
            core.trace_instant(SpanKind::DaemonWake, now_ns, moved, 0);
        }
        let mut out = Vec::new();
        let epoch = table.epoch();
        let before = table.writes();
        if epoch > 0 {
            for &switch in &self.owned {
                let live = core.local_key_material(switch).map(|(_, v)| v);
                // A new epoch (or a switch the table has never seen) gets
                // a pending entry with the live key version as baseline.
                // Never re-baseline a pending entry of the same epoch: the
                // stored baseline is what makes completion crash-safe.
                let status = match table.status(switch) {
                    Some(s) if s.epoch() == epoch => s,
                    _ => KexStatus::Pending {
                        epoch,
                        baseline: live,
                    },
                };
                let status = match status {
                    KexStatus::Pending { baseline, .. } if live.is_some() && live != baseline => {
                        KexStatus::Done { epoch }
                    }
                    s => s,
                };
                table.set_status(switch, status);
                // A leased channel belongs to a cross-partition redirect
                // in flight; an exchange in flight is re-driven by
                // `retry_stalled` below if its frames were lost.
                if matches!(status, KexStatus::Pending { .. })
                    && table.lease(switch).is_none()
                    && !core.kex_in_flight(switch)
                {
                    out.extend(if core.has_local_key(switch) {
                        core.local_key_update(switch)
                    } else {
                        core.local_key_init(switch)
                    });
                }
            }
        }
        let changed = table.writes() - before;
        if changed > 0 {
            core.trace_instant(SpanKind::StateDbWrite, now_ns, changed, 0);
        }

        // Record this partition's fan-out latency exactly once per epoch
        // (the table entry survives a replica restart).
        if epoch > 0
            && table.fanout_ns(self.index, epoch).is_none()
            && table.partition_done(&self.owned, epoch)
        {
            let started = table.started_ns();
            let latency = now_ns.saturating_sub(started);
            table.record_fanout(self.index, epoch, latency);
            core.record_rollover_fanout(latency);
            core.trace_span(
                SpanKind::RolloverEpoch,
                started.min(now_ns),
                now_ns,
                epoch,
                latency,
            );
        }

        out.extend(core.retry_stalled());
        out
    }
}

/// An in-flight port-key redirect, stored under each participating
/// switch.
#[derive(Clone, Copy, Debug)]
struct RedirectLease {
    /// Replica hosting both legs of the redirect.
    home: usize,
    /// The exchange as started: `(sw1, port1, sw2, port2)`.
    link: (SwitchId, PortId, SwitchId, PortId),
}

/// A set of controller replicas sharing one rollover table. See the
/// module docs for the coordination protocol.
pub struct ReplicaSet {
    table: RolloverTable,
    replicas: Vec<ControllerReplica>,
    redirects: BTreeMap<SwitchId, RedirectLease>,
}

impl ReplicaSet {
    /// Builds `n` replicas over `switches`, each switch registered (with
    /// its `K_seed`) on the replica [`partition_of`] assigns it to. Each
    /// replica's RNG seed derives from `config.rng_seed` and its index.
    pub fn new(n: usize, config: ControllerConfig, switches: &[(SwitchId, Key64)]) -> Self {
        assert!(n >= 1, "a replica set needs at least one replica");
        let mut replicas = Vec::with_capacity(n);
        for index in 0..n {
            let replica_config = ControllerConfig {
                rng_seed: mix(config.rng_seed ^ index as u64),
                ..config
            };
            let mut core = Controller::new(replica_config);
            let mut owned = Vec::new();
            for &(id, seed) in switches {
                if partition_of(id, n) == index {
                    core.register_switch(id, seed);
                    owned.push(id);
                }
            }
            owned.sort_unstable();
            replicas.push(ControllerReplica {
                index,
                label: format!("replica{index}"),
                core,
                owned,
                seen_writes: 0,
            });
        }
        ReplicaSet {
            table: RolloverTable::new(),
            replicas,
            redirects: BTreeMap::new(),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never: `new` asserts `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica index owning `switch`.
    pub fn owner(&self, switch: SwitchId) -> usize {
        partition_of(switch, self.replicas.len())
    }

    /// The replicas, in index order.
    pub fn replicas(&self) -> &[ControllerReplica] {
        &self.replicas
    }

    /// The shared rollover table (read-only).
    pub fn table(&self) -> &RolloverTable {
        &self.table
    }

    /// The core owning `switch`.
    pub fn core(&self, switch: SwitchId) -> &Controller {
        &self.replicas[self.owner(switch)].core
    }

    /// Mutable access to the core owning `switch`, clocked to `now_ns`.
    fn core_at(&mut self, now_ns: u64, switch: SwitchId) -> &mut Controller {
        let i = self.owner(switch);
        let core = &mut self.replicas[i].core;
        core.set_now(now_ns);
        core
    }

    /// Mutable access to the core owning `switch`.
    pub fn core_mut(&mut self, switch: SwitchId) -> &mut Controller {
        let i = self.owner(switch);
        &mut self.replicas[i].core
    }

    /// Attaches one registry to every replica's core, each labeled
    /// `replica{i}` so their series stay distinguishable, while the
    /// per-channel reject counters (labeled by channel, not replica)
    /// merge into one set-wide series.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        for r in &mut self.replicas {
            r.core.set_telemetry_labeled(registry.clone(), &r.label);
        }
    }

    /// Pushes the simulation clock to every core.
    pub fn set_now(&mut self, now_ns: u64) {
        for r in &mut self.replicas {
            r.core.set_now(now_ns);
        }
    }

    /// Arms the adaptive defence loop (see
    /// [`Controller::enable_defence`]) on every replica's core. Each
    /// core mitigates floods on the channels of the switches it owns,
    /// per reject, as the frames arrive.
    pub fn enable_defence(&mut self, config: DefenceConfig) {
        for r in &mut self.replicas {
            r.core.enable_defence(config);
        }
    }

    /// Routes one frame from `switch` to the responsible replica.
    /// Port-key redirect legs go to the redirect's *home* replica
    /// instead of the sender's owner; the answer leg completes the
    /// redirect.
    pub fn on_message(
        &mut self,
        now_ns: u64,
        from: SwitchId,
        bytes: &[u8],
    ) -> (Vec<Outgoing>, Vec<ControllerEvent>) {
        let mut target = self.owner(from);
        let mut answer_leg = false;
        // Only a live lease can divert the frame, so only then is it
        // worth decoding here (the core decodes it again either way).
        if let Some(lease) = self.redirects.get(&from) {
            if let Ok(msg) = Message::decode(bytes) {
                if let Body::KeyExchange(KeyExchange::Adhkd {
                    context: KexContext::PortInitRedirect,
                    role,
                    ..
                }) = msg.body()
                {
                    target = lease.home;
                    answer_leg = *role == AdhkdRole::Answer;
                }
            }
        }
        let core = &mut self.replicas[target].core;
        core.set_now(now_ns);
        let reply = core.on_message(from, bytes);
        if answer_leg {
            self.finish_redirect(from);
        }
        reply
    }

    /// Starts port-key initialization between `(sw1, port1)` and
    /// `(sw2, port2)`. If the switches hash to different replicas, the
    /// initiator's owner becomes the redirect home: it mirrors `sw2`'s
    /// local key from `sw2`'s owner, takes over the sequence counter
    /// toward `sw2`, and leases the channel until the answer leg
    /// completes.
    pub fn port_key_init(
        &mut self,
        now_ns: u64,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
        port2: PortId,
    ) -> Vec<Outgoing> {
        let home = self.owner(sw1);
        let owner2 = self.owner(sw2);
        if owner2 != home {
            if let Some((k, v)) = self.replicas[owner2].core.local_key_material(sw2) {
                let seq = self.replicas[owner2].core.channel_seq(sw2).unwrap_or(0);
                let home_core = &mut self.replicas[home].core;
                home_core.mirror_peer_key(sw2, k, v);
                home_core.set_channel_seq(sw2, seq);
            }
            self.table.grant_lease(sw2, home);
        }
        let lease = RedirectLease {
            home,
            link: (sw1, port1, sw2, port2),
        };
        self.redirects.insert(sw1, lease);
        self.redirects.insert(sw2, lease);
        self.core_at(now_ns, sw1)
            .port_key_init(sw1, port1, sw2, port2)
    }

    /// Whether the home core (`sw1`'s owner) still has the port-key
    /// exchange for exactly this link pending. Link-recovery handlers
    /// use it to avoid overlapping exchange generations on a flapping
    /// link (see [`Controller::has_pending_port_exchange`]).
    pub fn has_pending_port_exchange(
        &self,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
        port2: PortId,
    ) -> bool {
        self.core(sw1)
            .has_pending_port_exchange(sw1, port1, sw2, port2)
    }

    /// Completes the redirect `party` participated in: hands sequence
    /// counters back to the owners of any leased channels and drops the
    /// leases.
    fn finish_redirect(&mut self, party: SwitchId) {
        let Some(lease) = self.redirects.remove(&party) else {
            return;
        };
        let (sw1, _, sw2, _) = lease.link;
        self.redirects
            .remove(if party == sw1 { &sw2 } else { &sw1 });
        for sw in [sw1, sw2] {
            let owner = self.owner(sw);
            if owner != lease.home {
                if let Some(seq) = self.replicas[lease.home].core.channel_seq(sw) {
                    self.replicas[owner].core.set_channel_seq(sw, seq);
                }
            }
            self.table.release_lease(sw);
        }
    }

    /// Finishes every redirect whose home core no longer has the
    /// exchange pending — `retry_stalled` abandoned it — exactly as a
    /// completed answer leg would, so no lease outlives its exchange.
    fn release_abandoned_redirects(&mut self) {
        let abandoned: Vec<SwitchId> = self
            .redirects
            .iter()
            .filter(|(_, lease)| {
                let (sw1, port1, sw2, port2) = lease.link;
                !self.replicas[lease.home]
                    .core
                    .has_pending_port_exchange(sw1, port1, sw2, port2)
            })
            .map(|(&sw, _)| sw)
            .collect();
        for sw in abandoned {
            self.finish_redirect(sw);
        }
    }

    /// Whether `switch`'s owner has its local key established.
    pub fn has_local_key(&self, switch: SwitchId) -> bool {
        self.core(switch).has_local_key(switch)
    }

    /// Starts local-key initialization for `switch` on its owner.
    pub fn local_key_init(&mut self, now_ns: u64, switch: SwitchId) -> Vec<Outgoing> {
        self.core_at(now_ns, switch).local_key_init(switch)
    }

    /// Triggers a direct DP-DP port-key rollover via `sw1`'s owner.
    pub fn port_key_update(
        &mut self,
        now_ns: u64,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
    ) -> Vec<Outgoing> {
        self.core_at(now_ns, sw1).port_key_update(sw1, port1, sw2)
    }

    /// Reports a DP-DP port-key install to the owner's defence
    /// accounting (see [`Controller::notify_port_key_installed`]).
    pub fn notify_port_key_installed(&mut self, now_ns: u64, peer: SwitchId, channel: PortId) {
        self.core_at(now_ns, peer)
            .notify_port_key_installed(peer, channel);
    }

    /// Drains port-channel mitigations from every replica, in replica
    /// order.
    pub fn take_port_actions(&mut self) -> Vec<crate::defence::MitigationAction> {
        self.replicas
            .iter_mut()
            .flat_map(|r| r.core.take_port_actions())
            .collect()
    }

    /// Issues an authenticated register read toward `switch` via its
    /// owner replica.
    pub fn read_register(
        &mut self,
        now_ns: u64,
        switch: SwitchId,
        reg: RegId,
        index: u32,
    ) -> Outgoing {
        self.core_at(now_ns, switch)
            .read_register(switch, reg, index)
    }

    /// Issues an authenticated register write toward `switch` via its
    /// owner replica.
    pub fn write_register(
        &mut self,
        now_ns: u64,
        switch: SwitchId,
        reg: RegId,
        index: u32,
        value: u64,
    ) -> Outgoing {
        self.core_at(now_ns, switch)
            .write_register(switch, reg, index, value)
    }

    /// One orchestration step: every replica (in index order) runs its
    /// rollover step against the shared table.
    pub fn step(&mut self, now_ns: u64) -> Vec<Outgoing> {
        (0..self.replicas.len())
            .flat_map(|i| self.step_replica(i, now_ns))
            .collect()
    }

    /// Steps only replica `i` — the proptest uses this to interleave
    /// replica progress arbitrarily.
    pub fn step_replica(&mut self, i: usize, now_ns: u64) -> Vec<Outgoing> {
        let out = self.replicas[i].step(&mut self.table, now_ns);
        self.release_abandoned_redirects();
        out
    }

    /// Starts the next bulk key-rollover epoch across *all* partitions.
    /// Refuses (returns `None`) while a previous epoch is incomplete —
    /// overlapping epochs could alias two rollovers into one derivation,
    /// which is exactly the "skipped derivation" the versioned protocol
    /// rules out. Returns the new epoch number on success.
    pub fn start_bulk_rollover(&mut self, now_ns: u64) -> Option<u64> {
        let current = self.table.epoch();
        if current > 0 && !self.rollover_complete() {
            return None;
        }
        let epoch = current + 1;
        self.table.start_epoch(now_ns, epoch);
        Some(epoch)
    }

    /// The current bulk-rollover epoch target (0 = never started).
    pub fn rollover_epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Whether every switch on every replica has finished the current
    /// epoch.
    pub fn rollover_complete(&self) -> bool {
        let epoch = self.table.epoch();
        epoch == 0
            || self
                .replicas
                .iter()
                .all(|r| self.table.partition_done(&r.owned, epoch))
    }

    /// Simulates a crash/restart of replica `i`'s orchestration: it
    /// keeps no rollover state of its own, so it comes back with only
    /// the table to go on and its wake cursor at the table's current
    /// write count, exactly as a respawned process would. All rollover
    /// progress must therefore be recoverable from the table — the
    /// mid-rollover restart proptest pins this down. The core (keys,
    /// sequence counters, defence windows) keeps its state.
    pub fn restart_replica(&mut self, i: usize) {
        self.replicas[i].seen_writes = self.table.writes();
    }

    /// All alerts collected across the replicas, in replica order.
    pub fn alerts(&self) -> Vec<(SwitchId, p4auth_wire::body::AlertKind)> {
        self.replicas
            .iter()
            .flat_map(|r| r.core.alerts().iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(n: u16) -> Vec<(SwitchId, Key64)> {
        (1..=n)
            .map(|i| (SwitchId::new(i), Key64::new(0x5eed_0000 + i as u64)))
            .collect()
    }

    #[test]
    fn partition_is_deterministic_and_total() {
        for n in 1..5 {
            for s in 1..40u16 {
                let a = partition_of(SwitchId::new(s), n);
                let b = partition_of(SwitchId::new(s), n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
    }

    #[test]
    fn two_replicas_split_a_fat_tree_sized_fleet() {
        // fat_tree(4) has 20 switches; both replicas must own a
        // non-trivial share or "replicated" is a fiction.
        let set = ReplicaSet::new(2, ControllerConfig::default(), &seeds(20));
        assert!(set.replicas()[0].owned().len() >= 5);
        assert!(set.replicas()[1].owned().len() >= 5);
        let total: usize = set.replicas().iter().map(|r| r.owned().len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn rollover_refuses_to_overlap_epochs() {
        let mut set = ReplicaSet::new(2, ControllerConfig::default(), &seeds(4));
        assert_eq!(set.start_bulk_rollover(0), Some(1));
        // Nothing has completed: a second epoch must be refused.
        set.step(0);
        assert_eq!(set.start_bulk_rollover(10), None);
        assert_eq!(set.rollover_epoch(), 1);
    }

    /// A restart rebuilds the replicas' orchestration from the table
    /// and writes nothing to it.
    #[test]
    fn restart_rebuilds_daemons_without_losing_table_state() {
        let mut set = ReplicaSet::new(2, ControllerConfig::default(), &seeds(4));
        set.start_bulk_rollover(0);
        set.step(0);
        let before = set.table().clone();
        set.restart_replica(0);
        set.restart_replica(1);
        assert_eq!(set.table(), &before, "restart must not write");
    }

    /// The rollover step kicks off local-key init for a fresh switch,
    /// doesn't double-issue while the exchange is in flight, and records
    /// pending state in the table.
    #[test]
    fn rollover_step_initiates_and_does_not_double_issue() {
        let mut set = ReplicaSet::new(1, ControllerConfig::default(), &seeds(1));
        let sw = SwitchId::new(1);
        set.start_bulk_rollover(0);
        // First step: the replica starts EAK (one frame) and the core's
        // retry pass re-drives it once for free (the first retry has no
        // backoff delay) — two frames total, still ONE exchange.
        let out = set.step(0);
        assert_eq!(out.len(), 2, "EAK salt #1 + free first retry");
        assert_eq!(
            set.table().status(sw),
            Some(KexStatus::Pending {
                epoch: 1,
                baseline: None
            })
        );
        // Second step at the same instant: exchange in flight, backoff
        // not yet elapsed — no second exchange and a quiet retry pass.
        let out = set.step(0);
        assert!(out.is_empty(), "no double-issue: {}", out.len());
        assert!(set.core(sw).kex_in_flight(sw));
    }

    /// One step over a multi-switch partition writes one pending entry
    /// per switch, and a repeated step at the same instant writes
    /// nothing.
    #[test]
    fn rollover_step_writes_once_per_switch_and_is_idempotent() {
        let mut set = ReplicaSet::new(1, ControllerConfig::default(), &seeds(8));
        set.start_bulk_rollover(0);

        let before = set.table().writes();
        let out = set.step(0);
        assert!(!out.is_empty(), "rollover exchanges must be issued");
        assert_eq!(set.table().writes() - before, 8);

        let before = set.table().writes();
        let out = set.step(0);
        assert!(out.is_empty(), "no double-issue");
        assert_eq!(
            set.table().writes(),
            before,
            "idempotent step writes nothing"
        );
    }
}
