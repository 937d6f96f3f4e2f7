//! The replicated control plane's shared state: one typed rollover
//! table.
//!
//! A [`ReplicaSet`](crate::ReplicaSet)'s replicas coordinate bulk key
//! rollover through a [`RolloverTable`] instead of calling each other.
//! The table holds exactly the facts its readers need:
//!
//! | field | meaning |
//! |-------|---------|
//! | epoch, start time | the bulk-rollover epoch target and when it began |
//! | [`KexStatus`] per switch | pending (with the key version at epoch start) or done |
//! | fan-out per (replica, epoch) | sim-ns from epoch start until the replica's partition finished |
//! | leases | switches whose channel a cross-partition port-key redirect holds, with the redirect's home replica |
//!
//! The `Pending` baseline version is the crux of KMP-retry safety: a
//! switch is *done* exactly when its live key version differs from the
//! baseline recorded at epoch start. A replica (or a restarted one) that
//! re-reads the table cannot double-roll a switch — if the exchange
//! completed before the crash, the version already moved and the switch
//! is marked done at once; if it did not, the exchange is still (or
//! again) pending and the core's capped-backoff
//! [`Controller::retry_stalled`](crate::Controller::retry_stalled)
//! re-drives it.
//!
//! Everything is deterministic: maps are `BTreeMap`s keyed by switch id,
//! and every time stamp is simulation time passed in by the caller.
//! Writes are idempotent — storing the value already held changes
//! nothing and is not counted — so a restarted replica replays its
//! decisions against the table and the no-op writes vanish.
//! [`RolloverTable::writes`] counts the value-changing writes; replicas
//! use it to notice that the table moved since their last step.

use p4auth_wire::ids::{KeyVersion, SwitchId};
use std::collections::BTreeMap;

/// One switch's position in the bulk-rollover state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KexStatus {
    /// Awaiting its rollover for `epoch`.
    Pending {
        /// Epoch this entry belongs to.
        epoch: u64,
        /// Key version when the epoch started, `None` if the key did not
        /// exist yet.
        baseline: Option<KeyVersion>,
    },
    /// Finished its rollover for `epoch`.
    Done {
        /// Epoch this entry belongs to.
        epoch: u64,
    },
}

impl KexStatus {
    /// The epoch this status belongs to.
    pub fn epoch(self) -> u64 {
        match self {
            KexStatus::Pending { epoch, .. } | KexStatus::Done { epoch } => epoch,
        }
    }
}

/// The typed state table a replica set shares. See the module docs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RolloverTable {
    epoch: u64,
    started_ns: u64,
    status: BTreeMap<SwitchId, KexStatus>,
    fanout_ns: BTreeMap<(usize, u64), u64>,
    leases: BTreeMap<SwitchId, usize>,
    writes: u64,
}

/// Stores `value` at `slot`, counting the write only if it changed
/// something.
fn store<T: PartialEq>(writes: &mut u64, slot: &mut T, value: T) {
    if *slot != value {
        *slot = value;
        *writes += 1;
    }
}

/// Inserts `key = value` into `map`, counting the write only if it
/// changed something.
fn insert<K: Ord, V: PartialEq>(writes: &mut u64, map: &mut BTreeMap<K, V>, key: K, value: V) {
    if map.get(&key) != Some(&value) {
        map.insert(key, value);
        *writes += 1;
    }
}

impl RolloverTable {
    /// An empty table: no epoch ever started, no leases.
    pub fn new() -> Self {
        RolloverTable::default()
    }

    /// The current bulk-rollover epoch target (0 = never started).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sim-time the current epoch started.
    pub fn started_ns(&self) -> u64 {
        self.started_ns
    }

    /// Sets the epoch target to `epoch`, started at `now_ns`.
    pub fn start_epoch(&mut self, now_ns: u64, epoch: u64) {
        store(&mut self.writes, &mut self.epoch, epoch);
        store(&mut self.writes, &mut self.started_ns, now_ns);
    }

    /// `switch`'s rollover status, if the table has ever seen it.
    pub fn status(&self, switch: SwitchId) -> Option<KexStatus> {
        self.status.get(&switch).copied()
    }

    /// Records `switch`'s rollover status.
    pub fn set_status(&mut self, switch: SwitchId, status: KexStatus) {
        insert(&mut self.writes, &mut self.status, switch, status);
    }

    /// Whether every switch in `owned` has finished `epoch`.
    pub fn partition_done(&self, owned: &[SwitchId], epoch: u64) -> bool {
        owned
            .iter()
            .all(|s| self.status(*s) == Some(KexStatus::Done { epoch }))
    }

    /// Replica `replica`'s fan-out latency for `epoch`, once recorded.
    pub fn fanout_ns(&self, replica: usize, epoch: u64) -> Option<u64> {
        self.fanout_ns.get(&(replica, epoch)).copied()
    }

    /// Records replica `replica`'s fan-out latency for `epoch`.
    pub fn record_fanout(&mut self, replica: usize, epoch: u64, latency_ns: u64) {
        insert(
            &mut self.writes,
            &mut self.fanout_ns,
            (replica, epoch),
            latency_ns,
        );
    }

    /// The home replica of the redirect leasing `switch`'s channel, if
    /// any.
    pub fn lease(&self, switch: SwitchId) -> Option<usize> {
        self.leases.get(&switch).copied()
    }

    /// Leases `switch`'s channel to replica `home` for a redirect.
    pub fn grant_lease(&mut self, switch: SwitchId, home: usize) {
        insert(&mut self.writes, &mut self.leases, switch, home);
    }

    /// Drops `switch`'s lease. Not counted as a write: a release only
    /// lets the owner act again and wakes no one.
    pub fn release_lease(&mut self, switch: SwitchId) {
        self.leases.remove(&switch);
    }

    /// Value-changing writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The write count is the table's version: it moves on value
    /// changes only.
    #[test]
    fn versions_count_value_changes_only() {
        let mut t = RolloverTable::new();
        t.start_epoch(10, 1);
        assert_eq!(t.writes(), 2, "epoch and start time");
        t.start_epoch(10, 1);
        assert_eq!(t.writes(), 2, "no-op write");
        let sw = SwitchId::new(3);
        let pending = KexStatus::Pending {
            epoch: 1,
            baseline: Some(KeyVersion::new(0)),
        };
        t.set_status(sw, pending);
        t.set_status(sw, pending);
        assert_eq!(t.writes(), 3);
        t.set_status(sw, KexStatus::Done { epoch: 1 });
        assert_eq!(t.status(sw), Some(KexStatus::Done { epoch: 1 }));
        assert_eq!(t.writes(), 4);
    }

    #[test]
    fn partition_done_needs_every_switch_done_for_that_epoch() {
        let mut t = RolloverTable::new();
        let (a, b) = (SwitchId::new(1), SwitchId::new(2));
        t.set_status(a, KexStatus::Done { epoch: 2 });
        t.set_status(b, KexStatus::Done { epoch: 1 });
        assert!(!t.partition_done(&[a, b], 2), "b is an epoch behind");
        t.set_status(b, KexStatus::Done { epoch: 2 });
        assert!(t.partition_done(&[a, b], 2));
        assert!(
            !t.partition_done(&[a, SwitchId::new(9)], 2),
            "unseen switch"
        );
    }

    #[test]
    fn remove_forgets_the_key() {
        let mut t = RolloverTable::new();
        let sw = SwitchId::new(4);
        t.grant_lease(sw, 1);
        assert_eq!(t.lease(sw), Some(1));
        let writes = t.writes();
        t.release_lease(sw);
        assert_eq!(t.lease(sw), None);
        assert_eq!(t.writes(), writes, "a release is not a write");
    }
}
