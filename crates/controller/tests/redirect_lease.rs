//! Regression: a cross-partition port-key redirect that the home core
//! abandons must release its lease.
//!
//! The lease keeps the responder's owner from rolling the responder
//! while the redirect holds its channel. If the home core gives up on
//! the exchange (`retry_stalled` exhausted its retry budget) and the
//! lease stayed, the owner would skip that switch forever and no later
//! bulk-rollover epoch could complete.

use p4auth_controller::{ControllerConfig, ReplicaSet};
use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
use p4auth_primitives::Key64;
use p4auth_wire::ids::{PortId, SwitchId};
use std::collections::{BTreeMap, VecDeque};

const N_SWITCHES: u16 = 6;
const N_REPLICAS: usize = 2;

/// A replica set wired to real agents over an in-memory FIFO, with an
/// optional silenced switch whose every reply is dropped.
struct Fixture {
    set: ReplicaSet,
    agents: BTreeMap<SwitchId, P4AuthSwitch>,
    queue: VecDeque<(SwitchId, Vec<u8>)>,
    now: u64,
    silenced: Option<SwitchId>,
}

impl Fixture {
    fn new() -> Fixture {
        let seeds: Vec<(SwitchId, Key64)> = (1..=N_SWITCHES)
            .map(|i| (SwitchId::new(i), Key64::new(0x5eed ^ u64::from(i))))
            .collect();
        Fixture {
            set: ReplicaSet::new(N_REPLICAS, ControllerConfig::default(), &seeds),
            agents: seeds
                .iter()
                .map(|&(id, k)| (id, P4AuthSwitch::new(AgentConfig::new(id, 2, k), None)))
                .collect(),
            queue: VecDeque::new(),
            now: 1_000,
            silenced: None,
        }
    }

    fn enqueue(&mut self, out: Vec<p4auth_controller::Outgoing>) {
        self.queue.extend(out.into_iter().map(|o| (o.to, o.bytes)));
    }

    /// Delivers every queued frame; replies go back through the replica
    /// set unless their sender is silenced.
    fn drain_queue(&mut self) {
        while let Some((to, bytes)) = self.queue.pop_front() {
            let output = self
                .agents
                .get_mut(&to)
                .expect("frame addressed to a known switch")
                .on_packet(self.now, PortId::CPU, &bytes);
            if self.silenced == Some(to) {
                continue;
            }
            for (_, resp) in output.outputs {
                let (more, _) = self.set.on_message(self.now, to, &resp);
                self.enqueue(more);
            }
        }
    }

    fn step_all(&mut self, dt: u64) {
        self.now += dt;
        let out = self.set.step(self.now);
        self.enqueue(out);
        self.drain_queue();
    }

    fn bootstrap(&mut self) {
        let ids: Vec<SwitchId> = self.agents.keys().copied().collect();
        for id in ids {
            let out = self.set.local_key_init(self.now, id);
            self.enqueue(out);
        }
        self.drain_queue();
        assert!(self.agents.keys().all(|&id| self.set.has_local_key(id)));
    }

    fn kex_abandoned(&self) -> u64 {
        self.set
            .replicas()
            .iter()
            .map(|r| r.core.stats().kex_abandoned)
            .sum()
    }
}

#[test]
fn abandoned_cross_partition_redirect_releases_its_lease() {
    let (s1, s2) = (SwitchId::new(1), SwitchId::new(2));
    let mut fx = Fixture::new();
    assert_ne!(
        fx.set.owner(s1),
        fx.set.owner(s2),
        "the redirect must cross partitions"
    );
    fx.bootstrap();

    // S2 never answers: the home core retries the exchange with capped
    // backoff and finally abandons it.
    fx.silenced = Some(s2);
    let out = fx
        .set
        .port_key_init(fx.now, s1, PortId::new(1), s2, PortId::new(1));
    fx.enqueue(out);
    fx.drain_queue();
    assert_eq!(fx.set.table().lease(s2), Some(fx.set.owner(s1)));
    for round in 0..40u32 {
        if fx.kex_abandoned() == 1 {
            break;
        }
        fx.step_all(200_000u64 << round.min(22));
    }
    assert_eq!(fx.kex_abandoned(), 1, "the stalled redirect is abandoned");
    assert_eq!(
        fx.set.table().lease(s2),
        None,
        "no lease outlives its exchange"
    );

    // With S2 reachable again, a bulk epoch completes on every switch.
    fx.silenced = None;
    fx.set
        .start_bulk_rollover(fx.now)
        .expect("no epoch in flight");
    for round in 0..40u32 {
        fx.step_all(200_000u64 << round.min(22));
        fx.step_all(1);
        if fx.set.rollover_complete() {
            return;
        }
    }
    panic!("bulk rollover never completed after the abandoned redirect");
}
