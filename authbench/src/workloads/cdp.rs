//! `cdp_register_rw`: a closed loop of authenticated register RPCs.
//!
//! One client per switch (80) keeps exactly one register op outstanding
//! through the replicated control plane (two replicas) and sends its
//! next op the moment the reply arrives. Ops alternate 50/50, in a
//! seeded mix, between reads of `hula_tx_count` and writes of
//! `hula_local_util`. Telemetry is off. The workload loads the
//! controller core, replica routing, state-table publishes and the
//! agent's register handler; it sends no DP-DP traffic and runs no KMP
//! after the bootstrap.

use crate::fabric::{self, Counts, Episode, Meter};
use crate::stats::quantile_u64;
use crate::trace::{Slot, Tracer};
use p4auth_controller::{ControllerConfig, ControllerEvent};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_systems::harness::ReplicatedNetwork;
use p4auth_systems::hula::regs;
use p4auth_wire::ids::SwitchId;
use std::collections::VecDeque;

/// Register ops per episode.
pub const OPS: u64 = 200_000;
/// Completions per batch.
pub const BATCH: u64 = 1_000;
/// Controller replicas.
pub const REPLICAS: usize = 2;
/// Sim-ns an op may stay unanswered before it counts as failed.
pub const OP_BOUND_NS: u64 = 20_000_000;
/// Ops drawn per client; a client cycles through its list.
const OPS_PER_CLIENT: usize = 512;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Op {
    write: bool,
    index: u32,
    value: u64,
}

/// The seeded op mix of every client (client `i` drives switch `i + 1`).
pub struct Schedule {
    ops: Vec<Vec<Op>>,
}

/// Draws each client's op list from `seed`.
pub fn schedule(seed: u64) -> Schedule {
    let mut rng = SplitMix64::new(seed ^ 0xcd9_0000_0000_0001);
    let clients = fabric::layout().switch_count() as usize;
    let ops = (0..clients)
        .map(|_| {
            (0..OPS_PER_CLIENT)
                .map(|_| {
                    let r = rng.next_u64();
                    Op {
                        write: r & 1 == 1,
                        index: ((r >> 8) % u64::from(fabric::PORT_REG_LEN)) as u32,
                        value: (r >> 32) % 101,
                    }
                })
                .collect()
        })
        .collect();
    Schedule { ops }
}

/// A client's state: its op cursor and the op in flight.
#[derive(Clone, Default)]
struct Client {
    cursor: usize,
    pending: Option<Op>,
    sent_at: u64,
    /// Ops that timed out but may still be answered; their replies
    /// arrive first (the channel is FIFO) and count only toward the
    /// write model.
    stale: VecDeque<Op>,
}

struct Loop<'a> {
    s: &'a Schedule,
    tracer: &'a Tracer,
    clients: Vec<Client>,
    /// `hula_local_util` as the writes so far should have left it.
    model: Vec<Vec<u64>>,
    sent: u64,
    completed: u64,
    failed: u64,
    rct: Vec<u64>,
}

impl Loop<'_> {
    fn send_next(&mut self, net: &mut ReplicatedNetwork, c: usize) {
        if self.sent == OPS {
            return;
        }
        self.sent += 1;
        let cl = &mut self.clients[c];
        let op = self.s.ops[c][cl.cursor % OPS_PER_CLIENT];
        cl.cursor += 1;
        cl.pending = Some(op);
        cl.sent_at = net.sim.now().as_ns();
        let sw = SwitchId::new(c as u16 + 1);
        if op.write {
            self.tracer.time(Slot::Write, || {
                net.controller_write(sw, fabric::REG_LOCAL_UTIL, op.index, op.value)
            });
        } else {
            self.tracer.time(Slot::Read, || {
                net.controller_read(sw, fabric::REG_TX_COUNT, op.index)
            });
        }
    }

    /// Handles one controller event; returns whether it finished an op.
    fn on_event(
        &mut self,
        net: &mut ReplicatedNetwork,
        ev: &ControllerEvent,
    ) -> Result<bool, String> {
        let (switch, answer) = match *ev {
            ControllerEvent::ValueRead {
                switch,
                reg,
                index,
                value,
            } => (switch, Some((false, reg, index, value))),
            ControllerEvent::WriteAcked { switch, reg, index } => {
                (switch, Some((true, reg, index, 0)))
            }
            ControllerEvent::Nacked { switch, .. } => (switch, None),
            ControllerEvent::UnmatchedResponse(switch) => {
                return Err(format!("unmatched register response from {switch}"))
            }
            _ => return Ok(false),
        };
        let c = switch.value() as usize - 1;
        if let Some(op) = self.clients[c].stale.pop_front() {
            if op.write && matches!(answer, Some((true, ..))) {
                self.model[c][op.index as usize] = op.value;
            }
            return Ok(false);
        }
        let op = self.clients[c]
            .pending
            .take()
            .ok_or_else(|| format!("reply from {switch} with no op in flight"))?;
        match answer {
            None => self.failed += 1,
            Some((write, reg, index, value)) => {
                let want_reg = if op.write {
                    fabric::REG_LOCAL_UTIL
                } else {
                    fabric::REG_TX_COUNT
                };
                if write != op.write || reg != want_reg || index != op.index {
                    return Err(format!("{switch} answered {ev:?} to {op:?}"));
                }
                if write {
                    self.model[c][index as usize] = op.value;
                } else if value != 0 {
                    // No data traffic runs, so no port ever transmits.
                    return Err(format!(
                        "{switch} read tx_count[{index}] = {value}, expected 0"
                    ));
                }
                self.completed += 1;
                self.rct
                    .push(net.sim.now().as_ns() - self.clients[c].sent_at);
            }
        }
        self.send_next(net, c);
        Ok(true)
    }

    /// Fails every op older than [`OP_BOUND_NS`] and sends the next op.
    fn expire(&mut self, net: &mut ReplicatedNetwork) {
        let now = net.sim.now().as_ns();
        for c in 0..self.clients.len() {
            let cl = &mut self.clients[c];
            if now - cl.sent_at > OP_BOUND_NS {
                let Some(op) = cl.pending.take() else {
                    continue;
                };
                cl.stale.push_back(op);
                self.failed += 1;
                self.send_next(net, c);
            }
        }
    }

    fn earliest_deadline(&self) -> Option<u64> {
        self.clients
            .iter()
            .filter(|c| c.pending.is_some())
            .map(|c| c.sent_at + OP_BOUND_NS + 1)
            .min()
    }
}

/// Runs one episode.
pub fn episode(s: &Schedule, tracer: &Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let mut meter = Meter::start();
    let mut net = ReplicatedNetwork::build(
        fabric::topology(),
        REPLICAS,
        ControllerConfig::default(),
        fabric::KEY_SEED_BASE,
        fabric::hula_apps(tracer),
        fabric::agent_config(true),
    );
    tracer.wrap_nodes(&mut net.sim, Slot::Replica);
    net.bootstrap_keys();
    meter.setup_done(&mut ep);

    let ids = fabric::sorted_ids(&net.switches);
    let ctrl_stats = |net: &ReplicatedNetwork| {
        fabric::ctrl_sum(net.set.borrow().replicas().iter().map(|r| r.core.stats()))
    };
    // Requests verify at the agents, responses at the controller.
    let verified = |net: &ReplicatedNetwork| {
        fabric::agent_totals(&net.switches).verified_ok + ctrl_stats(net).responses_ok
    };
    let outstanding = |net: &ReplicatedNetwork| -> u64 {
        let set = net.set.borrow();
        ids.iter()
            .map(|&sw| u64::from(set.core(sw).outstanding(sw)))
            .sum()
    };
    let agents_before = fabric::agent_totals(&net.switches);
    let ctrl_before = ctrl_stats(&net);
    let sim_before = net.sim.stats();
    net.take_events();

    let mut lp = Loop {
        s,
        tracer,
        clients: vec![Client::default(); ids.len()],
        model: vec![vec![0; fabric::PORT_REG_LEN as usize]; ids.len()],
        sent: 0,
        completed: 0,
        failed: 0,
        rct: Vec::with_capacity(OPS as usize),
    };
    let mut events = 0;
    let mut outstanding_peak = 0;
    let mut drained: Vec<ControllerEvent> = Vec::new();
    meter.open(verified(&net));
    tracer.reset();
    for c in 0..ids.len() {
        lp.send_next(&mut net, c);
    }
    while lp.completed + lp.failed < OPS {
        if tracer.step(&mut net.sim) {
            events += 1;
        } else {
            // Nothing left in flight that could answer: move the clock to
            // the first op deadline so the wait stays bounded.
            let at = lp
                .earliest_deadline()
                .ok_or("no op in flight and none left")?;
            net.sim.run_until(SimTime::from_ns(at));
            lp.expire(&mut net);
            continue;
        }
        drained.extend(net.events.borrow_mut().drain(..));
        for ev in drained.drain(..) {
            if lp.on_event(&mut net, &ev)? && lp.completed.is_multiple_of(BATCH) {
                outstanding_peak = outstanding_peak.max(outstanding(&net));
                lp.expire(&mut net);
                meter.batch_done(&mut ep, verified(&net));
            }
        }
    }
    meter.close(&mut ep);

    let agents = fabric::agent_delta(fabric::agent_totals(&net.switches), agents_before);
    let ctrl = fabric::ctrl_delta(ctrl_stats(&net), ctrl_before);
    ep.counts = Counts {
        events,
        sim: fabric::sim_delta(net.sim.stats(), sim_before),
        agents,
        ctrl,
        outstanding_peak,
        ..Counts::default()
    };
    ep.rw_ops = lp.completed;
    ep.attempted = OPS;
    ep.failed = lp.failed;
    ep.modelled_rct_ns_p50 = quantile_u64(&lp.rct, 0.5);
    ep.modelled_rct_ns_p99 = quantile_u64(&lp.rct, 0.99);

    // Every acknowledged write must have landed in the data plane.
    for (c, &id) in ids.iter().enumerate() {
        let agent = net.switches[&id].borrow();
        for (index, &want) in lp.model[c].iter().enumerate() {
            let got = fabric::read_reg(&agent, regs::LOCAL_UTIL, index as u32)?;
            if got != want {
                return Err(format!("{id} local_util[{index}] = {got}, expected {want}"));
            }
        }
    }
    ep.seal(net.sim.now().as_ns(), &[]);
    Ok(ep)
}
