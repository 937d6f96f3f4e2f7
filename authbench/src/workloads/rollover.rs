//! `rollover_under_flood`: periodic key rollover while under attack.
//!
//! The monolithic `Network` with telemetry attached and the per-reject
//! defence armed rolls every local and port key each 10 ms period. On
//! top, each period:
//!
//! * a forged-ack burst hits a seeded rotating victim's C-DP port within
//!   300 µs of the rollover, while the victim's local-key update is in
//!   flight (the overlap that locks the victim out, see `NOTES.md`);
//! * one seeded pod runs an honest HULA probe round;
//! * forged and replayed probes hit a seeded set of that pod's uplinks;
//! * the controller reads one register on every switch (a health check).
//!
//! The workload loads the KMP, DH/KDF, the reject → alert → defence path
//! and telemetry, and drives the agents' verify path into rejects.

use crate::fabric::{self, Counts, Episode, Meter};
use crate::stats::quantile_u64;
use crate::trace::{Slot, Tracer};
use p4auth_attacks::digest_flood;
use p4auth_controller::{ControllerConfig, ControllerEvent, DefenceConfig};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_primitives::Digest32;
use p4auth_systems::harness::{Network, HOST_ID_BASE};
use p4auth_systems::hula::{regs, Probe, HULA_SYSTEM_ID};
use p4auth_telemetry::Registry;
use p4auth_wire::body::InNetwork;
use p4auth_wire::ids::{PortId, SeqNum, SwitchId};
use p4auth_wire::Message;
use std::collections::VecDeque;
use std::sync::Arc;

/// Rollover periods per episode.
pub const PERIODS: u32 = 40;
/// Rollover period (sim-ns).
pub const PERIOD_NS: u64 = 10_000_000;
/// Forged acks per C-DP burst.
pub const FLOOD_FRAMES: u32 = 24;
/// Latest burst start after the rollover fires (sim-ns).
pub const FLOOD_MAX_DELAY_NS: u64 = 300_000;
/// Uplinks attacked per period.
pub const ATTACKED_LINKS: usize = 4;
/// Forged and replayed probes per attacked link.
pub const FORGED_PER_LINK: u32 = 2;
pub const REPLAYED_PER_LINK: u32 = 2;
/// Event-log capacity of the attached registry.
const EVENT_CAPACITY: usize = 1024;
/// C-DP front-panel port of every switch in the fabric.
const CPU_NETPORT: PortId = PortId::new(63);

/// Offsets within a period (sim-ns after the rollover fires).
const HONEST_AT: u64 = 2_000_000;
const ATTACK_AT: u64 = 3_000_000;
const ATTACK_SETTLE_NS: u64 = 50_000;
const READS_AT: u64 = 5_000_000;

/// One period's attack and probe plan.
struct Period {
    victim: SwitchId,
    flood_delay_ns: u64,
    flood_seed: u64,
    pod: u16,
    util: Vec<u8>,
    /// `(edge index within the pod, uplink index)` pairs under attack.
    attacked: Vec<(usize, usize)>,
}

/// The seeded per-period plans.
pub struct Schedule {
    periods: Vec<Period>,
}

/// Draws the period plans from `seed`: victims rotate through a seeded
/// permutation of the switches, pods through a seeded permutation of the
/// pods.
pub fn schedule(seed: u64) -> Schedule {
    let mut rng = SplitMix64::new(seed ^ 0x7011_0ee7_f100_d001);
    let shuffled = |n: usize, rng: &mut SplitMix64| {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        v
    };
    let switches = fabric::layout().switch_count() as usize;
    let victims = shuffled(switches, &mut rng);
    let pods = shuffled(fabric::K as usize, &mut rng);
    let per_pod = (fabric::K / 2) as usize;
    let uplinks = fabric::uplinks().count();
    let periods = (0..PERIODS as usize)
        .map(|k| {
            let pairs = shuffled(per_pod * uplinks, &mut rng);
            Period {
                victim: SwitchId::new(victims[k % switches] as u16 + 1),
                flood_delay_ns: rng.next_u64() % (FLOOD_MAX_DELAY_NS + 1),
                flood_seed: rng.next_u64(),
                pod: pods[k % pods.len()] as u16,
                util: (0..per_pod * uplinks)
                    .map(|_| (rng.next_u64() % 100) as u8)
                    .collect(),
                attacked: pairs[..ATTACKED_LINKS]
                    .iter()
                    .map(|&p| (p / uplinks, p % uplinks))
                    .collect(),
            }
        })
        .collect();
    Schedule { periods }
}

/// A DP-DP link as `(a, a's port, b, b's port)`.
type Link = (SwitchId, PortId, SwitchId, PortId);

/// The version of `sw`'s local key when the controller and the switch
/// hold the same one; `None` when they disagree.
fn local_agrees(net: &Network, sw: SwitchId) -> Option<u8> {
    let ctrl = net.controller.borrow().local_key_material(sw)?;
    let agent = net.switches[&sw].borrow();
    let slot = agent.keys().local();
    (slot.current() == Some(ctrl.0) && slot.version() == ctrl.1).then_some(ctrl.1.value())
}

/// The version of a link's port key when both ends hold the same one.
fn port_agrees(net: &Network, &(a, pa, b, pb): &Link) -> Option<u8> {
    let (sa, sb) = (net.switches[&a].borrow(), net.switches[&b].borrow());
    let (ka, kb) = (sa.keys().port(pa), sb.keys().port(pb));
    (ka.current().is_some() && ka.current() == kb.current() && ka.version() == kb.version())
        .then_some(ka.version().value())
}

/// State of the period loop across one episode.
struct PeriodLoop<'a> {
    tracer: &'a Tracer,
    events: u64,
    /// Per switch: periods whose health read is still unanswered.
    reads: Vec<VecDeque<u32>>,
    period: u32,
    period_start_ns: u64,
    reads_ok: u64,
    reads_failed: u64,
    key_update_ns: Vec<u64>,
    drained: Vec<ControllerEvent>,
}

impl PeriodLoop<'_> {
    /// Steps every event up to `until`, handling controller events as
    /// they land.
    fn advance(&mut self, net: &mut Network, until: u64) -> Result<(), String> {
        let deadline = SimTime::from_ns(until);
        while net.sim.next_event_at().is_some_and(|at| at <= deadline) {
            self.tracer.step(&mut net.sim);
            self.events += 1;
            self.drained.extend(net.events.borrow_mut().drain(..));
            let mut drained = std::mem::take(&mut self.drained);
            for ev in drained.drain(..) {
                self.on_event(net, &ev)?;
            }
            self.drained = drained;
        }
        net.sim.run_until(deadline);
        Ok(())
    }

    fn on_event(&mut self, net: &Network, ev: &ControllerEvent) -> Result<(), String> {
        match *ev {
            ControllerEvent::UnmatchedResponse(sw) => {
                Err(format!("a forged ack claiming {sw} was accepted"))
            }
            ControllerEvent::ValueRead {
                switch, reg, value, ..
            } => {
                if reg != fabric::REG_TX_COUNT || value != 0 {
                    return Err(format!("{switch} answered {ev:?} to a health read"));
                }
                let c = switch.value() as usize - 1;
                if self.reads[c].pop_front() == Some(self.period) {
                    self.reads_ok += 1;
                }
                Ok(())
            }
            ControllerEvent::Nacked { switch, .. } => {
                let c = switch.value() as usize - 1;
                if self.reads[c].pop_front() == Some(self.period) {
                    self.reads_failed += 1;
                }
                Ok(())
            }
            ControllerEvent::LocalKeyRolled(sw) => {
                if local_agrees(net, sw).is_some() {
                    self.key_update_ns
                        .push(net.sim.now().as_ns() - self.period_start_ns);
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Runs one episode.
pub fn episode(s: &Schedule, tracer: &Tracer) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let mut meter = Meter::start();
    let mut net = Network::build(
        fabric::topology(),
        ControllerConfig::default(),
        fabric::KEY_SEED_BASE,
        fabric::hula_apps(tracer),
        fabric::agent_config(true),
    );
    tracer.wrap_nodes(&mut net.sim, Slot::Controller);
    let registry = Arc::new(Registry::with_event_capacity(EVENT_CAPACITY));
    net.enable_telemetry(registry.clone());
    net.bootstrap_keys();
    net.enable_defence(DefenceConfig::default());
    net.enable_periodic_rollover(PERIOD_NS);
    meter.setup_done(&mut ep);

    let ids = fabric::sorted_ids(&net.switches);
    let links: Vec<Link> = net
        .sim
        .topology()
        .links()
        .iter()
        .filter(|l| !l.a.node.is_controller() && !l.b.node.is_controller())
        .filter(|l| l.a.node.value() < HOST_ID_BASE && l.b.node.value() < HOST_ID_BASE)
        .map(|l| (l.a.node, l.a.port, l.b.node, l.b.port))
        .collect();
    let edges = fabric::edges();
    let uplinks: Vec<PortId> = fabric::uplinks().collect();
    let per_pod = (fabric::K / 2) as usize;

    let verify_ok_ctrl = |r: &Registry| {
        tracer
            .time(Slot::Snapshot, || r.snapshot())
            .counter("auth_verify_ok", "controller")
            .unwrap_or(0)
    };
    let agents_before = fabric::agent_totals(&net.switches);
    let ctrl_before = net.controller.borrow().stats();
    let sim_before = net.sim.stats();
    let ctrl_ok_before = verify_ok_ctrl(&registry);
    let dropped_before = registry.events().overflowed();
    let t0 = net.sim.now().as_ns();
    net.take_events();

    let mut d = PeriodLoop {
        tracer,
        events: 0,
        reads: vec![VecDeque::new(); ids.len()],
        period: 0,
        period_start_ns: t0,
        reads_ok: 0,
        reads_failed: 0,
        key_update_ns: Vec::new(),
        drained: Vec::new(),
    };
    let (mut key_ok, mut key_failed) = (0u64, 0u64);
    let (mut forged_dp, mut forged_cp) = (0u64, 0u64);
    let mut outstanding_peak = 0u64;
    let mut ctrl_ok = ctrl_ok_before;
    meter.open(agents_before.verified_ok + ctrl_ok_before);
    tracer.reset();
    for (k, p) in s.periods.iter().enumerate() {
        let fire = t0 + (k as u64 + 1) * PERIOD_NS;
        d.advance(&mut net, fire - 1)?;
        let local_before: Vec<Option<u8>> = ids.iter().map(|&sw| local_agrees(&net, sw)).collect();
        let port_before: Vec<Option<u8>> = links.iter().map(|l| port_agrees(&net, l)).collect();
        d.period = k as u32;
        d.period_start_ns = fire;

        // The rollover fires; the burst lands while it is in flight.
        d.advance(&mut net, fire + p.flood_delay_ns)?;
        let mut rng = SplitMix64::new(p.flood_seed);
        let seq_base = 0x4000_0000 + k as u32 * FLOOD_FRAMES;
        for frame in digest_flood::forged_acks(FLOOD_FRAMES, p.victim, seq_base, &mut rng) {
            net.sim.inject_frame(p.victim, CPU_NETPORT, frame);
        }
        forged_cp += u64::from(FLOOD_FRAMES);

        // Honest probe round of one pod; keep the frames of the links
        // about to be attacked for replay.
        d.advance(&mut net, fire + HONEST_AT)?;
        let mut captured = Vec::new();
        for e in 0..per_pod {
            let edge = edges[p.pod as usize * per_pod + e];
            for (u, &port) in uplinks.iter().enumerate() {
                let probe = Probe {
                    dst: edge.value(),
                    round: k as u32 + 1,
                    util: p.util[e * uplinks.len() + u],
                };
                let frame = tracer.time(Slot::Seal, || {
                    net.switches[&edge]
                        .borrow_mut()
                        .seal_probe(port, HULA_SYSTEM_ID, probe.encode())
                        .ok_or_else(|| format!("{edge}:{port} has no port key"))
                })?;
                if p.attacked.contains(&(e, u)) {
                    captured.push((edge, port, frame.clone()));
                }
                net.sim.inject_frame(edge, port, frame);
            }
        }

        // Forged and replayed probes; none may reach the app.
        d.advance(&mut net, fire + ATTACK_AT)?;
        let accepted_before = fabric::agent_totals(&net.switches).probes_accepted;
        for (edge, port, frame) in &captured {
            for _ in 0..REPLAYED_PER_LINK {
                net.sim.inject_frame(*edge, *port, frame.clone());
            }
            let version = net.switches[edge].borrow().keys().port(*port).version();
            for i in 0..FORGED_PER_LINK {
                let forged = Probe {
                    dst: fabric::FORGED_DST,
                    round: u32::MAX,
                    util: 0,
                };
                let mut msg = Message::in_network(
                    *edge,
                    *port,
                    SeqNum::new(u32::MAX - i),
                    InNetwork::new(HULA_SYSTEM_ID, forged.encode()),
                )
                .with_key_version(version);
                msg.header_mut().digest = Digest32::new(rng.next_u64() as u32);
                net.sim.inject_frame(*edge, *port, msg.encode());
            }
            forged_dp += u64::from(REPLAYED_PER_LINK + FORGED_PER_LINK);
        }
        d.advance(&mut net, fire + ATTACK_AT + ATTACK_SETTLE_NS)?;
        if fabric::agent_totals(&net.switches).probes_accepted != accepted_before {
            return Err(format!(
                "a forged or replayed probe was accepted in period {k}"
            ));
        }

        // Health reads, answered well inside the period.
        d.advance(&mut net, fire + READS_AT)?;
        for (c, &sw) in ids.iter().enumerate() {
            d.reads[c].push_back(k as u32);
            tracer.time(Slot::Read, || {
                net.controller_read(sw, fabric::REG_TX_COUNT, 0)
            });
        }

        // Period end: every key update must have completed on both ends.
        d.advance(&mut net, fire + PERIOD_NS - 2)?;
        for (c, &sw) in ids.iter().enumerate() {
            match local_agrees(&net, sw) {
                Some(v) if Some(v) != local_before[c] => key_ok += 1,
                _ => key_failed += 1,
            }
            if d.reads[c].back() == Some(&(k as u32)) {
                d.reads_failed += 1;
            }
        }
        for (l, before) in links.iter().zip(&port_before) {
            match port_agrees(&net, l) {
                Some(v) if Some(v) != *before => key_ok += 1,
                _ => key_failed += 1,
            }
        }
        let outstanding: u64 = {
            let c = net.controller.borrow();
            ids.iter().map(|&sw| u64::from(c.outstanding(sw))).sum()
        };
        outstanding_peak = outstanding_peak.max(outstanding);
        ctrl_ok = verify_ok_ctrl(&registry);
        let verified = fabric::agent_totals(&net.switches).verified_ok + ctrl_ok;
        meter.batch_done(&mut ep, verified);
    }
    meter.close(&mut ep);

    let agents = fabric::agent_delta(fabric::agent_totals(&net.switches), agents_before);
    let ctrl = fabric::ctrl_delta(net.controller.borrow().stats(), ctrl_before);
    let ctrl_verified = ctrl_ok - ctrl_ok_before;
    // Every malicious frame must have been rejected exactly once; what is
    // left over are honest messages that failed verification.
    let honest_dp_rejects = fabric::agent_rejects(agents)
        .checked_sub(forged_dp)
        .ok_or("fewer agent rejects than forged and replayed probes")?;
    let honest_cp_rejects = ctrl
        .rejected
        .checked_sub(forged_cp)
        .ok_or("fewer controller rejects than forged acks")?;
    for &id in &ids {
        let agent = net.switches[&id].borrow();
        for reg in [regs::SEEN_ROUND, regs::BEST_ROUND] {
            if fabric::read_reg(&agent, reg, u32::from(fabric::FORGED_DST))? != 0 {
                return Err(format!("{id} took in a forged probe ({reg})"));
            }
        }
    }

    let reads = u64::from(PERIODS) * ids.len() as u64;
    let honest_verdicts =
        agents.verified_ok + honest_dp_rejects + ctrl_verified + honest_cp_rejects;
    ep.counts = Counts {
        events: d.events,
        sim: fabric::sim_delta(net.sim.stats(), sim_before),
        agents,
        ctrl,
        outstanding_peak,
        events_dropped: registry.events().overflowed() - dropped_before,
        derivations: 2 * key_ok,
    };
    ep.rw_ops = d.reads_ok;
    ep.probe_hops = agents.probes_accepted;
    ep.key_updates = key_ok;
    ep.attempted = reads + key_ok + key_failed + honest_verdicts;
    ep.failed = d.reads_failed + key_failed + honest_dp_rejects + honest_cp_rejects;
    ep.modelled_key_update_ns_p50 = quantile_u64(&d.key_update_ns, 0.5);
    ep.modelled_mitigation_ns_p50 = registry
        .snapshot()
        .histogram("defence_mitigation_latency_ns", "controller")
        .map_or(0, |h| h.p50);
    ep.seal(
        net.sim.now().as_ns(),
        &[
            d.reads_ok,
            d.reads_failed,
            key_ok,
            key_failed,
            ctrl_verified,
        ],
    );
    Ok(ep)
}
