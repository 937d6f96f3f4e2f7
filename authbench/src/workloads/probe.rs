//! `dpdp_probe_flood`: sealed HULA probe floods over the whole fabric.
//!
//! Every edge switch originates one sealed probe per uplink each round.
//! Each hop verifies it (port key plus replay window), runs HULA's
//! register updates, re-seals it per egress port and floods it on:
//! about 13.9 k verified hops per round, which is one batch. Within a
//! round, pods originate one after the other in a seeded order, each
//! pod's flood draining before the next starts. The controller stays
//! idle after the bootstrap, so the C-DP path, the KMP and telemetry are
//! left out.

use crate::fabric::{self, Counts, Episode, Meter};
use crate::trace::{Slot, Tracer};
use p4auth_controller::ControllerConfig;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_systems::harness::Network;
use p4auth_systems::hula::{regs, Probe, HULA_SYSTEM_ID};

/// Probe rounds (batches) per episode.
pub const ROUNDS: u32 = 25;

/// One round: the order pods originate in and each origination's
/// starting path utilization, indexed `edge * uplinks + uplink`.
struct Round {
    pods: Vec<u16>,
    util: Vec<u8>,
}

/// The seeded probe rounds.
pub struct Schedule {
    rounds: Vec<Round>,
}

/// Draws the probe-round schedule from `seed`.
pub fn schedule(seed: u64) -> Schedule {
    let mut rng = SplitMix64::new(seed ^ 0x9b0b_e5f1_00d0_0001);
    let originations = fabric::edges().len() * fabric::uplinks().count();
    let rounds = (0..ROUNDS)
        .map(|_| {
            let mut pods: Vec<u16> = (0..fabric::K).collect();
            for i in (1..pods.len()).rev() {
                pods.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let util = (0..originations)
                .map(|_| (rng.next_u64() % 100) as u8)
                .collect();
            Round { pods, util }
        })
        .collect();
    Schedule { rounds }
}

/// Runs one episode. `auth = false` is the ablation: the same fabric
/// with every agent in `AgentConfig::insecure_baseline()` and no keys.
pub fn episode(s: &Schedule, tracer: &Tracer, auth: bool) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let mut meter = Meter::start();
    let mut net = Network::build(
        fabric::topology(),
        ControllerConfig::default(),
        fabric::KEY_SEED_BASE,
        fabric::hula_apps(tracer),
        fabric::agent_config(auth),
    );
    tracer.wrap_nodes(&mut net.sim, Slot::Controller);
    if auth {
        net.bootstrap_keys();
    }
    meter.setup_done(&mut ep);
    let edges = fabric::edges();
    let uplinks: Vec<_> = fabric::uplinks().collect();
    let per_pod = (fabric::K / 2) as usize;
    let agents_before = fabric::agent_totals(&net.switches);
    let sim_before = net.sim.stats();
    let mut events = 0;
    // The insecure baseline verifies nothing; its batches count hops.
    let verified = |net: &Network| {
        let a = fabric::agent_totals(&net.switches);
        if auth {
            a.verified_ok
        } else {
            a.probes_accepted
        }
    };
    meter.open(verified(&net));
    tracer.reset();
    for (r, round) in s.rounds.iter().enumerate() {
        for &pod in &round.pods {
            let pod_edges = edges.iter().enumerate().skip(pod as usize * per_pod);
            for (e, &edge) in pod_edges.take(per_pod) {
                for (u, &port) in uplinks.iter().enumerate() {
                    let probe = Probe {
                        dst: edge.value(),
                        round: r as u32 + 1,
                        util: round.util[e * uplinks.len() + u],
                    };
                    tracer.time(Slot::Seal, || {
                        net.originate_probe(edge, port, HULA_SYSTEM_ID, probe.encode())
                    });
                }
            }
            events += tracer.run_to_completion(&mut net.sim);
        }
        meter.batch_done(&mut ep, verified(&net));
    }
    meter.close(&mut ep);

    let agents = fabric::agent_delta(fabric::agent_totals(&net.switches), agents_before);
    ep.counts = Counts {
        events,
        sim: fabric::sim_delta(net.sim.stats(), sim_before),
        agents,
        ..Counts::default()
    };
    ep.probe_hops = agents.probes_accepted;
    ep.attempted = agents.probes_accepted + agents.probes_dropped;
    ep.failed = agents.probes_dropped;

    // Every switch but the originator must have taken in the last round
    // of every edge's flood.
    for id in fabric::sorted_ids(&net.switches) {
        let agent = net.switches[&id].borrow();
        for dst in edges.iter().filter(|&&dst| dst != id) {
            let got = fabric::read_reg(&agent, regs::SEEN_ROUND, u32::from(dst.value()))?;
            if got != u64::from(ROUNDS) {
                return Err(format!(
                    "{id} saw round {got} of {dst}'s probes, expected {ROUNDS}"
                ));
            }
        }
    }
    ep.seal(net.sim.now().as_ns(), &[]);
    Ok(ep)
}
