//! The fabric every workload runs on, and what one episode reports.
//!
//! A fat-tree(8) with the controller attached to every switch: 80
//! switches, 256 DP-DP links, HULA mounted on every agent. Keys come
//! from a fixed boot-secret base; the workload seed only shapes the
//! schedules the workload loop feeds in.

use crate::alloc;
use crate::stats::Fingerprint;
use crate::trace::Tracer;
use p4auth_controller::ControllerStats;
use p4auth_core::agent::{AgentConfig, AgentStats, InNetworkApp, P4AuthSwitch};
use p4auth_netsim::sim::SimStats;
use p4auth_netsim::topology::Topology;
use p4auth_netsim::FatTree;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_systems::harness::SharedSwitch;
use p4auth_systems::hula::{regs, HulaApp, HulaConfig};
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fat-tree arity.
pub const K: u16 = 8;
/// One-way latency of a DP-DP link (sim-ns).
pub const DP_LATENCY_NS: u64 = 1_000;
/// One-way latency of a C-DP link (sim-ns).
pub const CP_LATENCY_NS: u64 = 200_000;
/// Base of every switch's boot secret.
pub const KEY_SEED_BASE: u64 = 0xb007_5eed;
/// HULA destination that no honest probe ever advertises: forged probes
/// carry it, so an accepted forgery leaves a trace in HULA's registers.
pub const FORGED_DST: u16 = 81;
/// Controller-visible id of `hula_tx_count`.
pub const REG_TX_COUNT: RegId = RegId::new(1);
/// Controller-visible id of `hula_local_util`.
pub const REG_LOCAL_UTIL: RegId = RegId::new(2);
/// Entries in HULA's per-port registers.
pub const PORT_REG_LEN: u32 = 64;

/// The fabric topology.
pub fn topology() -> Topology {
    Topology::fat_tree_with_controller(K, DP_LATENCY_NS, CP_LATENCY_NS)
}

/// The fat-tree layout.
pub fn layout() -> FatTree {
    FatTree::new(K)
}

/// Edge switches (HULA probe originators), pod-major.
pub fn edges() -> Vec<SwitchId> {
    let ft = layout();
    (0..K)
        .flat_map(|pod| (0..K / 2).map(move |i| ft.edge(pod, i)))
        .collect()
}

/// An edge switch's uplink ports (toward its pod's aggregation layer).
pub fn uplinks() -> impl Iterator<Item = PortId> {
    (K / 2 + 1..=K).map(|p| PortId::new(p as u8))
}

/// HULA app factory: every switch floods on all `K` data ports (ports
/// without a key, toward hosts, drop the sealed copy).
pub fn hula_apps(tracer: &Tracer) -> impl FnMut(SwitchId) -> Option<Box<dyn InNetworkApp>> + '_ {
    move |_| Some(tracer.wrap_app(HulaApp::boxed(HulaConfig::new(FORGED_DST, K as u8))))
}

/// Agent configuration: HULA's `tx_count` and `local_util` registers are
/// reachable over the C-DP channel; `auth` off gives the insecure
/// baseline of the same fabric.
pub fn agent_config(auth: bool) -> impl FnMut(SwitchId, AgentConfig) -> AgentConfig {
    move |_, c| {
        let c = c
            .map_register(REG_TX_COUNT, regs::TX_COUNT)
            .map_register(REG_LOCAL_UTIL, regs::LOCAL_UTIL);
        if auth {
            c
        } else {
            c.insecure_baseline()
        }
    }
}

/// Reads entry `index` of the data-plane register `name` on `agent`.
pub fn read_reg(agent: &P4AuthSwitch, name: &str, index: u32) -> Result<u64, String> {
    agent
        .chassis()
        .register(name)
        .map_err(|e| e.to_string())?
        .read(index)
        .map_err(|e| e.to_string())
}

/// Switch ids in ascending order.
pub fn sorted_ids(switches: &HashMap<SwitchId, SharedSwitch>) -> Vec<SwitchId> {
    let mut ids: Vec<SwitchId> = switches.keys().copied().collect();
    ids.sort();
    ids
}

/// Agent counters summed over the fabric.
pub fn agent_totals(switches: &HashMap<SwitchId, SharedSwitch>) -> AgentStats {
    let mut t = AgentStats::default();
    for sw in switches.values() {
        let s = sw.borrow().stats();
        t.verified_ok += s.verified_ok;
        t.digest_failures += s.digest_failures;
        t.replays += s.replays;
        t.acks += s.acks;
        t.nacks += s.nacks;
        t.alerts_sent += s.alerts_sent;
        t.probes_accepted += s.probes_accepted;
        t.probes_dropped += s.probes_dropped;
        t.quarantine_drops += s.quarantine_drops;
    }
    t
}

/// Agent counter deltas `after - before`.
pub fn agent_delta(after: AgentStats, before: AgentStats) -> AgentStats {
    AgentStats {
        verified_ok: after.verified_ok - before.verified_ok,
        digest_failures: after.digest_failures - before.digest_failures,
        replays: after.replays - before.replays,
        acks: after.acks - before.acks,
        nacks: after.nacks - before.nacks,
        alerts_sent: after.alerts_sent - before.alerts_sent,
        probes_accepted: after.probes_accepted - before.probes_accepted,
        probes_dropped: after.probes_dropped - before.probes_dropped,
        quarantine_drops: after.quarantine_drops - before.quarantine_drops,
    }
}

/// Agent-side rejects of any reason.
pub fn agent_rejects(s: AgentStats) -> u64 {
    s.digest_failures + s.replays + s.quarantine_drops
}

/// Controller counter deltas `after - before`.
pub fn ctrl_delta(after: ControllerStats, before: ControllerStats) -> ControllerStats {
    ControllerStats {
        requests_sent: after.requests_sent - before.requests_sent,
        responses_ok: after.responses_ok - before.responses_ok,
        rejected: after.rejected - before.rejected,
        alerts: after.alerts - before.alerts,
        alerts_dropped: after.alerts_dropped - before.alerts_dropped,
        defence_mitigations: after.defence_mitigations - before.defence_mitigations,
        defence_actions_dropped: after.defence_actions_dropped - before.defence_actions_dropped,
        kex_abandoned: after.kex_abandoned - before.kex_abandoned,
    }
}

/// Controller counters summed over several controller instances.
pub fn ctrl_sum(stats: impl IntoIterator<Item = ControllerStats>) -> ControllerStats {
    let mut t = ControllerStats::default();
    for s in stats {
        t.requests_sent += s.requests_sent;
        t.responses_ok += s.responses_ok;
        t.rejected += s.rejected;
        t.alerts += s.alerts;
        t.alerts_dropped += s.alerts_dropped;
        t.defence_mitigations += s.defence_mitigations;
        t.defence_actions_dropped += s.defence_actions_dropped;
        t.kex_abandoned += s.kex_abandoned;
    }
    t
}

/// Per-layer counts of one episode's measured window. Deterministic:
/// every repeat of a workload with one seed reports the same values.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub sim: SimStats,
    pub agents: AgentStats,
    pub ctrl: ControllerStats,
    pub outstanding_peak: u64,
    pub events_dropped: u64,
    pub derivations: u64,
}

impl Counts {
    /// Mixes everything into `fp`.
    pub fn mix_into(&self, fp: &mut Fingerprint) {
        let a = self.agents;
        let c = self.ctrl;
        let s = self.sim;
        fp.mix(&[
            self.events,
            s.frames_delivered,
            s.frames_undeliverable,
            s.frames_tapped_dropped,
            s.timers_fired,
            a.verified_ok,
            a.digest_failures,
            a.replays,
            a.acks,
            a.nacks,
            a.alerts_sent,
            a.probes_accepted,
            a.probes_dropped,
            a.quarantine_drops,
            c.requests_sent,
            c.responses_ok,
            c.rejected,
            c.alerts,
            c.alerts_dropped,
            c.defence_mitigations,
            c.defence_actions_dropped,
            c.kex_abandoned,
            self.outstanding_peak,
            self.events_dropped,
            self.derivations,
        ]);
    }
}

/// Simulator counter deltas `after - before`.
pub fn sim_delta(after: SimStats, before: SimStats) -> SimStats {
    SimStats {
        frames_delivered: after.frames_delivered - before.frames_delivered,
        frames_tapped_dropped: after.frames_tapped_dropped - before.frames_tapped_dropped,
        frames_tapped_modified: after.frames_tapped_modified - before.frames_tapped_modified,
        frames_undeliverable: after.frames_undeliverable - before.frames_undeliverable,
        timers_fired: after.timers_fired - before.timers_fired,
        faults_applied: after.faults_applied - before.faults_applied,
    }
}

/// What one episode (set-up plus a fixed amount of seeded work) reports.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Wall seconds to build the fabric and bootstrap every key.
    pub setup_s: f64,
    /// Wall seconds of the measured work.
    pub work_s: f64,
    /// Wall ms per fixed batch of work.
    pub batch_ms: Vec<f64>,
    /// Messages verified in each batch.
    pub batch_msgs: Vec<u64>,
    /// Host-speed reference wall-ns right after set-up and right after
    /// each batch.
    pub setup_reference_ns: f64,
    pub batch_reference_ns: Vec<f64>,
    /// Completed register ops.
    pub rw_ops: u64,
    /// Verified DP-DP probe hops.
    pub probe_hops: u64,
    /// Completed local and port key updates.
    pub key_updates: u64,
    /// Honest operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Peak heap bytes of the episode above the footprint it started on.
    pub peak_heap: u64,
    /// Allocations during the measured work.
    pub alloc: alloc::Mark,
    /// Sim-ns register request completion time, median and p99.
    pub modelled_rct_ns_p50: u64,
    pub modelled_rct_ns_p99: u64,
    /// Sim-ns from key-update start to install, median.
    pub modelled_key_update_ns_p50: u64,
    /// Sim-ns detection-to-mitigation median (the program's histogram).
    pub modelled_mitigation_ns_p50: u64,
    /// Per-layer counts.
    pub counts: Counts,
    /// Deterministic fingerprint of the episode.
    pub fingerprint: u64,
}

impl Episode {
    /// Seals the fingerprint from the counts, the final sim clock and
    /// workload-specific words.
    pub fn seal(&mut self, final_ns: u64, extra: &[u64]) {
        let mut fp = Fingerprint::default();
        self.counts.mix_into(&mut fp);
        fp.mix(&[
            final_ns,
            self.rw_ops,
            self.probe_hops,
            self.key_updates,
            self.attempted,
            self.failed,
        ]);
        fp.mix(extra);
        self.fingerprint = fp.value();
    }
}

/// Host-speed reference time (ns) the end-to-end timings are scaled to.
pub const REFERENCE_NOMINAL_NS: f64 = 200_000.0;

/// The host-speed reference: a fixed loop of SipHash hash-map inserts
/// and lookups, the kind of work the simulated stack spends its time
/// on. Its wall time tracks the host's speed swings the way the
/// workloads' does, while a latency-bound arithmetic loop stays flat
/// through them (see `NOTES.md`). One allocation per run, so the
/// program's heap state barely touches it.
fn reference() -> u64 {
    type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;
    let mut map = Map::with_capacity_and_hasher(1_024, Default::default());
    let mut rng = SplitMix64::new(0x5eed_0f4e);
    let mut acc = 0u64;
    for i in 0..6_000u64 {
        let z = rng.next_u64();
        if let Some(old) = map.insert(z & 511, z) {
            acc = acc.wrapping_add(old);
        }
        acc ^= map.get(&((z >> 9) & 511)).copied().unwrap_or(i);
    }
    acc
}

/// Times one episode: set-up, each batch of work and the whole
/// measured window, with the allocation counters and heap watermark.
/// The host-speed reference runs after set-up and after every batch; its
/// time and allocations are kept out of the measured window.
pub struct Meter {
    start: Instant,
    batch: Instant,
    live_at_start: u64,
    alloc: alloc::Mark,
    msgs: u64,
    reference_wall: Duration,
    reference_alloc: alloc::Mark,
}

impl Meter {
    /// Starts an episode (and its set-up).
    pub fn start() -> Self {
        alloc::reset_peak();
        let now = Instant::now();
        Meter {
            start: now,
            batch: now,
            live_at_start: alloc::live_bytes(),
            alloc: alloc::mark(),
            msgs: 0,
            reference_wall: Duration::ZERO,
            reference_alloc: alloc::Mark::default(),
        }
    }

    /// Runs the host-speed reference once; returns its wall-ns.
    fn reference(&mut self) -> f64 {
        let before = alloc::mark();
        let t = Instant::now();
        black_box(reference());
        let took = t.elapsed();
        let after = alloc::mark();
        self.reference_wall += took;
        self.reference_alloc.calls += after.calls - before.calls;
        self.reference_alloc.bytes += after.bytes - before.bytes;
        took.as_nanos() as f64
    }

    /// Ends set-up.
    pub fn setup_done(&mut self, ep: &mut Episode) {
        ep.setup_s = self.start.elapsed().as_secs_f64();
        ep.setup_reference_ns = self.reference();
    }

    /// Opens the measured window; `msgs` is the running total of
    /// verified messages.
    pub fn open(&mut self, msgs: u64) {
        self.alloc = alloc::mark();
        self.reference_wall = Duration::ZERO;
        self.reference_alloc = alloc::Mark::default();
        self.msgs = msgs;
        self.start = Instant::now();
        self.batch = self.start;
    }

    /// Ends a batch at running verified-message total `msgs`.
    pub fn batch_done(&mut self, ep: &mut Episode, msgs: u64) {
        ep.batch_ms.push(self.batch.elapsed().as_secs_f64() * 1e3);
        ep.batch_msgs.push(msgs - self.msgs);
        self.msgs = msgs;
        let reference_ns = self.reference();
        ep.batch_reference_ns.push(reference_ns);
        self.batch = Instant::now();
    }

    /// Closes the measured window.
    pub fn close(self, ep: &mut Episode) {
        ep.work_s = (self.start.elapsed() - self.reference_wall).as_secs_f64();
        let now = alloc::mark();
        ep.alloc = alloc::Mark {
            calls: now.calls - self.alloc.calls - self.reference_alloc.calls,
            bytes: now.bytes - self.alloc.bytes - self.reference_alloc.bytes,
        };
        ep.peak_heap = alloc::peak_bytes().saturating_sub(self.live_at_start);
    }
}
