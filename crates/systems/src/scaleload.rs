//! Fat-tree scale workload: the events/sec measurement behind the
//! calendar-queue scheduler (`repro -- scale` and the `sim_scale` bench).
//!
//! Hundreds of switches forward a fig19-style register traffic mix (two
//! 34-byte reads per 58-byte write) between random host pairs over
//! `Topology::fat_tree(k)`. Forwarding is deterministic-ECMP arithmetic
//! ([`FatTree::next_hop`]) so the run is bit-identical across schedulers,
//! and the measurement isolates the event queue plus the simulator's
//! dense hot path.
//!
//! The module lives in `p4auth-systems` (rather than the bench crate) so
//! the CI smoke runner, the Criterion bench and the `repro` reporter all
//! drive the exact same workload.

use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sched::SchedulerKind;
use p4auth_netsim::sim::{Outbox, SimNode, Simulator, TopologyEvent};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::timeline::Timeline;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, SwitchId};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Fig19-style request sizes: header + digest + read body / write body.
/// (Shared with `userscale`, whose aggregates emit the same mix.)
pub(crate) const READ_FRAME_BYTES: usize = 34;
pub(crate) const WRITE_FRAME_BYTES: usize = 58;

/// One scale-workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Fat-tree arity (even, ≤ 16).
    pub k: u16,
    /// Uniform one-way link latency in ns.
    pub latency_ns: u64,
    /// Per-hop switch processing delay in ns.
    pub proc_ns: u64,
    /// Frames each host transmits.
    pub frames_per_host: u32,
    /// Inter-frame gap per host in ns (smaller = more events in flight).
    pub interval_ns: u64,
    /// Traffic seed (destinations and ECMP flow labels).
    pub seed: u64,
}

impl ScaleConfig {
    /// The standard configuration for arity `k`: 1.5µs links, 500ns hop
    /// processing, one frame per host every 25ns — a loaded fabric that
    /// keeps tens of in-flight events per host outstanding, the regime
    /// the calendar queue is built for.
    pub fn for_k(k: u16, frames_per_host: u32) -> Self {
        ScaleConfig {
            k,
            latency_ns: 1_500,
            proc_ns: 500,
            frames_per_host,
            interval_ns: 25,
            seed: 0x5ca1_e000 ^ k as u64,
        }
    }
}

/// Result of one scale run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleRun {
    /// Events processed (pops).
    pub events: u64,
    /// Frames that reached their destination host.
    pub frames_delivered: u64,
    /// Final simulated clock in ns.
    pub sim_ns: u64,
    /// Wall-clock duration of the run in ns.
    pub wall_ns: u64,
}

impl ScaleRun {
    /// Simulator throughput: events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// The deterministic portion of the run (everything but wall time) —
    /// must be identical across schedulers.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        (self.events, self.frames_delivered, self.sim_ns)
    }
}

/// A fat-tree switch: pure arithmetic forwarding via [`FatTree::next_hop`].
struct Forwarder {
    ft: FatTree,
    id: SwitchId,
    proc_ns: u64,
    /// Local ports with a dead link, tracked from topology notifications
    /// (bit `p` = port `p`; fat-tree data ports are `1..=k`, far below
    /// 64). ECMP uplink choices rotate around these.
    down: u64,
}

/// Destination host id lives in payload bytes `[0..2]` (LE), the ECMP flow
/// label in byte `[2]`.
pub(crate) fn frame_dst(payload: &[u8]) -> SwitchId {
    SwitchId::new(u16::from_le_bytes([payload[0], payload[1]]))
}

impl SimNode for Forwarder {
    fn on_frame(&mut self, _now: SimTime, _ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        let dst = frame_dst(&payload);
        let flow = payload[2] as u64;
        let down = self.down;
        let is_down = |p: PortId| down & (1u64 << (p.value() & 63)) != 0;
        if let Some(port) = self.ft.next_hop_avoiding(self.id, dst, flow, is_down) {
            out.send_delayed(port, payload, self.proc_ns);
        }
    }

    fn on_topology(&mut self, _now: SimTime, event: TopologyEvent, _out: &mut Outbox) {
        let (up, a, b) = match event {
            TopologyEvent::LinkUp { a, b, .. } => (true, a, b),
            TopologyEvent::LinkDown { a, b, .. } => (false, a, b),
        };
        for ep in [a, b] {
            if ep.node == self.id {
                let bit = 1u64 << (ep.port.value() & 63);
                if up {
                    self.down &= !bit;
                } else {
                    self.down |= bit;
                }
            }
        }
    }
}

/// A host: transmits its share of the traffic mix on a timer, sinks and
/// counts whatever arrives.
struct Host {
    index: u16,
    remaining: u32,
    sent: u32,
    interval_ns: u64,
    rng: SplitMix64,
    ft: FatTree,
    arrivals: Rc<Cell<u64>>,
}

pub(crate) const SEND_TIMER: u64 = 1;

impl SimNode for Host {
    fn on_frame(&mut self, _now: SimTime, _ingress: PortId, _payload: FrameBytes, _: &mut Outbox) {
        self.arrivals.set(self.arrivals.get() + 1);
    }

    fn on_timer(&mut self, _now: SimTime, _timer_id: u64, out: &mut Outbox) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        // Pick a random *other* host as destination.
        let hosts = self.ft.host_count();
        let mut dst = (self.rng.next_u64() % (hosts as u64 - 1)) as u16;
        if dst >= self.index {
            dst += 1;
        }
        // 2 reads : 1 write, matching the fig19 request mix.
        let len = if self.sent % 3 == 2 {
            WRITE_FRAME_BYTES
        } else {
            READ_FRAME_BYTES
        };
        self.sent += 1;
        let mut buf = [0u8; WRITE_FRAME_BYTES];
        buf[..2].copy_from_slice(&self.ft.host(dst).value().to_le_bytes());
        buf[2] = (self.rng.next_u64() & 0xff) as u8;
        out.send(PortId::new(1), FrameBytes::from_slice(&buf[..len]));
        if self.remaining > 0 {
            out.set_timer(SEND_TIMER, self.interval_ns);
        }
    }
}

fn forwarder(cfg: &ScaleConfig, ft: FatTree, id: SwitchId) -> Box<Forwarder> {
    Box::new(Forwarder {
        ft,
        id,
        proc_ns: cfg.proc_ns,
        down: 0,
    })
}

/// A fabric forwarder for other workloads in this crate (`userscale`
/// reuses the exact scale-workload switch so host aggregation changes
/// nothing about the fabric).
pub(crate) fn fabric_forwarder(ft: FatTree, id: SwitchId, proc_ns: u64) -> Box<dyn SimNode> {
    Box::new(Forwarder {
        ft,
        id,
        proc_ns,
        down: 0,
    })
}

fn host(cfg: &ScaleConfig, ft: FatTree, h: u16, arrivals: &Rc<Cell<u64>>) -> Box<Host> {
    Box::new(Host {
        index: h,
        remaining: cfg.frames_per_host,
        sent: 0,
        interval_ns: cfg.interval_ns,
        rng: SplitMix64::new(cfg.seed ^ (h as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ft,
        arrivals: arrivals.clone(),
    })
}

/// Staggered start so transmissions interleave instead of phasing.
pub(crate) fn boot_delay(h: u16) -> u64 {
    1 + (h as u64 % 97) * 11
}

/// Builds the workload's simulator on `kind` — forwarders, hosts and
/// their boot timers — and returns it with the shared arrival counter.
/// The registry, if any, is attached first so boot timers are counted.
fn build(
    cfg: &ScaleConfig,
    kind: SchedulerKind,
    registry: Option<Arc<Registry>>,
) -> (Simulator, Rc<Cell<u64>>) {
    let ft = FatTree::new(cfg.k);
    let arrivals = Rc::new(Cell::new(0));
    let mut sim = Simulator::with_scheduler(ft.build(cfg.latency_ns), kind);
    if let Some(r) = registry {
        sim.set_telemetry(r);
    }
    for id in 1..=ft.switch_count() {
        let id = SwitchId::new(id);
        sim.register_node(id, forwarder(cfg, ft, id));
    }
    for h in 0..ft.host_count() {
        sim.register_node(ft.host(h), host(cfg, ft, h, &arrivals));
        sim.schedule_timer(ft.host(h), SEND_TIMER, boot_delay(h));
    }
    (sim, arrivals)
}

/// Runs the workload to completion on `sim`, timing it.
fn finish(sim: &mut Simulator, arrivals: &Cell<u64>) -> ScaleRun {
    let start = std::time::Instant::now();
    let events = sim.run_to_completion();
    let wall_ns = start.elapsed().as_nanos() as u64;
    ScaleRun {
        events,
        frames_delivered: arrivals.get(),
        sim_ns: sim.now().as_ns(),
        wall_ns,
    }
}

/// Runs the workload on the given scheduler. Pass a registry to collect
/// `sim_event_lead_ns` (instrumentation adds per-event work, so keep
/// timed comparison runs uninstrumented).
pub fn run_scale(
    cfg: ScaleConfig,
    kind: SchedulerKind,
    registry: Option<Arc<Registry>>,
) -> ScaleRun {
    let (mut sim, arrivals) = build(&cfg, kind, registry);
    finish(&mut sim, &arrivals)
}

/// Runs the workload with periodic telemetry export every `interval_ns`
/// of sim-time, returning the run result and the recorded [`Timeline`].
///
/// The timeline is bit-identical across the heap and calendar schedulers
/// because capture is driven by the sim clock (asserted by
/// `timeline_is_bit_identical_across_schedulers` below and by the CI
/// determinism step via `repro -- timeline`).
pub fn run_scale_timeline(
    cfg: ScaleConfig,
    kind: SchedulerKind,
    interval_ns: u64,
) -> (ScaleRun, Timeline) {
    let (mut sim, arrivals) = build(&cfg, kind, Some(Arc::new(Registry::new())));
    // After boot timers: setup pushes land in the baseline.
    sim.set_export_interval(interval_ns);
    let run = finish(&mut sim, &arrivals);
    let timeline = sim.take_timeline().expect("export interval was set");
    (run, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_agree_on_the_scale_workload() {
        let cfg = ScaleConfig::for_k(4, 20);
        let heap = run_scale(cfg, SchedulerKind::Heap, None);
        let cal = run_scale(cfg, SchedulerKind::Calendar, None);
        assert_eq!(heap.fingerprint(), cal.fingerprint());
        // Every transmitted frame must arrive (ECMP routing is loop-free
        // and complete).
        assert_eq!(cal.frames_delivered, 16 * 20);
        assert!(cal.events > cal.frames_delivered);
        assert!(cal.events_per_sec() > 0.0);
    }

    #[test]
    fn timeline_is_bit_identical_across_schedulers() {
        let cfg = ScaleConfig::for_k(4, 30);
        let interval_ns = 2_000;
        let (heap_run, heap_tl) = run_scale_timeline(cfg, SchedulerKind::Heap, interval_ns);
        let (cal_run, cal_tl) = run_scale_timeline(cfg, SchedulerKind::Calendar, interval_ns);
        assert_eq!(heap_run.fingerprint(), cal_run.fingerprint());
        // The serialized timelines are byte-identical across schedulers.
        let json = heap_tl.to_json();
        let bin = heap_tl.to_bin();
        assert_eq!(cal_tl.to_json(), json, "calendar timeline diverged");
        assert_eq!(cal_tl.to_bin(), bin);
        // The run spans many boundaries and actually emits deltas.
        assert!(
            heap_tl.entries.len() >= 3,
            "expected several non-empty windows, got {}",
            heap_tl.entries.len()
        );
        // baseline + Σdeltas reconstructs the final full snapshot.
        assert_eq!(heap_tl.reconstruct(), heap_tl.final_snapshot);
        // And the binary stream decodes back exactly.
        assert_eq!(Timeline::from_bin(&bin).unwrap(), heap_tl);
    }

    #[test]
    fn instrumented_run_records_event_leads() {
        let registry = Arc::new(Registry::new());
        let cfg = ScaleConfig::for_k(4, 5);
        run_scale(cfg, SchedulerKind::Calendar, Some(registry.clone()));
        let snap = registry.snapshot();
        let lead = snap.histogram("sim_event_lead_ns", "").unwrap();
        assert!(lead.count > 0);
        // Leads cluster at proc + latency = 2µs; the p99 stays in the
        // narrow band the calendar queue exploits.
        assert!(
            lead.p50 >= 1_000 && lead.p99 <= 16_384,
            "p50={} p99={}",
            lead.p50,
            lead.p99
        );
    }
}
