//! Timing adapters for the traced run.
//!
//! Every span is recorded from the benchmark's own files, around the
//! public entry points of each layer:
//!
//! * node callbacks: the harness's `SwitchNode`, `ControllerNode` and
//!   `ReplicaSetNode` are left exactly as `Network::build` and
//!   `ReplicatedNetwork::build` registered them, inside the simulator
//!   those created. [`Tracer::wrap_nodes`]
//!   moves that simulator aside and registers in a fresh simulator over
//!   the same topology one [`TimedNode`] per node, which forwards each
//!   callback to the original node through `Simulator::with_node` and
//!   times it. The moved simulator only holds the nodes; the fresh one
//!   runs the events, so the callback order and every tiebreak key are
//!   those of the untraced run (the fingerprint check proves it);
//! * the app: [`TimedApp`] wraps the `HulaApp` mounted on each agent;
//! * workload calls and `Simulator::step` through [`Tracer::time`] and the
//!   stepping helpers.
//!
//! `wire` and `primitives` are not timed inline: [`retime`] re-times a
//! sample of the workload's own frames afterwards.

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode, Simulator, TopologyEvent};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::dh::{DhParams, DhPrivate, DhPublic};
use p4auth_primitives::kdf::{Kdf, KdfConfig};
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::{Key64, Salt64};
use p4auth_wire::ids::{PortId, SwitchId};
use p4auth_wire::Message;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a timed interval is charged to.
#[derive(Clone, Copy, Debug)]
pub enum Slot {
    /// `Simulator::step`, node callbacks included.
    Step,
    /// `SwitchNode` callbacks (agent, chassis and app inside).
    Switch,
    /// `ControllerNode` callbacks.
    Controller,
    /// `ReplicaSetNode` callbacks.
    Replica,
    /// `InNetworkApp::on_control` / `on_data` of the mounted app.
    App,
    /// `originate_probe` / `seal_probe` workload calls.
    Seal,
    /// `controller_read` workload calls.
    Read,
    /// `controller_write` workload calls.
    Write,
    /// `Registry::snapshot` workload calls.
    Snapshot,
    /// The adapters' own forwarding cost around node callbacks.
    Adapter,
}

const SLOTS: usize = Slot::Adapter as usize + 1;

/// Accumulated wall-ns and call counts per [`Slot`]. Atomic because the
/// app adapter shares it and `InNetworkApp` requires `Send`; the run
/// itself is single-threaded.
#[derive(Default)]
pub struct Acc {
    ns: [AtomicU64; SLOTS],
    calls: [AtomicU64; SLOTS],
}

impl Acc {
    fn add(&self, slot: Slot, ns: u64) {
        self.ns[slot as usize].fetch_add(ns, Ordering::Relaxed);
        self.calls[slot as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Total wall-ns charged to `slot`.
    pub fn ns(&self, slot: Slot) -> u64 {
        self.ns[slot as usize].load(Ordering::Relaxed)
    }

    /// Calls charged to `slot`.
    pub fn calls(&self, slot: Slot) -> u64 {
        self.calls[slot as usize].load(Ordering::Relaxed)
    }

    /// Mean wall-ns per call of `slot` (0 without calls).
    pub fn ns_per_call(&self, slot: Slot) -> f64 {
        mean(self.ns(slot) as f64, self.calls(slot) as usize)
    }

    fn reset(&self) {
        for a in self.ns.iter().chain(self.calls.iter()) {
            a.store(0, Ordering::Relaxed);
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Keeps every `STRIDE`-th delivered frame, up to `CAP` frames.
#[derive(Default)]
pub struct FrameSample {
    seen: u64,
    frames: Vec<Vec<u8>>,
}

impl FrameSample {
    const STRIDE: u64 = 16;
    const CAP: usize = 4096;

    fn offer(&mut self, bytes: &[u8]) {
        self.seen += 1;
        if self.seen.is_multiple_of(Self::STRIDE) && self.frames.len() < Self::CAP {
            self.frames.push(bytes.to_vec());
        }
    }

    /// The sampled frames.
    pub fn frames(&self) -> &[Vec<u8>] {
        &self.frames
    }
}

/// Times workload calls and simulator steps when tracing; a pass-through
/// otherwise.
pub struct Tracer {
    acc: Option<Arc<Acc>>,
    sample: Rc<RefCell<FrameSample>>,
}

impl Tracer {
    /// The untraced run: every helper calls straight through.
    pub fn plain() -> Self {
        Tracer {
            acc: None,
            sample: Rc::default(),
        }
    }

    /// The traced run.
    pub fn traced() -> Self {
        Tracer {
            acc: Some(Arc::default()),
            sample: Rc::default(),
        }
    }

    /// The accumulators (traced run only).
    pub fn acc(&self) -> Option<&Acc> {
        self.acc.as_deref()
    }

    /// The frames sampled by the node adapters.
    pub fn sample(&self) -> std::cell::Ref<'_, FrameSample> {
        self.sample.borrow()
    }

    /// Zeroes the accumulators and drops the frame sample (called when
    /// set-up ends, so both cover only the measured window).
    pub fn reset(&self) {
        if let Some(acc) = &self.acc {
            acc.reset();
        }
        *self.sample.borrow_mut() = FrameSample::default();
    }

    /// Runs `f`, charging its wall time to `slot` when tracing.
    pub fn time<R>(&self, slot: Slot, f: impl FnOnce() -> R) -> R {
        let Some(acc) = &self.acc else {
            return f();
        };
        let t = Instant::now();
        let r = f();
        acc.add(slot, elapsed_ns(t));
        r
    }

    /// One `Simulator::step`.
    pub fn step(&self, sim: &mut Simulator) -> bool {
        self.time(Slot::Step, || sim.step())
    }

    /// `Simulator::run_to_completion`; event by event when tracing so
    /// each step is timed. Returns the events processed.
    pub fn run_to_completion(&self, sim: &mut Simulator) -> u64 {
        if self.acc.is_none() {
            return sim.run_to_completion();
        }
        let mut n = 0;
        while self.step(sim) {
            n += 1;
        }
        n
    }

    /// Wraps `app` in a [`TimedApp`] when tracing.
    pub fn wrap_app(&self, app: Box<dyn InNetworkApp>) -> Box<dyn InNetworkApp> {
        match &self.acc {
            Some(acc) => Box::new(TimedApp {
                inner: app,
                acc: acc.clone(),
            }),
            None => app,
        }
    }

    /// When tracing, moves the network's original simulator (and the
    /// nodes registered in it) aside and puts in its place a fresh
    /// simulator over the same topology whose nodes are [`TimedNode`]s
    /// forwarding to the originals. Call right after the network is built, before anything
    /// is scheduled or attached to the simulator. `controller` names the
    /// slot the controller-position node is charged to.
    pub fn wrap_nodes(&self, sim: &mut Simulator, controller: Slot) {
        let Some(acc) = &self.acc else { return };
        let fresh = Simulator::with_scheduler(sim.topology().clone(), sim.scheduler_kind());
        let holder = std::mem::replace(sim, fresh);
        let ids: Vec<SwitchId> = holder
            .topology()
            .nodes()
            .iter()
            .copied()
            .filter(|&id| holder.node(id).is_some())
            .collect();
        let holder = Rc::new(RefCell::new(holder));
        for id in ids {
            let slot = if id.is_controller() {
                controller
            } else {
                Slot::Switch
            };
            sim.register_node(
                id,
                Box::new(TimedNode {
                    holder: holder.clone(),
                    id,
                    slot,
                    acc: acc.clone(),
                    sample: self.sample.clone(),
                }),
            );
        }
    }
}

/// A simulator node that forwards every callback to the original node
/// kept in `holder`, timing it.
struct TimedNode {
    holder: Rc<RefCell<Simulator>>,
    id: SwitchId,
    slot: Slot,
    acc: Arc<Acc>,
    sample: Rc<RefCell<FrameSample>>,
}

impl TimedNode {
    /// Runs `f` against the original node with the *running* simulator's
    /// outbox, charging the callback to `self.slot` and the forwarding
    /// around it to [`Slot::Adapter`].
    fn forward(&self, f: impl FnOnce(&mut dyn SimNode)) {
        let t0 = Instant::now();
        let mut callback = 0;
        self.holder.borrow_mut().with_node(self.id, |node, _| {
            let t = Instant::now();
            f(node);
            callback = elapsed_ns(t);
        });
        self.acc.add(self.slot, callback);
        self.acc
            .add(Slot::Adapter, elapsed_ns(t0).saturating_sub(callback));
    }
}

impl SimNode for TimedNode {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        self.sample.borrow_mut().offer(payload.as_slice());
        self.forward(|node| node.on_frame(now, ingress, payload, out));
    }

    fn on_timer(&mut self, now: SimTime, timer_id: u64, out: &mut Outbox) {
        self.forward(|node| node.on_timer(now, timer_id, out));
    }

    fn on_topology(&mut self, now: SimTime, event: TopologyEvent, out: &mut Outbox) {
        self.forward(|node| node.on_topology(now, event, out));
    }
}

/// Times the mounted app's packet handlers.
struct TimedApp {
    inner: Box<dyn InNetworkApp>,
    acc: Arc<Acc>,
}

impl InNetworkApp for TimedApp {
    fn system_id(&self) -> u8 {
        self.inner.system_id()
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        self.inner.setup(chassis);
    }

    fn on_control(
        &mut self,
        ctx: &mut PacketContext<'_>,
        ingress: PortId,
        payload: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        let t = Instant::now();
        let r = self.inner.on_control(ctx, ingress, payload);
        self.acc.add(Slot::App, elapsed_ns(t));
        r
    }

    fn on_data(
        &mut self,
        ctx: &mut PacketContext<'_>,
        ingress: PortId,
        bytes: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        let t = Instant::now();
        let r = self.inner.on_data(ctx, ingress, bytes);
        self.acc.add(Slot::App, elapsed_ns(t));
        r
    }
}

/// Per-message costs of the `wire` and `primitives` layers, re-timed
/// over a sample of the workload's own frames.
#[derive(Clone, Copy, Debug, Default)]
pub struct Retimed {
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub bytes_per_msg: f64,
    pub mac_verify_ns: f64,
    pub dh_ns: f64,
    pub kdf_ns: f64,
}

/// Passes over the sample per timing; enough for a few ms per figure.
const PASSES: usize = 16;
/// Calls per DH / KDF timing.
const KEY_OPS: u64 = 20_000;

/// `total / n`, or 0 without samples.
fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Wall-ns since `t` per call.
fn per_call(t: Instant, calls: usize) -> f64 {
    mean(elapsed_ns(t) as f64, calls)
}

/// Re-times `Message::decode`, `Message::encode` and `Mac::verify` over
/// the sampled frames, and one DH and one KDF operation through their
/// public functions.
pub fn retime(frames: &[Vec<u8>]) -> Retimed {
    let (wire, msgs): (Vec<&[u8]>, Vec<Message>) = frames
        .iter()
        .filter_map(|f| Some((f.as_slice(), Message::decode(f).ok()?)))
        .unzip();
    let n = wire.len();
    let mut r = Retimed {
        bytes_per_msg: mean(wire.iter().map(|f| f.len()).sum::<usize>() as f64, n),
        ..Retimed::default()
    };

    let t = Instant::now();
    for _ in 0..PASSES {
        for f in &wire {
            black_box(Message::decode(black_box(f)).is_ok());
        }
    }
    r.decode_ns = per_call(t, PASSES * n);

    let t = Instant::now();
    for _ in 0..PASSES {
        for m in &msgs {
            black_box(black_box(m).encode());
        }
    }
    r.encode_ns = per_call(t, PASSES * n);

    let mac = HalfSipHashMac::default();
    let key = Key64::new(0x5eed_cafe_f00d_0001);
    let inputs: Vec<Vec<u8>> = msgs.iter().map(Message::digest_input).collect();
    let t = Instant::now();
    for _ in 0..PASSES {
        for (m, input) in msgs.iter().zip(&inputs) {
            black_box(mac.verify(black_box(key), &[input.as_slice()], m.digest()));
        }
    }
    r.mac_verify_ns = per_call(t, PASSES * n);

    // One DH operation is one side's work in an ADHKD exchange: its
    // public key plus the pre-master secret from the peer's.
    let params = DhParams::recommended();
    let t = Instant::now();
    for i in 0..KEY_OPS {
        let private = DhPrivate::new(black_box(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        black_box(private.public_key(&params));
        black_box(private.pre_master(&params, DhPublic::from_raw(black_box(i))));
    }
    r.dh_ns = per_call(t, KEY_OPS as usize);

    let kdf = Kdf::new(KdfConfig::PAPER);
    let t = Instant::now();
    for i in 0..KEY_OPS {
        black_box(kdf.derive(Key64::new(black_box(i)), Salt64::new(black_box(!i))));
    }
    r.kdf_ns = per_call(t, KEY_OPS as usize);
    r
}
