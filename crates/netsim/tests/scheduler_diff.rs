//! Differential property test: random event schedules drained through the
//! reference `BinaryHeap` scheduler and the calendar queue must produce
//! identical `(time, seq)` sequences — including same-timestamp bursts,
//! far-future outliers, and pushes interleaved with pops and peeks under
//! the simulator's `at >= now` discipline.
//!
//! The same identity is then checked end to end on a whole simulator: a
//! fig19-mix fat-tree workload must give identical per-node delivery
//! streams, stats, final clock and telemetry on both schedulers.

use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sched::{CalendarQueue, HeapScheduler, Scheduler, SchedulerKind};
use p4auth_netsim::sim::{Outbox, SimNode, SimStats, Simulator};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, SwitchId};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One step of a randomly generated scheduler workload. Leads are relative
/// to the virtual `now` (the timestamp of the last popped event), matching
/// the simulator's only scheduling pattern.
#[derive(Clone, Debug)]
enum Op {
    /// Push one event `lead` ns into the future.
    Push(u64),
    /// Push a same-timestamp burst of `n` events, all at `now + lead`.
    Burst { lead: u64, n: u8 },
    /// Push an event far beyond any plausible bucket window.
    FarFuture(u64),
    /// Pop up to `n` events, advancing `now` to each popped timestamp.
    Pop(u8),
    /// Peek at the minimum, then push something possibly earlier than it
    /// (exercises the calendar queue's cursor pull-back and the
    /// peek-must-not-jump rule).
    PeekThenPush(u64),
    /// Push a same-timestamp burst attributed to several sources, with
    /// the simulator's packed `(source, per-source count)` tiebreak keys
    /// arriving in non-monotone key order.
    CrossBurst { lead: u64, srcs: Vec<u8> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200_000).prop_map(Op::Push),
        ((0u64..5_000), 2u8..6).prop_map(|(lead, n)| Op::Burst { lead, n }),
        (1u64 << 32..1u64 << 44).prop_map(Op::FarFuture),
        (1u8..8).prop_map(Op::Pop),
        (0u64..10_000).prop_map(Op::PeekThenPush),
        ((0u64..5_000), proptest::collection::vec(0u8..4, 2..6))
            .prop_map(|(lead, srcs)| Op::CrossBurst { lead, srcs }),
    ]
}

/// Applies the op sequence to both schedulers in lockstep, checking every
/// pop and peek agrees, then drains both and compares the tails.
fn run_diff(ops: &[Op], bucket_width_ns: u64) {
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(bucket_width_ns);
    // Per-source counts: seq keys pack `(source << 48) | count`, matching
    // the simulator's tiebreak discipline (unique, not globally monotone).
    let mut counts = [0u64; 4];
    let mut now = 0u64;
    let mut push = |h: &mut HeapScheduler<u64>, c: &mut CalendarQueue<u64>, at: u64, src: usize| {
        counts[src] += 1;
        let seq = ((src as u64) << 48) | counts[src];
        h.schedule(SimTime::from_ns(at), seq, seq);
        c.schedule(SimTime::from_ns(at), seq, seq);
    };
    for op in ops {
        match *op {
            Op::Push(lead) => push(&mut heap, &mut cal, now + lead, 0),
            Op::Burst { lead, n } => {
                for _ in 0..n {
                    push(&mut heap, &mut cal, now + lead, 0);
                }
            }
            Op::CrossBurst { lead, ref srcs } => {
                for &src in srcs {
                    push(&mut heap, &mut cal, now + lead, src as usize);
                }
            }
            Op::FarFuture(lead) => push(&mut heap, &mut cal, now + lead, 0),
            Op::Pop(n) => {
                for _ in 0..n {
                    let a = heap.pop().map(|e| (e.at, e.seq, e.payload));
                    let b = cal.pop().map(|e| (e.at, e.seq, e.payload));
                    assert_eq!(a, b);
                    if let Some((at, _, _)) = a {
                        now = at.as_ns();
                    }
                }
            }
            Op::PeekThenPush(lead) => {
                assert_eq!(heap.next_at(), cal.next_at());
                push(&mut heap, &mut cal, now + lead, 0);
            }
        }
        assert_eq!(heap.len(), cal.len());
    }
    loop {
        assert_eq!(heap.next_at(), cal.next_at());
        let a = heap.pop().map(|e| (e.at, e.seq, e.payload));
        let b = cal.pop().map(|e| (e.at, e.seq, e.payload));
        assert_eq!(a, b);
        if a.is_none() {
            assert!(cal.is_empty());
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_drains_identically_to_heap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        // Spans the clamp floor, a mid value and widths larger than most
        // leads (so bucket occupancy patterns vary).
        width in prop_oneof![Just(1u64), Just(64), Just(1_000), Just(1 << 20)],
    ) {
        run_diff(&ops, width);
    }
}

const READ_FRAME_BYTES: usize = 34;
const WRITE_FRAME_BYTES: usize = 58;
const SEND_TIMER: u64 = 1;
const LATENCY_NS: u64 = 1_500;
const PROC_NS: u64 = 500;
const INTERVAL_NS: u64 = 25;

/// One recorded delivery: `(sim time ns, ingress port, payload)`.
type Delivery = (u64, u8, Vec<u8>);
/// Per-node delivery streams, dense by stream index (switches then hosts).
type Streams = Rc<Vec<RefCell<Vec<Delivery>>>>;

/// A fat-tree switch: records each arrival, then forwards it towards the
/// host named in payload bytes 0–1 on the ECMP path picked by byte 2.
struct Forwarder {
    ft: FatTree,
    id: SwitchId,
    stream: usize,
    streams: Streams,
}

impl SimNode for Forwarder {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        self.streams[self.stream].borrow_mut().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
        let dst = SwitchId::new(u16::from_le_bytes([payload[0], payload[1]]));
        if let Some(port) = self.ft.next_hop(self.id, dst, payload[2] as u64) {
            out.send_delayed(port, payload, PROC_NS);
        }
    }
}

/// A host sending the fig19 read/write mix (two reads per write) to
/// random peers, one frame every `INTERVAL_NS`.
struct Host {
    ft: FatTree,
    index: u16,
    remaining: u32,
    sent: u32,
    rng: SplitMix64,
    stream: usize,
    streams: Streams,
}

impl SimNode for Host {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, _: &mut Outbox) {
        self.streams[self.stream].borrow_mut().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
    }

    fn on_timer(&mut self, _now: SimTime, _timer_id: u64, out: &mut Outbox) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let mut dst = (self.rng.next_u64() % (self.ft.host_count() as u64 - 1)) as u16;
        if dst >= self.index {
            dst += 1;
        }
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
            out.set_timer(SEND_TIMER, INTERVAL_NS);
        }
    }
}

/// Everything a fig19-mix run produces that must be scheduler-invariant:
/// per-node delivery streams, events processed, stats, final clock and
/// the telemetry snapshot JSON.
type MixRun = (Vec<Vec<Delivery>>, u64, SimStats, u64, String);

fn run_fig19_mix(k: u16, frames: u32, kind: SchedulerKind) -> MixRun {
    let ft = FatTree::new(k);
    let n = ft.switch_count() as usize + ft.host_count() as usize;
    let streams: Streams = Rc::new((0..n).map(|_| RefCell::default()).collect());
    let registry = Arc::new(Registry::new());
    let mut sim = Simulator::with_scheduler(ft.build(LATENCY_NS), kind);
    sim.set_telemetry(registry.clone());
    for raw in 1..=ft.switch_count() {
        let id = SwitchId::new(raw);
        let stream = raw as usize - 1;
        let streams = streams.clone();
        sim.register_node(
            id,
            Box::new(Forwarder {
                ft,
                id,
                stream,
                streams,
            }),
        );
    }
    for h in 0..ft.host_count() {
        let seed = 0x5ca1_e000 ^ k as u64 ^ (h as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let host = Host {
            ft,
            index: h,
            remaining: frames,
            sent: 0,
            rng: SplitMix64::new(seed),
            stream: ft.switch_count() as usize + h as usize,
            streams: streams.clone(),
        };
        sim.register_node(ft.host(h), Box::new(host));
        sim.schedule_timer(ft.host(h), SEND_TIMER, 1 + (h as u64 % 97) * 11);
    }
    let events = sim.run_to_completion();
    let (stats, now_ns) = (sim.stats(), sim.now().as_ns());
    let streams = streams.iter().map(|s| s.borrow().clone()).collect();
    (
        streams,
        events,
        stats,
        now_ns,
        registry.snapshot().to_json(),
    )
}

fn assert_fig19_mix_identical(k: u16, frames: u32) {
    let cal = run_fig19_mix(k, frames, SchedulerKind::Calendar);
    let heap = run_fig19_mix(k, frames, SchedulerKind::Heap);
    assert!(cal.2.frames_delivered > 0, "workload must generate traffic");
    assert_eq!(cal.0.len(), heap.0.len(), "k={k}: stream count");
    for (i, (a, b)) in cal.0.iter().zip(&heap.0).enumerate() {
        assert_eq!(a, b, "k={k}: delivery stream of node index {i}");
    }
    assert_eq!(cal.1, heap.1, "k={k}: event count");
    assert_eq!(cal.2, heap.2, "k={k}: stats");
    assert_eq!(cal.3, heap.3, "k={k}: final clock");
    assert_eq!(cal.4, heap.4, "k={k}: telemetry fingerprint");
}

#[test]
fn fat_tree_4_fig19_mix_identical_on_both_schedulers() {
    assert_fig19_mix_identical(4, 30);
}

#[test]
fn fat_tree_8_fig19_mix_identical_on_both_schedulers() {
    assert_fig19_mix_identical(8, 8);
}
