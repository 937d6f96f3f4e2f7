//! Paper-style report printers, shared by the Criterion benches and the
//! `repro` binary.

use crate::{banner, rw_rows};
use p4auth_attacks::bruteforce;
use p4auth_attacks::scenarios;
use p4auth_controller::ControllerConfig;
use p4auth_core::kmp::{KeyOperation, NetworkScale, ShardedDeployment};
use p4auth_dataplane::cost::AccessMethod;
use p4auth_dataplane::resources::{DeviceCapacity, ProgramResources};
use p4auth_netsim::topology::Topology;
use p4auth_primitives::mac::DigestWidth;
use p4auth_systems::experiments::{fct, fig16, fig17, fig20, fig21};
use p4auth_systems::harness::Network;

/// Fig. 16 — RouteScout traffic distribution.
pub fn fig16() {
    banner(
        "Fig. 16 — RouteScout traffic distribution",
        "paper §IX-A, Fig. 16",
    );
    let config = fig16::Fig16Config::default();
    println!(
        "{:<22} {:>14} {:>14} {:>10} {:>12}",
        "scenario", "path1 (fast) %", "path2 (slow) %", "split→p1", "detections"
    );
    for r in fig16::run_all(config) {
        println!(
            "{:<22} {:>14.1} {:>14.1} {:>10} {:>12}",
            r.scenario.label(),
            100.0 * r.post_attack_share[0],
            100.0 * r.post_attack_share[1],
            r.final_split,
            r.tamper_detections,
        );
    }
    println!("\npaper shape: no-adv splits by delay; adversary diverts ~70% to path2;");
    println!("P4Auth detects every tampered epoch and retains the original ratio.");
}

/// Fig. 17 — HULA traffic distribution.
pub fn fig17() {
    banner(
        "Fig. 17 — HULA traffic distribution",
        "paper §IX-A, Fig. 17",
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "scenario", "S1-S2 %", "S1-S3 %", "S1-S4 %", "dropped", "alerts"
    );
    for r in fig17::run_all(fig17::Fig17Config::default()) {
        println!(
            "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>8}",
            r.scenario.label(),
            100.0 * r.path_share[0],
            100.0 * r.path_share[1],
            100.0 * r.path_share[2],
            r.probes_dropped,
            r.alerts,
        );
    }
    println!("\npaper shape: equal thirds clean; >70% onto S1-S4 under attack;");
    println!("with P4Auth the compromised link carries nothing and alerts fire.");
}

/// Fig. 18 — register read/write RCT.
pub fn fig18() {
    banner("Fig. 18 — register read/write RCT", "paper §IX-B, Fig. 18");
    println!(
        "{:<12} {:>14} {:>14}",
        "method", "read RCT (ms)", "write RCT (ms)"
    );
    for row in rw_rows() {
        println!(
            "{:<12} {:>14.3} {:>14.3}",
            row.method.label(),
            row.read_rct_ns as f64 / 1e6,
            row.write_rct_ns as f64 / 1e6,
        );
    }
    println!("\npaper shape: P4Runtime writes cost ~1.7x reads; P4Auth adds only a");
    println!("small digest overhead on top of DP-Reg-RW.");
}

/// Fig. 19 — register read/write throughput.
pub fn fig19() {
    banner(
        "Fig. 19 — register read/write throughput",
        "paper §IX-B, Fig. 19",
    );
    println!(
        "{:<12} {:>14} {:>14}",
        "method", "read (req/s)", "write (req/s)"
    );
    let rows = rw_rows();
    for row in &rows {
        println!(
            "{:<12} {:>14.1} {:>14.1}",
            row.method.label(),
            row.read_rps(),
            row.write_rps(),
        );
    }
    let p4rt = rows
        .iter()
        .find(|r| r.method == AccessMethod::P4Runtime)
        .unwrap();
    let dp = rows
        .iter()
        .find(|r| r.method == AccessMethod::DpRegRw)
        .unwrap();
    let auth = rows
        .iter()
        .find(|r| r.method == AccessMethod::P4Auth)
        .unwrap();
    println!(
        "\nP4Runtime read/write throughput ratio: {:.2}x   (paper: ~1.7x)",
        p4rt.read_rps() / p4rt.write_rps()
    );
    println!(
        "P4Auth vs DP-Reg-RW: read {:+.1}%, write {:+.1}%   (paper: -4.2% / -2.1%)",
        100.0 * (auth.read_rps() / dp.read_rps() - 1.0),
        100.0 * (auth.write_rps() / dp.write_rps() - 1.0),
    );
}

/// Fig. 20 — key management RTT.
pub fn fig20() {
    banner("Fig. 20 — key management RTT", "paper §IX-B, Fig. 20");
    let r = fig20::measure_default();
    println!(
        "{:<20} {:>10} {:>10} {:>10}",
        "operation", "RTT (ms)", "#msgs", "#bytes"
    );
    let ops = [
        (KeyOperation::LocalInit, r.local_init_ns),
        (KeyOperation::LocalUpdate, r.local_update_ns),
        (KeyOperation::PortInit, r.port_init_ns),
        (KeyOperation::PortUpdate, r.port_update_ns),
    ];
    for (op, ns) in ops {
        println!(
            "{:<20} {:>10.3} {:>10} {:>10}",
            op.label(),
            ns as f64 / 1e6,
            op.message_count(),
            op.byte_count(),
        );
    }
    println!("\npaper shape: 1-2ms for initialization, <1ms for updates; port init");
    println!("slowest (controller redirection), port update fastest (direct DP-DP).");
}

/// Fig. 21 — probe traversal time vs. hops.
pub fn fig21() {
    banner(
        "Fig. 21 — probe traversal time vs. hops",
        "paper §IX-C, Fig. 21",
    );
    println!(
        "{:>5} {:>15} {:>15} {:>10}",
        "hops", "baseline (ms)", "P4Auth (ms)", "overhead"
    );
    for p in fig21::sweep(10) {
        println!(
            "{:>5} {:>15.3} {:>15.3} {:>9.2}%",
            p.hops,
            p.baseline_ns as f64 / 1e6,
            p.p4auth_ns as f64 / 1e6,
            p.overhead_pct(),
        );
    }
    println!("\npaper shape: overhead grows with hop count and stays single-digit");
    println!("(paper: 0.95% at 2 hops, 5.9% at 10 hops).");
}

/// Table I — attack impact per system class.
pub fn table1() {
    banner(
        "Table I — impact of altering C-DP messages",
        "paper §II, Table I",
    );
    println!(
        "{:<30} {:<13} {:<11} {:<7}  impact",
        "system", "baseline", "P4Auth", "alert"
    );
    for r in scenarios::run_all() {
        println!(
            "{:<30} {:<13} {:<11} {:<7}  {}",
            r.class.label(),
            if r.baseline_compromised {
                "compromised"
            } else {
                "safe"
            },
            if r.p4auth_blocked {
                "protected"
            } else {
                "FAILED"
            },
            if r.alert_raised { "yes" } else { "no" },
            r.impact,
        );
    }
}

/// Table II — hardware resource overhead.
pub fn table2() {
    banner(
        "Table II — hardware resource overhead",
        "paper §IX-B, Table II",
    );
    let device = DeviceCapacity::tofino();
    let baseline = ProgramResources::baseline_l3();
    let with_p4auth = baseline.plus(ProgramResources::p4auth_modules(32, 1, DigestWidth::W32));

    println!(
        "{:<14} {:>8} {:>8} {:>12} {:>8}",
        "program", "TCAM", "SRAM", "Hash Units", "PHV"
    );
    for (label, prog) in [("Baseline", baseline), ("With P4Auth", with_p4auth)] {
        let u = prog.utilization(&device);
        println!(
            "{:<14} {:>7.1}% {:>7.1}% {:>11.1}% {:>7.1}%",
            label, u.tcam_pct, u.sram_pct, u.hash_units_pct, u.phv_pct
        );
    }
    println!("\npaper:      Baseline  8.3% / 2.5% /  1.4% / 11.0%");
    println!("paper:      P4Auth    8.3% / 3.6% / 51.4% / 23.1%");

    println!("\nSRAM scaling (key register 64*(M+1) bits; mapping table 2K x 40 bits):");
    for (ports, registers) in [(8u32, 1u32), (32, 8), (64, 64)] {
        let m = ProgramResources::p4auth_modules(ports, registers, DigestWidth::W32);
        println!(
            "  M={ports:<3} K={registers:<3} -> {} SRAM blocks, {} hash units (constant)",
            m.sram_blocks, m.hash_units
        );
    }
}

/// Table III — KMP scalability, including the §XI sharded-deployment
/// analysis and a simulated cross-check.
pub fn table3() {
    banner("Table III — KMP scalability", "paper §XI, Table III");
    println!("{:<20} {:>8} {:>8}", "operation", "#msgs", "#bytes");
    for op in KeyOperation::ALL {
        println!(
            "{:<20} {:>8} {:>8}",
            op.label(),
            op.message_count(),
            op.byte_count()
        );
    }

    println!("\naggregate controller load for m switches, n links:");
    println!("  key initialization: 4m + 5n messages, 104m + 138n bytes");
    println!("  key update:         2m + 3n messages,  60m +  78n bytes");

    let s = NetworkScale::ONOS_PER_CONTROLLER;
    println!("\nONOS example (m=25, n=50 per controller):");
    println!(
        "  init:   {} messages, {:.1} KB   (paper: 350 messages, 9.5 KB)",
        s.init_messages(),
        s.init_bytes() as f64 / 1000.0
    );
    println!(
        "  update: {} messages, {:.1} KB   (paper prints 125 messages / 5.4 KB;",
        s.update_messages(),
        s.update_bytes() as f64 / 1000.0
    );
    println!("          its own 2m+3n formula gives 200 — see EXPERIMENTS.md)");

    let wan = ShardedDeployment::ONOS_WAN;
    println!("\n§XI sharded deployment (205 switches, 414 links, 8 controllers):");
    println!(
        "  worst controller: {} init messages, {:.1} KB",
        wan.init_messages_per_controller(),
        wan.init_bytes_per_controller() as f64 / 1000.0
    );
    println!(
        "  sequential init @2ms/op: {:.0} ms   (paper: ~150 ms)",
        wan.sequential_init_ns(2_000_000) as f64 / 1e6
    );
    println!(
        "  sequential update @1ms/op: {:.0} ms   (paper: ~75 ms)",
        wan.sequential_update_ns(1_000_000) as f64 / 1e6
    );
    println!(
        "  batched init (8-wide): {:.0} ms   (\"improves significantly in parallel\")",
        wan.batched_init_ns(2_000_000, 8) as f64 / 1e6
    );

    // Cross-check the analytic model against a real simulated bootstrap.
    let mut net = Network::build(
        Topology::chain(4, 50_000, 200_000),
        ControllerConfig::default(),
        0x7ab3,
        |_| None,
        |_, c| c,
    );
    let before = net.sim.stats().frames_delivered;
    net.bootstrap_keys();
    let frames = net.sim.stats().frames_delivered - before;
    let expected = NetworkScale {
        switches: 4,
        links: 3,
    }
    .init_messages();
    println!("\nsimulated bootstrap on a 4-switch chain (m=4, n=3):");
    println!("  frames on the wire: {frames}   analytic 4m+5n: {expected}");
}

/// §II motivation quantified: FCT inflation under the HULA attack.
pub fn motivation_fct() {
    banner(
        "§II motivation — flow completion time under the HULA attack",
        "paper §II-A, \"inflates flow completion time (FCT)\"",
    );
    let cfg = fct::FctConfig::default();
    println!(
        "{} flows over the Fig. 3 topology; mid->S5 bottlenecks at {:.1} Mbit/s\n",
        cfg.flows,
        cfg.bottleneck_bps as f64 / 1e6
    );
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>18}",
        "scenario", "mean FCT", "p95 FCT", "completed", "S4 traffic share"
    );
    for r in fct::run_all(cfg) {
        println!(
            "{:<22} {:>9.2} ms {:>9.2} ms {:>9}/{:<3} {:>17.1}%",
            r.scenario.label(),
            r.mean_fct_ns / 1e6,
            r.p95_fct_ns as f64 / 1e6,
            r.completed,
            r.total,
            100.0 * r.path_share[2],
        );
    }
    println!("\nthe forged probes congest one bottleneck (~6x mean FCT); P4Auth drops");
    println!("them and completion times return to the clean operating point.");
}

/// Machine-readable telemetry snapshot (`repro -- metrics`).
///
/// Runs an instrumented two-switch network through the full key bootstrap,
/// a batch of authenticated register operations, a MitM tamper, and a
/// replay, then prints the [`p4auth_telemetry::Snapshot`] as one JSON
/// object: verify accepts/rejects per reason, alert emit/suppress counts,
/// frames delivered/dropped, and the register-op latency histogram in
/// sim-ns.
pub fn metrics() {
    use p4auth_netsim::sim::TapAction;
    use p4auth_netsim::time::SimTime;
    use p4auth_telemetry::Registry;
    use p4auth_wire::ids::{PortId, RegId, SwitchId};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    banner(
        "metrics — machine-readable telemetry snapshot",
        "p4auth-telemetry registry over a tampered bootstrap-and-RW run",
    );

    let registry = Arc::new(Registry::with_event_capacity(4096));
    let mut net = Network::build(
        Topology::chain(2, 1_000, 200_000),
        ControllerConfig::default(),
        0xfeed_5eed,
        |_| None,
        |_, c| c.map_register(RegId::new(1), "ctr"),
    );
    for agent in net.switches.values() {
        agent
            .borrow_mut()
            .chassis_mut()
            .declare_register(p4auth_dataplane::register::RegisterArray::new("ctr", 8, 64));
    }
    net.enable_telemetry(registry.clone());
    net.bootstrap_keys();

    let s1 = SwitchId::new(1);
    let reg = RegId::new(1);

    // Clean authenticated register traffic, capturing the sealed request
    // frames for the replay below.
    let captured: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let (cdp_link, _) = net
        .sim
        .topology()
        .link_at(s1, PortId::new(63))
        .expect("C-DP link exists");
    let sink = captured.clone();
    net.sim.install_tap(
        cdp_link,
        SwitchId::CONTROLLER,
        Box::new(move |_, _, _, bytes| {
            sink.borrow_mut().push(bytes.clone());
            TapAction::Forward
        }),
    );
    for i in 0..4 {
        net.controller_write(s1, reg, i, 100 + i as u64);
    }
    net.controller_read(s1, reg, 0);
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 50_000_000);
    net.sim.run_until(deadline);
    net.sim.remove_tap(cdp_link, SwitchId::CONTROLLER);

    // §II-A MitM: flip a payload byte in flight -> BadDigest reject + alert.
    net.sim.install_tap(
        cdp_link,
        SwitchId::CONTROLLER,
        Box::new(|_, _, _, bytes| {
            if let Some(b) = bytes.last_mut() {
                *b ^= 0xff;
            }
            TapAction::Forward
        }),
    );
    net.controller_write(s1, reg, 0, 999);
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 50_000_000);
    net.sim.run_until(deadline);
    net.sim.remove_tap(cdp_link, SwitchId::CONTROLLER);

    // §VIII replay: re-inject a previously delivered sealed request
    // verbatim -> Replayed reject + alert.
    let frame = captured
        .borrow()
        .first()
        .cloned()
        .expect("traffic captured");
    net.sim
        .inject_frame(SwitchId::CONTROLLER, PortId::new(0), frame);
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 50_000_000);
    net.sim.run_until(deadline);

    // Adaptive defence: a forged-digest flood on S1's C-DP channel crosses
    // the reject threshold, the controller auto-rolls the local key, and
    // the detection-to-mitigation latency lands in the
    // `defence_mitigation_latency_ns` histogram.
    net.enable_defence(p4auth_controller::DefenceConfig::default());
    let mut rng = p4auth_primitives::rng::SplitMix64::new(0x0f10_0d5e);
    for frame in p4auth_attacks::digest_flood::forged_acks(8, s1, 50_000, &mut rng) {
        // Injected out of S1's C-DP front-panel port (63, checked above).
        net.sim.inject_frame(s1, PortId::new(63), frame);
    }
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 200_000_000);
    net.sim.run_until(deadline);

    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter_total("auth_reject_bad_digest") > 0
            && snapshot.counter_total("auth_reject_replayed") > 0,
        "scenario must exercise both reject paths"
    );
    assert!(
        snapshot.counter("ctrl_defence_mitigations", "controller") == Some(1),
        "the flood must trigger exactly one mitigation"
    );
    assert!(
        snapshot
            .histogram("defence_mitigation_latency_ns", "controller")
            .is_some_and(|h| h.count == 1 && h.min > 0),
        "detection-to-mitigation latency must be measured in sim-ns"
    );
    print!("{}", snapshot.to_json());
    if let Ok(path) = std::env::var("P4AUTH_METRICS_OUT") {
        std::fs::write(&path, snapshot.to_json()).expect("write P4AUTH_METRICS_OUT");
        let bin_path = format!("{path}.bin");
        std::fs::write(
            &bin_path,
            p4auth_telemetry::snapshot::bin::encode_snapshot(&snapshot),
        )
        .expect("write binary metrics");
        println!("wrote {path} and {bin_path}");
    }
}

/// Replicated control plane (`repro -- replicas`): the full
/// fat-tree(4) scenario through 2 `ControllerReplica`s — bootstrap with
/// cross-partition redirects, a digest flood auto-rolled once by the
/// victim's owner replica, a control-plane MitM rejected by the
/// other partition, and a versioned bulk rollover with per-replica
/// fan-out latency. Prints (and with `P4AUTH_REPLICAS_OUT=<path>`
/// writes) the deterministic JSON report that CI diffs across two runs.
pub fn replicas() {
    banner(
        "replicas — replicated controller end-to-end",
        "typed rollover table + ControllerReplica partitioning",
    );
    let report =
        p4auth_systems::replicated::run(p4auth_systems::replicated::ReplicatedConfig::default());
    println!(
        "{} replicas over {} switches (partitions {:?}, {} cross-partition links)",
        report.replicas, report.switches, report.partition_sizes, report.cross_partition_links
    );
    println!(
        "bootstrap {} ms; flood: {} mitigation(s), victim key rolled: {}",
        report.bootstrap_ns / 1_000_000,
        report.flood_mitigations,
        report.victim_key_rolled
    );
    println!(
        "mitm: {} tampered frame(s), {} reject(s) at the owner replica",
        report.mitm_tampered, report.mitm_rejects_at_owner
    );
    println!(
        "bulk rollover epoch {} complete: {}; fan-out latency {:?} ns",
        report.rollover_epoch, report.rollover_complete, report.fanout_ns
    );
    if let Ok(path) = std::env::var("P4AUTH_REPLICAS_OUT") {
        std::fs::write(&path, report.to_json()).expect("write P4AUTH_REPLICAS_OUT");
        println!("json report -> {path}");
    }
}

/// Streaming-telemetry timeline (`repro -- timeline`): runs the fig19-mix
/// fat-tree workload with periodic delta export driven by the sim clock
/// on both schedulers — heap and calendar — and asserts their
/// serialized timelines are byte-identical (JSON and binary) before
/// printing anything. Also checks `baseline + Σdeltas` reconstructs the
/// final full snapshot and that the binary stream decodes back exactly.
///
/// `P4AUTH_SCALE_SHORT=1` caps the workload for CI (`--short`);
/// `P4AUTH_TIMELINE_INTERVAL_NS=<ns>` overrides the export grid (default
/// 10µs of sim-time). `P4AUTH_TIMELINE_OUT=<path>` (`--out`) writes the
/// JSON timeline to `<path>` and the binary stream to `<path>.bin`.
pub fn timeline() {
    use crate::scale::{run_scale_timeline, ScaleConfig};
    use p4auth_netsim::sched::SchedulerKind;
    use p4auth_netsim::Timeline;

    banner(
        "timeline — streaming telemetry deltas on the sim clock",
        "ROADMAP \"streaming snapshots / delta export\"; fig19 request mix",
    );

    let short = std::env::var("P4AUTH_SCALE_SHORT").is_ok_and(|v| v != "0");
    let interval_ns: u64 = std::env::var("P4AUTH_TIMELINE_INTERVAL_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let frames = if short { 50 } else { 400 };
    let cfg = ScaleConfig::for_k(4, frames);

    let (heap_run, heap_tl) = run_scale_timeline(cfg, SchedulerKind::Heap, interval_ns);
    let (cal_run, cal_tl) = run_scale_timeline(cfg, SchedulerKind::Calendar, interval_ns);
    assert_eq!(
        heap_run.fingerprint(),
        cal_run.fingerprint(),
        "schedulers diverged"
    );
    let json = heap_tl.to_json();
    let bin = heap_tl.to_bin();
    assert_eq!(cal_tl.to_json(), json, "calendar timeline diverged");
    assert_eq!(cal_tl.to_bin(), bin);
    assert_eq!(
        heap_tl.reconstruct(),
        heap_tl.final_snapshot,
        "baseline + Σdeltas must reconstruct the final snapshot"
    );
    assert_eq!(
        Timeline::from_bin(&bin).expect("binary stream decodes"),
        heap_tl
    );

    println!(
        "k={} frames/host={} interval={interval_ns}ns: \
         {} events over {} sim-ns, {} non-empty deltas, {} binary bytes",
        cfg.k,
        frames,
        heap_run.events,
        heap_run.sim_ns,
        heap_tl.entries.len(),
        bin.len(),
    );
    print!("{json}");
    if let Ok(path) = std::env::var("P4AUTH_TIMELINE_OUT") {
        std::fs::write(&path, &json).expect("write P4AUTH_TIMELINE_OUT");
        let bin_path = format!("{path}.bin");
        std::fs::write(&bin_path, &bin).expect("write timeline binary");
        println!("wrote {path} and {bin_path}");
    }
}

/// Causal flight recorder (`repro -- trace`): end-to-end trace spans on
/// the simulation clock, exported deterministically.
///
/// Two workloads run under tracing. The *fabric* workload (fig19-mix
/// user fabric with a link-flap plan) runs on the heap and calendar
/// schedulers, and the report asserts their `P4TR` encodings are
/// byte-identical with zero spans dropped, the scheduler-invariance
/// claim for the span layer. The *defence probe* (the
/// flood campaign on heap and calendar) yields the end-to-end trace —
/// frame hops, digest verdicts, rollover-table writes, replica wakes, KMP
/// rounds — from which the mitigation critical path is printed: the
/// stage children of the `mitigation` root span must number at least
/// four and their widths must sum exactly to the root's width, which in
/// turn must equal the `defence_mitigation_latency_ns` histogram total.
///
/// `P4AUTH_SCALE_SHORT=1` (`--short`) caps the fabric size for CI.
/// `P4AUTH_TRACE_OUT=<path>` (`--out`) writes the probe trace as Chrome
/// `chrome://tracing` JSON to `<path>` and as `P4TR` binary to
/// `<path>.bin` (`repro -- decode` inverts the latter back to the same
/// JSON).
pub fn trace() {
    use p4auth_netsim::fault::FaultPlan;
    use p4auth_netsim::sched::SchedulerKind;
    use p4auth_netsim::topology::LinkId;
    use p4auth_systems::campaigns::traced_defence_probe;
    use p4auth_systems::userscale::{run_users, UserScaleConfig};
    use p4auth_telemetry::trace::{
        chrome_trace_json, encode_trace, validate_well_formed, SpanKind,
    };
    use p4auth_telemetry::Registry;
    use std::sync::Arc;

    banner(
        "trace — causal flight recorder, scheduler-invariant by construction",
        "ROADMAP \"causal flight recorder\"; DESIGN §4g",
    );

    let short = std::env::var("P4AUTH_SCALE_SHORT").is_ok_and(|v| v != "0");
    let users = if short { 400 } else { 2_000 };
    // Comfortably above what these workloads emit: the invariance and
    // critical-path claims are only meaningful at zero drops.
    const TRACE_CAP: usize = 1 << 16;

    // Fabric workload: same config and fault plan on both schedulers.
    let mut cfg = UserScaleConfig::for_k(4, users, 1);
    let mut plan = FaultPlan::new();
    plan.flap(LinkId(3), 40_000, 400_000);
    plan.flap(LinkId(11), 120_000, 500_000);
    cfg.faults = Some(plan);
    let fabric = |kind: SchedulerKind| {
        let registry = Arc::new(Registry::with_capacities(0, TRACE_CAP));
        let run = run_users(&cfg, kind, Some(registry.clone()));
        assert!(run.frames_sent > 0, "the fabric must move frames");
        assert_eq!(
            registry.trace().dropped(),
            0,
            "{}: fabric trace dropped spans",
            kind.label()
        );
        registry.trace().sorted_records()
    };
    let reference = fabric(SchedulerKind::Calendar);
    validate_well_formed(&reference).expect("fabric trace well-formed");
    assert_eq!(
        encode_trace(&fabric(SchedulerKind::Heap), 0),
        encode_trace(&reference, 0),
        "heap fabric trace diverged from calendar"
    );
    println!(
        "fabric ({users} users, 2 flaps): {} spans, byte-identical across \
         heap/calendar ✓",
        reference.len()
    );

    // Defence probe: the end-to-end trace and the critical-path table.
    let probe = traced_defence_probe(SchedulerKind::Heap, TRACE_CAP);
    let cal = traced_defence_probe(SchedulerKind::Calendar, TRACE_CAP);
    assert_eq!(probe.trace().dropped(), 0, "probe trace dropped spans");
    let records = probe.trace().sorted_records();
    validate_well_formed(&records).expect("probe trace well-formed");
    assert_eq!(
        encode_trace(&records, 0),
        encode_trace(&cal.trace().sorted_records(), 0),
        "defence probe trace diverged between heap and calendar"
    );

    let root = records
        .iter()
        .find(|r| r.kind == SpanKind::Mitigation)
        .expect("the flood probe trips a mitigation");
    let stages: Vec<_> = records
        .iter()
        .filter(|r| r.parent_id == root.span_id)
        .collect();
    let total = root.end_ns - root.start_ns;
    println!("\nmitigation critical path (sim-ns):");
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>7}",
        "stage", "start", "end", "width", "share"
    );
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>6.1}%",
        "mitigation (total)", root.start_ns, root.end_ns, total, 100.0
    );
    let mut stage_sum = 0u64;
    for s in &stages {
        let width = s.end_ns - s.start_ns;
        stage_sum += width;
        println!(
            "  {:<22} {:>12} {:>12} {:>12} {:>6.1}%",
            s.kind.as_str(),
            s.start_ns,
            s.end_ns,
            width,
            100.0 * width as f64 / total.max(1) as f64
        );
    }
    assert!(
        stages.len() >= 4,
        "want >= 4 critical-path stages, got {}",
        stages.len()
    );
    assert_eq!(
        stage_sum, total,
        "stage widths must sum to the mitigation latency"
    );
    let snap = probe.snapshot();
    let hist = snap
        .histogram("defence_mitigation_latency_ns", "controller")
        .expect("mitigation latency histogram present");
    assert_eq!(
        total, hist.max,
        "trace total must equal the recorded mitigation latency"
    );

    let json = chrome_trace_json(&records);
    let bin = encode_trace(&records, 0);
    println!(
        "\ndefence probe: {} spans decompose mitigation latency {total} ns \
         into {} stages ✓ ({} bytes P4TR, {} bytes JSON)",
        records.len(),
        stages.len(),
        bin.len(),
        json.len(),
    );
    if let Ok(path) = std::env::var("P4AUTH_TRACE_OUT") {
        std::fs::write(&path, &json).expect("write P4AUTH_TRACE_OUT");
        let bin_path = format!("{path}.bin");
        std::fs::write(&bin_path, &bin).expect("write trace binary");
        println!("wrote {path} and {bin_path}");
    }
}

/// Decodes a binary telemetry artifact (`repro -- decode <file>`) back to
/// its canonical JSON: the magic picks the format — `P4TR` trace (emitted
/// as Chrome trace JSON), `P4TL` timeline stream, `P4TS` single snapshot
/// or delta. Output goes to stdout, or to the path in `P4AUTH_DECODE_OUT`
/// (`--out`). CI's codec-equivalence gates diff this output against the
/// direct JSON export.
pub fn decode(input: &str) {
    use p4auth_netsim::timeline::{Timeline, TIMELINE_MAGIC};
    use p4auth_telemetry::snapshot::bin;
    use p4auth_telemetry::trace::{chrome_trace_json, decode_trace, TRACE_MAGIC};

    let buf = std::fs::read(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        std::process::exit(1);
    });
    if buf.starts_with(&TRACE_MAGIC) {
        let json = match decode_trace(&buf) {
            Ok((records, _dropped)) => chrome_trace_json(&records),
            Err(e) => {
                eprintln!("cannot decode {input}: {e}");
                std::process::exit(1);
            }
        };
        match std::env::var("P4AUTH_DECODE_OUT") {
            Ok(path) => {
                std::fs::write(&path, &json).expect("write P4AUTH_DECODE_OUT");
                println!("wrote {path}");
            }
            Err(_) => print!("{json}"),
        }
        return;
    }
    let json = if buf.starts_with(&TIMELINE_MAGIC) {
        Timeline::from_bin(&buf).map(|tl| tl.to_json())
    } else {
        match bin::decode_snapshot(&buf) {
            Ok(snap) => Ok(snap.to_json()),
            // Kind byte 1: the blob is a delta, not a full snapshot.
            Err(bin::DecodeError::BadKind(1)) => bin::decode_delta(&buf).map(|d| d.to_json()),
            Err(e) => Err(e),
        }
    };
    let json = json.unwrap_or_else(|e| {
        eprintln!("cannot decode {input}: {e}");
        std::process::exit(1);
    });
    match std::env::var("P4AUTH_DECODE_OUT") {
        Ok(path) => {
            std::fs::write(&path, &json).expect("write P4AUTH_DECODE_OUT");
            println!("wrote {path}");
        }
        Err(_) => print!("{json}"),
    }
}

/// Simulator scale report (`repro -- scale`): heap vs. calendar scheduler
/// events/sec on fat-tree workloads, plus `sim_event_lead_ns`
/// percentiles, printed as one JSON object. Both schedulers'
/// deterministic fingerprints (events, frames delivered, final clock) are
/// asserted equal before anything is reported.
///
/// Short mode (`P4AUTH_SCALE_SHORT=1`, used by CI) runs only a capped k=4
/// workload. Set `P4AUTH_SCALE_OUT=<path>` to also write the JSON to a
/// file (how `BENCH_sim_scale.json` is regenerated).
pub fn scale() {
    use crate::scale::{run_scale, ScaleConfig};
    use p4auth_netsim::sched::SchedulerKind;
    use p4auth_telemetry::Registry;
    use std::fmt::Write as _;
    use std::sync::Arc;

    banner(
        "scale — simulator events/sec: heap vs. calendar",
        "ROADMAP \"scale the simulator\"; sim_event_lead_ns",
    );

    let short = std::env::var("P4AUTH_SCALE_SHORT").is_ok_and(|v| v != "0");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let configs: Vec<(u16, u32)> = if short {
        vec![(4, 50)]
    } else {
        vec![(4, 800), (8, 512), (16, 48)]
    };

    println!(
        "{:>3} {:>9} {:>14} {:>16} {:>10} {:>9}",
        "k", "events", "heap (ev/s)", "calendar (ev/s)", "cal/heap", "lead p50"
    );
    let mut entries = String::new();
    for (i, &(k, frames)) in configs.iter().enumerate() {
        let cfg = ScaleConfig::for_k(k, frames);
        // Best of three: the runs are short enough that a stray scheduler
        // preemption would otherwise swing the reported speedup.
        let measure = |kind: SchedulerKind| {
            let mut best = run_scale(cfg, kind, None);
            for _ in 1..3 {
                let run = run_scale(cfg, kind, None);
                if run.wall_ns < best.wall_ns {
                    best = run;
                }
            }
            best
        };
        let heap = measure(SchedulerKind::Heap);
        let cal = measure(SchedulerKind::Calendar);
        assert_eq!(
            heap.fingerprint(),
            cal.fingerprint(),
            "schedulers diverged at k={k}"
        );
        // Separate instrumented run for the lead distribution (telemetry
        // adds per-event work, so it stays out of the timed runs).
        let registry = Arc::new(Registry::new());
        run_scale(cfg, SchedulerKind::Calendar, Some(registry.clone()));
        let lead = registry
            .snapshot()
            .histogram("sim_event_lead_ns", "")
            .expect("instrumented run records event leads")
            .clone();
        let speedup = cal.events_per_sec() / heap.events_per_sec();
        println!(
            "{:>3} {:>9} {:>14.0} {:>16.0} {:>9.2}x {:>9}",
            k,
            cal.events,
            heap.events_per_sec(),
            cal.events_per_sec(),
            speedup,
            lead.p50,
        );
        if i > 0 {
            entries.push_str(",\n");
        }
        write!(
            entries,
            "    {{\"k\": {k}, \"frames_per_host\": {frames}, \"events\": {}, \
             \"frames_delivered\": {}, \"sim_ns\": {}, \
             \"heap_events_per_sec\": {:.0}, \"calendar_events_per_sec\": {:.0}, \
             \"speedup\": {speedup:.3}, \
             \"event_lead_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}}}",
            cal.events,
            cal.frames_delivered,
            cal.sim_ns,
            heap.events_per_sec(),
            cal.events_per_sec(),
            lead.p50,
            lead.p90,
            lead.p99,
            lead.max,
        )
        .expect("writing to a String cannot fail");
    }
    let json = format!(
        "{{\n  \"experiment\": \"sim_scale\",\n  \"short_mode\": {short},\n  \
         \"cores\": {cores},\n  \"runs\": [\n{entries}\n  ]\n}}"
    );
    println!("{json}");
    if let Ok(path) = std::env::var("P4AUTH_SCALE_OUT") {
        std::fs::write(&path, format!("{json}\n")).expect("write P4AUTH_SCALE_OUT");
        println!("wrote {path}");
    }
}

/// Extracts the `ns_per_user` recorded for `users` modelled users from a
/// checked-in `BENCH_users.json`, by plain string scanning (the artifact
/// is written one run-entry per line; no JSON parser in-tree).
fn baseline_ns_per_user(json: &str, users: u64) -> Option<f64> {
    let tag = format!("\"users\": {users},");
    let entry = json.lines().find(|l| l.contains(&tag))?;
    let field = "\"ns_per_user\": ";
    let start = entry.find(field)? + field.len();
    let rest = &entry[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// User-scale report (`repro -- users`): the heavy-tailed fig19-style
/// arrival mix through aggregate host nodes on fat-tree(8) at 10k, 100k
/// and 1M modelled users at fixed aggregate offered load (per-user idle
/// gaps scale with the user count — more users sharing the same
/// access-port capacity), recording events/sec, frames/sec, wall-ns per
/// modelled user (asserted within 2× across the size sweep — the
/// near-constant per-user cost claim), per-user cost normalized by
/// simulated duration, and a peak-heap proxy from the repro binary's
/// counting allocator (zero when the report runs without it). The
/// smallest size is first cross-checked for fingerprint equality across
/// the heap and calendar schedulers.
///
/// Short mode (`P4AUTH_SCALE_SHORT=1`, used by CI) sweeps 1k and 10k
/// users on fat-tree(4). `P4AUTH_USERS_OUT=<path>` writes the JSON (how
/// `BENCH_users.json` is regenerated); each run entry carries a
/// `"fingerprint"` array of its deterministic fields, which CI extracts
/// and diffs across two runs. `P4AUTH_USERS_BASELINE=<path>` asserts the
/// measured `ns_per_user` has not grown more than 3× above the checked-in
/// value for any size present in both runs (the wall-clock-tolerant
/// non-regression gate).
pub fn users() {
    use crate::userscale::{run_users, AggregateMode, UserScaleConfig};
    use p4auth_netsim::sched::SchedulerKind;
    use std::fmt::Write as _;

    banner(
        "users — aggregate hosts: modelled users at near-constant per-user cost",
        "ROADMAP \"a million modelled hosts\"; fig19 mix at user scale",
    );

    let short = std::env::var("P4AUTH_SCALE_SHORT").is_ok_and(|v| v != "0");
    let baseline = std::env::var("P4AUTH_USERS_BASELINE").ok().map(|path| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read P4AUTH_USERS_BASELINE {path}: {e}"))
    });
    let (k, frames, sizes): (u16, u32, Vec<u64>) = if short {
        (4, 4, vec![1_000, 10_000])
    } else {
        (8, 4, vec![10_000, 100_000, 1_000_000])
    };
    let (mode, window_ns) = match UserScaleConfig::for_k(k, sizes[0], frames).mode {
        AggregateMode::Amortized { window_ns } => ("amortized", window_ns),
        AggregateMode::Exact => ("exact", 0),
    };

    println!(
        "{:>9} {:>5} {:>10} {:>10} {:>13} {:>13} {:>13} {:>9} {:>12} {:>9}",
        "users",
        "aggs",
        "events",
        "frames",
        "sim_ns",
        "events/s",
        "frames/s",
        "ns/user",
        "ns/usr/sims",
        "peak MiB"
    );
    let mut entries = String::new();
    let mut runs = Vec::new();
    for (i, &users) in sizes.iter().enumerate() {
        let mut cfg = UserScaleConfig::for_k(k, users, frames);
        // Fixed aggregate offered load: the users share the access-port
        // capacity, so each user's mean idle gap grows with the user
        // count (the smallest size keeps the default fig19-style pacing).
        // Without this the 1M-user run would model a fabric overloaded
        // 100x beyond the 10k-user one and the per-user comparison would
        // measure queue pressure, not aggregation cost.
        let load_scale = users / sizes[0];
        if let p4auth_workloads::flows::ArrivalMix::HeavyTailed(ref mut ht) = cfg.mix {
            ht.idle_mean_ns *= load_scale;
        }
        // The amortized window is both the sweep cadence and the batch
        // lookahead: too short and the O(users) sweeps dominate, too long
        // and every frame due inside the window sits pre-scheduled in the
        // event queue. √load balances the two (sweep cost and queue depth
        // then grow with the same factor — DESIGN.md §4e).
        let window_scale = (load_scale as f64).sqrt().round().max(1.0) as u64;
        if let AggregateMode::Amortized { ref mut window_ns } = cfg.mode {
            *window_ns *= window_scale;
        }
        if i == 0 {
            // Scheduler cross-check on the smallest size: one fingerprint
            // for heap and calendar, before anything is timed (this also
            // warms the allocator and page cache).
            let cal = run_users(&cfg, SchedulerKind::Calendar, None);
            let heap = run_users(&cfg, SchedulerKind::Heap, None);
            assert_eq!(
                cal.fingerprint(),
                heap.fingerprint(),
                "schedulers diverged at {users} users"
            );
        }
        crate::alloc::reset_peak();
        let live_before = crate::alloc::live_bytes();
        let run = run_users(&cfg, SchedulerKind::Calendar, None);
        let peak = crate::alloc::peak_bytes().saturating_sub(live_before);
        let frames_per_sec = run.frames_sent as f64 / (run.wall_ns.max(1) as f64 / 1e9);
        println!(
            "{:>9} {:>5} {:>10} {:>10} {:>13} {:>13.0} {:>13.0} {:>9.1} {:>12.1} {:>9.1}",
            run.users,
            run.aggregates,
            run.events,
            run.frames_sent,
            run.sim_ns,
            run.events_per_sec(),
            frames_per_sec,
            run.ns_per_user(),
            run.ns_per_user_per_sim_sec(),
            peak as f64 / (1024.0 * 1024.0),
        );
        if i > 0 {
            entries.push_str(",\n");
        }
        write!(
            entries,
            "    {{\"users\": {}, \"aggregates\": {}, \"window_ns\": {}, \
             \"events\": {}, \
             \"frames_sent\": {}, \"frames_delivered\": {}, \"sim_ns\": {}, \
             \"fingerprint\": [{}, {}, {}, {}], \
             \"events_per_sec\": {:.0}, \"frames_per_sec\": {frames_per_sec:.0}, \
             \"ns_per_user\": {:.1}, \"ns_per_user_per_sim_sec\": {:.1}, \
             \"peak_alloc_bytes\": {peak}, \"peak_alloc_bytes_per_user\": {:.1}}}",
            run.users,
            run.aggregates,
            window_ns * window_scale,
            run.events,
            run.frames_sent,
            run.frames_delivered,
            run.sim_ns,
            run.events,
            run.frames_sent,
            run.frames_delivered,
            run.sim_ns,
            run.events_per_sec(),
            run.ns_per_user(),
            run.ns_per_user_per_sim_sec(),
            peak as f64 / run.users.max(1) as f64,
        )
        .expect("writing to a String cannot fail");
        runs.push(run);
    }

    // The tentpole claim: per-user wall cost must not grow more than 2×
    // from the smallest to the largest sweep size.
    let (first, last) = (&runs[0], &runs[runs.len() - 1]);
    let growth = last.ns_per_user() / first.ns_per_user();
    assert!(
        growth <= 2.0,
        "per-user cost grew {growth:.2}x from {} to {} users \
         ({:.1} -> {:.1} ns/user); aggregation is no longer near-constant",
        first.users,
        last.users,
        first.ns_per_user(),
        last.ns_per_user(),
    );
    println!(
        "  ns/user {} -> {} users: {:.1} -> {:.1} ({growth:.2}x <= 2.0x) ✓",
        first.users,
        last.users,
        first.ns_per_user(),
        last.ns_per_user(),
    );
    if let Some(base_json) = baseline {
        const FACTOR: f64 = 3.0;
        for run in &runs {
            let Some(base) = baseline_ns_per_user(&base_json, run.users) else {
                continue;
            };
            let measured = run.ns_per_user();
            assert!(
                measured <= base * FACTOR,
                "ns_per_user regressed at {} users: measured {measured:.1} vs \
                 checked-in baseline {base:.1} (allowed factor {FACTOR})",
                run.users,
            );
            println!(
                "  {} users: ns_per_user {measured:.1} <= baseline {base:.1} * {FACTOR} ✓",
                run.users
            );
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"user_scale\",\n  \"short_mode\": {short},\n  \
         \"k\": {k},\n  \"frames_per_user\": {frames},\n  \"mode\": \"{mode}\",\n  \
         \"base_window_ns\": {window_ns},\n  \"runs\": [\n{entries}\n  ]\n}}"
    );
    println!("{json}");
    if let Ok(path) = std::env::var("P4AUTH_USERS_OUT") {
        std::fs::write(&path, format!("{json}\n")).expect("write P4AUTH_USERS_OUT");
        println!("wrote {path}");
    }
}

/// Whether the baseline JSON recorded campaign `name` as passing. The
/// format is our own `BENCH_scenarios.json`, where each campaign entry
/// keeps `"name"` and `"passed"` on one line.
fn baseline_campaign_passed(json: &str, name: &str) -> Option<bool> {
    let tag = format!("\"name\": \"{name}\"");
    let entry = json.lines().find(|l| l.contains(&tag))?;
    let field = "\"passed\": ";
    let start = entry.find(field)? + field.len();
    entry[start..].trim_start().starts_with("true").into()
}

/// Reads an integer field from campaign `name`'s entry line in the
/// checked-in `BENCH_scenarios.json`. `null`, absent fields and absent
/// campaigns all yield `None` (older baselines predate the percentile
/// fields).
fn baseline_campaign_u64(json: &str, name: &str, field: &str) -> Option<u64> {
    let tag = format!("\"name\": \"{name}\"");
    let entry = json.lines().find(|l| l.contains(&tag))?;
    let field = format!("\"{field}\": ");
    let start = entry.find(&field)? + field.len();
    let rest = &entry[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// JSON rendering for an optional latency: `null` when absent.
fn opt_ns(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |ns| ns.to_string())
}

/// Scenario campaigns: deterministic fault injection (link flaps,
/// correlated groups, pod/switch failure, boot storms) composed with
/// attack overlays, each judged by explicit defence invariants
/// (`p4auth_systems::campaigns`).
///
/// Short mode (`P4AUTH_SCALE_SHORT=1`, used by CI) runs every campaign
/// at 10k modelled users; the full report runs at 100k.
/// `P4AUTH_SCENARIOS_OUT=<path>` writes the JSON (how
/// `BENCH_scenarios.json` is regenerated). The JSON contains only
/// deterministic fields — two runs produce byte-identical files, which
/// CI diffs directly; wall-clock throughput is printed to stdout only.
/// `P4AUTH_SCENARIOS_BASELINE=<path>` points at the checked-in JSON and
/// fails the run if any campaign it recorded as passing no longer
/// passes (the verdict-regression gate), or if any recorded mitigation /
/// rollover latency percentile (`*_p50_ns` / `*_p99_ns`) more than
/// doubles (the latency-regression gate).
pub fn scenarios() {
    use crate::campaigns::{run_campaigns, CampaignConfig};
    use std::fmt::Write as _;

    banner(
        "scenarios — churn + attack campaigns with per-scenario defence invariants",
        "ROADMAP \"fault injection\"; DESIGN §4f",
    );

    let short = std::env::var("P4AUTH_SCALE_SHORT").is_ok_and(|v| v != "0");
    let baseline = std::env::var("P4AUTH_SCENARIOS_BASELINE").ok().map(|path| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read P4AUTH_SCENARIOS_BASELINE {path}: {e}"))
    });
    let cfg = if short {
        CampaignConfig::short()
    } else {
        CampaignConfig::standard()
    };

    let verdicts = run_campaigns(&cfg);

    println!(
        "{:<30} {:>5} {:>7} {:>12} {:>12} {:>12} {:>9} {:>10} {:>10} {:>8} {:>7} {:>13}",
        "campaign",
        "f+a",
        "passed",
        "mit_lat_ns",
        "mit_p50_ns",
        "mit_p99_ns",
        "events",
        "sent",
        "delivered",
        "undeliv",
        "faults",
        "events/s"
    );
    let mut entries = String::new();
    for (i, v) in verdicts.iter().enumerate() {
        println!(
            "{:<30} {:>5} {:>7} {:>12} {:>12} {:>12} {:>9} {:>10} {:>10} {:>8} {:>7} {:>13.0}",
            v.name,
            if v.fault_attack { "yes" } else { "no" },
            if v.passed() { "ok" } else { "FAIL" },
            v.mitigation_latency_ns
                .map_or_else(|| "-".into(), |ns| ns.to_string()),
            v.mitigation_latency_p50_ns
                .map_or_else(|| "-".into(), |ns| ns.to_string()),
            v.mitigation_latency_p99_ns
                .map_or_else(|| "-".into(), |ns| ns.to_string()),
            v.fabric.events,
            v.fabric.frames_sent,
            v.fabric.frames_delivered,
            v.fabric.frames_undeliverable,
            v.fabric.faults_applied,
            v.fabric.events_per_sec,
        );
        for c in &v.checks {
            println!(
                "    {} {:<32} {}",
                if c.passed { "✓" } else { "✗" },
                c.name,
                c.detail
            );
        }
        if i > 0 {
            entries.push_str(",\n");
        }
        let mut checks = String::new();
        for (j, c) in v.checks.iter().enumerate() {
            if j > 0 {
                checks.push_str(", ");
            }
            write!(
                checks,
                "{{\"name\": \"{}\", \"passed\": {}}}",
                c.name, c.passed
            )
            .expect("writing to a String cannot fail");
        }
        write!(
            entries,
            "    {{\"name\": \"{}\", \"fault_attack\": {}, \"passed\": {}, \
             \"mitigation_latency_ns\": {}, \
             \"mitigation_latency_p50_ns\": {}, \"mitigation_latency_p99_ns\": {}, \
             \"rollover_fanout_p50_ns\": {}, \"rollover_fanout_p99_ns\": {}, \
             \"checks\": [{checks}], \
             \"fabric\": {{\"users\": {}, \"events\": {}, \"frames_sent\": {}, \
             \"frames_delivered\": {}, \"frames_undeliverable\": {}, \
             \"faults_applied\": {}, \"sim_ns\": {}}}}}",
            v.name,
            v.fault_attack,
            v.passed(),
            opt_ns(v.mitigation_latency_ns),
            opt_ns(v.mitigation_latency_p50_ns),
            opt_ns(v.mitigation_latency_p99_ns),
            opt_ns(v.rollover_fanout_p50_ns),
            opt_ns(v.rollover_fanout_p99_ns),
            v.fabric.users,
            v.fabric.events,
            v.fabric.frames_sent,
            v.fabric.frames_delivered,
            v.fabric.frames_undeliverable,
            v.fabric.faults_applied,
            v.fabric.sim_ns,
        )
        .expect("writing to a String cannot fail");
    }

    let fault_attack = verdicts.iter().filter(|v| v.fault_attack).count();
    assert!(
        verdicts.len() >= 5 && fault_attack >= 3,
        "campaign roster shrank: {} campaigns, {fault_attack} fault+attack",
        verdicts.len()
    );
    for v in &verdicts {
        for c in v.checks.iter().filter(|c| !c.passed) {
            eprintln!("FAILED {}/{}: {}", v.name, c.name, c.detail);
        }
        assert!(v.passed(), "campaign {} failed its invariants", v.name);
    }
    println!(
        "  {} campaigns ({fault_attack} fault+attack) at {} users: all invariants hold ✓",
        verdicts.len(),
        cfg.users
    );
    if let Some(base_json) = baseline {
        for v in &verdicts {
            if baseline_campaign_passed(&base_json, v.name) == Some(true) {
                assert!(
                    v.passed(),
                    "campaign {} regressed: baseline passed, this run failed",
                    v.name
                );
                println!("  {}: baseline passed, still passes ✓", v.name);
            }
            // Defence latency is a protocol property (detection window +
            // KMP round-trips), not a fabric-size one: the percentiles
            // are mode-independent, so short CI runs gate against the
            // full-mode baseline directly.
            for (field, measured) in [
                ("mitigation_latency_p50_ns", v.mitigation_latency_p50_ns),
                ("mitigation_latency_p99_ns", v.mitigation_latency_p99_ns),
                ("rollover_fanout_p50_ns", v.rollover_fanout_p50_ns),
                ("rollover_fanout_p99_ns", v.rollover_fanout_p99_ns),
            ] {
                let Some(base) = baseline_campaign_u64(&base_json, v.name, field) else {
                    continue;
                };
                let m = measured.unwrap_or_else(|| {
                    panic!(
                        "campaign {}: baseline records {field} but this run lost it",
                        v.name
                    )
                });
                assert!(
                    m <= base.saturating_mul(2),
                    "campaign {} {field} regressed: {m} ns vs baseline {base} ns (>2x)",
                    v.name
                );
                println!(
                    "  {}: {field} {m} ns within 2x of baseline {base} ns ✓",
                    v.name
                );
            }
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"scenario_campaigns\",\n  \"short_mode\": {short},\n  \
         \"users_per_campaign\": {},\n  \"campaigns\": [\n{entries}\n  ]\n}}",
        cfg.users
    );
    println!("{json}");
    if let Ok(path) = std::env::var("P4AUTH_SCENARIOS_OUT") {
        std::fs::write(&path, format!("{json}\n")).expect("write P4AUTH_SCENARIOS_OUT");
        println!("wrote {path}");
    }
}

/// §XI digest-width ablation.
pub fn ablation_digest() {
    banner(
        "§XI ablation — digest width vs. cost",
        "paper §XI discussion",
    );
    let device = DeviceCapacity::tofino();
    let narrow = ProgramResources::p4auth_modules(32, 1, DigestWidth::W32);
    println!(
        "{:>6} {:>12} {:>8} {:>8} {:>14} {:>22}",
        "bits", "hash units", "Δhash", "stages", "recirculations", "P(forge in 1M tries)"
    );
    for width in DigestWidth::ALL {
        let prog = ProgramResources::p4auth_modules(32, 1, width);
        let full = ProgramResources::baseline_l3().plus(prog);
        let delta =
            100.0 * (prog.hash_units as f64 - narrow.hash_units as f64) / narrow.hash_units as f64;
        println!(
            "{:>6} {:>12} {:>7.0}% {:>8} {:>14} {:>22.3e}",
            width.bits(),
            prog.hash_units,
            delta,
            prog.stages,
            full.recirculations(&device),
            bruteforce::digest_guess_success_probability(1_000_000, width.bits() as u32),
        );
    }
    println!("\npaper: a 256-bit digest needs ~560% more hash-distribution units and");
    println!("+100% stages, forcing recirculations (100s of ns each).");
}
