//! `authbench`: seeded benchmark of the authenticated P4Auth path.
//!
//! ```text
//! authbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *episodes* of its workload until `--seconds` of wall
//! time have passed: each episode builds the fat-tree fabric, bootstraps
//! every key (timed as set-up), then drives a fixed amount of seeded work.
//! Every episode of one seed must produce the same fingerprint. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced episodes and prints the per-layer
//! metrics. The last line of stdout is the JSON result. See `NOTES.md`.

mod alloc;
mod fabric;
mod stats;
mod trace;
mod workloads;

use fabric::{Episode, REFERENCE_NOMINAL_NS};
use stats::{median, quantile, tail_quantile};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Slot, Tracer};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Episodes of each kind a run makes at least, however short `--seconds`.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median over episodes of `f(episode)`.
fn med(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&eps.iter().map(f).collect::<Vec<_>>())
}

/// `count` per second of `seconds`.
fn rate(count: u64, seconds: f64) -> f64 {
    ratio(count as f64, seconds)
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Factor that maps a wall time measured next to a host-speed reference
/// run of `reference_ns` onto the nominal host.
fn host_scale(reference_ns: f64) -> f64 {
    ratio(REFERENCE_NOMINAL_NS, reference_ns)
}

/// `(ms, messages verified)` of every batch of `eps`; `calibrated`
/// scales each batch by the reference run right after it.
fn batches(eps: &[Episode], calibrated: bool) -> Vec<(f64, u64)> {
    eps.iter()
        .flat_map(|e| {
            e.batch_ms
                .iter()
                .zip(&e.batch_msgs)
                .zip(&e.batch_reference_ns)
        })
        .map(|((&ms, &msgs), &reference_ns)| {
            let scale = if calibrated {
                host_scale(reference_ns)
            } else {
                1.0
            };
            (ms * scale, msgs)
        })
        .collect()
}

/// Median batch ms and median batch verified-message rate.
fn batch_medians(batches: &[(f64, u64)]) -> (f64, f64) {
    let ms: Vec<f64> = batches.iter().map(|b| b.0).collect();
    let rates: Vec<f64> = batches
        .iter()
        .map(|&(ms, msgs)| rate(msgs, ms / 1e3))
        .collect();
    (median(&ms), median(&rates))
}

/// The highest percentile of the batch times with ten samples beyond
/// it, capped at p99 (named on stderr).
fn batch_tail(batches: &[(f64, u64)]) -> f64 {
    let ms: Vec<f64> = batches.iter().map(|b| b.0).collect();
    let tail = tail_quantile(ms.len()).unwrap_or(1.0);
    eprintln!(
        "batches: {} samples, batch_wall_ms_p99 is p{:.1}",
        ms.len(),
        tail * 100.0
    );
    quantile(&ms, tail)
}

/// The end-to-end metrics of the untraced episodes. Timings are scaled
/// to the nominal host (see [`REFERENCE_NOMINAL_NS`]).
fn end_to_end(eps: &[Episode]) -> Vec<Metric> {
    let (batch_p50, msgs_per_s) = batch_medians(&batches(eps, true));
    vec![
        metric(
            "setup_s",
            med(eps, |e| e.setup_s * host_scale(e.setup_reference_ns)),
            "s",
        ),
        metric("auth_msgs_per_s", msgs_per_s, "1/s"),
        metric("batch_wall_ms_p50", batch_p50, "ms"),
        metric("peak_heap_mb", med(eps, |e| e.peak_heap as f64 / 1e6), "MB"),
    ]
}

/// The per-layer metrics: counts and workload rates from the untraced
/// episodes, timings from the traced ones (each with its accumulators
/// and frame sample already reduced by [`traced_layers`]).
fn per_layer(runs: &Runs) -> Vec<Metric> {
    let (plain, traced, ablation) = (&runs.plain, &runs.traced, &runs.ablation);
    let first = &plain[0];
    let c = first.counts;
    let a = c.agents;
    let verdicts = a.verified_ok + fabric::agent_rejects(a);
    let frames = c.sim.frames_delivered as f64;
    let (attempted, failed) = plain
        .iter()
        .fold((0, 0), |(t, f), e| (t + e.attempted, f + e.failed));
    let tm = |f: fn(&TracedEpisode) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let plain_work = med(plain, |e| e.work_s);
    let traced_work = tm(|t| t.work_s);
    let auth_overhead = if ablation.is_empty() {
        0.0
    } else {
        let hops = |e: &Episode| rate(e.counts.sim.frames_delivered, e.work_s);
        (1.0 - ratio(med(plain, hops), med(ablation, hops))) * 100.0
    };
    let calibrated = batches(plain, true);
    let (wall_batch_p50, wall_msgs_per_s) = batch_medians(&batches(plain, false));
    let reference_ns: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.batch_reference_ns.iter().copied())
        .collect();
    vec![
        metric("batch_wall_ms_p99", batch_tail(&calibrated), "ms"),
        metric("batch_wall.samples", calibrated.len() as f64, "count"),
        metric("host.reference_ns", median(&reference_ns), "ns"),
        metric("wall.setup_s", med(plain, |e| e.setup_s), "s"),
        metric("wall.auth_msgs_per_s", wall_msgs_per_s, "1/s"),
        metric("wall.batch_ms_p50", wall_batch_p50, "ms"),
        metric(
            "rw_ops_per_s",
            med(plain, |e| rate(e.rw_ops, e.work_s)),
            "1/s",
        ),
        metric(
            "probe_hops_per_s",
            med(plain, |e| rate(e.probe_hops, e.work_s)),
            "1/s",
        ),
        metric(
            "key_updates_per_s",
            med(plain, |e| rate(e.key_updates, e.work_s)),
            "1/s",
        ),
        metric(
            "failed_ops_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        metric(
            "modelled_rct_ns_p50",
            first.modelled_rct_ns_p50 as f64,
            "ns",
        ),
        metric(
            "modelled_rct_ns_p99",
            first.modelled_rct_ns_p99 as f64,
            "ns",
        ),
        metric(
            "modelled_key_update_ns_p50",
            first.modelled_key_update_ns_p50 as f64,
            "ns",
        ),
        metric(
            "modelled_mitigation_ns_p50",
            first.modelled_mitigation_ns_p50 as f64,
            "ns",
        ),
        metric("netsim.events", c.events as f64, "count"),
        metric("netsim.frames_delivered", frames, "count"),
        metric(
            "netsim.frames_undeliverable",
            c.sim.frames_undeliverable as f64,
            "count",
        ),
        metric(
            "netsim.self_ns_per_event",
            tm(|t| t.netsim_self_ns_per_event),
            "ns",
        ),
        metric("harness.switch_node.ns_per_call", tm(|t| t.switch_ns), "ns"),
        metric(
            "harness.controller_node.ns_per_call",
            tm(|t| t.controller_ns),
            "ns",
        ),
        metric(
            "harness.replica_set_node.ns_per_call",
            tm(|t| t.replica_ns),
            "ns",
        ),
        metric("core.on_packet_self_ns", tm(|t| t.on_packet_self_ns), "ns"),
        metric("core.seal_probe.ns_per_call", tm(|t| t.seal_ns), "ns"),
        metric("core.verified_ok", a.verified_ok as f64, "count"),
        metric("core.digest_failures", a.digest_failures as f64, "count"),
        metric("core.replays", a.replays as f64, "count"),
        metric("core.quarantine_drops", a.quarantine_drops as f64, "count"),
        metric("core.alerts_sent", a.alerts_sent as f64, "count"),
        metric(
            "core.verify_ok_ratio",
            ratio(a.verified_ok as f64, verdicts as f64),
            "ratio",
        ),
        metric("core.auth_overhead_pct", auth_overhead, "%"),
        metric(
            "dataplane.app.on_control.ns_per_call",
            tm(|t| t.app_ns),
            "ns",
        ),
        metric("dataplane.app.calls", tm(|t| t.app_calls), "count"),
        metric("wire.decode.ns_per_msg", tm(|t| t.retimed.decode_ns), "ns"),
        metric("wire.encode.ns_per_msg", tm(|t| t.retimed.encode_ns), "ns"),
        metric("wire.bytes_per_msg", tm(|t| t.retimed.bytes_per_msg), "B"),
        metric(
            "primitives.mac_verify.ns_per_msg",
            tm(|t| t.retimed.mac_verify_ns),
            "ns",
        ),
        metric("primitives.dh.ns_per_op", tm(|t| t.dh_ns), "ns"),
        metric("primitives.kdf.ns_per_op", tm(|t| t.kdf_ns), "ns"),
        metric("primitives.derivations", c.derivations as f64, "count"),
        metric(
            "controller.read_register.ns_per_call",
            tm(|t| t.read_ns),
            "ns",
        ),
        metric(
            "controller.write_register.ns_per_call",
            tm(|t| t.write_ns),
            "ns",
        ),
        metric(
            "controller.outstanding_peak",
            c.outstanding_peak as f64,
            "count",
        ),
        metric(
            "controller.responses_ok",
            c.ctrl.responses_ok as f64,
            "count",
        ),
        metric("controller.rejected", c.ctrl.rejected as f64, "count"),
        metric(
            "controller.alerts_dropped",
            c.ctrl.alerts_dropped as f64,
            "count",
        ),
        metric(
            "controller.defence_mitigations",
            c.ctrl.defence_mitigations as f64,
            "count",
        ),
        metric(
            "controller.kex_abandoned",
            c.ctrl.kex_abandoned as f64,
            "count",
        ),
        metric(
            "telemetry.snapshot.ns_per_call",
            tm(|t| t.snapshot_ns),
            "ns",
        ),
        metric("telemetry.events_dropped", c.events_dropped as f64, "count"),
        metric(
            "alloc.bytes_per_msg",
            med(plain, |e| {
                ratio(e.alloc.bytes as f64, e.counts.sim.frames_delivered as f64)
            }),
            "B",
        ),
        metric(
            "alloc.calls_per_msg",
            med(plain, |e| {
                ratio(e.alloc.calls as f64, e.counts.sim.frames_delivered as f64)
            }),
            "count",
        ),
        metric(
            "trace.overhead_pct",
            (ratio(traced_work, plain_work) - 1.0) * 100.0,
            "%",
        ),
        metric(
            "ledger.unexplained_share",
            tm(|t| t.unexplained_share),
            "ratio",
        ),
    ]
}

/// The per-layer reduction of one traced episode.
struct TracedEpisode {
    work_s: f64,
    netsim_self_ns_per_event: f64,
    switch_ns: f64,
    controller_ns: f64,
    replica_ns: f64,
    on_packet_self_ns: f64,
    seal_ns: f64,
    app_ns: f64,
    app_calls: f64,
    read_ns: f64,
    write_ns: f64,
    snapshot_ns: f64,
    retimed: trace::Retimed,
    dh_ns: f64,
    kdf_ns: f64,
    unexplained_share: f64,
}

/// Reduces a traced episode's accumulators into per-layer figures and
/// its wall-time ledger: layer self times against the measured wall.
fn traced_layers(ep: &Episode, tracer: &Tracer) -> TracedEpisode {
    let acc = tracer.acc().expect("traced episode");
    let ns = |s: Slot| acc.ns(s) as f64;
    let nodes = ns(Slot::Switch) + ns(Slot::Controller) + ns(Slot::Replica) + ns(Slot::Adapter);
    let netsim_self = (ns(Slot::Step) - nodes).max(0.0);
    let explained = netsim_self
        + ns(Slot::Switch)
        + ns(Slot::Controller)
        + ns(Slot::Replica)
        + ns(Slot::Seal)
        + ns(Slot::Read)
        + ns(Slot::Write)
        + ns(Slot::Snapshot);
    let retimed = trace::retime(tracer.sample().frames());
    let derived = ep.counts.derivations > 0;
    TracedEpisode {
        work_s: ep.work_s,
        netsim_self_ns_per_event: ratio(netsim_self, acc.calls(Slot::Step) as f64),
        switch_ns: acc.ns_per_call(Slot::Switch),
        controller_ns: acc.ns_per_call(Slot::Controller),
        replica_ns: acc.ns_per_call(Slot::Replica),
        on_packet_self_ns: ratio(
            ns(Slot::Switch) - ns(Slot::App),
            acc.calls(Slot::Switch) as f64,
        ),
        seal_ns: acc.ns_per_call(Slot::Seal),
        app_ns: acc.ns_per_call(Slot::App),
        app_calls: acc.calls(Slot::App) as f64,
        read_ns: acc.ns_per_call(Slot::Read),
        write_ns: acc.ns_per_call(Slot::Write),
        snapshot_ns: acc.ns_per_call(Slot::Snapshot),
        dh_ns: if derived { retimed.dh_ns } else { 0.0 },
        kdf_ns: if derived { retimed.kdf_ns } else { 0.0 },
        retimed,
        unexplained_share: 1.0 - ratio(explained, ep.work_s * 1e9),
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The episodes of one run.
#[derive(Default)]
struct Runs {
    plain: Vec<Episode>,
    traced: Vec<TracedEpisode>,
    /// Auth-off episodes of the same fabric (`dpdp_probe_flood`, traced
    /// runs only).
    ablation: Vec<Episode>,
}

/// Checks `ep`'s fingerprint against `reference`, which the first
/// episode sets.
fn check(reference: &mut Option<u64>, ep: Episode, what: &str) -> Result<Episode, String> {
    match *reference.get_or_insert(ep.fingerprint) {
        fp if fp == ep.fingerprint => Ok(ep),
        fp => Err(format!(
            "{what} episode fingerprint {:016x} differs from {fp:016x}",
            ep.fingerprint
        )),
    }
}

/// Runs episodes until the time budget is spent; checks every
/// fingerprint against the first of its kind.
fn run(args: &Args) -> Result<Runs, String> {
    let inputs = args.workload.schedule(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut runs = Runs::default();
    let (mut authenticated, mut insecure) = (None, None);
    // A warm-up episode fills caches and grows the heap; it is checked
    // but not reported.
    let warm_up = inputs.episode(&Tracer::plain(), true)?;
    check(&mut authenticated, warm_up, "warm-up")?;
    let start = Instant::now();
    loop {
        let ep = inputs.episode(&Tracer::plain(), true)?;
        runs.plain.push(check(&mut authenticated, ep, "untraced")?);
        if args.trace {
            let tracer = Tracer::traced();
            let ep = check(&mut authenticated, inputs.episode(&tracer, true)?, "traced")?;
            runs.traced.push(traced_layers(&ep, &tracer));
            if args.workload.has_ablation() {
                let ep = inputs.episode(&Tracer::plain(), false)?;
                runs.ablation.push(check(&mut insecure, ep, "auth-off")?);
            }
        }
        if runs.plain.len() >= MIN_EPISODES && start.elapsed() >= budget {
            break;
        }
    }
    Ok(runs)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("authbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(runs) => {
            let plain = &runs.plain;
            // One episode's tally: every episode replays the same work and
            // the fingerprint check has proved their counts equal, so the
            // pair depends on the seed only, not on how many episodes fit
            // in `--seconds`.
            let attempted = plain[0].attempted.max(1);
            let failed = plain[0].failed;
            eprintln!(
                "{}: {} episodes, fingerprint {:016x}",
                args.workload.name(),
                plain.len(),
                plain[0].fingerprint
            );
            let metrics = if args.trace {
                per_layer(&runs)
            } else {
                end_to_end(plain)
            };
            println!("{}", json(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("authbench: correctness check failed: {e}");
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
