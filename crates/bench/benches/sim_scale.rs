//! Simulator scale benchmark: events/sec under the fat-tree traffic
//! workload — heap vs. calendar scheduler at k = 4 / 8 / 16.
//!
//! Run `cargo run -p p4auth-bench --bin repro -- scale` for the JSON
//! report (and the `BENCH_sim_scale.json` snapshot).

use criterion::{criterion_group, BenchmarkId, Criterion};
use p4auth_bench::scale::{run_scale, ScaleConfig};
use p4auth_netsim::sched::SchedulerKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scale");
    for (k, frames) in [(4u16, 50u32), (8, 16), (16, 4)] {
        let cfg = ScaleConfig::for_k(k, frames);
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            group.bench_with_input(BenchmarkId::new(kind.label(), k), &cfg, |b, cfg| {
                b.iter(|| run_scale(*cfg, kind, None).events)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
