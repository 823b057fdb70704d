//! Criterion bench for Fig. 13: the end-to-end configurations whose
//! model-time ratio is the paper's headline speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::SelfJoinConfig;
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::{run_gpu, run_superego, CpuModel};
use sjdata::DatasetSpec;
use warpsim::CostModel;

fn bench_speedup_endpoints(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_speedup");
    group.sample_size(10);
    for name in ["Expo2D2M", "Expo6D2M", "SW2DB"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let pts = spec.generate(6_000);
        let eps = spec.epsilons[3];
        group.bench_with_input(BenchmarkId::new("baseline", name), &pts, |b, pts| {
            b.iter(|| {
                run_gpu(
                    &DynSelfJoin::new(pts, SelfJoinConfig::new(eps)),
                    &ExecTarget::Gpu,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("optimized", name), &pts, |b, pts| {
            b.iter(|| {
                run_gpu(
                    &DynSelfJoin::new(pts, SelfJoinConfig::optimized(eps)),
                    &ExecTarget::Gpu,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("superego", name), &pts, |b, pts| {
            b.iter(|| {
                run_superego(
                    pts,
                    eps,
                    &CpuModel::default(),
                    &CostModel::default(),
                    &sj_telemetry::NULL,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_speedup_endpoints);
criterion_main!(benches);
