//! Criterion bench for Fig. 12: real-world datasets, the combined GPU
//! optimization vs the baseline and vs SUPER-EGO.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::SelfJoinConfig;
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::{run_gpu, run_superego, CpuModel};
use sjdata::DatasetSpec;
use warpsim::CostModel;

fn bench_realworld(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_realworld");
    group.sample_size(10);
    for name in ["SW2DA", "Gaia"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let pts = spec.generate(8_000);
        let eps = spec.epsilons[3];
        group.bench_with_input(BenchmarkId::new("gpucalcglobal", name), &pts, |b, pts| {
            b.iter(|| {
                run_gpu(
                    &DynSelfJoin::new(pts, SelfJoinConfig::new(eps)),
                    &ExecTarget::Gpu,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("wq_lid_k8", name), &pts, |b, pts| {
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

criterion_group!(benches, bench_realworld);
criterion_main!(benches);
