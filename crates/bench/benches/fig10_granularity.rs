//! Criterion bench for Fig. 10: thread granularity (k = 1 vs k = 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::SelfJoinConfig;
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;

fn bench_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_granularity");
    group.sample_size(10);
    for name in ["Expo2D2M", "Unif6D2M"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let pts = spec.generate(6_000);
        let eps = spec.epsilons[2];
        for k in [1u32, 8] {
            group.bench_with_input(BenchmarkId::new(format!("k{k}"), name), &pts, |b, pts| {
                b.iter(|| {
                    run_gpu(
                        &DynSelfJoin::new(pts, SelfJoinConfig::new(eps).with_k(k)),
                        &ExecTarget::Gpu,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_granularity);
criterion_main!(benches);
