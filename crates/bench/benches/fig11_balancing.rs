//! Criterion bench for Fig. 11: SORTBYWL and WORKQUEUE vs the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::{Balancing, SelfJoinConfig};
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;

fn bench_balancing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_balancing");
    group.sample_size(10);
    for name in ["Expo2D2M", "Unif2D2M"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let pts = spec.generate(6_000);
        let eps = spec.epsilons[2];
        for (label, balancing) in [
            ("static", Balancing::None),
            ("sortbywl", Balancing::SortByWorkload),
            ("workqueue", Balancing::WorkQueue),
        ] {
            group.bench_with_input(BenchmarkId::new(label, name), &pts, |b, pts| {
                b.iter(|| {
                    run_gpu(
                        &DynSelfJoin::new(pts, SelfJoinConfig::new(eps).with_balancing(balancing)),
                        &ExecTarget::Gpu,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_balancing);
criterion_main!(benches);
