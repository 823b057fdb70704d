//! Criterion bench for Fig. 9: the three cell access patterns
//! (GPUCALCGLOBAL vs UNICOMP vs LID-UNICOMP) on skewed and uniform data.
//!
//! Tracks the wall-clock cost of the simulated runs for regression
//! purposes; the paper-shaped model-time series come from
//! `cargo run -p sj-bench --bin experiments -- fig9`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::{AccessPattern, SelfJoinConfig};
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;

fn bench_patterns(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_patterns");
    group.sample_size(10);
    for name in ["Expo2D2M", "Unif2D2M"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let pts = spec.generate(6_000);
        let eps = spec.epsilons[2];
        for (label, pattern) in [
            ("gpucalcglobal", AccessPattern::FullWindow),
            ("unicomp", AccessPattern::Unicomp),
            ("lid_unicomp", AccessPattern::LidUnicomp),
        ] {
            group.bench_with_input(BenchmarkId::new(label, name), &pts, |b, pts| {
                b.iter(|| {
                    run_gpu(
                        &DynSelfJoin::new(pts, SelfJoinConfig::new(eps).with_pattern(pattern)),
                        &ExecTarget::Gpu,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_patterns);
criterion_main!(benches);
