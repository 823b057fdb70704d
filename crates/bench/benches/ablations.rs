//! Criterion bench for the DESIGN.md §5 ablations: issue-order policies,
//! the k sweep, and the substrate's grid/sort building blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::{Balancing, SelfJoinConfig};
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;
use warpsim::IssueOrder;

fn bench_issue_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_issue_order");
    group.sample_size(10);
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(6_000);
    let eps = spec.epsilons[2];
    for (label, order) in [
        ("arbitrary", IssueOrder::Arbitrary { seed: 1 }),
        ("in_order", IssueOrder::InOrder),
        ("reversed", IssueOrder::Reversed),
    ] {
        group.bench_function(BenchmarkId::new("sortbywl", label), |b| {
            b.iter(|| {
                run_gpu(
                    &DynSelfJoin::new(
                        &pts,
                        SelfJoinConfig::new(eps)
                            .with_balancing(Balancing::SortByWorkload)
                            .with_issue_override(order),
                    ),
                    &ExecTarget::Gpu,
                )
            })
        });
    }
    group.finish();
}

fn bench_k_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_k_sweep");
    group.sample_size(10);
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(6_000);
    let eps = spec.epsilons[2];
    for k in [1u32, 2, 4, 8, 16, 32] {
        group.bench_function(BenchmarkId::from_parameter(k), |b| {
            b.iter(|| {
                run_gpu(
                    &DynSelfJoin::new(&pts, SelfJoinConfig::new(eps).with_k(k)),
                    &ExecTarget::Gpu,
                )
            })
        });
    }
    group.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_substrates");
    group.sample_size(10);
    let spec = DatasetSpec::by_name("SW2DA").unwrap();
    let pts = spec.generate(20_000).as_fixed::<2>().unwrap();
    let eps = spec.epsilons[2];
    group.bench_function("grid_build", |b| {
        b.iter(|| epsgrid::GridIndex::build(&pts, eps).unwrap())
    });
    group.bench_function("ego_sort", |b| {
        b.iter(|| superego::EgoSorted::sort(&pts, eps))
    });
    let grid = epsgrid::GridIndex::build(&pts, eps).unwrap();
    group.bench_function("workload_profile", |b| {
        b.iter(|| simjoin::WorkloadProfile::compute(&grid))
    });
    group.finish();
}

criterion_group!(benches, bench_issue_orders, bench_k_sweep, bench_substrates);
criterion_main!(benches);
