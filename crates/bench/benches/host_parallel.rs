//! Criterion bench for the intra-join host-parallel layers: the same
//! single-device join at `host_jobs` 1/2/4/8, plus the same sweep sharded
//! across a 4-device fleet (fleet shards and batches both ride the pool).
//!
//! `host_jobs` is a wall-clock-only knob — the pair set, the canonical
//! report, and every telemetry artifact are bit-identical across all of
//! these runs (the integration suites enforce it), so what this bench
//! measures is pure thread scaling of the executor. The recorded baseline
//! rows live under `"host_parallel"` in `results/bench_baseline.json`
//! (written by the `experiments` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::{Balancing, BatchingConfig, SelfJoinConfig};
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;

const HOST_JOBS: [usize; 4] = [1, 2, 4, 8];

/// The skewed workload at a batch capacity tight enough that the plan
/// holds many independent units — the regime the batch layer spreads.
fn config(eps: f32, host_jobs: usize) -> SelfJoinConfig {
    SelfJoinConfig::new(eps)
        .with_balancing(Balancing::WorkQueue)
        .with_batching(BatchingConfig {
            batch_result_capacity: 50_000,
            max_batches: 64,
            ..BatchingConfig::default()
        })
        .with_host_jobs(host_jobs)
}

fn bench_single_device(c: &mut Criterion) {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(6_000);
    let eps = spec.epsilons[2];
    let mut group = c.benchmark_group("host_parallel");
    group.sample_size(10);
    for jobs in HOST_JOBS {
        group.bench_with_input(BenchmarkId::new("single_device", jobs), &pts, |b, pts| {
            b.iter(|| run_gpu(&DynSelfJoin::new(pts, config(eps, jobs)), &ExecTarget::Gpu))
        });
    }
    group.finish();
}

fn bench_fleet(c: &mut Criterion) {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(6_000);
    let eps = spec.epsilons[2];
    let mut group = c.benchmark_group("host_parallel_fleet");
    group.sample_size(10);
    for jobs in HOST_JOBS {
        group.bench_with_input(BenchmarkId::new("devices_4", jobs), &pts, |b, pts| {
            b.iter(|| {
                let config = config(eps, jobs);
                let fleet = warpsim::DeviceFleet::homogeneous(4, config.gpu);
                let target = ExecTarget::Fleet(&fleet, simjoin::ShardStrategy::WorkloadAware);
                run_gpu(&DynSelfJoin::new(pts, config), &target)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_device, bench_fleet);
criterion_main!(benches);
