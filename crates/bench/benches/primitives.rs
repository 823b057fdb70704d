//! Criterion bench for the on-device primitives behind
//! `SortBackend::Device`: the warp-kernel radix argsort and exclusive scan,
//! per step mode and input size, plus whole joins on both sort backends.
//!
//! The primitives are differentially tested to match the host planner bit
//! for bit, so the interesting numbers here are wall-clock only: what the
//! simulated pre-pass costs to *run*, and how much of that the run-length
//! fast path recovers (the count and scan dispatches are pure compute and
//! ride it; only the scatter steps execute stepped). The recorded baseline
//! numbers live in `results/bench_baseline.json` (written by the
//! `experiments` binary).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::{Balancing, SelfJoinConfig, SortBackend};
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;
use warpsim::{
    device_exclusive_scan, device_radix_argsort, GpuConfig, LaunchOptions, StepMode,
    DEFAULT_DIGIT_BITS,
};

/// Heavy-tailed keys in SORTBYWL shape: a few huge workloads, many tiny
/// duplicated ones (the tie-break regime).
fn keys(n: usize) -> Vec<u128> {
    (0..n)
        .map(|i| {
            if i % 17 == 0 {
                500_000 + i as u128
            } else {
                (i as u128 * 13) % 64
            }
        })
        .collect()
}

fn bench_primitives(c: &mut Criterion) {
    let gpu = GpuConfig::default();
    let mut group = c.benchmark_group("primitives");
    for n in [1_024usize, 16_384] {
        let keys = keys(n);
        let values: Vec<u64> = keys.iter().map(|&k| k as u64 & 0xFFFF).collect();
        for mode in [StepMode::Stepped, StepMode::RunLength] {
            let opts = LaunchOptions::default().with_step_mode(mode);
            group.bench_with_input(
                BenchmarkId::new(format!("radix_argsort_{}", mode.name()), n),
                &keys,
                |b, keys| {
                    b.iter(|| {
                        black_box(device_radix_argsort(&gpu, keys, DEFAULT_DIGIT_BITS, &opts))
                            .expect("argsort")
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("exclusive_scan_{}", mode.name()), n),
                &values,
                |b, values| {
                    b.iter(|| black_box(device_exclusive_scan(&gpu, values, &opts)).expect("scan"))
                },
            );
        }
    }
    group.finish();
}

fn bench_join_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_sort_backends");
    group.sample_size(10);
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(6_000);
    let eps = spec.epsilons[2];
    for backend in [SortBackend::Host, SortBackend::Device] {
        group.bench_with_input(
            BenchmarkId::new(backend.label(), "Expo2D2M"),
            &pts,
            |b, pts| {
                b.iter(|| {
                    run_gpu(
                        &DynSelfJoin::new(
                            pts,
                            SelfJoinConfig::new(eps)
                                .with_balancing(Balancing::WorkQueue)
                                .with_sort_backend(backend),
                        ),
                        &ExecTarget::Gpu,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_join_backends);
criterion_main!(benches);
