//! Criterion bench for the warp simulator's run-length fast path:
//! stepped vs run-length execution on uniform (fully converged) and skewed
//! (divergence-heavy) warps, plus whole-join runs in both step modes.
//!
//! The converged 32-lane scan is the headline case: the fast path advances
//! the whole run in one accounting update, so its wall-clock cost should be
//! a small constant independent of the run length. The recorded baseline
//! numbers live in `results/bench_baseline.json` (written by the
//! `experiments` binary).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simjoin::SelfJoinConfig;
use simjoin::{DynSelfJoin, ExecTarget};
use sj_bench::run_gpu;
use sjdata::DatasetSpec;
use warpsim::lane::FixedWorkLane;
use warpsim::{execute_warp_with, LaneSink, Op, OpKind, StepMode};

const WARP: u32 = 32;

/// A fully converged warp: every lane scans `n` candidates.
fn uniform_lanes(n: u32) -> Vec<FixedWorkLane> {
    let op = Op::new(OpKind::Distance, 18);
    (0..WARP).map(|_| FixedWorkLane::new(n, op)).collect()
}

/// A skewed warp: one heavy lane, the rest carry 1/16th of its work, so
/// lanes retire at different times and most rounds are partially idle.
fn skewed_lanes(n: u32) -> Vec<FixedWorkLane> {
    let op = Op::new(OpKind::Distance, 18);
    (0..WARP)
        .map(|i| FixedWorkLane::new(if i == 0 { n } else { (n / 16).max(1) }, op))
        .collect()
}

fn bench_warp_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_fastpath");
    for n in [1_024u32, 16_384] {
        for (shape, make) in [
            ("uniform", uniform_lanes as fn(u32) -> Vec<FixedWorkLane>),
            ("skewed", skewed_lanes),
        ] {
            for mode in [StepMode::Stepped, StepMode::RunLength] {
                let id = BenchmarkId::new(format!("{shape}_{}", mode.name()), n);
                group.bench_with_input(id, &n, |b, &n| {
                    b.iter(|| {
                        let mut lanes = make(n);
                        let mut sink = LaneSink::new();
                        black_box(execute_warp_with(&mut lanes, WARP, &mut sink, mode))
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_join_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_step_modes");
    group.sample_size(10);
    for name in ["Expo2D2M", "Unif2D2M"] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let pts = spec.generate(6_000);
        let eps = spec.epsilons[2];
        for mode in [StepMode::Stepped, StepMode::RunLength] {
            group.bench_with_input(BenchmarkId::new(mode.name(), name), &pts, |b, pts| {
                b.iter(|| {
                    run_gpu(
                        &DynSelfJoin::new(pts, SelfJoinConfig::new(eps).with_step_mode(mode)),
                        &ExecTarget::Gpu,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_warp_modes, bench_join_modes);
criterion_main!(benches);
