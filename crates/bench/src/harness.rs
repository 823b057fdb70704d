//! Run helpers for GPU variants and SUPER-EGO over dimension-erased
//! datasets.

use std::time::{Duration, Instant};

use epsgrid::{DynPoints, Point};
use simjoin::{with_points, DynSelfJoin, ExecOutcome, ExecTarget, JoinError, WithPoints};
use sj_telemetry::Telemetry;
use superego::{super_ego_join_with, SuperEgoConfig};

use crate::cpu_model::superego_seconds;

/// Outcome of one simulated-GPU join run.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Variant label (from [`simjoin::SelfJoinConfig::label`]).
    pub label: String,
    /// End-to-end response time in model seconds.
    pub response_s: f64,
    /// Warp execution efficiency, `[0, 1]`.
    pub wee: f64,
    /// Ordered result pairs found.
    pub pairs: usize,
    /// Batches executed.
    pub batches: usize,
    /// Distance calculations performed.
    pub distance_calcs: u64,
    /// Coefficient of variation of per-warp durations (inter-warp
    /// imbalance).
    pub warp_cv: f64,
    /// Wall-clock time the *simulation* took (not a result, just harness
    /// telemetry).
    pub sim_wall: Duration,
}

/// Outcome of one SUPER-EGO run.
#[derive(Debug, Clone)]
pub struct CpuRunResult {
    /// Model seconds under the shared cost model.
    pub model_s: f64,
    /// Native wall-clock seconds on the host.
    pub wall_s: f64,
    /// Ordered result pairs found.
    pub pairs: usize,
    /// Distance calculations performed.
    pub distance_calcs: u64,
}

/// Runs `join` on `target` and summarizes the canonical report. The
/// outcome comes back too, for the target's own breakdown (fleet shards,
/// hybrid cut, degradation).
pub fn run_gpu(
    join: &DynSelfJoin<'_>,
    target: &ExecTarget<'_>,
) -> Result<(GpuRunResult, ExecOutcome), JoinError> {
    let start = Instant::now();
    let outcome = join.run(target)?;
    let report = &outcome.report;
    let run = GpuRunResult {
        label: join.config().label(),
        response_s: report.response_time_s(),
        wee: report.wee(),
        pairs: outcome.result.len(),
        batches: report.num_batches,
        distance_calcs: report.distance_calcs(),
        warp_cv: report.warp_stats().map(|s| s.cv()).unwrap_or(0.0),
        sim_wall: start.elapsed(),
    };
    Ok((run, outcome))
}

/// Runs SUPER-EGO on a dimension-erased dataset, converting its operation
/// counts to model seconds with the same cost table the GPU uses, and
/// records its `superego.run_summary` event to `telemetry`.
pub fn run_superego(
    points: &DynPoints,
    epsilon: f32,
    cost: &warpsim::CostModel,
    telemetry: &dyn Telemetry,
) -> Result<CpuRunResult, JoinError> {
    struct SuperEgo<'s> {
        epsilon: f32,
        cost: &'s warpsim::CostModel,
        telemetry: &'s dyn Telemetry,
    }
    impl WithPoints for SuperEgo<'_> {
        type Output = CpuRunResult;
        fn call<const N: usize>(self, points: &[Point<N>]) -> CpuRunResult {
            let outcome =
                super_ego_join_with(points, &SuperEgoConfig::new(self.epsilon), self.telemetry);
            let model_s = superego_seconds(&outcome.stats, N as u32, self.cost);
            if self.telemetry.is_enabled() {
                self.telemetry.record(
                    sj_telemetry::Event::new("superego", "run_summary")
                        .u64("pairs", outcome.pairs.len() as u64)
                        .u64("threads", outcome.threads as u64)
                        .f64("model_s", model_s)
                        .f64("host_wall_s", outcome.wall.as_secs_f64()),
                );
            }
            CpuRunResult {
                model_s,
                wall_s: outcome.wall.as_secs_f64(),
                pairs: outcome.pairs.len(),
                distance_calcs: outcome.stats.distance_calcs,
            }
        }
    }
    let superego = SuperEgo {
        epsilon,
        cost,
        telemetry,
    };
    with_points(points, superego)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simjoin::SelfJoinConfig;
    use sjdata::DatasetSpec;

    fn gpu(pts: &DynPoints, config: SelfJoinConfig) -> GpuRunResult {
        run_gpu(&DynSelfJoin::new(pts, config), &ExecTarget::Gpu)
            .unwrap()
            .0
    }

    #[test]
    fn gpu_and_cpu_find_the_same_pairs() {
        let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
        let pts = spec.generate(2_000);
        let eps = 0.6;
        let gpu = gpu(&pts, SelfJoinConfig::optimized(eps));
        let cpu = run_superego(
            &pts,
            eps,
            &warpsim::CostModel::default(),
            &sj_telemetry::NULL,
        )
        .unwrap();
        assert_eq!(gpu.pairs, cpu.pairs);
        assert!(gpu.response_s > 0.0);
        assert!(cpu.model_s > 0.0);
    }

    #[test]
    fn sharded_canonical_result_matches_single_device_bit_for_bit() {
        let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
        let pts = spec.generate(1_200);
        let eps = spec.epsilons[2];
        let config = SelfJoinConfig::optimized(eps).with_batching(simjoin::BatchingConfig {
            batch_result_capacity: 20_000,
            ..simjoin::BatchingConfig::default()
        });
        let single = gpu(&pts, config.clone());
        for devices in [1usize, 4] {
            let fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
            let target = ExecTarget::Fleet(&fleet, simjoin::ShardStrategy::WorkloadAware);
            let (sharded, outcome) =
                run_gpu(&DynSelfJoin::new(&pts, config.clone()), &target).unwrap();
            let fleet = outcome.fleet.unwrap();
            assert_eq!(sharded.pairs, single.pairs);
            assert_eq!(sharded.batches, single.batches);
            assert_eq!(sharded.distance_calcs, single.distance_calcs);
            assert_eq!(sharded.response_s.to_bits(), single.response_s.to_bits());
            assert_eq!(sharded.wee.to_bits(), single.wee.to_bits());
            assert_eq!(sharded.warp_cv.to_bits(), single.warp_cv.to_bits());
            assert_eq!(fleet.shards.len(), devices);
            assert!(fleet.makespan_s <= single.response_s + 1e-12);
        }
    }

    #[test]
    fn all_supported_dims_run() {
        for name in ["Unif2D2M", "Unif3D2M", "Unif4D2M", "Unif5D2M", "Unif6D2M"] {
            let spec = DatasetSpec::by_name(name).unwrap();
            let pts = spec.generate(800);
            let eps = spec.epsilons[2];
            let r = gpu(&pts, SelfJoinConfig::new(eps));
            assert!(r.wee > 0.0 && r.wee <= 1.0, "{name}");
        }
    }
}
