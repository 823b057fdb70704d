//! Shared fixtures for the cross-crate integration tests.

use epsgrid::{DynPoints, Point};
use simjoin::{DynSelfJoin, ExecTarget, WithPoints};
use sjdata::DatasetSpec;

/// A small skewed dataset: dense enough that every fault class in the named
/// profiles can actually land (multiple launches, non-trivial buffers).
/// Shared by the chaos, fleet, and hybrid co-processing suites.
pub fn chaos_dataset() -> (DynPoints, f32) {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(400);
    let eps = spec.epsilons[2] * 1.5;
    (pts, eps)
}

/// Batching tight enough to split the run into several batches, so mid-join
/// faults leave salvageable completed work behind — and so a hybrid cut has
/// several units to choose between.
pub fn small_batches(expected_pairs: usize) -> simjoin::BatchingConfig {
    simjoin::BatchingConfig {
        batch_result_capacity: expected_pairs / 3 + 8,
        ..simjoin::BatchingConfig::default()
    }
}

/// Asserts that two canonical join reports are bit-identical — the invariant
/// every alternative execution substrate (fleet sharding, hybrid
/// co-processing) must uphold against the single-device GPU run.
pub fn assert_canonical_reports_identical(
    single: &simjoin::JoinReport,
    other: &simjoin::JoinReport,
    ctx: &str,
) {
    assert_eq!(single.estimate, other.estimate, "estimate differs [{ctx}]");
    assert_eq!(
        single.num_batches, other.num_batches,
        "batch count differs [{ctx}]"
    );
    assert_eq!(
        single.total_pairs, other.total_pairs,
        "pair count differs [{ctx}]"
    );
    assert_eq!(single.totals, other.totals, "warp totals differ [{ctx}]");
    assert_eq!(
        single.degradation, other.degradation,
        "degradation differs [{ctx}]"
    );
    assert_eq!(
        single.pipeline.total_s.to_bits(),
        other.pipeline.total_s.to_bits(),
        "pipeline time differs [{ctx}]"
    );
    assert_eq!(
        single.response_time_s().to_bits(),
        other.response_time_s().to_bits(),
        "response time differs [{ctx}]"
    );
    for (i, (s, f)) in single.batches.iter().zip(&other.batches).enumerate() {
        assert_eq!(s.pairs, f.pairs, "batch {i} pairs differ [{ctx}]");
        assert_eq!(
            s.kernel_s.to_bits(),
            f.kernel_s.to_bits(),
            "batch {i} kernel time differs [{ctx}]"
        );
        assert_eq!(
            s.transfer_s.to_bits(),
            f.transfer_s.to_bits(),
            "batch {i} transfer time differs [{ctx}]"
        );
        assert_eq!(
            s.launch.totals, f.launch.totals,
            "batch {i} launch totals differ [{ctx}]"
        );
    }
}

/// Small instances of every dataset family in Table I, sized for exhaustive
/// (brute-force-verified) integration testing.
pub fn small_datasets(n: usize) -> Vec<(String, DynPoints, f32)> {
    DatasetSpec::table1()
        .into_iter()
        .map(|spec| {
            let pts = spec.generate(n);
            // Use a mid-sweep ε, scaled up slightly because the test
            // instances are sparser than the default-sized ones.
            let eps = spec.epsilons[2] * 1.5;
            (spec.name, pts, eps)
        })
        .collect()
}

/// Brute-force self-join over a dimension-erased dataset.
pub fn brute_force_dyn(points: &DynPoints, eps: f32) -> Vec<(u32, u32)> {
    struct Brute(f32);
    impl WithPoints for Brute {
        type Output = Vec<(u32, u32)>;
        fn call<const N: usize>(self, pts: &[Point<N>]) -> Self::Output {
            let mut pairs = simjoin::brute_force_join(pts, self.0);
            pairs.sort_unstable();
            pairs
        }
    }
    simjoin::with_points(points, Brute(eps)).expect("supported dims")
}

/// Runs a GPU self-join variant over a dimension-erased dataset and returns
/// `(sorted pairs, report)`.
pub fn join_dyn(
    points: &DynPoints,
    config: simjoin::SelfJoinConfig,
) -> (Vec<(u32, u32)>, simjoin::JoinReport) {
    let o = DynSelfJoin::new(points, config)
        .run(&ExecTarget::Gpu)
        .expect("join");
    (o.result.sorted_pairs(), o.report)
}

/// Runs a GPU self-join sharded across `devices` homogeneous simulated
/// GPUs and returns `(sorted pairs, canonical report, fleet report)`.
pub fn join_fleet_dyn(
    points: &DynPoints,
    config: simjoin::SelfJoinConfig,
    devices: usize,
    strategy: simjoin::ShardStrategy,
) -> (Vec<(u32, u32)>, simjoin::JoinReport, simjoin::FleetReport) {
    join_fleet_dyn_chaos(points, config, devices, strategy, &[]).expect("fleet join")
}

/// Runs a GPU self-join with a fault plane and telemetry attached. `Err`
/// carries the typed error — an acceptable chaos outcome, unlike a wrong
/// pair set.
pub fn join_dyn_chaos(
    points: &DynPoints,
    config: simjoin::SelfJoinConfig,
    plane: &warpsim::FaultPlane,
    telemetry: &dyn sj_telemetry::Telemetry,
) -> Result<(Vec<(u32, u32)>, simjoin::JoinReport), simjoin::JoinError> {
    let o = DynSelfJoin::new(points, config)
        .with_telemetry(telemetry)
        .with_fault_plane(plane)
        .run(&ExecTarget::Gpu)?;
    Ok((o.result.sorted_pairs(), o.report))
}

/// What a faulted fleet run yields: `(sorted pairs, canonical report,
/// fleet report)`, or the typed error.
pub type FleetChaosResult =
    Result<(Vec<(u32, u32)>, simjoin::JoinReport, simjoin::FleetReport), simjoin::JoinError>;

/// Runs a GPU self-join sharded across `devices` homogeneous simulated
/// GPUs, with per-device fault schedules attached, and returns
/// `(sorted pairs, canonical report, fleet report)`. `Err` carries the
/// typed error — an acceptable chaos outcome, unlike a wrong pair set.
pub fn join_fleet_dyn_chaos(
    points: &DynPoints,
    config: simjoin::SelfJoinConfig,
    devices: usize,
    strategy: simjoin::ShardStrategy,
    faults: &[(usize, warpsim::FaultSchedule)],
) -> FleetChaosResult {
    let mut fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
    for (device, schedule) in faults {
        fleet = fleet.with_fault_schedule(*device, schedule.clone());
    }
    let o = DynSelfJoin::new(points, config).run(&ExecTarget::Fleet(&fleet, strategy))?;
    Ok((
        o.result.sorted_pairs(),
        o.report,
        o.fleet.expect("fleet report"),
    ))
}

/// Runs a hybrid CPU/GPU co-processed self-join over a dimension-erased
/// dataset and returns `(sorted pairs, canonical report, hybrid report)`.
/// Panics on any error — clean-run suites use this.
pub fn join_dyn_hybrid(
    points: &DynPoints,
    config: simjoin::SelfJoinConfig,
    policy: &simjoin::HybridPolicy,
) -> (Vec<(u32, u32)>, simjoin::JoinReport, simjoin::HybridReport) {
    let o = DynSelfJoin::new(points, config)
        .run(&ExecTarget::Hybrid(*policy))
        .expect("hybrid join");
    (
        o.result.sorted_pairs(),
        o.report,
        o.hybrid.expect("hybrid report"),
    )
}

/// What a faulted hybrid run yields: `(sorted pairs, canonical report,
/// hybrid report)`, or the typed error.
pub type HybridChaosResult =
    Result<(Vec<(u32, u32)>, simjoin::JoinReport, simjoin::HybridReport), simjoin::JoinError>;

/// Runs a hybrid co-processed self-join with a fault plane and telemetry
/// attached. `Err` carries the typed error — an acceptable chaos outcome,
/// unlike a wrong pair set.
pub fn join_dyn_hybrid_chaos(
    points: &DynPoints,
    config: simjoin::SelfJoinConfig,
    policy: &simjoin::HybridPolicy,
    plane: &warpsim::FaultPlane,
    telemetry: &dyn sj_telemetry::Telemetry,
) -> HybridChaosResult {
    let o = DynSelfJoin::new(points, config)
        .with_telemetry(telemetry)
        .with_fault_plane(plane)
        .run(&ExecTarget::Hybrid(*policy))?;
    Ok((
        o.result.sorted_pairs(),
        o.report,
        o.hybrid.expect("hybrid report"),
    ))
}

/// Runs SUPER-EGO over a dimension-erased dataset and returns sorted pairs.
pub fn superego_dyn(points: &DynPoints, eps: f32) -> Vec<(u32, u32)> {
    struct SuperEgo(f32);
    impl WithPoints for SuperEgo {
        type Output = Vec<(u32, u32)>;
        fn call<const N: usize>(self, pts: &[Point<N>]) -> Self::Output {
            let config = superego::SuperEgoConfig::new(self.0);
            let mut pairs = superego::super_ego_join(pts, &config).pairs;
            pairs.sort_unstable();
            pairs
        }
    }
    simjoin::with_points(points, SuperEgo(eps)).expect("supported dims")
}
