//! End-to-end differential suite for the run-length fast path: a join run
//! under [`StepMode::RunLength`] must be bit-identical to the
//! [`StepMode::Stepped`] oracle — same pair set, same warp counters, same
//! per-batch cycles and model-time — across every access pattern, workload
//! quantification k, scheduler (balancing and issue-order override), and
//! fault profile. The step mode is a host-side knob only; any observable
//! difference is a bug in the fast path.

use proptest::prelude::*;
use simjoin::{
    AccessPattern, Balancing, BatchingConfig, JoinReport, SelfJoinConfig, ShardStrategy,
    SortBackend,
};
use sj_integration_support::{brute_force_dyn, join_dyn, join_dyn_chaos, join_fleet_dyn};
use sj_telemetry::{JsonTelemetry, Value, NULL};
use sjdata::DatasetSpec;
use warpsim::{FaultPlane, FaultProfile, FaultSchedule, IssueOrder, StepMode};

const PATTERNS: [AccessPattern; 3] = [
    AccessPattern::FullWindow,
    AccessPattern::Unicomp,
    AccessPattern::LidUnicomp,
];

const BALANCINGS: [Balancing; 3] = [
    Balancing::None,
    Balancing::SortByWorkload,
    Balancing::WorkQueue,
];

/// A small skewed dataset: dense enough for multiple warps per launch and
/// real divergence, small enough to keep the full matrix fast.
fn dataset() -> (epsgrid::DynPoints, f32) {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(300);
    let eps = spec.epsilons[2] * 1.5;
    (pts, eps)
}

/// Bit-level equality for model seconds: the two modes must agree on the
/// exact float, not merely within a tolerance.
fn assert_bits_eq(a: f64, b: f64, what: &str, ctx: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what} differs [{ctx}]: {a} vs {b}"
    );
}

fn assert_reports_identical(stepped: &JoinReport, fast: &JoinReport, ctx: &str) {
    assert_eq!(stepped.totals, fast.totals, "warp totals differ [{ctx}]");
    assert_eq!(
        stepped.num_batches, fast.num_batches,
        "batch count differs [{ctx}]"
    );
    assert_eq!(
        stepped.total_pairs, fast.total_pairs,
        "pair count differs [{ctx}]"
    );
    assert_eq!(
        stepped.degradation, fast.degradation,
        "degradation accounting differs [{ctx}]"
    );
    assert_bits_eq(
        stepped.pipeline.total_s,
        fast.pipeline.total_s,
        "pipeline time",
        ctx,
    );
    assert_bits_eq(
        stepped.response_time_s(),
        fast.response_time_s(),
        "response time",
        ctx,
    );
    for (i, (s, f)) in stepped.batches.iter().zip(&fast.batches).enumerate() {
        let bctx = format!("{ctx}, batch {i}");
        assert_eq!(s.pairs, f.pairs, "batch pairs differ [{bctx}]");
        assert_bits_eq(s.kernel_s, f.kernel_s, "kernel time", &bctx);
        assert_bits_eq(s.transfer_s, f.transfer_s, "transfer time", &bctx);
        assert_eq!(
            s.launch.totals, f.launch.totals,
            "launch totals differ [{bctx}]"
        );
        assert_eq!(
            s.launch.warp_cycles, f.launch.warp_cycles,
            "warp cycles differ [{bctx}]"
        );
        assert_eq!(
            s.launch.makespan.makespan, f.launch.makespan.makespan,
            "makespan differs [{bctx}]"
        );
        assert_eq!(
            s.launch.pairs_emitted, f.launch.pairs_emitted,
            "emitted pairs differ [{bctx}]"
        );
    }
}

/// Runs one config under both step modes and checks bit-identity (and, via
/// the provided truth set, exactness of both).
fn check_cell(pts: &epsgrid::DynPoints, config: SelfJoinConfig, truth: &[(u32, u32)], ctx: &str) {
    let (pairs_s, report_s) = join_dyn(pts, config.clone().with_step_mode(StepMode::Stepped));
    let (pairs_f, report_f) = join_dyn(pts, config.with_step_mode(StepMode::RunLength));
    assert_eq!(pairs_s, truth, "stepped pairs wrong [{ctx}]");
    assert_eq!(pairs_f, truth, "run-length pairs wrong [{ctx}]");
    assert_reports_identical(&report_s, &report_f, ctx);
}

/// Every pattern × k × balancing cell agrees bit-for-bit across modes.
#[test]
fn step_modes_agree_across_pattern_k_balancing() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    for pattern in PATTERNS {
        for k in [1u32, 2, 8] {
            for balancing in BALANCINGS {
                let config = SelfJoinConfig::new(eps)
                    .with_pattern(pattern)
                    .with_k(k)
                    .with_balancing(balancing);
                let ctx = format!("{pattern:?}, k={k}, {balancing:?}");
                check_cell(&pts, config, &truth, &ctx);
            }
        }
    }
}

/// Scheduler overrides (forced issue orders, including the adversarial
/// reversed order and a seeded arbitrary shuffle) don't break bit-identity.
#[test]
fn step_modes_agree_under_issue_overrides() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    for order in [
        IssueOrder::InOrder,
        IssueOrder::Reversed,
        IssueOrder::Arbitrary { seed: 0xC0FFEE },
    ] {
        for balancing in [Balancing::None, Balancing::WorkQueue] {
            let config = SelfJoinConfig::new(eps)
                .with_pattern(AccessPattern::LidUnicomp)
                .with_balancing(balancing)
                .with_issue_override(order);
            let ctx = format!("{order:?}, {balancing:?}");
            check_cell(&pts, config, &truth, &ctx);
        }
    }
}

/// Multi-batch plans (tight result buffers) agree bit-for-bit too: batching
/// interacts with per-batch warp sourcing, the main place a fast-path bug
/// could hide from single-batch tests.
#[test]
fn step_modes_agree_across_batch_plans() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    let batching = BatchingConfig {
        batch_result_capacity: truth.len() / 3 + 8,
        ..BatchingConfig::default()
    };
    for pattern in PATTERNS {
        let config = SelfJoinConfig::new(eps)
            .with_pattern(pattern)
            .with_batching(batching);
        let ctx = format!("{pattern:?}, tight batches");
        check_cell(&pts, config, &truth, &ctx);
    }
}

/// Degenerate datasets and thresholds must be rejected (or answered)
/// *consistently* by every kernel variant and both step modes: an empty
/// dataset is a typed grid error and ε = 0 is the unified typed ε error
/// (the shared `validate_epsilon` chokepoint fires before index
/// construction) — never a panic or a variant-dependent outcome.
#[test]
fn degenerate_empty_dataset_and_zero_epsilon_are_rejected_everywhere() {
    let empty = epsgrid::DynPoints::new(2);
    let pts = epsgrid::point::to_dyn(&[[0.0f32, 0.0], [1.0, 1.0], [2.0, 0.5]]);
    for pattern in PATTERNS {
        for balancing in BALANCINGS {
            for mode in [StepMode::Stepped, StepMode::RunLength] {
                let config = SelfJoinConfig::new(0.1)
                    .with_pattern(pattern)
                    .with_balancing(balancing)
                    .with_step_mode(mode);
                let ctx = format!("{pattern:?}, {balancing:?}, {mode:?}");
                let on_empty =
                    simjoin::SelfJoin::new(&empty.as_fixed::<2>().unwrap(), config.clone())
                        .map(|_| ());
                assert!(
                    matches!(on_empty, Err(simjoin::JoinError::Grid(_))),
                    "empty dataset must be a typed grid error [{ctx}]"
                );
                let zero_eps = simjoin::SelfJoin::new(
                    &pts.as_fixed::<2>().unwrap(),
                    SelfJoinConfig {
                        epsilon: 0.0,
                        ..config
                    },
                )
                .map(|_| ());
                assert!(
                    matches!(zero_eps, Err(simjoin::JoinError::Epsilon(_))),
                    "epsilon = 0 must be the typed epsilon error [{ctx}]"
                );
            }
        }
    }
}

/// A singleton dataset joins to the empty pair set under every variant and
/// step mode — exercising the estimator's single-point path end to end.
#[test]
fn degenerate_singleton_dataset_yields_no_pairs_everywhere() {
    let pts = epsgrid::point::to_dyn(&[[0.25f32, 0.75]]);
    for pattern in PATTERNS {
        for balancing in BALANCINGS {
            for mode in [StepMode::Stepped, StepMode::RunLength] {
                let config = SelfJoinConfig::new(0.1)
                    .with_pattern(pattern)
                    .with_balancing(balancing)
                    .with_step_mode(mode);
                let ctx = format!("{pattern:?}, {balancing:?}, {mode:?}");
                let (pairs, report) = join_dyn(&pts, config);
                assert!(pairs.is_empty(), "singleton produced pairs [{ctx}]");
                assert_eq!(report.total_pairs, 0, "[{ctx}]");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clusters of all-identical points are the worst-case degenerate
    /// input: every point is every other point's neighbor, candidate sets
    /// are maximal, and the pair count is exactly n·(n−1). Every kernel
    /// variant, both step modes, and the CPU fallback (forced by losing
    /// the device on launch 0) must agree with brute force.
    #[test]
    fn degenerate_identical_point_clusters_agree_everywhere(
        n in 1usize..=16,
        x in -40.0f32..40.0,
        y in -40.0f32..40.0,
        eps in 0.001f32..0.5,
    ) {
        let pts = epsgrid::point::to_dyn(&vec![[x, y]; n]);
        let truth = brute_force_dyn(&pts, eps);
        prop_assert_eq!(truth.len(), n * (n - 1));
        for pattern in PATTERNS {
            for balancing in BALANCINGS {
                let config = SelfJoinConfig::new(eps)
                    .with_pattern(pattern)
                    .with_balancing(balancing);
                let ctx = format!("{pattern:?}, {balancing:?}");
                check_cell(&pts, config.clone(), &truth, &ctx);
                // The exact CPU fallback replays the same probe lists.
                let plane = FaultPlane::new(FaultSchedule::new().device_lost_at(0));
                let (cpu_pairs, report) =
                    join_dyn_chaos(&pts, config, &plane, &NULL).expect("fallback");
                prop_assert_eq!(&cpu_pairs, &truth, "CPU fallback differs [{}]", ctx);
                let d = report.degradation.expect("fallback must report");
                prop_assert!(d.device_lost, "[{}]", ctx);
                prop_assert_eq!(d.points_degraded, n, "[{}]", ctx);
            }
        }
    }
}

/// The sort backend is the same kind of host-side knob as the step mode:
/// [`SortBackend::Device`] must return the exact canonical pair set and the
/// bit-identical report of the [`SortBackend::Host`] oracle for every
/// pattern × balancing × step-mode cell. (The device pre-pass may differ
/// only in [`JoinReport::prepass`] and telemetry — never in planning.)
#[test]
fn sort_backends_agree_across_pattern_balancing_and_mode() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    // A tight result buffer forces multiple batches, so SORTBYWL issues one
    // device sort per batch; the balanced queue cut adds the scan site.
    let batching = BatchingConfig {
        batch_result_capacity: truth.len() / 3 + 8,
        balanced_queue: true,
        ..BatchingConfig::default()
    };
    for pattern in PATTERNS {
        for balancing in BALANCINGS {
            for mode in [StepMode::Stepped, StepMode::RunLength] {
                let config = SelfJoinConfig::new(eps)
                    .with_pattern(pattern)
                    .with_balancing(balancing)
                    .with_batching(batching)
                    .with_step_mode(mode);
                let ctx = format!("{pattern:?}, {balancing:?}, {mode:?}");
                let (pairs_h, report_h) =
                    join_dyn(&pts, config.clone().with_sort_backend(SortBackend::Host));
                let (pairs_d, report_d) =
                    join_dyn(&pts, config.with_sort_backend(SortBackend::Device));
                assert_eq!(pairs_h, truth, "host pairs wrong [{ctx}]");
                assert_eq!(pairs_d, truth, "device pairs wrong [{ctx}]");
                assert_reports_identical(&report_h, &report_d, &ctx);
                assert!(
                    report_h.prepass.is_none(),
                    "host run has a pre-pass [{ctx}]"
                );
                let pp = report_d
                    .prepass
                    .expect("device run must report its pre-pass");
                assert!(!pp.degraded_to_host, "clean run degraded [{ctx}]");
                match balancing {
                    Balancing::None => assert_eq!(pp.sort_invocations, 0, "[{ctx}]"),
                    Balancing::SortByWorkload => {
                        assert!(pp.sort_invocations > 0, "[{ctx}]");
                        assert!(pp.sort_model_s > 0.0, "sort cost is zero [{ctx}]");
                    }
                    Balancing::WorkQueue => {
                        assert!(pp.sort_invocations > 0, "[{ctx}]");
                        assert!(pp.scan_invocations > 0, "queue cut not scanned [{ctx}]");
                        assert!(pp.model_s() > 0.0, "pre-pass cost is zero [{ctx}]");
                    }
                }
            }
        }
    }
}

/// With telemetry attached, a `SortBackend::Device` run emits `sort`/`scan`
/// phase events carrying nonzero model seconds — what a costed pre-pass
/// must show — while the recorded response time stays
/// bit-identical to the host backend's.
#[test]
fn device_backend_reports_sort_and_scan_phases_in_telemetry() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    let batching = BatchingConfig {
        batch_result_capacity: truth.len() / 3 + 8,
        balanced_queue: true,
        ..BatchingConfig::default()
    };
    let config = SelfJoinConfig::new(eps)
        .with_balancing(Balancing::WorkQueue)
        .with_batching(batching)
        .with_sort_backend(SortBackend::Device);
    let plane = FaultPlane::new(FaultSchedule::new());
    let sink = JsonTelemetry::new("device-backend");
    let (pairs, report) = join_dyn_chaos(&pts, config, &plane, &sink).expect("clean run");
    assert_eq!(pairs, truth);
    let phase_model_s = |name: &str| -> f64 {
        let events = sink.events_named("executor.phase", name);
        assert_eq!(events.len(), 1, "expected one {name} phase event");
        match events[0].field("model_s") {
            Some(Value::F64(v)) => *v,
            other => panic!("{name} phase event lacks model_s: {other:?}"),
        }
    };
    let sort_s = phase_model_s("sort");
    let scan_s = phase_model_s("scan");
    assert!(sort_s > 0.0, "sort phase reports zero model seconds");
    assert!(scan_s > 0.0, "scan phase reports zero model seconds");
    let pp = report.prepass.expect("device pre-pass report");
    assert_eq!(sort_s.to_bits(), pp.sort_model_s.to_bits());
    assert_eq!(scan_s.to_bits(), pp.scan_model_s.to_bits());
    assert_eq!(
        sink.events_named("executor", "prepass_degraded").len(),
        0,
        "clean run must not degrade"
    );
}

/// Fleet runs cut shard regions from the same workload prefix on both
/// backends: identical shard regions, identical canonical report, identical
/// merged pair set — for each shard strategy and device count.
#[test]
fn sort_backends_agree_on_fleet_cuts() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    let batching = BatchingConfig {
        batch_result_capacity: truth.len() / 3 + 8,
        ..BatchingConfig::default()
    };
    for strategy in [ShardStrategy::WorkloadAware, ShardStrategy::EqualCount] {
        for devices in [2usize, 3] {
            let config = SelfJoinConfig::new(eps)
                .with_balancing(Balancing::WorkQueue)
                .with_batching(batching);
            let ctx = format!("{strategy:?}, {devices} devices");
            let (pairs_h, report_h, fleet_h) = join_fleet_dyn(
                &pts,
                config.clone().with_sort_backend(SortBackend::Host),
                devices,
                strategy,
            );
            let (pairs_d, report_d, fleet_d) = join_fleet_dyn(
                &pts,
                config.with_sort_backend(SortBackend::Device),
                devices,
                strategy,
            );
            assert_eq!(pairs_h, truth, "host fleet pairs wrong [{ctx}]");
            assert_eq!(pairs_d, truth, "device fleet pairs wrong [{ctx}]");
            assert_reports_identical(&report_h, &report_d, &ctx);
            for (i, (sh, sd)) in fleet_h.shards.iter().zip(&fleet_d.shards).enumerate() {
                assert_eq!(sh.units, sd.units, "shard {i} region differs [{ctx}]");
                assert_eq!(
                    sh.workload, sd.workload,
                    "shard {i} workload differs [{ctx}]"
                );
                assert_eq!(sh.pairs, sd.pairs, "shard {i} pairs differ [{ctx}]");
            }
            assert_bits_eq(fleet_h.makespan_s, fleet_d.makespan_s, "makespan", &ctx);
        }
    }
}

/// Under every named fault profile the two modes produce the *same
/// outcome*: identical recovered pair sets and degradation accounting, or
/// the identical typed error. Faults are seeded per launch index, and the
/// fast path never changes how many launches happen or what they do, so the
/// whole chaos trajectory must replay exactly.
#[test]
fn step_modes_agree_under_fault_profiles() {
    let (pts, eps) = dataset();
    let truth = brute_force_dyn(&pts, eps);
    let batching = BatchingConfig {
        batch_result_capacity: truth.len() / 3 + 8,
        ..BatchingConfig::default()
    };
    for name in FaultProfile::names() {
        let profile = FaultProfile::by_name(name).unwrap();
        for seed in [7u64, 1007] {
            for balancing in [Balancing::None, Balancing::WorkQueue] {
                let config = SelfJoinConfig::new(eps)
                    .with_balancing(balancing)
                    .with_batching(batching);
                let ctx = format!("profile={name}, seed={seed}, {balancing:?}");
                let run = |mode: StepMode| {
                    let plane = FaultPlane::seeded(seed, &profile);
                    join_dyn_chaos(&pts, config.clone().with_step_mode(mode), &plane, &NULL)
                };
                match (run(StepMode::Stepped), run(StepMode::RunLength)) {
                    (Ok((pairs_s, report_s)), Ok((pairs_f, report_f))) => {
                        assert_eq!(pairs_s, pairs_f, "recovered pairs differ [{ctx}]");
                        assert_reports_identical(&report_s, &report_f, &ctx);
                    }
                    (Err(e_s), Err(e_f)) => {
                        assert_eq!(
                            format!("{e_s:?}"),
                            format!("{e_f:?}"),
                            "typed errors differ [{ctx}]"
                        );
                    }
                    (s, f) => panic!(
                        "outcomes diverge [{ctx}]: stepped={:?}, run-length={:?}",
                        s.map(|(p, _)| p.len()),
                        f.map(|(p, _)| p.len())
                    ),
                }
            }
        }
    }
}
