//! Chaos suite for the fault-injection plane: under *any* fault schedule the
//! join must return either the exact brute-force pair set or a typed error —
//! never a silently wrong result. The suite also pins the two guarantees the
//! plane's design leans on: same-seed runs are bit-for-bit repeatable, and an
//! attached-but-empty plane is indistinguishable from no plane at all.
//!
//! CI shifts the seed matrix without editing this file by exporting
//! `CHAOS_SEED_BASE` (default 0); every seeded test offsets its seeds by it.

use proptest::prelude::*;
use simjoin::{
    Balancing, BatchingConfig, DynSelfJoin, ExecTarget, HybridPolicy, RecoveryPolicy, SelfJoin,
    SelfJoinConfig, ShardStrategy, SortBackend,
};
use sj_integration_support::{
    assert_canonical_reports_identical, brute_force_dyn, chaos_dataset, join_dyn_chaos,
    join_dyn_hybrid_chaos, join_fleet_dyn_chaos, small_batches,
};
use sj_telemetry::{Event, JsonTelemetry, Value, NULL};
use warpsim::{DeviceFleet, FaultPlane, FaultProfile, FaultSchedule};

const BALANCINGS: [Balancing; 3] = [
    Balancing::None,
    Balancing::SortByWorkload,
    Balancing::WorkQueue,
];

fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Telemetry events with host wall-clock fields removed: only the model
/// (pairs, cycles, model seconds) is deterministic across runs, so
/// byte-identity claims must ignore `host_ns`-style observations.
fn model_events(sink: &JsonTelemetry) -> Vec<Event> {
    sink.events()
        .into_iter()
        .map(|mut e| {
            e.fields.retain(|(k, _)| !k.contains("host"));
            e
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every named fault profile, any seed, any balancing: the join either
    /// matches brute force exactly or fails with a typed, renderable error.
    #[test]
    fn seeded_profiles_are_exact_or_typed(
        seed in 0u64..1_000_000,
        profile_idx in 0usize..6,
        balancing_idx in 0usize..3,
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let name = FaultProfile::names()[profile_idx];
        let profile = FaultProfile::by_name(name).unwrap();
        let plane = FaultPlane::seeded(seed_base().wrapping_add(seed), &profile);
        let config = SelfJoinConfig::new(eps)
            .with_balancing(BALANCINGS[balancing_idx])
            .with_batching(small_batches(expected.len()));
        match join_dyn_chaos(&pts, config, &plane, &NULL) {
            Ok((pairs, report)) => {
                prop_assert_eq!(pairs, expected, "profile {} corrupted the result", name);
                // Any injected fault must be visible in the report.
                if plane.injected_faults() > 0 {
                    prop_assert!(report.degradation.is_some(), "profile {}", name);
                }
            }
            Err(err) => {
                prop_assert!(!err.to_string().is_empty());
            }
        }
    }

    /// Hand-composed schedules (not just the named profiles): the builder
    /// combinators stack without breaking exactness.
    #[test]
    fn composed_schedules_are_exact_or_typed(
        transient_launch in 0u64..4,
        bump in 1u64..16,
        stall_s in 1e-3f64..0.5,
        overflow_launch in 0u64..4,
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let schedule = FaultSchedule::new()
            .transient_at(transient_launch)
            .counter_bump_at(2, bump)
            .transfer_stall_at(1, stall_s)
            .overflow_at(overflow_launch);
        let plane = FaultPlane::new(schedule);
        let config = SelfJoinConfig::optimized(eps).with_batching(small_batches(expected.len()));
        match join_dyn_chaos(&pts, config, &plane, &NULL) {
            Ok((pairs, _)) => prop_assert_eq!(pairs, expected),
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault schedules landing during the device sort/scan pre-pass obey the
    /// same contract as mid-join faults: the join returns the exact pair set
    /// or a typed error, and any injected fault is visible — either as batch
    /// degradation or on the pre-pass report (retries / host fallback).
    #[test]
    fn prepass_fault_schedules_are_exact_or_typed(
        seed in 0u64..1_000_000,
        profile_idx in 0usize..6,
        balancing_idx in 1usize..3, // SortByWorkload | WorkQueue: the pre-pass runs
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let name = FaultProfile::names()[profile_idx];
        let profile = FaultProfile::by_name(name).unwrap();
        let plane = FaultPlane::seeded(seed_base().wrapping_add(seed), &profile);
        let config = SelfJoinConfig::new(eps)
            .with_balancing(BALANCINGS[balancing_idx])
            .with_batching(BatchingConfig {
                balanced_queue: true,
                ..small_batches(expected.len())
            })
            .with_sort_backend(SortBackend::Device);
        match join_dyn_chaos(&pts, config, &plane, &NULL) {
            Ok((pairs, report)) => {
                prop_assert_eq!(pairs, expected, "profile {} corrupted the result", name);
                if plane.injected_faults() > 0 {
                    let pp = report.prepass.unwrap_or_default();
                    prop_assert!(
                        report.degradation.is_some()
                            || pp.transient_retries > 0
                            || pp.degraded_to_host,
                        "profile {}: injected fault invisible in the report",
                        name
                    );
                }
            }
            Err(err) => {
                prop_assert!(!err.to_string().is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fleet failover invariant: for any seeded fault schedule landing on
    /// any device of a 1–4 device fleet, the resharding executor returns
    /// **exactly** the clean pair set (the CPU last resort guarantees no
    /// typed error under the default policy) — never a wrong result.
    #[test]
    fn fleet_reshard_is_exact_under_any_seeded_schedule(
        seed in 0u64..1_000_000,
        profile_idx in 0usize..6,
        devices in 1usize..=4,
        faulted_offset in 0usize..4,
        balancing_idx in 0usize..3,
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let name = FaultProfile::names()[profile_idx];
        let profile = FaultProfile::by_name(name).unwrap();
        let config = SelfJoinConfig::new(eps)
            .with_balancing(BALANCINGS[balancing_idx])
            .with_batching(small_batches(expected.len()));
        let faults = vec![(
            faulted_offset % devices,
            FaultSchedule::seeded(seed_base().wrapping_add(seed), &profile),
        )];
        match join_fleet_dyn_chaos(&pts, config, devices, ShardStrategy::WorkloadAware, &faults) {
            Ok((pairs, _, fleet)) => {
                prop_assert_eq!(
                    pairs, expected,
                    "profile {} on device {}/{} corrupted the fleet result",
                    name, faulted_offset % devices, devices
                );
                prop_assert_eq!(fleet.shards.len(), devices);
            }
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }

    /// Hand-composed schedules on *several* devices at once: builder
    /// combinators stack across the fleet without breaking exactness.
    #[test]
    fn fleet_survives_composed_schedules_on_multiple_devices(
        transient_launch in 0u64..4,
        lost_launch in 0u64..6,
        bump in 1u64..16,
        overflow_launch in 0u64..4,
        devices in 2usize..=4,
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let config = SelfJoinConfig::new(eps)
            .with_balancing(Balancing::WorkQueue)
            .with_batching(small_batches(expected.len()));
        let faults = vec![
            (0, FaultSchedule::new().device_lost_at(lost_launch)),
            (
                1,
                FaultSchedule::new()
                    .transient_at(transient_launch)
                    .counter_bump_at(1, bump)
                    .overflow_at(overflow_launch),
            ),
        ];
        match join_fleet_dyn_chaos(&pts, config, devices, ShardStrategy::WorkloadAware, &faults) {
            Ok((pairs, _, fleet)) => {
                prop_assert_eq!(pairs, expected, "multi-device schedule corrupted the result");
                // Device 0 is lost at some launch; if it had work and died
                // before finishing it, recovery must have intervened.
                if fleet.recovery.devices_lost > 0 {
                    prop_assert!(
                        fleet.recovery.reshard_rounds > 0
                            || fleet.recovery.cpu_last_resort_points > 0
                            || fleet.recovery.reassigned_units == 0,
                        "a lost device's remnants must be reassigned or CPU-finished"
                    );
                }
            }
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hybrid co-processing under chaos: for any seeded fault schedule and
    /// any balancing, `ExecMode::Hybrid` under the reshard policy returns
    /// the exact brute-force pair set or a typed error — and a device lost
    /// mid-run hands its unexecuted remainder to the CPU **backend** (a
    /// peer, visible as spilled units), never to last-resort degradation.
    #[test]
    fn hybrid_reshard_spills_to_cpu_backend_under_any_seeded_schedule(
        seed in 0u64..1_000_000,
        profile_idx in 0usize..6,
        balancing_idx in 0usize..3,
        jobs in 1usize..=4,
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let name = FaultProfile::names()[profile_idx];
        let profile = FaultProfile::by_name(name).unwrap();
        let plane = FaultPlane::seeded(seed_base().wrapping_add(seed), &profile);
        let config = SelfJoinConfig::new(eps)
            .with_balancing(BALANCINGS[balancing_idx])
            .with_batching(small_batches(expected.len()))
            .with_recovery(RecoveryPolicy::Reshard);
        let policy = HybridPolicy::default().with_jobs(jobs);
        match join_dyn_hybrid_chaos(&pts, config, &policy, &plane, &NULL) {
            Ok((pairs, report, hybrid)) => {
                prop_assert_eq!(pairs, expected, "profile {} corrupted the hybrid result", name);
                // Reshard policy: a lost device's remnants spill to the CPU
                // backend; the last-resort degradation path must stay idle.
                if let Some(d) = report.degradation.as_ref() {
                    prop_assert_eq!(
                        d.points_degraded, 0,
                        "profile {}: reshard recovery must not degrade points", name
                    );
                    if d.device_lost {
                        prop_assert!(
                            hybrid.spilled_units > 0 || hybrid.cpu_units > 0,
                            "profile {}: a lost device's remainder must reach \
                             the CPU backend", name
                        );
                    }
                }
            }
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }

    /// Hand-composed fault schedules under a *forced* hybrid split: the cut
    /// and the fault plane interleave arbitrarily, and the result is still
    /// exact or typed.
    #[test]
    fn hybrid_forced_split_survives_composed_schedules(
        lost_launch in 0u64..6,
        transient_launch in 0u64..4,
        overflow_launch in 0u64..4,
        fraction in 0.0f64..=1.0,
    ) {
        let (pts, eps) = chaos_dataset();
        let expected = brute_force_dyn(&pts, eps);
        let schedule = FaultSchedule::new()
            .device_lost_at(lost_launch)
            .transient_at(transient_launch)
            .overflow_at(overflow_launch);
        let plane = FaultPlane::new(schedule);
        let config = SelfJoinConfig::optimized(eps)
            .with_batching(small_batches(expected.len()))
            .with_recovery(RecoveryPolicy::Reshard);
        let policy = HybridPolicy::default().with_forced_cpu_fraction(fraction);
        match join_dyn_hybrid_chaos(&pts, config, &policy, &plane, &NULL) {
            Ok((pairs, _, hybrid)) => {
                prop_assert_eq!(pairs, expected, "forced split corrupted the result");
                prop_assert!(hybrid.forced);
            }
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }
}

/// A device lost mid-run under `ExecMode::Hybrid` + reshard recovery hands
/// the GPU's unexecuted remainder to the CPU backend: the spill is visible
/// on the hybrid report and in `hybrid.spill` telemetry, the last-resort
/// degradation path stays idle, and the merged join is exact.
#[test]
fn hybrid_device_loss_reshards_remainder_onto_cpu_backend() {
    let (pts, eps) = chaos_dataset();
    let expected = brute_force_dyn(&pts, eps);
    let plane = FaultPlane::new(FaultSchedule::new().device_lost_at(1));
    let sink = JsonTelemetry::new("hybrid-device-lost");
    let config = SelfJoinConfig::optimized(eps)
        .with_batching(small_batches(expected.len()))
        .with_recovery(RecoveryPolicy::Reshard);
    let (pairs, report, hybrid) =
        join_dyn_hybrid_chaos(&pts, config, &HybridPolicy::default(), &plane, &sink).unwrap();

    assert_eq!(pairs, expected, "resharded hybrid join must stay exact");
    assert!(
        hybrid.spilled_units > 0,
        "the lost device's remainder must spill onto the CPU backend"
    );
    if let Some(d) = report.degradation.as_ref() {
        assert!(d.device_lost);
        assert_eq!(
            d.points_degraded, 0,
            "reshard recovery must not use the last-resort degradation path"
        );
    }
    let spills = sink.events_named("hybrid", "spill");
    assert_eq!(spills.len(), 1, "spill event is emitted exactly once");
    assert_eq!(
        spills[0].field("device_lost"),
        Some(&Value::Bool(true)),
        "the spill must be attributed to the device loss"
    );
    assert_eq!(
        spills[0].field("units"),
        Some(&Value::U64(hybrid.spilled_units as u64))
    );
}

/// A transient launch fault landing on the *first pre-pass dispatch* is
/// retried inside the pre-pass: the join stays exact, the retry and its
/// backoff are accounted on the pre-pass report, and nothing degrades.
#[test]
fn transient_prepass_fault_is_retried_and_exact() {
    let (pts, eps) = chaos_dataset();
    let expected = brute_force_dyn(&pts, eps);
    let plane = FaultPlane::new(FaultSchedule::new().transient_at(0));
    let sink = JsonTelemetry::new("prepass-transient");
    let config = SelfJoinConfig::new(eps)
        .with_balancing(Balancing::SortByWorkload)
        .with_batching(small_batches(expected.len()))
        .with_sort_backend(SortBackend::Device);
    let (pairs, report) = join_dyn_chaos(&pts, config, &plane, &sink).unwrap();

    assert_eq!(pairs, expected, "retried pre-pass must not change the join");
    assert_eq!(
        plane.injected_faults(),
        1,
        "the transient landed in the pre-pass"
    );
    assert!(
        report.degradation.is_none(),
        "a pre-pass retry is not a batch degradation"
    );
    let pp = report.prepass.expect("device pre-pass report");
    assert_eq!(pp.transient_retries, 1);
    assert!(pp.backoff_s > 0.0, "retry backoff must be accounted");
    assert!(!pp.degraded_to_host);
    assert!(
        pp.sort_invocations > 0,
        "the sort ran on the device after retry"
    );
    assert_eq!(
        sink.events_named("executor", "prepass_degraded").len(),
        0,
        "a recovered transient is not a degradation"
    );
}

/// Losing the device on the first pre-pass dispatch degrades the *sort* to
/// the host path — with a telemetry event recording the degradation — while
/// the join itself still completes exactly.
#[test]
fn device_loss_in_prepass_degrades_sort_to_host_with_event() {
    let (pts, eps) = chaos_dataset();
    let expected = brute_force_dyn(&pts, eps);
    let plane = FaultPlane::new(FaultSchedule::new().device_lost_at(0));
    let sink = JsonTelemetry::new("prepass-lost");
    let config = SelfJoinConfig::new(eps)
        .with_balancing(Balancing::WorkQueue)
        .with_batching(BatchingConfig {
            balanced_queue: true,
            ..small_batches(expected.len())
        })
        .with_sort_backend(SortBackend::Device);
    let (pairs, report) = join_dyn_chaos(&pts, config, &plane, &sink).unwrap();

    assert_eq!(pairs, expected, "host-degraded planning must stay exact");
    let pp = report.prepass.expect("device pre-pass report");
    assert!(pp.degraded_to_host, "pre-pass must record the fallback");
    assert_eq!(
        pp.sort_invocations, 0,
        "after the loss no device primitive completes"
    );
    let events = sink.events_named("executor", "prepass_degraded");
    assert_eq!(events.len(), 1, "degradation event is emitted exactly once");
    assert_eq!(
        events[0].field("class"),
        Some(&Value::Str("device_lost".into()))
    );
    assert_eq!(
        events[0].field("site"),
        Some(&Value::Str("workqueue_order".into()))
    );
}

#[test]
fn same_seed_replays_to_the_same_outcome() {
    let (pts, eps) = chaos_dataset();
    let expected = brute_force_dyn(&pts, eps);
    for name in FaultProfile::names() {
        let profile = FaultProfile::by_name(name).unwrap();
        let run = || {
            let plane = FaultPlane::seeded(seed_base().wrapping_add(42), &profile);
            let config =
                SelfJoinConfig::optimized(eps).with_batching(small_batches(expected.len()));
            let outcome = join_dyn_chaos(&pts, config, &plane, &NULL);
            (outcome, plane.injected_faults())
        };
        let (first, first_faults) = run();
        let (second, second_faults) = run();
        assert_eq!(first_faults, second_faults, "{name}: fault count drifted");
        match (first, second) {
            (Ok((pairs_a, report_a)), Ok((pairs_b, report_b))) => {
                assert_eq!(pairs_a, pairs_b, "{name}: pair set drifted");
                assert_eq!(
                    report_a.response_time_s(),
                    report_b.response_time_s(),
                    "{name}: model time drifted"
                );
                assert_eq!(
                    report_a.degradation, report_b.degradation,
                    "{name}: recovery accounting drifted"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{name}"),
            (a, b) => panic!("{name}: outcomes diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn empty_plane_run_is_identical_to_no_plane_run() {
    let (pts, eps) = chaos_dataset();
    let config = SelfJoinConfig::optimized(eps);

    let bare_sink = JsonTelemetry::new("no-plane");
    let bare = SelfJoin::new(&pts.as_fixed::<2>().unwrap(), config.clone())
        .unwrap()
        .with_telemetry(&bare_sink)
        .run()
        .unwrap();

    let plane = FaultPlane::new(FaultSchedule::new());
    let plane_sink = JsonTelemetry::new("empty-plane");
    let (pairs, report) = join_dyn_chaos(&pts, config, &plane, &plane_sink).unwrap();

    assert_eq!(plane.injected_faults(), 0);
    assert_eq!(pairs, bare.result.sorted_pairs());
    assert_eq!(report.response_time_s(), bare.report.response_time_s());
    assert_eq!(report.pipeline.total_s, bare.report.pipeline.total_s);
    assert_eq!(report.totals.cycles, bare.report.totals.cycles);
    assert!(
        report.degradation.is_none(),
        "clean run must not report recovery"
    );
    // Event-for-event identical once host wall-clock observations are
    // stripped — attaching an idle plane changes nothing the model can see.
    assert_eq!(model_events(&plane_sink), model_events(&bare_sink));
}

#[test]
fn device_lost_mid_join_degrades_with_visible_report() {
    let (pts, eps) = chaos_dataset();
    let expected = brute_force_dyn(&pts, eps);
    let plane = FaultPlane::new(FaultSchedule::new().device_lost_at(1));
    let sink = JsonTelemetry::new("device-lost");
    let config = SelfJoinConfig::optimized(eps).with_batching(small_batches(expected.len()));
    let (pairs, report) = join_dyn_chaos(&pts, config, &plane, &sink).unwrap();

    assert_eq!(pairs, expected, "degraded join must still be exact");
    let d = report.degradation.expect("device loss must be reported");
    assert!(d.device_lost);
    assert!(d.batches_salvaged >= 1, "at least one GPU batch salvaged");
    assert!(d.points_degraded > 0, "remaining points went to the CPU");
    assert!(d.cpu_pairs > 0);
    assert!(d.cpu_model_s > 0.0);

    // The degradation must be visible in telemetry, not only in the report.
    let events = sink.events_named("executor", "degradation");
    assert_eq!(events.len(), 1);
    let event = &events[0];
    assert_eq!(
        event.field("points_degraded"),
        Some(&Value::U64(d.points_degraded as u64))
    );
    assert_eq!(event.field("cpu_pairs"), Some(&Value::U64(d.cpu_pairs)));
    let summary = sink.events_named("executor", "join_summary");
    assert_eq!(summary.len(), 1);
    assert_eq!(summary[0].field("degraded"), Some(&Value::Bool(true)));
}

/// A one-device fleet is `run()` under faults too: for every fault profile,
/// several seeds and both recovery policies, the single-device join with a
/// seeded schedule on its fault plane and a one-device fleet carrying the
/// same schedule return the same pairs in the same production order and
/// bit-identical canonical reports, or the same typed error. With no
/// survivor to re-shard onto, `Reshard` finishes the failed device's work
/// through the fleet's last resort and `Degrade` through the device's own
/// degradation; both must match `run()`.
#[test]
fn faulted_fleet_of_one_matches_run() {
    let (pts, eps) = chaos_dataset();
    let expected = brute_force_dyn(&pts, eps);
    let mut cpu_finished = 0;
    for name in FaultProfile::names() {
        let profile = FaultProfile::by_name(name).unwrap();
        for offset in 0..6u64 {
            let seed = seed_base().wrapping_add(offset);
            for recovery in [RecoveryPolicy::Reshard, RecoveryPolicy::Degrade] {
                let ctx = format!("{name} seed {seed} {}", recovery.label());
                let config = SelfJoinConfig::new(eps)
                    .with_balancing(BALANCINGS[offset as usize % BALANCINGS.len()])
                    .with_batching(small_batches(expected.len()))
                    .with_recovery(recovery);
                let schedule = FaultSchedule::seeded(seed, &profile);
                let plane = FaultPlane::new(schedule.clone());
                let single = DynSelfJoin::new(&pts, config.clone())
                    .with_fault_plane(&plane)
                    .run(&ExecTarget::Gpu);
                let fleet =
                    DeviceFleet::homogeneous(1, config.gpu).with_fault_schedule(0, schedule);
                let sharded = DynSelfJoin::new(&pts, config)
                    .run(&ExecTarget::Fleet(&fleet, ShardStrategy::WorkloadAware));
                match (single, sharded) {
                    (Ok(single), Ok(sharded)) => {
                        assert_eq!(single.result.pairs(), sharded.result.pairs(), "{ctx}");
                        assert_canonical_reports_identical(&single.report, &sharded.report, &ctx);
                        let degradation = single.report.degradation.as_ref();
                        cpu_finished +=
                            usize::from(degradation.is_some_and(|d| d.cpu_fallback_ran()));
                    }
                    (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}"),
                    (a, b) => panic!("{ctx}: outcomes diverged: {:?} vs {:?}", a.err(), b.err()),
                }
            }
        }
    }
    assert!(cpu_finished > 0, "no schedule made the CPU finish any work");
}
