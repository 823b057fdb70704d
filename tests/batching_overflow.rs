//! The batching scheme's core guarantee: result buffers never overflow, and
//! splitting the join across batches never changes the result.

use simjoin::{Balancing, BatchingConfig, SelfJoinConfig};
use sj_integration_support::{brute_force_dyn, join_dyn};
use sjdata::DatasetSpec;

fn tight_batching(capacity: usize) -> BatchingConfig {
    BatchingConfig {
        batch_result_capacity: capacity,
        ..BatchingConfig::default()
    }
}

#[test]
fn tight_buffers_force_batches_without_changing_results() {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(3_000);
    let eps = 0.5;
    let expected = brute_force_dyn(&pts, eps);
    assert!(
        expected.len() > 1_000,
        "test needs a non-trivial result set"
    );
    for balancing in [
        Balancing::None,
        Balancing::SortByWorkload,
        Balancing::WorkQueue,
    ] {
        let config = SelfJoinConfig::new(eps)
            .with_balancing(balancing)
            .with_batching(tight_batching(expected.len() / 4 + 512));
        let (pairs, report) = join_dyn(&pts, config);
        assert!(
            report.num_batches >= 3,
            "{balancing:?}: got {} batches",
            report.num_batches
        );
        assert_eq!(pairs, expected, "{balancing:?}");
        for batch in &report.batches {
            assert!(batch.pairs <= expected.len() / 4 + 512, "{balancing:?}");
        }
    }
}

#[test]
fn workqueue_prefix_estimate_is_pessimistic() {
    // §III-D: sampling the heaviest prefix of D' must estimate at least as
    // many results as the strided sample, so the WORKQUEUE runs at least as
    // many batches.
    let spec = DatasetSpec::by_name("Gaia").unwrap();
    let pts = spec.generate(6_000);
    let eps = 2.0;
    let capacity = 20_000;
    let (_, strided) = join_dyn(
        &pts,
        SelfJoinConfig::new(eps).with_batching(tight_batching(capacity)),
    );
    let (_, queued) = join_dyn(
        &pts,
        SelfJoinConfig::new(eps)
            .with_balancing(Balancing::WorkQueue)
            .with_batching(tight_batching(capacity)),
    );
    assert!(
        queued.estimate.estimated_total >= strided.estimate.estimated_total,
        "prefix estimate {} must be ≥ strided estimate {}",
        queued.estimate.estimated_total,
        strided.estimate.estimated_total
    );
    assert!(queued.num_batches >= strided.num_batches);
}

#[test]
fn pathological_underestimate_recovers_by_replanning() {
    // One hot cluster hidden between sampled points: the strided sample at a
    // tiny fraction misses it, the planned batch overflows, and the executor
    // must recover.
    let spec = DatasetSpec::by_name("Unif2D2M").unwrap();
    let mut raw = spec.generate(2_000).into_raw();
    // Insert a dense clump of 120 coincident points.
    for _ in 0..120 {
        raw.extend_from_slice(&[7.77, 7.77]);
    }
    let pts = epsgrid::DynPoints::from_interleaved(2, raw);
    let eps = 0.4;
    let expected = brute_force_dyn(&pts, eps);
    let config = SelfJoinConfig::new(eps).with_batching(BatchingConfig {
        batch_result_capacity: expected.len() / 3 + 256,
        sample_fraction: 0.002,
        safety_factor: 1.0,
        ..BatchingConfig::default()
    });
    let (pairs, _) = join_dyn(&pts, config);
    assert_eq!(pairs, expected);
}

#[test]
fn heavy_tail_underestimate_splits_the_batch_and_stays_exact() {
    // Adversarial heavy tail: a dense coincident clump appended after the
    // uniform bulk. The tiny strided sample misses it entirely, so the 1%
    // estimator under-estimates, the planned batch overflows, and the
    // executor recovers by splitting the failing batch — salvaging every
    // completed batch — all observable through the telemetry events, and
    // none of it may change the result.
    let spec = DatasetSpec::by_name("Unif2D2M").unwrap();
    let mut raw = spec.generate(2_000).into_raw();
    for _ in 0..140 {
        raw.extend_from_slice(&[7.77, 7.77]);
    }
    let pts = epsgrid::DynPoints::from_interleaved(2, raw);
    // ε so small the uniform bulk contributes almost nothing: virtually the
    // entire result set is the clump's 140 × 139 pairs.
    let eps = 0.05;
    let expected = brute_force_dyn(&pts, eps);
    assert!(
        expected.len() > 15_000,
        "clump must dominate the result set"
    );
    // sample_fraction < 1/n → the strided sample is the single point at
    // index 0, which cannot see the clump's workload wherever the grid
    // placed it.
    let config = SelfJoinConfig::new(eps).with_batching(BatchingConfig {
        batch_result_capacity: 12_000,
        sample_fraction: 0.0004,
        safety_factor: 1.0,
        ..BatchingConfig::default()
    });

    let fixed = pts.as_fixed::<2>().unwrap();
    let join = simjoin::SelfJoin::new(&fixed, config.clone()).unwrap();
    let (estimate, first_plan) = join.plan();
    assert!(
        estimate.estimated_total < expected.len() as u64,
        "estimator must under-estimate ({} vs {} actual) for this test to bite",
        estimate.estimated_total,
        expected.len()
    );

    let sink = sj_telemetry::JsonTelemetry::new("overflow recovery");
    let outcome = simjoin::SelfJoin::new(&fixed, config)
        .unwrap()
        .with_telemetry(&sink)
        .run()
        .unwrap();
    assert_eq!(outcome.result.sorted_pairs(), expected);

    let recoveries: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.scope == "executor" && e.name == "overflow_recovery")
        .collect();
    assert!(!recoveries.is_empty(), "the first plan must overflow");
    for r in &recoveries {
        assert_eq!(
            r.field("terminal"),
            Some(&sj_telemetry::Value::Bool(false)),
            "a recovered run must never record a terminal overflow"
        );
        assert!(r.field("left_queries").is_some() && r.field("right_queries").is_some());
    }
    // Every split adds exactly one batch over the original plan, and the
    // split count is mirrored in the degradation report.
    assert_eq!(
        outcome.report.num_batches,
        first_plan.num_batches() + recoveries.len()
    );
    let degradation = outcome
        .report
        .degradation
        .expect("overflow recovery must be reported");
    assert_eq!(degradation.overflow_splits as usize, recoveries.len());
    assert_eq!(
        degradation.points_degraded, 0,
        "overflow recovery stays on the GPU"
    );
    assert!(degradation.backoff_s > 0.0);
}

#[test]
fn overflow_split_ceiling_surfaces_a_typed_error_with_terminal_telemetry() {
    // The recovery is bounded: a clump point's own neighbourhood outgrows
    // every result buffer, so splitting its batch down to that one query
    // cannot help. The overflow must surface as a typed error — not loop —
    // and telemetry must record the terminal overflow_recovery event.
    let spec = DatasetSpec::by_name("Unif2D2M").unwrap();
    let mut raw = spec.generate(2_000).into_raw();
    for _ in 0..140 {
        raw.extend_from_slice(&[7.77, 7.77]);
    }
    let pts = epsgrid::DynPoints::from_interleaved(2, raw);
    let eps = 0.05;
    let mut degree = vec![0usize; pts.len()];
    for (a, _) in brute_force_dyn(&pts, eps) {
        degree[a as usize] += 1;
    }
    let widest = degree.into_iter().max().unwrap();
    assert!(
        widest >= 139,
        "the clump must hold the widest neighbourhood"
    );
    // The planner pads each buffer to at most twice `b_s`.
    let config = SelfJoinConfig::new(eps).with_batching(BatchingConfig {
        batch_result_capacity: (widest - 1) / 2,
        sample_fraction: 0.0004,
        safety_factor: 1.0,
        ..BatchingConfig::default()
    });
    let fixed = pts.as_fixed::<2>().unwrap();
    let sink = sj_telemetry::JsonTelemetry::new("overflow ceiling");
    let err = simjoin::SelfJoin::new(&fixed, config)
        .unwrap()
        .with_telemetry(&sink)
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        simjoin::JoinError::Launch(warpsim::LaunchError::ResultOverflow(_))
    ));
    assert!(std::error::Error::source(&err).is_some(), "source() chains");
    let terminals: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| {
            e.scope == "executor"
                && e.name == "overflow_recovery"
                && e.field("terminal") == Some(&sj_telemetry::Value::Bool(true))
        })
        .collect();
    assert_eq!(terminals.len(), 1, "exactly one terminal recovery event");
    assert_eq!(
        terminals[0].field("batch_queries"),
        Some(&sj_telemetry::Value::U64(1))
    );
}

#[test]
fn single_batch_when_capacity_is_ample() {
    let spec = DatasetSpec::by_name("Unif3D2M").unwrap();
    let pts = spec.generate(2_000);
    let (_, report) = join_dyn(&pts, SelfJoinConfig::new(1.0));
    assert_eq!(report.num_batches, 1);
}
