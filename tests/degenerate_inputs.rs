//! Degenerate-input regression tests for the seams hardened alongside the
//! serve daemon: every helper that a request loop can reach with empty or
//! minimal inputs must return a well-formed answer, not panic.
//!
//! These pin down the unwrap audit — each case here was reachable from the
//! serve request boundary (a maintained index handed to a balancing mode
//! that expects a profile, fleet partitioning of an empty plan, a hybrid
//! cut over zero units) and must stay panic-free.

use std::ops::Range;

use epsgrid::GridIndex;
use simjoin::{
    choose_cut_measured, forced_cut, inclusive_weight_prefix, partition_units,
    partition_units_from_prefix, Balancing, SelfJoin, SelfJoinConfig, ShardStrategy,
};

fn grid_points() -> (Vec<[f32; 2]>, f32) {
    let pts: Vec<[f32; 2]> = (0..64)
        .map(|i| [0.04 * (i % 8) as f32, 0.05 * (i / 8) as f32])
        .collect();
    (pts, 0.09)
}

/// A maintained index handed to the work-queue balancer *without* a
/// per-cell workload vector: the executor must derive the profile itself
/// (the balancer needs one) instead of unwrapping an absent option.
#[test]
fn work_queue_join_on_maintained_index_without_profile_does_not_panic() {
    let (pts, eps) = grid_points();
    let grid = GridIndex::build(&pts, eps).unwrap();
    let config = SelfJoinConfig::new(eps).with_balancing(Balancing::WorkQueue);
    let outcome = SelfJoin::with_maintained_index(&pts, config, grid, None)
        .unwrap()
        .run()
        .unwrap();
    let mut expected = simjoin::brute_force_join(&pts, eps);
    expected.sort_unstable();
    assert_eq!(outcome.result.sorted_pairs(), expected);
}

/// The same seam for workload sorting, which also wants a profile.
#[test]
fn sorted_join_on_maintained_index_without_profile_does_not_panic() {
    let (pts, eps) = grid_points();
    let grid = GridIndex::build(&pts, eps).unwrap();
    let config = SelfJoinConfig::new(eps).with_balancing(Balancing::SortByWorkload);
    let outcome = SelfJoin::with_maintained_index(&pts, config, grid, None)
        .unwrap()
        .run()
        .unwrap();
    let mut expected = simjoin::brute_force_join(&pts, eps);
    expected.sort_unstable();
    assert_eq!(outcome.result.sorted_pairs(), expected);
}

/// Fleet partitioning of nothing: every device gets an empty range, and
/// the prefix of an empty weight vector is empty — no underflow, no panic.
#[test]
fn empty_fleet_partitions_are_well_formed() {
    assert_eq!(inclusive_weight_prefix(&[]), Vec::<u128>::new());
    for strategy in [ShardStrategy::EqualCount, ShardStrategy::WorkloadAware] {
        let parts = partition_units(&[], 4, strategy);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(Range::is_empty), "{strategy:?}: {parts:?}");
        let from_prefix = partition_units_from_prefix(&[], 3, strategy);
        assert_eq!(from_prefix.len(), 3);
        assert!(from_prefix.iter().all(Range::is_empty));
    }
    // Zero devices clamps to one rather than dividing by zero.
    assert_eq!(
        partition_units(&[5, 5], 0, ShardStrategy::EqualCount).len(),
        1
    );
}

/// A hybrid cut over zero units keeps everything on the GPU side and
/// predicts zero work for both substrates, whether forced or measured.
#[test]
fn hybrid_cut_over_zero_units_is_trivial() {
    for choice in [
        forced_cut(&[], 0.5, 1.0e9, 1.0e8, 0.0),
        choose_cut_measured(&[], 0.0, &[], 4),
    ] {
        assert_eq!(choice.cut, 0);
        assert_eq!(choice.predicted_gpu_s, 0.0);
        assert_eq!(choice.predicted_cpu_s, 0.0);
    }
    // Degenerate rates and costs must not poison the choice with NaN either.
    let nan_rates = forced_cut(&[3, 2, 1], 0.5, f64::NAN, f64::NAN, f64::NAN);
    let nan_costs = choose_cut_measured(
        &[Vec::new(), Vec::new(), Vec::new()],
        f64::NAN,
        &[f64::NAN; 3],
        4,
    );
    for choice in [nan_rates, nan_costs] {
        assert!(choice.cut <= 3);
        assert!(choice.predicted_gpu_s.is_finite());
        assert!(choice.predicted_cpu_s.is_finite());
    }
}
