//! The batched execution scheme (§II-C2, modified for WORKQUEUE in §III-D).
//!
//! The total result set can exceed the device's memory, so the join runs as
//! `nbBatches` kernel invocations, each bounded to at most `b_s` result
//! pairs. The batch count comes from an estimate of the total result size
//! obtained by sampling a fraction (the paper uses 1 %) of the dataset and
//! counting those points' neighbors exactly:
//!
//! - the **strided** scheme (baseline, SORTBYWL) samples every `1/f`-th
//!   point and assigns point `i` to batch `i mod nbBatches`, so batches have
//!   near-identical result sizes;
//! - the **prefix** scheme (WORKQUEUE) samples the first 1 % of the
//!   workload-sorted `D'`. Because those are the heaviest points, the
//!   estimate is deliberately pessimistic — the first (heaviest) consecutive
//!   chunk of `D'` must not overflow — and more batches are executed than in
//!   the strided scheme, exactly as the paper describes.

use epsgrid::{GridIndex, Point};

use crate::workload::WorkloadProfile;

/// Parameters of the batching scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchingConfig {
    /// Maximum result pairs per batch (`b_s`). The paper uses 10⁸ for
    /// datasets of 2–50 M points; scale it with your dataset.
    pub batch_result_capacity: usize,
    /// Fraction of the dataset sampled by the result-size estimator.
    pub sample_fraction: f64,
    /// Safety multiplier applied to the estimate before computing the batch
    /// count (guards against under-sampling; 1.0 reproduces the paper).
    pub safety_factor: f64,
    /// Device-to-host bandwidth in bytes per model second (PCIe-class).
    pub transfer_bandwidth: f64,
    /// WORKQUEUE only: cut queue chunks on cumulative workload instead of
    /// point count, equalizing per-batch result sizes (the paper's §V
    /// future-work extension; `false` reproduces the paper's scheme).
    pub balanced_queue: bool,
    /// Device-saturation floor: cap the planned batch count at this value
    /// and grow the per-batch buffer instead (`0` = uncapped, the paper's
    /// scheme). At the paper's dataset sizes every batch holds hundreds of
    /// thousands of threads, so the cap never binds there; at
    /// simulator-scale sizes, an uncapped pessimistic estimate can shrink
    /// batches below the device's concurrent-warp capacity, which would
    /// measure buffer bookkeeping instead of load balance.
    pub max_batches: usize,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        Self {
            batch_result_capacity: 10_000_000,
            sample_fraction: 0.01,
            safety_factor: 1.25,
            transfer_bandwidth: 12.0e9,
            balanced_queue: false,
            max_batches: 0,
        }
    }
}

impl BatchingConfig {
    /// Number of streams/pinned buffers overlapping transfers with kernels.
    pub const NUM_STREAMS: usize = 3;
    /// Bytes transferred per result pair (two `u32` ids).
    pub const TRANSFER_BYTES_PER_PAIR: u64 = 8;

    /// Model seconds to transfer `pairs` result pairs to the host.
    pub fn transfer_seconds(&self, pairs: usize) -> f64 {
        (pairs as u64 * Self::TRANSFER_BYTES_PER_PAIR) as f64 / self.transfer_bandwidth
    }
}

/// The result-size estimate behind a batch plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultEstimate {
    /// Points whose neighborhoods were counted exactly.
    pub sampled_points: usize,
    /// Ordered pairs found among the sampled points' neighborhoods.
    pub sampled_pairs: u64,
    /// Extrapolated total ordered pairs for the whole dataset.
    pub estimated_total: u64,
}

/// Exactly counts the ε-neighbors (excluding self) of each given point via
/// the grid — the estimator's sampling kernel.
pub fn count_neighbors_of<const N: usize>(
    grid: &GridIndex<N>,
    points: &[Point<N>],
    epsilon: f32,
    sample: &[u32],
) -> u64 {
    let eps_sq = epsilon * epsilon;
    let mut total = 0u64;
    for &pid in sample {
        let p = &points[pid as usize];
        grid.for_each_candidate_of(pid as usize, |cand| {
            if cand != pid as usize && epsgrid::euclidean_dist_sq(p, &points[cand]) <= eps_sq {
                total += 1;
            }
        });
    }
    total
}

/// Strided-sample estimate: every `1/sample_fraction`-th point.
pub fn estimate_strided<const N: usize>(
    grid: &GridIndex<N>,
    points: &[Point<N>],
    epsilon: f32,
    sample_fraction: f64,
) -> ResultEstimate {
    let stride = (1.0 / sample_fraction.clamp(1e-6, 1.0)).round().max(1.0) as usize;
    let sample: Vec<u32> = (0..points.len())
        .step_by(stride)
        .map(|i| i as u32)
        .collect();
    finish_estimate(grid, points, epsilon, &sample, points.len())
}

/// Prefix-sample estimate over a workload-sorted order (WORKQUEUE variant):
/// the first `sample_fraction` of `order`, i.e. the heaviest points.
pub fn estimate_prefix<const N: usize>(
    grid: &GridIndex<N>,
    points: &[Point<N>],
    epsilon: f32,
    sample_fraction: f64,
    order: &[u32],
) -> ResultEstimate {
    if order.is_empty() {
        // `clamp(1, 0)` below would panic; an empty order has a trivially
        // exact zero estimate.
        return ResultEstimate {
            sampled_points: 0,
            sampled_pairs: 0,
            estimated_total: 0,
        };
    }
    let n = ((order.len() as f64 * sample_fraction).ceil() as usize).clamp(1, order.len());
    finish_estimate(grid, points, epsilon, &order[..n], points.len())
}

fn finish_estimate<const N: usize>(
    grid: &GridIndex<N>,
    points: &[Point<N>],
    epsilon: f32,
    sample: &[u32],
    total_points: usize,
) -> ResultEstimate {
    let sampled_pairs = count_neighbors_of(grid, points, epsilon, sample);
    let estimated_total = if sample.is_empty() {
        0
    } else {
        (sampled_pairs as f64 * total_points as f64 / sample.len() as f64).ceil() as u64
    };
    ResultEstimate {
        sampled_points: sample.len(),
        sampled_pairs,
        estimated_total,
    }
}

/// The query-point composition of every batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchPlan {
    /// Strided batches: `batches[l]` lists batch `l`'s query ids in thread
    /// order (already workload-sorted when SORTBYWL is active).
    Strided {
        /// Per-batch query ids.
        batches: Vec<Vec<u32>>,
    },
    /// Consecutive chunks of the workload-sorted order, consumed through
    /// the global queue head.
    Queue {
        /// The workload-sorted dataset `D'`.
        order: Vec<u32>,
        /// Per-batch half-open index ranges into `order`, in queue order.
        chunks: Vec<std::ops::Range<usize>>,
    },
}

impl BatchPlan {
    /// Number of batches in the plan.
    pub fn num_batches(&self) -> usize {
        match self {
            BatchPlan::Strided { batches } => batches.len(),
            BatchPlan::Queue { chunks, .. } => chunks.len(),
        }
    }

    /// Total query points covered by the plan.
    pub fn total_queries(&self) -> usize {
        match self {
            BatchPlan::Strided { batches } => batches.iter().map(|b| b.len()).sum(),
            BatchPlan::Queue { order, .. } => order.len(),
        }
    }

    /// The query ids of unit `unit`: a strided batch in thread order, or a
    /// queue chunk of the workload-sorted order.
    pub fn unit_queries(&self, unit: usize) -> &[u32] {
        match self {
            BatchPlan::Strided { batches } => &batches[unit],
            BatchPlan::Queue { order, chunks } => &order[chunks[unit].clone()],
        }
    }

    /// The queue head's pop limit (`order.len()`), shared by every shard
    /// so per-chunk launches stay bit-identical to a single device; `0`
    /// for a strided plan, which has no queue.
    pub fn queue_limit(&self) -> u64 {
        match self {
            BatchPlan::Strided { .. } => 0,
            BatchPlan::Queue { order, .. } => order.len() as u64,
        }
    }
}

/// Computes the batch count from an estimate: `ceil(safety × estimate / b_s)`,
/// at least 1, capped at [`BatchingConfig::max_batches`] when that floor is
/// set.
pub fn num_batches_for(estimate: &ResultEstimate, config: &BatchingConfig) -> usize {
    let padded = (estimate.estimated_total as f64 * config.safety_factor).ceil() as u64;
    let nb = (padded.div_ceil(config.batch_result_capacity.max(1) as u64) as usize).max(1);
    if config.max_batches > 0 {
        nb.min(config.max_batches)
    } else {
        nb
    }
}

/// The per-batch buffer capacity implied by an estimate and a batch count:
/// at least `b_s`, grown when the saturation cap forced fewer batches than
/// the estimate wanted (with slack for per-batch variance).
pub fn buffer_capacity_for(
    estimate: &ResultEstimate,
    num_batches: usize,
    config: &BatchingConfig,
) -> usize {
    let padded = (estimate.estimated_total as f64 * config.safety_factor).ceil() as u64;
    let per_batch = padded.div_ceil(num_batches.max(1) as u64);
    config
        .batch_result_capacity
        .max((per_batch as usize).saturating_mul(2))
}

/// Builds the strided plan: point `i` goes to batch `i mod nb` (the paper's
/// Figure 1 assignment). If `profile` is given (SORTBYWL), each batch is
/// sorted by non-increasing workload.
pub fn plan_strided(
    num_points: usize,
    num_batches: usize,
    profile: Option<&WorkloadProfile>,
) -> BatchPlan {
    let nb = num_batches.max(1);
    let mut batches: Vec<Vec<u32>> = vec![Vec::with_capacity(num_points / nb + 1); nb];
    for i in 0..num_points {
        batches[i % nb].push(i as u32);
    }
    if let Some(profile) = profile {
        for batch in &mut batches {
            profile.sort_by_workload(batch);
        }
    }
    BatchPlan::Strided { batches }
}

/// Builds the queue plan: `order` split into `num_batches` consecutive
/// chunks of `ceil(n / nb)` points (the paper's fixed-size chunking).
pub fn plan_queue(order: Vec<u32>, num_batches: usize) -> BatchPlan {
    let nb = num_batches.max(1);
    let chunk_len = order.len().div_ceil(nb).max(1);
    let chunks = (0..order.len())
        .step_by(chunk_len)
        .map(|start| start..(start + chunk_len).min(order.len()))
        .collect();
    BatchPlan::Queue { order, chunks }
}

/// Builds a queue plan whose chunks carry near-equal *workload* rather than
/// equal point counts — the paper's §V future-work direction ("dynamically
/// grouping batches of queries together … such that each batch yields
/// similar result set sizes"). Because `order` is sorted by non-increasing
/// workload, fixed-size chunks make the first batch far heavier than the
/// last; cutting on cumulative workload instead equalizes per-batch result
/// sizes and lets the planner use fewer, fuller batches.
pub fn plan_queue_balanced(
    order: Vec<u32>,
    per_point_workload: &[u64],
    num_batches: usize,
) -> BatchPlan {
    let prefix = inclusive_workload_prefix(&order, per_point_workload);
    plan_queue_balanced_from_prefix(order, &prefix, num_batches)
}

/// The in-order inclusive workload prefix of `order`:
/// `prefix[i] = Σ_{j ≤ i} workload(order[j])` — the host oracle of the
/// device exclusive-scan pre-pass (an exclusive scan plus the element at
/// `i`).
pub fn inclusive_workload_prefix(order: &[u32], per_point_workload: &[u64]) -> Vec<u128> {
    let mut acc: u128 = 0;
    order
        .iter()
        .map(|&pid| {
            acc += per_point_workload[pid as usize] as u128;
            acc
        })
        .collect()
}

/// [`plan_queue_balanced`] from a precomputed inclusive workload prefix.
/// Both sort backends cut through this single function, so the plans are
/// identical by construction whenever the prefixes are (which the
/// differential suite guarantees for the device scan).
pub fn plan_queue_balanced_from_prefix(
    order: Vec<u32>,
    inclusive_prefix: &[u128],
    num_batches: usize,
) -> BatchPlan {
    debug_assert_eq!(order.len(), inclusive_prefix.len());
    let nb = num_batches.max(1);
    let total: u128 = inclusive_prefix.last().copied().unwrap_or(0);
    if total == 0 || nb == 1 {
        return plan_queue(order, nb);
    }
    let target = total.div_ceil(nb as u128).max(1);
    let mut chunks = Vec::with_capacity(nb);
    let mut start = 0usize;
    // `base` is the workload consumed by all chunks already cut, so
    // `inclusive_prefix[i] - base` is the running accumulator of the
    // classic formulation (which resets at every cut).
    let mut base: u128 = 0;
    for (i, &prefix) in inclusive_prefix.iter().enumerate() {
        if prefix - base >= target && i + 1 < order.len() {
            chunks.push(start..i + 1);
            start = i + 1;
            base = prefix;
        }
    }
    if start < order.len() {
        chunks.push(start..order.len());
    }
    BatchPlan::Queue { order, chunks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_neighbor_counts;

    fn blob(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| [0.01 * (i % 37) as f32, 0.013 * (i % 29) as f32])
            .collect()
    }

    #[test]
    fn exact_sampling_matches_brute_force() {
        let pts = blob(200);
        let eps = 0.05;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let est = estimate_strided(&grid, &pts, eps, 1.0);
        let expected: u64 = brute_force_neighbor_counts(&pts, eps).iter().sum();
        assert_eq!(est.sampled_points, 200);
        assert_eq!(est.sampled_pairs, expected);
        assert_eq!(est.estimated_total, expected);
    }

    #[test]
    fn strided_sampling_extrapolates() {
        let pts = blob(500);
        let eps = 0.05;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let est = estimate_strided(&grid, &pts, eps, 0.1);
        assert_eq!(est.sampled_points, 50);
        let exact: u64 = brute_force_neighbor_counts(&pts, eps).iter().sum();
        // Within a loose factor for this repetitive dataset.
        assert!(est.estimated_total > exact / 3);
        assert!(est.estimated_total < exact * 3);
    }

    #[test]
    fn prefix_sampling_over_sorted_order_overestimates() {
        // Heavy points first → prefix estimate ≥ strided/exact estimate.
        let mut pts = blob(300);
        pts.extend((0..50).map(|i| [10.0 + 0.3 * i as f32, 10.0]));
        let eps = 0.05;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let profile = WorkloadProfile::compute(&grid);
        let order = profile.sorted_dataset(&grid);
        let prefix = estimate_prefix(&grid, &pts, eps, 0.05, &order);
        let exact = estimate_strided(&grid, &pts, eps, 1.0);
        assert!(
            prefix.estimated_total >= exact.estimated_total,
            "prefix (heaviest-first) estimate {} should be pessimistic vs exact {}",
            prefix.estimated_total,
            exact.estimated_total
        );
    }

    #[test]
    fn prefix_estimate_of_empty_order_is_zero() {
        // The per-shard planner can hand an empty slice of the sorted
        // dataset to the estimator; that must be a zero estimate, not a
        // `clamp(1, 0)` panic.
        let pts = blob(50);
        let eps = 0.05;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let est = estimate_prefix(&grid, &pts, eps, 0.01, &[]);
        assert_eq!(
            est,
            ResultEstimate {
                sampled_points: 0,
                sampled_pairs: 0,
                estimated_total: 0,
            }
        );
    }

    #[test]
    fn estimators_handle_singleton_dataset() {
        let pts: Vec<Point<2>> = vec![[0.5, 0.5]];
        let eps = 0.1;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let strided = estimate_strided(&grid, &pts, eps, 0.01);
        assert_eq!(strided.sampled_points, 1);
        assert_eq!(strided.estimated_total, 0);
        let prefix = estimate_prefix(&grid, &pts, eps, 0.01, &[0]);
        assert_eq!(prefix.sampled_points, 1);
        assert_eq!(prefix.sampled_pairs, 0);
        assert_eq!(prefix.estimated_total, 0);
    }

    #[test]
    fn batch_count_scales_with_estimate() {
        let config = BatchingConfig {
            batch_result_capacity: 1000,
            safety_factor: 1.0,
            ..BatchingConfig::default()
        };
        let est = |total| ResultEstimate {
            sampled_points: 1,
            sampled_pairs: 1,
            estimated_total: total,
        };
        assert_eq!(num_batches_for(&est(0), &config), 1);
        assert_eq!(num_batches_for(&est(999), &config), 1);
        assert_eq!(num_batches_for(&est(1000), &config), 1);
        assert_eq!(num_batches_for(&est(1001), &config), 2);
        assert_eq!(num_batches_for(&est(10_000), &config), 10);
    }

    #[test]
    fn max_batches_caps_and_buffer_grows() {
        let config = BatchingConfig {
            batch_result_capacity: 1000,
            safety_factor: 1.0,
            max_batches: 4,
            ..BatchingConfig::default()
        };
        let est = ResultEstimate {
            sampled_points: 1,
            sampled_pairs: 1,
            estimated_total: 20_000,
        };
        let nb = num_batches_for(&est, &config);
        assert_eq!(nb, 4, "would be 20 uncapped");
        let cap = buffer_capacity_for(&est, nb, &config);
        assert!(
            cap >= 20_000 / 4,
            "buffer must hold a quarter of the estimate"
        );
        assert!(cap >= config.batch_result_capacity);
        // Without the floor, the cap stays at b_s.
        let uncapped = BatchingConfig {
            max_batches: 0,
            ..config
        };
        assert_eq!(num_batches_for(&est, &uncapped), 20);
    }

    #[test]
    fn multiplier_respects_the_saturation_cap() {
        // The cap applies to the final batch count; under it the count
        // follows the estimate.
        let config = BatchingConfig {
            batch_result_capacity: 1000,
            safety_factor: 1.0,
            max_batches: 4,
            ..BatchingConfig::default()
        };
        let est = ResultEstimate {
            sampled_points: 1,
            sampled_pairs: 1,
            estimated_total: 3_000,
        };
        assert_eq!(num_batches_for(&est, &config), 3);
    }

    #[test]
    fn safety_factor_adds_batches() {
        let base = BatchingConfig {
            batch_result_capacity: 1000,
            safety_factor: 1.0,
            ..BatchingConfig::default()
        };
        let padded = BatchingConfig {
            safety_factor: 2.0,
            ..base
        };
        let est = ResultEstimate {
            sampled_points: 1,
            sampled_pairs: 1,
            estimated_total: 1500,
        };
        assert_eq!(num_batches_for(&est, &base), 2);
        assert_eq!(num_batches_for(&est, &padded), 3);
    }

    #[test]
    fn strided_plan_partitions_points() {
        let plan = plan_strided(10, 3, None);
        let BatchPlan::Strided { batches } = &plan else {
            panic!()
        };
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], vec![0, 3, 6, 9]);
        assert_eq!(batches[1], vec![1, 4, 7]);
        assert_eq!(batches[2], vec![2, 5, 8]);
        assert_eq!(plan.total_queries(), 10);
    }

    #[test]
    fn queue_plan_chunks_cover_order() {
        let order: Vec<u32> = (0..10).collect();
        let plan = plan_queue(order, 4);
        let BatchPlan::Queue { chunks, order } = &plan else {
            panic!()
        };
        assert_eq!(order.len(), 10);
        // chunks: 3 + 3 + 3 + 1, contiguous and covering
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], 0..3);
        assert_eq!(chunks[3], 9..10);
        let covered: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn queue_plan_drops_empty_trailing_chunks() {
        let order: Vec<u32> = (0..4).collect();
        let plan = plan_queue(order, 10);
        assert_eq!(plan.num_batches(), 4);
    }

    #[test]
    fn balanced_queue_equalizes_workload_per_chunk() {
        // Workloads 100, 50, 25, 25, 1×10 (sorted order): fixed chunking by
        // count puts 200 workload in the first of 4 chunks; balanced cuts at
        // ~52 workload each.
        let workload: Vec<u64> = vec![100, 50, 25, 25, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let order: Vec<u32> = (0..workload.len() as u32).collect();
        let plan = plan_queue_balanced(order, &workload, 4);
        let BatchPlan::Queue { chunks, order } = &plan else {
            panic!()
        };
        // Coverage: contiguous, disjoint, complete.
        let mut expected_start = 0;
        for c in chunks {
            assert_eq!(c.start, expected_start);
            expected_start = c.end;
        }
        assert_eq!(expected_start, order.len());
        // The heaviest point sits alone in the first chunk.
        assert_eq!(chunks[0], 0..1);
        // Per-chunk workload spread is far tighter than fixed chunking's.
        let chunk_load = |c: &std::ops::Range<usize>| -> u64 {
            order[c.clone()].iter().map(|&p| workload[p as usize]).sum()
        };
        let loads: Vec<u64> = chunks.iter().map(chunk_load).collect();
        let max = *loads.iter().max().unwrap();
        assert!(
            max <= 100,
            "no chunk should exceed the single heaviest point by much"
        );
        let fixed = plan_queue((0..workload.len() as u32).collect(), 4);
        let BatchPlan::Queue {
            chunks: fixed_chunks,
            order: fixed_order,
        } = &fixed
        else {
            panic!()
        };
        let fixed_loads: Vec<u64> = fixed_chunks
            .iter()
            .map(|c| {
                fixed_order[c.clone()]
                    .iter()
                    .map(|&p| workload[p as usize])
                    .sum()
            })
            .collect();
        assert!(fixed_loads[0] > 2 * max || fixed_loads[0] >= 175);
    }

    #[test]
    fn balanced_queue_handles_degenerate_inputs() {
        // Zero workload falls back to fixed chunking.
        let plan = plan_queue_balanced((0..6).collect(), &[0; 6], 3);
        assert_eq!(plan.num_batches(), 3);
        assert_eq!(plan.total_queries(), 6);
        // One batch keeps everything together.
        let plan = plan_queue_balanced((0..6).collect(), &[5; 6], 1);
        assert_eq!(plan.num_batches(), 1);
        // Empty order.
        let plan = plan_queue_balanced(Vec::new(), &[], 4);
        assert_eq!(plan.num_batches(), 0);
        assert_eq!(plan.total_queries(), 0);
    }

    #[test]
    fn transfer_seconds_uses_bandwidth() {
        let config = BatchingConfig {
            transfer_bandwidth: 8.0e9,
            ..BatchingConfig::default()
        };
        assert!((config.transfer_seconds(1_000_000_000) - 1.0).abs() < 1e-9);
    }
}
