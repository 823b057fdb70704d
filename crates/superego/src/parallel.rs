//! Parallel SUPER-EGO driver.
//!
//! The top of the EGO-join recursion is unrolled into a list of independent
//! range-pair tasks (pruning as it unrolls), which worker threads then pull
//! from a shared counter and join sequentially — the same
//! task-decomposition style the original SUPER-EGO uses for its
//! multi-threaded mode.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use epsgrid::Point;
use sj_telemetry::{Event, Stopwatch, Telemetry};

use crate::egosort::EgoSorted;
use crate::join::{ego_join_sequential, JoinStats, SuperEgoConfig};
use crate::reorder::DimOrder;

/// The outcome of a SUPER-EGO join.
#[derive(Debug, Clone)]
pub struct SuperEgoOutcome {
    /// Ordered result pairs (both orientations), in original dataset ids.
    pub pairs: Vec<(u32, u32)>,
    /// Accumulated operation counts.
    pub stats: JoinStats,
    /// Measured wall-clock time of sort + join.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// The dimension permutation applied (identity if reordering is off).
    pub dim_order: Vec<usize>,
}

fn resolve_threads(config: &SuperEgoConfig) -> usize {
    if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Unrolls the top of the recursion into at least `target` tasks (or until
/// tasks stop being splittable), pruning as it goes.
fn split_tasks<const N: usize>(
    sorted: &EgoSorted<N>,
    config: &SuperEgoConfig,
    target: usize,
    stats: &mut JoinStats,
) -> Vec<(Range<usize>, Range<usize>)> {
    let n = sorted.len();
    let mut queue: VecDeque<(Range<usize>, Range<usize>)> = VecDeque::new();
    if n > 0 {
        queue.push_back((0..n, 0..n));
    }
    let threshold = config.naive_threshold.max(2);
    let mut leaves: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    while let Some((a, b)) = queue.pop_front() {
        if a.is_empty() || b.is_empty() {
            continue;
        }
        if a != b && crate::join::ego_prunable(sorted, &a, &b) {
            stats.pruned += 1;
            continue;
        }
        let splittable = if a == b {
            a.len() > threshold
        } else {
            a.len() + b.len() > threshold
        };
        if leaves.len() + queue.len() >= target || !splittable {
            leaves.push((a, b));
            continue;
        }
        if a == b {
            let mid = a.start + a.len() / 2;
            queue.push_back((a.start..mid, a.start..mid));
            queue.push_back((a.start..mid, mid..a.end));
            queue.push_back((mid..a.end, mid..a.end));
        } else if a.len() >= b.len() {
            let mid = a.start + a.len() / 2;
            queue.push_back((a.start..mid, b.clone()));
            queue.push_back((mid..a.end, b));
        } else {
            let mid = b.start + b.len() / 2;
            queue.push_back((a.clone(), b.start..mid));
            queue.push_back((a, mid..b.end));
        }
    }
    leaves
}

/// Runs the full SUPER-EGO pipeline: dimension reordering, EGO-sort, and the
/// parallel EGO-join.
pub fn super_ego_join<const N: usize>(
    points: &[Point<N>],
    config: &SuperEgoConfig,
) -> SuperEgoOutcome {
    super_ego_join_with(points, config, &sj_telemetry::NULL)
}

/// [`super_ego_join`] recording per-phase telemetry (dimension reorder,
/// EGO-sort, task split, parallel join) to `telemetry`. The phase events
/// carry the operation counts a CPU cost model converts to model seconds;
/// the sink never changes results.
pub fn super_ego_join_with<const N: usize>(
    points: &[Point<N>],
    config: &SuperEgoConfig,
    telemetry: &dyn Telemetry,
) -> SuperEgoOutcome {
    let telemetry_on = telemetry.is_enabled();
    let start = Instant::now();
    let threads = resolve_threads(config);
    let sw_reorder = Stopwatch::start();
    let dim_order = if config.reorder_dims {
        DimOrder::by_selectivity(points, config.epsilon)
    } else {
        DimOrder::identity(N)
    };
    let work_points = dim_order.apply_all(points);
    if telemetry_on {
        telemetry.record(
            Event::new("superego.phase", "reorder")
                .bool("reordered", config.reorder_dims)
                .str(
                    "dim_order",
                    dim_order
                        .as_slice()
                        .iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                )
                .u64("host_ns", sw_reorder.elapsed_ns()),
        );
    }
    let sw_sort = Stopwatch::start();
    let sorted = EgoSorted::sort(&work_points, config.epsilon);
    if telemetry_on {
        telemetry.record(
            Event::new("superego.phase", "egosort")
                .u64("points", points.len() as u64)
                .u64("host_ns", sw_sort.elapsed_ns()),
        );
    }

    let sw_split = Stopwatch::start();
    let mut stats = JoinStats {
        sorted_points: points.len() as u64,
        ..JoinStats::default()
    };
    let tasks = split_tasks(&sorted, config, threads * 16, &mut stats);
    if telemetry_on {
        telemetry.record(
            Event::new("superego.phase", "task_split")
                .u64("tasks", tasks.len() as u64)
                .u64("pruned_at_split", stats.pruned)
                .u64("host_ns", sw_split.elapsed_ns()),
        );
    }
    let sw_join = Stopwatch::start();

    let next = AtomicUsize::new(0);
    let results: Vec<(Vec<(u32, u32)>, JoinStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sorted = &sorted;
                let tasks = &tasks;
                let next = &next;
                scope.spawn(move || {
                    let mut local_pairs = Vec::new();
                    let mut local_stats = JoinStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((a, b)) = tasks.get(i) else { break };
                        let (pairs, s) = ego_join_sequential(sorted, a.clone(), b.clone(), config);
                        local_pairs.extend(pairs);
                        local_stats.accumulate(&s);
                    }
                    (local_pairs, local_stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut pairs = Vec::new();
    for (p, s) in results {
        pairs.extend(p);
        stats.accumulate(&s);
    }
    if telemetry_on {
        telemetry.record(
            Event::new("superego.phase", "join")
                .u64("threads", threads as u64)
                .u64("distance_calcs", stats.distance_calcs)
                .u64("pruned", stats.pruned)
                .u64("leaf_joins", stats.leaf_joins)
                .u64("pairs_found", stats.pairs_found)
                .u64("host_ns", sw_join.elapsed_ns()),
        );
    }
    SuperEgoOutcome {
        pairs,
        stats,
        wall: start.elapsed(),
        threads,
        dim_order: dim_order.as_slice().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(pts: &[Point<3>], eps: f32) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                if epsgrid::within_epsilon(&pts[i], &pts[j], eps) {
                    pairs.push((i as u32, j as u32));
                    pairs.push((j as u32, i as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    fn dataset(n: usize) -> Vec<Point<3>> {
        (0..n)
            .map(|i| {
                [
                    ((i * 2654435761) % 997) as f32 / 50.0,
                    ((i * 40503 + 7) % 991) as f32 / 50.0,
                    ((i * 69069 + 13) % 983) as f32 / 200.0,
                ]
            })
            .collect()
    }

    #[test]
    fn parallel_join_matches_brute_force() {
        let pts = dataset(300);
        let eps = 0.5;
        let outcome = super_ego_join(&pts, &SuperEgoConfig::new(eps));
        let mut pairs = outcome.pairs.clone();
        pairs.sort_unstable();
        assert_eq!(pairs, brute(&pts, eps));
        assert_eq!(outcome.stats.pairs_found as usize, pairs.len());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let pts = dataset(250);
        let eps = 0.6;
        let sort = |mut v: Vec<(u32, u32)>| {
            v.sort_unstable();
            v
        };
        let one = super_ego_join(
            &pts,
            &SuperEgoConfig {
                threads: 1,
                ..SuperEgoConfig::new(eps)
            },
        );
        let many = super_ego_join(
            &pts,
            &SuperEgoConfig {
                threads: 8,
                ..SuperEgoConfig::new(eps)
            },
        );
        assert_eq!(sort(one.pairs), sort(many.pairs));
        assert_eq!(one.stats.pairs_found, many.stats.pairs_found);
        assert_eq!(many.threads, 8);
    }

    #[test]
    fn reordering_does_not_change_results() {
        let pts = dataset(200);
        let eps = 0.5;
        let sort = |mut v: Vec<(u32, u32)>| {
            v.sort_unstable();
            v
        };
        let with = super_ego_join(&pts, &SuperEgoConfig::new(eps));
        let without = super_ego_join(
            &pts,
            &SuperEgoConfig {
                reorder_dims: false,
                ..SuperEgoConfig::new(eps)
            },
        );
        assert_eq!(sort(with.pairs), sort(without.pairs));
        assert_eq!(without.dim_order, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let outcome = super_ego_join::<3>(&[], &SuperEgoConfig::new(1.0));
        assert!(outcome.pairs.is_empty());
        let one = super_ego_join(&[[0.0f32, 0.0, 0.0]], &SuperEgoConfig::new(1.0));
        assert!(one.pairs.is_empty());
        let two = super_ego_join(
            &[[0.0f32, 0.0, 0.0], [0.1, 0.0, 0.0]],
            &SuperEgoConfig::new(1.0),
        );
        assert_eq!(two.pairs.len(), 2);
    }

    #[test]
    fn task_splitting_covers_everything_without_duplicates() {
        // The task list must produce the same result as one big task.
        let pts = dataset(180);
        let eps = 0.7;
        let sorted = EgoSorted::sort(&pts, eps);
        let config = SuperEgoConfig::new(eps);
        let mut stats = JoinStats::default();
        let tasks = split_tasks(&sorted, &config, 64, &mut stats);
        let mut task_pairs = Vec::new();
        for (a, b) in tasks {
            let (p, _) = ego_join_sequential(&sorted, a, b, &config);
            task_pairs.extend(p);
        }
        task_pairs.sort_unstable();
        let (mut whole, _) = ego_join_sequential(&sorted, 0..pts.len(), 0..pts.len(), &config);
        whole.sort_unstable();
        assert_eq!(task_pairs, whole);
    }
}
