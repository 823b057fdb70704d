//! Exact CPU fallback join for graceful degradation.
//!
//! When the simulated device fails persistently (device lost, or a launch
//! that keeps failing past its retry budget), the executor completes the
//! join on the host: every query point not yet covered by a salvaged batch
//! is range-queried here, against the same ε-grid and the same resolved
//! access pattern the kernels use. Mirroring the kernel's probe/emission
//! logic exactly — including [`ProbeRelation::OwnCellForward`]'s
//! forward-only scan and the symmetric double emission of the
//! unidirectional patterns — guarantees that the union of GPU-salvaged and
//! CPU-computed pairs is the exact brute-force pair set, no matter where
//! the device died.
//!
//! CPU time is modeled (like `bench::CpuModel` does for SUPER-EGO) by
//! dividing operation counts by a modeled host throughput, so degraded runs
//! stay comparable in model seconds.

use epsgrid::{euclidean_dist_sq, GridIndex, Point};
use warpsim::CostModel;

use crate::kernels::ResolvedPatterns;
use crate::patterns::ProbeRelation;

/// Operation counts of a CPU fallback join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuFallbackStats {
    /// Query points processed.
    pub queries: usize,
    /// Distance calculations performed.
    pub distance_calcs: u64,
    /// Ordered result pairs emitted.
    pub pairs: u64,
}

impl CpuFallbackStats {
    /// Adds another run's counts to these.
    pub fn add(&mut self, other: &CpuFallbackStats) {
        self.queries += other.queries;
        self.distance_calcs += other.distance_calcs;
        self.pairs += other.pairs;
    }
}

/// The modeled host CPU the executor degrades onto (defaults approximate
/// the paper's 2× Xeon E5-2620 v4: 16 cores at 2.1 GHz, ~2 effective
/// SIMD/ILP lanes — the same machine `bench::CpuModel` models for
/// SUPER-EGO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuFallbackModel {
    /// Physical cores.
    pub cores: u32,
    /// Effective SIMD/ILP lanes per core for this workload.
    pub simd_lanes: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
}

impl Default for CpuFallbackModel {
    fn default() -> Self {
        Self {
            cores: 16,
            simd_lanes: 2,
            clock_hz: 2.1e9,
        }
    }
}

impl CpuFallbackModel {
    /// Converts fallback operation counts into model seconds, using the same
    /// per-op cycle costs as the GPU lanes so both substrates share one cost
    /// model.
    pub fn model_seconds(&self, stats: &CpuFallbackStats, dims: u32, cost: &CostModel) -> f64 {
        let cycles = stats.distance_calcs as f64 * cost.distance_op(dims).cycles as f64
            + stats.pairs as f64 * cost.emit_op().cycles as f64;
        cycles / (self.cores as f64 * self.simd_lanes as f64 * self.clock_hz)
    }
}

/// The calibrated host backend model of the hybrid co-executor: the
/// degradation-path [`CpuFallbackModel`] promoted to a peer, with the two
/// costs a co-processing CPU side pays that a tail-end fallback does not.
///
/// A fallback run owns the whole machine after the device is gone; a
/// co-processing run shares the host with the GPU driver loop, pays a
/// per-work-item dispatch on the worker pool, and merges its segments into
/// the canonical output. `parallel_efficiency` derates the fallback
/// throughput for that interference; `dispatch_overhead_s` charges each
/// work item's pool hand-off. Both are model-seconds calibration constants
/// in the same sense as `GpuConfig::ipc_derate` (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBackendModel {
    /// The underlying host model (cores, SIMD lanes, clock) shared with
    /// the degradation path.
    pub base: CpuFallbackModel,
    /// Fraction of the fallback throughput a co-processing run sustains
    /// (scheduling interference, segment merge): `0 < e <= 1`.
    pub parallel_efficiency: f64,
    /// Host-side dispatch cost per work item handed to the worker pool,
    /// model seconds.
    pub dispatch_overhead_s: f64,
}

impl Default for CpuBackendModel {
    fn default() -> Self {
        Self {
            base: CpuFallbackModel::default(),
            parallel_efficiency: 0.85,
            dispatch_overhead_s: 2e-6,
        }
    }
}

impl CpuBackendModel {
    /// Converts co-processed operation counts into model seconds: the
    /// fallback model derated by `parallel_efficiency`, plus the dispatch
    /// overhead of the `items` work items that produced them.
    pub fn model_seconds(
        &self,
        stats: &CpuFallbackStats,
        dims: u32,
        cost: &CostModel,
        items: usize,
    ) -> f64 {
        self.base.model_seconds(stats, dims, cost) / self.parallel_efficiency.max(f64::MIN_POSITIVE)
            + items as f64 * self.dispatch_overhead_s
    }

    /// Quantified-workload units (candidate counts, the currency of
    /// [`unit_workloads`](crate::unit_workloads)) this backend retires per
    /// model second — the CPU-side rate [`forced_cut`](crate::forced_cut)
    /// predicts with, next to
    /// [`gpu_weight_throughput`](crate::hybrid::gpu_weight_throughput).
    pub fn weight_throughput(&self, dims: u32, cost: &CostModel) -> f64 {
        let cycles_per_weight = cost.distance_op(dims).cycles as f64;
        self.base.cores as f64
            * self.base.simd_lanes as f64
            * self.base.clock_hz
            * self.parallel_efficiency
            / cycles_per_weight
    }
}

/// Range-queries `queries` on the host, appending result pairs to `out`.
///
/// Exactly replays the kernel's per-query behaviour: the query's home-cell
/// probe list from `resolved`, the forward-only scan base for
/// [`ProbeRelation::OwnCellForward`], and single- vs double-orientation
/// emission per relation.
pub fn cpu_join_queries<const N: usize>(
    grid: &GridIndex<N>,
    points: &[Point<N>],
    resolved: &ResolvedPatterns,
    epsilon: f32,
    queries: &[u32],
    out: &mut Vec<(u32, u32)>,
) -> CpuFallbackStats {
    let eps_sq = epsilon * epsilon;
    let mut stats = CpuFallbackStats {
        queries: queries.len(),
        ..CpuFallbackStats::default()
    };
    for &query in queries {
        let home = grid.home_cell_of(query as usize);
        let q = &points[query as usize];
        for probe in &resolved.per_cell[home] {
            let Some(cell) = probe.found else { continue };
            let cell_points = grid.cell_points(cell as usize);
            let base_lo = match probe.relation {
                ProbeRelation::OwnCellForward => {
                    (resolved.pos_in_cell[query as usize] + 1) as usize
                }
                _ => 0,
            };
            for &cand in &cell_points[base_lo.min(cell_points.len())..] {
                stats.distance_calcs += 1;
                let d2 = euclidean_dist_sq(q, &points[cand as usize]);
                if d2 <= eps_sq && cand != query {
                    match probe.relation {
                        ProbeRelation::AllBidirectional => {
                            out.push((query, cand));
                            stats.pairs += 1;
                        }
                        ProbeRelation::AllSymmetric | ProbeRelation::OwnCellForward => {
                            out.push((query, cand));
                            out.push((cand, query));
                            stats.pairs += 2;
                        }
                    }
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use crate::config::AccessPattern;

    fn clustered_points() -> Vec<Point<2>> {
        let mut pts = Vec::new();
        for i in 0..12 {
            pts.push([0.3 + 0.015 * i as f32, 0.4 + 0.01 * (i % 3) as f32]);
        }
        pts.push([2.0, 2.0]);
        pts.push([2.05, 2.02]);
        pts.push([5.0, 5.0]);
        pts.push([-1.0, 3.0]);
        pts
    }

    fn reference(pts: &[Point<2>], eps: f32) -> Vec<(u32, u32)> {
        let mut pairs = brute_force_join(pts, eps);
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn cpu_join_matches_brute_force_for_every_pattern() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        for pattern in [
            AccessPattern::FullWindow,
            AccessPattern::Unicomp,
            AccessPattern::LidUnicomp,
        ] {
            let resolved = ResolvedPatterns::compute(&grid, pattern);
            let mut out = Vec::new();
            let stats = cpu_join_queries(&grid, &pts, &resolved, eps, &queries, &mut out);
            out.sort_unstable();
            assert_eq!(out, reference(&pts, eps), "{pattern:?}");
            assert_eq!(stats.pairs as usize, out.len());
            assert!(stats.distance_calcs > 0);
        }
    }

    #[test]
    fn partial_query_sets_compose_to_the_full_pair_set() {
        // The degradation contract: GPU-completed queries plus CPU-completed
        // queries must union to the exact pair set, for any split point.
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::LidUnicomp);
        let all: Vec<u32> = (0..pts.len() as u32).collect();
        for split in [0, 1, 5, pts.len() - 1, pts.len()] {
            let mut out = Vec::new();
            cpu_join_queries(&grid, &pts, &resolved, eps, &all[..split], &mut out);
            cpu_join_queries(&grid, &pts, &resolved, eps, &all[split..], &mut out);
            out.sort_unstable();
            assert_eq!(out, reference(&pts, eps), "split at {split}");
        }
    }

    #[test]
    fn backend_model_is_a_derated_fallback_model() {
        let cost = warpsim::GpuConfig::default().cost;
        let stats = CpuFallbackStats {
            queries: 10,
            distance_calcs: 50_000,
            pairs: 400,
        };
        let backend = CpuBackendModel::default();
        let fallback_s = backend.base.model_seconds(&stats, 2, &cost);
        let backend_s = backend.model_seconds(&stats, 2, &cost, 0);
        // Co-processing never beats owning the whole machine.
        assert!(backend_s >= fallback_s);
        // Dispatch overhead is charged per work item.
        let with_items = backend.model_seconds(&stats, 2, &cost, 8);
        assert!((with_items - backend_s - 8.0 * backend.dispatch_overhead_s).abs() < 1e-15);
        // Throughput is finite, positive, and derated by the efficiency.
        let full = CpuBackendModel {
            parallel_efficiency: 1.0,
            ..backend
        };
        let t = backend.weight_throughput(2, &cost);
        assert!(t > 0.0 && t < full.weight_throughput(2, &cost));
    }

    #[test]
    fn model_seconds_scale_with_work() {
        let model = CpuFallbackModel::default();
        let cost = warpsim::GpuConfig::default().cost;
        let small = CpuFallbackStats {
            queries: 1,
            distance_calcs: 100,
            pairs: 10,
        };
        let large = CpuFallbackStats {
            queries: 1,
            distance_calcs: 10_000,
            pairs: 10,
        };
        let s = model.model_seconds(&small, 2, &cost);
        let l = model.model_seconds(&large, 2, &cost);
        assert!(s > 0.0 && l > s * 50.0);
    }
}
