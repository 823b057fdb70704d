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
//! CPU time is modeled by dividing operation counts by the throughput of
//! [`CpuModel`], the one modeled host (it costs the hybrid co-executor's CPU
//! side and `sj-bench`'s SUPER-EGO too), so degraded runs stay comparable
//! in model seconds.

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

    /// Model seconds [`CpuModel`] takes for these counts, at the GPU lanes'
    /// per-op cycle costs so both substrates share one cost model.
    pub fn model_seconds(&self, dims: u32, cost: &CostModel) -> f64 {
        CpuModel::seconds(
            self.distance_calcs as f64 * cost.distance_op(dims).cycles as f64
                + self.pairs as f64 * cost.emit_op().cycles as f64,
        )
    }
}

/// The modeled host CPU: the paper's 2× Xeon E5-2620 v4, 16 cores at
/// 2.1 GHz with ~2 effective SIMD/ILP lanes per core. It costs the CPU
/// fallback, the hybrid co-executor's CPU backend ([`crate::hybrid`]) and,
/// in `sj-bench`, SUPER-EGO, whose inner loop short-circuits per dimension
/// and so runs scalar code plus ILP rather than full vectors.
pub struct CpuModel;

impl CpuModel {
    /// Physical cores.
    pub const CORES: u32 = 16;
    /// Effective SIMD/ILP lanes per core.
    pub const SIMD_LANES: u32 = 2;
    /// Core clock, Hz.
    pub const CLOCK_HZ: f64 = 2.1e9;
    /// Cycles the whole machine retires per second.
    pub const CYCLES_PER_S: f64 = Self::CORES as f64 * Self::SIMD_LANES as f64 * Self::CLOCK_HZ;

    /// Model seconds the machine takes to retire `cycles`.
    pub fn seconds(cycles: f64) -> f64 {
        cycles / Self::CYCLES_PER_S
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
    fn model_seconds_scale_with_work() {
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
        let s = small.model_seconds(2, &cost);
        let l = large.model_seconds(2, &cost);
        assert!(s > 0.0 && l > s * 50.0);
    }
}
