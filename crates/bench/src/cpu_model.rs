//! Model-time conversion for the CPU comparator.
//!
//! SUPER-EGO runs natively (its wall time is also recorded), but comparing
//! native seconds on this machine against simulated-GPU model seconds would
//! conflate host speed with the experiment. Instead both sides are put on
//! the **same cost model**: SUPER-EGO's operation counts (distance
//! calculations with the same per-dimension cost table the GPU lanes use,
//! plus the EGO-sort's `n log n` comparisons) are divided by the throughput
//! of [`simjoin::CpuModel`], the modeled host the executor's CPU paths are
//! costed on too.

use simjoin::CpuModel;
use superego::JoinStats;
use warpsim::CostModel;

/// Model cycles per EGO-sort comparison.
pub const SORT_CYCLES_PER_CMP: u32 = 6;

/// Converts SUPER-EGO operation counts into model seconds.
pub fn superego_seconds(stats: &JoinStats, dims: u32, cost: &CostModel) -> f64 {
    let dist_cycles = stats.distance_calcs as f64 * cost.distance_op(dims).cycles as f64;
    let n = stats.sorted_points.max(2) as f64;
    let sort_cycles = n * n.log2() * SORT_CYCLES_PER_CMP as f64;
    let emit_cycles = stats.pairs_found as f64 * cost.emit as f64;
    CpuModel::seconds(dist_cycles + sort_cycles + emit_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(dist: u64, n: u64, pairs: u64) -> JoinStats {
        JoinStats {
            distance_calcs: dist,
            sorted_points: n,
            pairs_found: pairs,
            ..JoinStats::default()
        }
    }

    #[test]
    fn more_work_takes_longer() {
        let cost = CostModel::default();
        let small = superego_seconds(&stats(1_000, 100, 10), 2, &cost);
        let large = superego_seconds(&stats(1_000_000, 100, 10), 2, &cost);
        assert!(large > small * 100.0);
    }

    #[test]
    fn higher_dims_cost_more_per_distance() {
        let cost = CostModel::default();
        let d2 = superego_seconds(&stats(1_000_000, 2, 0), 2, &cost);
        let d6 = superego_seconds(&stats(1_000_000, 2, 0), 6, &cost);
        assert!(d6 > d2);
    }

    #[test]
    fn sort_cost_counts_even_with_no_distances() {
        let cost = CostModel::default();
        let s = stats(0, 1_000_000, 0);
        assert!(superego_seconds(&s, 2, &cost) > 0.0);
    }
}
