//! Hybrid CPU/GPU co-execution: throughput-aware splitting of the planned
//! unit list between the simulated GPU and the host CPU workers.
//!
//! The paper's balancing optimizations stop at the device boundary; this
//! module promotes the exact CPU path of [`crate::fallback`] from a
//! degradation target to a peer backend, following the CPU/GPU workload-split
//! designs of *Hybrid KNN-Join* and HySet's co-process partitioning scheme.
//!
//! The split is a single **cut point** in the workload-sorted unit list: units
//! `[0, cut)` run on the GPU, units `[cut, n)` run on the CPU pool. The auto
//! cut is chosen by [`choose_cut_measured`] after execution, from both
//! backends' measured per-unit model costs; a forced fraction fixes it up
//! front ([`forced_cut`]), with makespan predictions from the two backends'
//! throughput models ([`warpsim::GpuConfig`] for the GPU side,
//! [`crate::CpuModel`] derated by [`CPU_PARALLEL_EFFICIENCY`] for the CPU
//! side).
//!
//! Execution itself lives in [`crate::executor::SelfJoin::run_hybrid`]. To
//! preserve the exact-result invariant *and* the canonical-report invariant
//! (the hybrid [`crate::JoinReport`] is bit-identical to the single-device
//! GPU run, just as fleet runs are for any device count), the co-executor is
//! **differential**: the GPU still executes the full plan exactly as a
//! single-device run does, the CPU pool independently recomputes its share, and
//! every CPU segment is checked pair-for-pair against the GPU segment it
//! replaces before the merge. A mismatch is a typed error, never a silent
//! result difference — this is the co-processing test harness the hybrid
//! suites build on. CPU-side cost lands only in the [`HybridReport`] and
//! telemetry (`hybrid.cut`, `hybrid.backend_done`), mirroring how the device
//! pre-pass keeps tables backend-invariant.

use crate::executor::JoinReport;
use crate::fallback::{CpuFallbackStats, CpuModel};
use crate::fleet::inclusive_weight_prefix;
use crate::result::ResultSet;
use warpsim::{BatchTiming, CostModel, GpuConfig, StreamPipeline};

/// Fraction of [`CpuModel`]'s throughput the co-executor's CPU side
/// sustains. A fallback run owns the whole machine after the device is
/// gone; a co-processing run shares the host with the GPU driver loop and
/// merges its segments into the canonical output. A model-seconds
/// calibration constant in the same sense as `GpuConfig::ipc_derate` (see
/// EXPERIMENTS.md).
pub const CPU_PARALLEL_EFFICIENCY: f64 = 0.85;

/// Host-side dispatch cost of each work item the CPU side hands to the
/// worker pool, model seconds.
pub const CPU_DISPATCH_S: f64 = 2e-6;

/// Model seconds the CPU backend takes for `stats`, produced by `items`
/// work items: the fallback cost derated by [`CPU_PARALLEL_EFFICIENCY`],
/// plus [`CPU_DISPATCH_S`] per item.
pub(crate) fn cpu_backend_seconds(
    stats: &CpuFallbackStats,
    dims: u32,
    cost: &CostModel,
    items: usize,
) -> f64 {
    stats.model_seconds(dims, cost) / CPU_PARALLEL_EFFICIENCY + items as f64 * CPU_DISPATCH_S
}

/// Quantified-workload units (candidate counts, the currency of
/// [`unit_workloads`](crate::unit_workloads)) the CPU backend retires per
/// model second — the CPU-side rate [`forced_cut`] predicts with, next to
/// [`gpu_weight_throughput`].
pub(crate) fn cpu_weight_throughput(dims: u32, cost: &CostModel) -> f64 {
    CpuModel::CYCLES_PER_S * CPU_PARALLEL_EFFICIENCY / cost.distance_op(dims).cycles as f64
}

/// Modeled GPU weight throughput (workload units per model second).
///
/// Workload weights count candidate distance calculations (see
/// [`crate::workload`]), so the GPU's peak rate is its total concurrent lane
/// count times the derated clock, divided by the cycles one distance
/// calculation costs. This is a *peak* (fully occupied, fully converged)
/// rate: real kernels fall short of it through warp divergence and scheduling
/// gaps, which makes [`forced_cut`]'s GPU-side prediction optimistic.
pub fn gpu_weight_throughput(gpu: &GpuConfig, dims: u32) -> f64 {
    let lanes = gpu.total_warp_slots() as f64 * gpu.warp_size as f64;
    let cycles_per_weight = gpu.cost.distance_op(dims).cycles as f64;
    lanes * gpu.effective_clock_hz() / cycles_per_weight
}

/// The cut point picked for a hybrid run, with the model's predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutChoice {
    /// Units `[0, cut)` go to the GPU, `[cut, n)` to the CPU pool.
    pub cut: usize,
    /// Predicted GPU-side model seconds for the prefix at this cut.
    pub predicted_gpu_s: f64,
    /// Predicted CPU-side model seconds for the suffix at this cut.
    pub predicted_cpu_s: f64,
    /// Whether the cut was forced by a fixed fraction rather than chosen.
    pub forced: bool,
}

fn predicted_sides(
    prefix: &[u128],
    cut: usize,
    gpu_rate: f64,
    cpu_rate: f64,
    dispatch_s: f64,
) -> (f64, f64) {
    let total = prefix.last().copied().unwrap_or(0) as f64;
    let gpu_work = if cut == 0 {
        0.0
    } else {
        prefix[cut - 1] as f64
    };
    let cpu_units = prefix.len() - cut;
    let gpu_s = if gpu_work == 0.0 {
        0.0
    } else {
        gpu_work / gpu_rate
    };
    let cpu_s = if cpu_units == 0 {
        0.0
    } else {
        (total - gpu_work) / cpu_rate + cpu_units as f64 * dispatch_s
    };
    (gpu_s, cpu_s)
}

/// Picks the cut that minimizes the **measured** hybrid makespan.
///
/// A throughput prediction from peak rates (the one [`forced_cut`] reports)
/// is blind to fixed per-batch costs (launch, transfer) that dominate small
/// workloads. The co-executor can do better: the GPU shadow execution has
/// already produced every unit's actual batch timings in model seconds, and
/// the CPU backend's cost model is additive per unit — so the exact makespan
/// of *every* candidate cut can be evaluated and the argmin taken.
///
/// `unit_timings[u]` holds unit `u`'s executed batch timings (empty for
/// units that produced no batches), `gpu_fixed_s` is recovery time charged
/// to the GPU side at any cut, and `cpu_unit_s[u]` is unit `u`'s exact CPU
/// cost under the backend model (including its dispatch overhead). The score
/// of a cut is `max(pipeline(units < cut) + gpu_fixed_s, Σ cpu_unit_s[cut..])`
/// with the GPU prefix rescheduled as its own stream pipeline; ties prefer
/// the larger (more-GPU) cut. Because both sides are exact and additive,
/// the chosen cut's measured makespan is ≤ the measured makespan of every
/// forced cut — including the all-GPU and all-CPU endpoints.
///
/// Never panics; an empty unit list yields `cut = 0`.
pub fn choose_cut_measured(
    unit_timings: &[Vec<BatchTiming>],
    gpu_fixed_s: f64,
    cpu_unit_s: &[f64],
    num_streams: usize,
) -> CutChoice {
    let n = unit_timings.len().min(cpu_unit_s.len());
    let gpu_fixed_s = if gpu_fixed_s.is_finite() && gpu_fixed_s > 0.0 {
        gpu_fixed_s
    } else {
        0.0
    };
    // Suffix CPU cost per cut.
    let mut cpu_suffix = vec![0.0f64; n + 1];
    for u in (0..n).rev() {
        let s = if cpu_unit_s[u].is_finite() && cpu_unit_s[u] > 0.0 {
            cpu_unit_s[u]
        } else {
            0.0
        };
        cpu_suffix[u] = cpu_suffix[u + 1] + s;
    }
    let mut best = CutChoice {
        cut: 0,
        predicted_gpu_s: gpu_fixed_s,
        predicted_cpu_s: cpu_suffix[0],
        forced: false,
    };
    let mut best_makespan = f64::INFINITY;
    let mut timings: Vec<BatchTiming> = Vec::new();
    for cut in 0..=n {
        if cut > 0 {
            timings.extend(unit_timings[cut - 1].iter().copied());
        }
        let gpu_s = if timings.is_empty() {
            gpu_fixed_s
        } else {
            StreamPipeline::new(num_streams).schedule(&timings).total_s + gpu_fixed_s
        };
        let cpu_s = cpu_suffix[cut];
        let makespan = gpu_s.max(cpu_s);
        // `>=` so ties move toward the larger (more-GPU) cut.
        if best_makespan >= makespan {
            best_makespan = makespan;
            best = CutChoice {
                cut,
                predicted_gpu_s: gpu_s,
                predicted_cpu_s: cpu_s,
                forced: false,
            };
        }
    }
    best
}

/// Builds the cut for a forced CPU fraction instead of choosing one.
///
/// `fraction` is the share of *units* (not workload) handed to the CPU side,
/// counted from the light tail of the workload-sorted list:
/// `cpu_units = round(fraction · n)`, `cut = n − cpu_units`. The fraction is
/// clamped to `[0, 1]`; a NaN fraction behaves as `0.0` (all-GPU). The
/// returned predictions are the prefix workload over `gpu_rate` and the
/// suffix workload over `cpu_rate` plus `dispatch_s` per CPU unit.
pub fn forced_cut(
    weights: &[u64],
    fraction: f64,
    gpu_rate: f64,
    cpu_rate: f64,
    dispatch_s: f64,
) -> CutChoice {
    let n = weights.len();
    let fraction = if fraction.is_nan() {
        0.0
    } else {
        fraction.clamp(0.0, 1.0)
    };
    let cpu_units = ((fraction * n as f64).round() as usize).min(n);
    let cut = n - cpu_units;
    let prefix = inclusive_weight_prefix(weights);
    let gpu_rate = if gpu_rate.is_finite() && gpu_rate > 0.0 {
        gpu_rate
    } else {
        1.0
    };
    let cpu_rate = if cpu_rate.is_finite() && cpu_rate > 0.0 {
        cpu_rate
    } else {
        1.0
    };
    let dispatch_s = if dispatch_s.is_finite() && dispatch_s > 0.0 {
        dispatch_s
    } else {
        0.0
    };
    let (g, c) = predicted_sides(&prefix, cut, gpu_rate, cpu_rate, dispatch_s);
    CutChoice {
        cut,
        predicted_gpu_s: g,
        predicted_cpu_s: c,
        forced: true,
    }
}

/// How a hybrid run splits and staffs its two backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridPolicy {
    /// Worker threads for the CPU pool (clamped to at least 1).
    pub jobs: usize,
    /// When set, force this CPU unit fraction instead of choosing the cut.
    /// `Some(0.0)` is all-GPU, `Some(1.0)` is all-CPU.
    pub forced_cpu_fraction: Option<f64>,
}

impl Default for HybridPolicy {
    fn default() -> Self {
        Self {
            jobs: 1,
            forced_cpu_fraction: None,
        }
    }
}

impl HybridPolicy {
    /// A policy that forces every unit onto the CPU backend (the split
    /// [`crate::config::ExecMode::Cpu`] selects).
    pub fn cpu_only() -> Self {
        Self {
            forced_cpu_fraction: Some(1.0),
            ..Self::default()
        }
    }

    /// Sets the CPU worker count (builder style).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Forces a fixed CPU unit fraction (builder style).
    pub fn with_forced_cpu_fraction(mut self, fraction: f64) -> Self {
        self.forced_cpu_fraction = Some(fraction);
        self
    }
}

/// Accounting for one hybrid run's split and both backends' costs.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridReport {
    /// Total planned work units.
    pub units: usize,
    /// The cut point: units `[0, cut)` ran on the GPU.
    pub cut: usize,
    /// Units assigned to (and kept from) the GPU side.
    pub gpu_units: usize,
    /// Units the CPU side computed (planned suffix plus any spills).
    pub cpu_units: usize,
    /// GPU-remnant units respilled onto the CPU backend after a device loss
    /// (reshard recovery); zero on clean runs and under degrade recovery.
    pub spilled_units: usize,
    /// Whether the cut was forced by a fixed fraction.
    pub forced: bool,
    /// The chooser's predicted GPU-side model seconds.
    pub predicted_gpu_s: f64,
    /// The chooser's predicted CPU-side model seconds.
    pub predicted_cpu_s: f64,
    /// Observed GPU-side response: rescheduled prefix pipeline plus recovery.
    pub gpu_response_s: f64,
    /// Observed CPU-side model seconds under the backend cost model.
    pub cpu_model_s: f64,
    /// Work the CPU side actually performed.
    pub cpu_stats: CpuFallbackStats,
    /// `max(gpu_response_s, cpu_model_s)`: the overlapped completion time.
    pub makespan_s: f64,
    /// CPU worker threads used.
    pub jobs: usize,
}

/// A hybrid join's outcome: the merged pair set, the canonical
/// (backend-invariant) join report, and the hybrid split accounting.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// Every pair found, merged in plan-unit order.
    pub result: ResultSet,
    /// Canonical report — bit-identical to the single-device GPU run.
    pub report: JoinReport,
    /// The split decision and per-backend accounting.
    pub hybrid: HybridReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::par_map;

    #[test]
    fn forced_fraction_endpoints_and_rounding() {
        let weights = [4u64, 3, 2, 1];
        assert_eq!(forced_cut(&weights, 0.0, 1.0, 1.0, 0.0).cut, 4);
        assert_eq!(forced_cut(&weights, 1.0, 1.0, 1.0, 0.0).cut, 0);
        assert_eq!(forced_cut(&weights, 0.5, 1.0, 1.0, 0.0).cut, 2);
        // Clamping and NaN: out-of-range forces a boundary, NaN is all-GPU.
        assert_eq!(forced_cut(&weights, 7.0, 1.0, 1.0, 0.0).cut, 0);
        assert_eq!(forced_cut(&weights, -3.0, 1.0, 1.0, 0.0).cut, 4);
        assert_eq!(forced_cut(&weights, f64::NAN, 1.0, 1.0, 0.0).cut, 4);
        assert!(forced_cut(&weights, 0.5, 1.0, 1.0, 0.0).forced);
    }

    #[test]
    fn forced_cut_survives_invalid_rates() {
        let c = forced_cut(&[5, 5], 0.5, f64::NAN, 0.0, f64::NAN);
        assert_eq!(c.cut, 1);
        assert!(c.predicted_gpu_s.is_finite());
        assert!(c.predicted_cpu_s.is_finite());
    }

    fn timing(kernel_s: f64) -> BatchTiming {
        BatchTiming {
            kernel_s,
            transfer_s: 0.1 * kernel_s,
        }
    }

    #[test]
    fn empty_units_cut_zero_without_panic() {
        let c = choose_cut_measured(&[], 0.0, &[], 4);
        assert_eq!(c.cut, 0);
        assert_eq!(c.predicted_gpu_s, 0.0);
        assert_eq!(c.predicted_cpu_s, 0.0);
        assert!(!c.forced);
    }

    #[test]
    fn single_unit_picks_a_valid_boundary() {
        let c = choose_cut_measured(&[vec![timing(1.0)]], 0.0, &[100.0], 4);
        assert!(c.cut <= 1);
        // The GPU is 100× faster, so the single unit should stay there.
        assert_eq!(c.cut, 1);
    }

    #[test]
    fn measured_cut_handles_degenerate_inputs() {
        let empty = choose_cut_measured(&[], 0.0, &[], 4);
        assert_eq!(empty.cut, 0);
        assert_eq!(empty.predicted_gpu_s, 0.0);
        // Free CPU → everything moves off the GPU.
        let free_cpu =
            choose_cut_measured(&[vec![timing(1.0)], vec![timing(1.0)]], 0.0, &[0.0; 2], 4);
        assert_eq!(free_cpu.cut, 0);
        // Unafforable CPU → everything stays (ties prefer the larger cut).
        let dear_cpu =
            choose_cut_measured(&[vec![timing(1.0)], vec![timing(1.0)]], 0.0, &[1e9; 2], 4);
        assert_eq!(dear_cpu.cut, 2);
        // NaN costs are treated as zero, never propagated.
        let nan = choose_cut_measured(&[vec![timing(1.0)]], f64::NAN, &[f64::NAN], 4);
        assert!(nan.predicted_gpu_s.is_finite());
        assert!(nan.predicted_cpu_s.is_finite());
    }

    #[test]
    fn measured_cut_is_no_worse_than_any_forced_cut() {
        // Skewed GPU timings, flat CPU costs: the argmin must beat every
        // candidate cut evaluated with the same score — in particular the
        // all-GPU and all-CPU endpoints.
        let unit_timings: Vec<Vec<BatchTiming>> = [8.0, 4.0, 2.0, 1.0, 0.5, 0.25]
            .iter()
            .map(|&k| vec![timing(k)])
            .collect();
        let cpu_unit_s = [40.0, 20.0, 10.0, 5.0, 2.5, 1.25];
        let n = unit_timings.len();
        let chosen = choose_cut_measured(&unit_timings, 0.0, &cpu_unit_s, 4);
        let score = |cut: usize| {
            let timings: Vec<BatchTiming> = unit_timings[..cut].iter().flatten().copied().collect();
            let gpu = StreamPipeline::new(4).schedule(&timings).total_s;
            let cpu: f64 = cpu_unit_s[cut..].iter().sum();
            gpu.max(cpu)
        };
        let best = chosen.predicted_gpu_s.max(chosen.predicted_cpu_s);
        for cut in 0..=n {
            assert!(
                best <= score(cut) + 1e-12,
                "cut {} (score {}) beats chosen {} (score {best})",
                cut,
                score(cut),
                chosen.cut
            );
        }
        assert!(
            chosen.cut > 0 && chosen.cut < n,
            "skew should split interior"
        );
    }

    #[test]
    fn cpu_backend_cost_is_a_derated_fallback_cost() {
        let cost = GpuConfig::default().cost;
        let stats = CpuFallbackStats {
            queries: 10,
            distance_calcs: 50_000,
            pairs: 400,
        };
        let fallback_s = stats.model_seconds(2, &cost);
        let backend_s = cpu_backend_seconds(&stats, 2, &cost, 0);
        // Co-processing never beats owning the whole machine.
        assert!(backend_s >= fallback_s);
        // Dispatch overhead is charged per work item.
        let with_items = cpu_backend_seconds(&stats, 2, &cost, 8);
        assert!((with_items - backend_s - 8.0 * CPU_DISPATCH_S).abs() < 1e-15);
        // Throughput is finite, positive, and derated by the efficiency.
        let t = cpu_weight_throughput(2, &cost);
        let full = CpuModel::CYCLES_PER_S / cost.distance_op(2).cycles as f64;
        assert!(t > 0.0 && t < full);
    }

    #[test]
    fn gpu_throughput_is_positive_and_dimension_sensitive() {
        let gpu = GpuConfig::default();
        let d2 = gpu_weight_throughput(&gpu, 2);
        let d6 = gpu_weight_throughput(&gpu, 6);
        assert!(d2 > 0.0);
        assert!(d6 > 0.0);
        assert!(d2 > d6, "higher dims cost more cycles per weight");
    }

    #[test]
    fn par_map_is_order_preserving_and_jobs_invariant() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, items.clone(), |x| x * x + 1);
        for jobs in [2, 3, 8] {
            let parallel = par_map(jobs, items.clone(), |x| x * x + 1);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
        assert_eq!(serial[256], 256 * 256 + 1);
        let empty: Vec<u64> = par_map(4, Vec::<u64>::new(), |x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn cpu_only_policy_forces_the_full_fraction() {
        let p = HybridPolicy::cpu_only();
        assert_eq!(p.forced_cpu_fraction, Some(1.0));
        assert_eq!(HybridPolicy::default().forced_cpu_fraction, None);
        assert_eq!(HybridPolicy::default().with_jobs(0).jobs, 1);
    }
}
