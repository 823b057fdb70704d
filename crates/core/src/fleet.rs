//! Multi-device sharding: partitioning one batch plan across a
//! [`DeviceFleet`](warpsim::DeviceFleet).
//!
//! The paper's mitigations balance work *within* one GPU; this module
//! extends the same workload quantification (§III-B) *across* GPUs. The
//! executor plans the join once — exactly as it would for a single device —
//! and then cuts the plan's units (strided batches, or queue chunks of the
//! workload-sorted `D'`) into one contiguous region per device:
//!
//! - [`ShardStrategy::WorkloadAware`] cuts on **cumulative unit workload**
//!   (the summed per-point candidate counts, i.e. quantified distance
//!   calculations), equalizing total work per shard;
//! - [`ShardStrategy::EqualCount`] cuts on unit count — the naive baseline
//!   the scaling table compares against. On workload-sorted plans the first
//!   region then holds the heaviest units and dominates the makespan.
//!
//! Because the regions are contiguous in plan order and every launch inside
//! a region is parameterized exactly as the single-device executor would
//! parameterize it (a queue chunk pops from its device's counter, aimed at
//! the chunk's start), the concatenation of the shard results in device
//! order reproduces the single-device run bit for bit: same pairs in the
//! same order, same per-batch model times, same canonical report. What the
//! fleet *adds* is the per-device view: each shard gets its own stream
//! pipeline and fault accounting, and the fleet's **makespan** is the
//! maximum shard response time.

use std::ops::Range;

use warpsim::PipelineReport;

use crate::batching::BatchPlan;
use crate::executor::{DegradationReport, JoinReport};
use crate::result::ResultSet;

/// How plan units are divided among the fleet's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Cut contiguous regions on cumulative quantified workload, equalizing
    /// total distance calculations per shard (the default).
    #[default]
    WorkloadAware,
    /// Cut contiguous regions of (near-)equal unit count — the naive
    /// baseline.
    EqualCount,
}

impl ShardStrategy {
    /// Short stable name (used by CLI flags and telemetry).
    pub fn label(&self) -> &'static str {
        match self {
            ShardStrategy::WorkloadAware => "workload",
            ShardStrategy::EqualCount => "count",
        }
    }

    /// Parses a [`ShardStrategy::label`] name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "workload" => Some(ShardStrategy::WorkloadAware),
            "count" => Some(ShardStrategy::EqualCount),
            _ => None,
        }
    }
}

/// Quantified workload of every unit of a batch plan: the summed per-point
/// candidate counts of the unit's query points. `per_point` is indexed by
/// point id (as produced by
/// [`WorkloadProfile::per_point`](crate::WorkloadProfile::per_point)).
pub fn unit_workloads(plan: &BatchPlan, per_point: &[u64]) -> Vec<u64> {
    (0..plan.num_batches())
        .map(|u| {
            plan.unit_queries(u)
                .iter()
                .map(|&q| per_point[q as usize])
                .sum()
        })
        .collect()
}

/// Cuts `weights.len()` plan units into exactly `devices` contiguous
/// regions (some possibly empty, in unit order).
///
/// The workload-aware cut closes region `r` as soon as the cumulative
/// weight reaches `r+1` shares of the total, so each region's load lands as
/// close to `total / devices` as unit granularity allows; a zero total
/// falls back to the equal-count cut.
pub fn partition_units(
    weights: &[u64],
    devices: usize,
    strategy: ShardStrategy,
) -> Vec<Range<usize>> {
    partition_units_from_prefix(&inclusive_weight_prefix(weights), devices, strategy)
}

/// The inclusive cumulative-weight prefix over plan units
/// (`prefix[i] = weights[0] + … + weights[i]`, widened to `u128`): the
/// shared input of every contiguous cut over the unit list — the fleet's
/// [`partition_units_from_prefix`] regions and the hybrid co-executor's
/// GPU/CPU cut (see [`crate::hybrid::forced_cut`]).
pub fn inclusive_weight_prefix(weights: &[u64]) -> Vec<u128> {
    let mut acc: u128 = 0;
    weights
        .iter()
        .map(|&w| {
            acc += w as u128;
            acc
        })
        .collect()
}

/// [`partition_units`] from a precomputed inclusive weight prefix
/// (`prefix[i] = weights[0] + … + weights[i]`). The workload-aware cut
/// reads only the prefix, so both sort backends — the host fold and the
/// device exclusive-scan chain — select identical cut points by
/// construction.
pub fn partition_units_from_prefix(
    inclusive_prefix: &[u128],
    devices: usize,
    strategy: ShardStrategy,
) -> Vec<Range<usize>> {
    let devices = devices.max(1);
    let n = inclusive_prefix.len();
    let total: u128 = inclusive_prefix.last().copied().unwrap_or(0);
    let mut regions: Vec<Range<usize>> = Vec::with_capacity(devices);
    match strategy {
        ShardStrategy::WorkloadAware if total > 0 => {
            let mut start = 0usize;
            for (i, &acc) in inclusive_prefix.iter().enumerate() {
                let target = (total * (regions.len() as u128 + 1)).div_ceil(devices as u128);
                if acc >= target && regions.len() + 1 < devices {
                    regions.push(start..i + 1);
                    start = i + 1;
                }
            }
            regions.push(start..n);
        }
        _ => {
            let per = n.div_ceil(devices).max(1);
            let mut start = 0usize;
            while start < n && regions.len() + 1 < devices {
                regions.push(start..(start + per).min(n));
                start = (start + per).min(n);
            }
            regions.push(start..n);
        }
    }
    while regions.len() < devices {
        regions.push(n..n);
    }
    regions
}

/// One device's view of a fleet join.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The device that executed this shard (fleet index).
    pub device: u64,
    /// Contiguous plan-unit region *initially* assigned to this shard;
    /// recovery may move units in or out afterwards (see `reassigned_in` /
    /// `reassigned_out`).
    pub units: Range<usize>,
    /// Query points in the region.
    pub queries: usize,
    /// Quantified workload (summed candidate counts) of the region.
    pub workload: u64,
    /// Batches this shard executed (splits included).
    pub batches: usize,
    /// Result pairs this shard produced (GPU and CPU fallback).
    pub pairs: usize,
    /// This device's own stream-pipeline schedule.
    pub pipeline: PipelineReport,
    /// Fault-recovery accounting local to this shard; `None` when clean.
    pub degradation: Option<DegradationReport>,
    /// Shard response time: pipeline plus this shard's serial recovery
    /// (backoffs and CPU fallback), model seconds.
    pub response_time_s: f64,
    /// Work items this device received from failed shards.
    pub reassigned_in: usize,
    /// Work items this device handed off when it failed.
    pub reassigned_out: usize,
}

/// Health state transition of one device during fleet recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// The device latched `DeviceLost`; its remaining units were handed
    /// off.
    Lost,
    /// The device exhausted the transient retry budget; treated as unusable
    /// for the rest of the join.
    TransientExhausted,
    /// The device received re-sharded work from a failed peer.
    Reassigned,
}

impl DeviceHealth {
    /// Short stable name (used in telemetry and CLI output).
    pub fn label(&self) -> &'static str {
        match self {
            DeviceHealth::Lost => "lost",
            DeviceHealth::TransientExhausted => "transient_exhausted",
            DeviceHealth::Reassigned => "reassigned",
        }
    }
}

/// One entry of the fleet's chronological per-device health timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// The device whose health changed (fleet index).
    pub device: u64,
    /// The re-shard round in which the transition happened (round 0 is the
    /// initial assignment).
    pub round: u32,
    /// The new health state.
    pub state: DeviceHealth,
    /// Work items involved in the transition (handed off or received).
    pub units: usize,
}

/// Recovery accounting of a fleet join; all-default when the join ran
/// clean.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetRecoveryReport {
    /// Re-shard rounds actually spent (at most
    /// [`RecoveryPolicy::RESHARD_ROUNDS`](crate::RecoveryPolicy::RESHARD_ROUNDS)).
    pub reshard_rounds: u32,
    /// Total work items moved between devices by recovery.
    pub reassigned_units: usize,
    /// Devices that latched `DeviceLost` or exhausted their transient
    /// budget.
    pub devices_lost: usize,
    /// Query points that ended on the exact CPU last resort.
    pub cpu_last_resort_points: usize,
    /// Result pairs produced by the CPU last resort.
    pub cpu_last_resort_pairs: u64,
    /// Serial host cost of the CPU last resort, model seconds.
    pub cpu_last_resort_model_s: f64,
    /// Chronological per-device health timeline.
    pub health: Vec<HealthEvent>,
}

impl FleetRecoveryReport {
    /// Whether recovery intervened at all.
    pub fn intervened(&self) -> bool {
        self.reshard_rounds > 0
            || self.devices_lost > 0
            || self.cpu_last_resort_points > 0
            || !self.health.is_empty()
    }
}

/// The fleet-level breakdown of a multi-device join.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The partitioning strategy that cut the shards.
    pub strategy: ShardStrategy,
    /// Per-device shard reports, in device order.
    pub shards: Vec<ShardReport>,
    /// Fleet makespan: the maximum shard response time plus any serial CPU
    /// last resort, model seconds — the wall-clock of the join when the
    /// devices run concurrently.
    pub makespan_s: f64,
    /// Failover accounting; all-default when the join ran clean.
    pub recovery: FleetRecoveryReport,
}

impl FleetReport {
    /// Ratio of the heaviest shard's quantified workload to the mean — 1.0
    /// is a perfect cut. Degenerate fleets (no shards, or only
    /// empty-region shards) report 1.0: there is no imbalance without
    /// work.
    pub fn workload_imbalance(&self) -> f64 {
        let loads: Vec<f64> = self.shards.iter().map(|s| s.workload as f64).collect();
        if loads.is_empty() {
            return 1.0;
        }
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if !mean.is_finite() || mean <= 0.0 {
            return 1.0;
        }
        loads.iter().copied().fold(0.0_f64, f64::max) / mean
    }

    /// Jain's fairness index over per-shard response times:
    /// `(Σx)² / (n · Σx²)`. 1.0 means every device finished at the same
    /// instant; `1/n` means one device did everything. Idle (zero-response)
    /// shards count toward `n`, so over-provisioned fleets read as unfair —
    /// which they are. Degenerate fleets (no shards, or no work at all)
    /// report 1.0.
    pub fn jain_fairness(&self) -> f64 {
        let times: Vec<f64> = self.shards.iter().map(|s| s.response_time_s).collect();
        let sum: f64 = times.iter().sum();
        let sum_sq: f64 = times.iter().map(|t| t * t).sum();
        if times.is_empty() || !sum.is_finite() || sum <= 0.0 || sum_sq <= 0.0 {
            return 1.0;
        }
        (sum * sum) / (times.len() as f64 * sum_sq)
    }
}

/// A fleet join's outcome: the merged pair set, the canonical
/// (device-count-invariant) join report, and the per-device breakdown.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The exact self-join result, merged in plan (input) order.
    pub result: ResultSet,
    /// Canonical report: bit-identical to the single-device
    /// [`SelfJoin::run`](crate::SelfJoin::run) on a clean homogeneous
    /// fleet, regardless of device count.
    pub report: JoinReport,
    /// The per-device breakdown and makespan.
    pub fleet: FleetReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_partition_equalizes_shares() {
        // Heaviest-first weights, as a workload-sorted queue plan produces.
        let weights = vec![100, 80, 40, 30, 20, 10, 10, 10];
        let regions = partition_units(&weights, 3, ShardStrategy::WorkloadAware);
        assert_eq!(regions.len(), 3);
        // Coverage: contiguous, disjoint, complete.
        let mut expected_start = 0;
        for r in &regions {
            assert_eq!(r.start, expected_start);
            expected_start = r.end;
        }
        assert_eq!(expected_start, weights.len());
        let load = |r: &Range<usize>| -> u64 { weights[r.clone()].iter().sum() };
        let loads: Vec<u64> = regions.iter().map(load).collect();
        let max = *loads.iter().max().unwrap();
        // Equal-count would put 100+80+40 = 220 of the 300 total in the
        // first region; the workload cut must do strictly better.
        let naive = partition_units(&weights, 3, ShardStrategy::EqualCount);
        let naive_max = naive.iter().map(load).max().unwrap();
        assert!(max < naive_max, "workload cut {max} vs naive {naive_max}");
        assert!(
            max <= 180,
            "no share should exceed ~total/devices + one unit"
        );
    }

    #[test]
    fn equal_count_partition_is_contiguous_and_complete() {
        let weights = vec![1u64; 10];
        let regions = partition_units(&weights, 4, ShardStrategy::EqualCount);
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[0], 0..3);
        assert_eq!(regions[3], 9..10);
        let covered: usize = regions.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn single_device_gets_everything() {
        for strategy in [ShardStrategy::WorkloadAware, ShardStrategy::EqualCount] {
            let regions = partition_units(&[5, 5, 5], 1, strategy);
            assert_eq!(regions, vec![0..3]);
        }
    }

    #[test]
    fn more_devices_than_units_pads_empty_regions() {
        let regions = partition_units(&[7, 3], 4, ShardStrategy::WorkloadAware);
        assert_eq!(regions.len(), 4);
        assert_eq!(regions.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert!(regions[2].is_empty() && regions[3].is_empty());
        let naive = partition_units(&[7, 3], 4, ShardStrategy::EqualCount);
        assert_eq!(naive.len(), 4);
        assert_eq!(naive.iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn zero_total_workload_falls_back_to_count() {
        let regions = partition_units(&[0, 0, 0, 0], 2, ShardStrategy::WorkloadAware);
        assert_eq!(regions, vec![0..2, 2..4]);
    }

    #[test]
    fn empty_plan_yields_empty_regions() {
        let regions = partition_units(&[], 3, ShardStrategy::WorkloadAware);
        assert_eq!(regions, vec![0..0, 0..0, 0..0]);
    }

    #[test]
    fn unit_workloads_cover_both_plan_kinds() {
        let per_point = vec![10u64, 20, 30, 40];
        let strided = BatchPlan::Strided {
            batches: vec![vec![0, 2], vec![1, 3]],
        };
        assert_eq!(unit_workloads(&strided, &per_point), vec![40, 60]);
        let queue = BatchPlan::Queue {
            order: vec![3, 2, 1, 0],
            chunks: vec![0..1, 1..3, 3..4],
        };
        assert_eq!(unit_workloads(&queue, &per_point), vec![40, 50, 10]);
    }

    fn empty_pipeline() -> PipelineReport {
        PipelineReport {
            total_s: 0.0,
            kernel_busy_s: 0.0,
            transfer_busy_s: 0.0,
            kernel_starts: Vec::new(),
            transfer_ends: Vec::new(),
            streams: 1,
        }
    }

    fn shard(device: u64, workload: u64, response_time_s: f64) -> ShardReport {
        ShardReport {
            device,
            units: 0..0,
            queries: 0,
            workload,
            batches: 0,
            pairs: 0,
            pipeline: empty_pipeline(),
            degradation: None,
            response_time_s,
            reassigned_in: 0,
            reassigned_out: 0,
        }
    }

    fn report(shards: Vec<ShardReport>) -> FleetReport {
        FleetReport {
            strategy: ShardStrategy::WorkloadAware,
            shards,
            makespan_s: 0.0,
            recovery: FleetRecoveryReport::default(),
        }
    }

    #[test]
    fn workload_imbalance_guards_degenerate_fleets() {
        // 0-shard fleet: no work, no imbalance.
        assert_eq!(report(Vec::new()).workload_imbalance(), 1.0);
        // All shards empty-regioned (more devices than units): the old
        // fold(f64::MIN, max) seed must not leak.
        let idle = report(vec![shard(0, 0, 0.0), shard(1, 0, 0.0)]);
        assert_eq!(idle.workload_imbalance(), 1.0);
        assert!(idle.workload_imbalance().is_finite());
        // Lost-device-only report: the surviving accounting may carry zero
        // workload on every shard yet a degradation on one of them.
        let mut lost = shard(0, 0, 3.0);
        lost.degradation = Some(DegradationReport {
            batches_salvaged: 0,
            points_degraded: 10,
            cpu_pairs: 4,
            cpu_model_s: 3.0,
            transient_retries: 0,
            overflow_splits: 0,
            counter_retries: 0,
            transfer_stalls: 0,
            backoff_s: 0.0,
            device_lost: true,
        });
        let r = report(vec![lost]);
        assert_eq!(r.workload_imbalance(), 1.0);
        // A real imbalance still reads through.
        let skewed = report(vec![shard(0, 30, 0.0), shard(1, 10, 0.0)]);
        assert_eq!(skewed.workload_imbalance(), 1.5);
    }

    #[test]
    fn jain_fairness_reads_response_spread() {
        // Perfectly fair fleet.
        let fair = report(vec![shard(0, 1, 2.0), shard(1, 1, 2.0)]);
        assert!((fair.jain_fairness() - 1.0).abs() < 1e-12);
        // One device does everything: J = 1/n.
        let unfair = report(vec![
            shard(0, 1, 4.0),
            shard(1, 0, 0.0),
            shard(2, 0, 0.0),
            shard(3, 0, 0.0),
        ]);
        assert!((unfair.jain_fairness() - 0.25).abs() < 1e-12);
        // Degenerate fleets are defined as fair.
        assert_eq!(report(Vec::new()).jain_fairness(), 1.0);
        assert_eq!(report(vec![shard(0, 0, 0.0)]).jain_fairness(), 1.0);
    }

    #[test]
    fn recovery_report_default_is_clean() {
        let r = FleetRecoveryReport::default();
        assert!(!r.intervened());
        assert_eq!(r.reshard_rounds, 0);
        let mut touched = r.clone();
        touched.reshard_rounds = 1;
        assert!(touched.intervened());
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [ShardStrategy::WorkloadAware, ShardStrategy::EqualCount] {
            assert_eq!(ShardStrategy::by_name(s.label()), Some(s));
        }
        assert_eq!(ShardStrategy::by_name("nonsense"), None);
        assert_eq!(ShardStrategy::default(), ShardStrategy::WorkloadAware);
    }
}
