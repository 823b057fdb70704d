//! Host-side orchestration: index → estimate → batch plan → kernels → result.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::PoisonError;

use epsgrid::{GridBuildError, GridIndex, Point};
use sj_telemetry::{Event, Stopwatch, Telemetry, Value};
use warpsim::{
    launch_with, BatchTiming, CoopGroups, CounterFault, DeviceBuffer, DeviceCounter, DeviceFleet,
    FaultPlane, GpuConfig, LaunchError, LaunchOptions, LaunchReport, PipelineReport,
    StreamPipeline, WarpExecution, WarpStatsSummary,
};

use crate::batching::{
    buffer_capacity_for, estimate_prefix, estimate_strided, inclusive_workload_prefix,
    num_batches_for, plan_queue, plan_queue_balanced_from_prefix, plan_strided, BatchPlan,
    BatchingConfig, ResultEstimate,
};
use crate::config::{Balancing, RecoveryPolicy, RetryPolicy, SelfJoinConfig, SortBackend};
use crate::device_prepass::{DevicePrepass, PrePassReport};
use crate::fallback::{cpu_join_queries, CpuFallbackStats};
use crate::fleet::{
    partition_units, partition_units_from_prefix, unit_workloads, FleetOutcome, FleetReport,
    ShardReport, ShardStrategy,
};
use crate::hybrid::{
    choose_cut_measured, cpu_backend_seconds, cpu_weight_throughput, forced_cut,
    gpu_weight_throughput, HybridOutcome, HybridPolicy, HybridReport, CPU_DISPATCH_S,
};
use crate::kernels::{Assignment, JoinKernelSource, ResolvedPatterns};
use crate::result::{same_pair_multiset, ResultSet};
use crate::workload::{expand_cell_order, WorkloadProfile};

/// Errors from configuring or running a self-join.
#[derive(Debug)]
pub enum JoinError {
    /// The requested ε is NaN, infinite, or not strictly positive.
    Epsilon(crate::config::EpsilonError),
    /// The grid index could not be built.
    Grid(GridBuildError),
    /// `k` does not partition the warp size.
    InvalidK(warpsim::coop::CoopError),
    /// A batch kernel overflowed its result buffer — the batch plan failed
    /// its core guarantee (e.g. the sample under-estimated badly).
    Launch(LaunchError),
    /// The device fleet cannot execute this join (no devices, or a device
    /// whose configuration is incompatible with the configured kernels).
    Fleet(String),
    /// The hybrid co-processing differential check failed: a CPU-computed
    /// segment disagrees with the GPU segment it was about to replace. The
    /// two backends must produce the same exact pair set per plan unit;
    /// surfacing the divergence as a typed error (instead of silently
    /// preferring either side) is the co-executor's core test contract.
    Hybrid(String),
    /// A maintained index handed to [`SelfJoin::with_maintained_index`] was
    /// not built over the join's points at the join's ε.
    StaleIndex(String),
    /// The dataset's dimensionality has no instantiated kernels (see
    /// [`crate::DIMS`]).
    Dimensionality(usize),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Epsilon(e) => write!(f, "{e}"),
            JoinError::Grid(e) => write!(f, "grid index construction failed: {e}"),
            JoinError::InvalidK(e) => write!(f, "invalid thread granularity: {e}"),
            JoinError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            JoinError::Fleet(msg) => write!(f, "fleet configuration error: {msg}"),
            JoinError::Hybrid(msg) => {
                write!(f, "hybrid co-processing differential check failed: {msg}")
            }
            JoinError::StaleIndex(msg) => write!(f, "stale maintained index: {msg}"),
            JoinError::Dimensionality(d) => write!(
                f,
                "unsupported dimensionality {d} ({}–{})",
                crate::DIMS.start(),
                crate::DIMS.end()
            ),
        }
    }
}

impl std::error::Error for JoinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JoinError::Epsilon(e) => Some(e),
            JoinError::Grid(e) => Some(e),
            JoinError::InvalidK(e) => Some(e),
            JoinError::Launch(e) => Some(e),
            JoinError::Fleet(_)
            | JoinError::Hybrid(_)
            | JoinError::StaleIndex(_)
            | JoinError::Dimensionality(_) => None,
        }
    }
}

impl JoinError {
    /// Whether the join failed while executing — a launch or
    /// differential-check failure — rather than while being configured or
    /// indexed. Execution failures are the outcomes a fault-injection run
    /// may legitimately end in.
    pub fn is_execution(&self) -> bool {
        matches!(self, JoinError::Launch(_) | JoinError::Hybrid(_))
    }
}

impl From<GridBuildError> for JoinError {
    fn from(e: GridBuildError) -> Self {
        JoinError::Grid(e)
    }
}

impl From<crate::config::EpsilonError> for JoinError {
    fn from(e: crate::config::EpsilonError) -> Self {
        JoinError::Epsilon(e)
    }
}

/// Per-batch execution record.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The kernel launch outcome.
    pub launch: LaunchReport,
    /// Result pairs produced by this batch.
    pub pairs: usize,
    /// Kernel time in model seconds.
    pub kernel_s: f64,
    /// Device-to-host transfer time in model seconds.
    pub transfer_s: f64,
}

/// What the resilient executor had to do to finish a join under faults.
///
/// Present on [`JoinReport::degradation`] only when at least one fault,
/// retry, split, or stall occurred — a clean run reports `None` and is
/// bit-identical to a run without a fault plane attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// GPU batches that completed and were salvaged.
    pub batches_salvaged: usize,
    /// Query points completed by the exact CPU fallback join.
    pub points_degraded: usize,
    /// Result pairs produced by the CPU fallback.
    pub cpu_pairs: u64,
    /// Model seconds spent in the CPU fallback.
    pub cpu_model_s: f64,
    /// Transient launch failures that were retried.
    pub transient_retries: u32,
    /// Batch splits performed after result-buffer overflows.
    pub overflow_splits: u32,
    /// Queue-counter faults detected, repaired, and re-run.
    pub counter_retries: u32,
    /// Device-to-host transfer stalls absorbed into transfer time.
    pub transfer_stalls: u32,
    /// Host backoff plus wasted kernel time of discarded corrupted
    /// launches, model seconds (outside the stream pipeline).
    pub backoff_s: f64,
    /// Whether the device was lost permanently mid-join.
    pub device_lost: bool,
}

impl DegradationReport {
    /// Whether the exact CPU fallback actually completed query points —
    /// as opposed to a recovery that stayed entirely on-device (retries,
    /// splits, or fleet re-sharding).
    pub fn cpu_fallback_ran(&self) -> bool {
        self.points_degraded > 0
    }
}

/// Aggregate report of a full self-join execution.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Result-size estimate that sized the batch plan.
    pub estimate: ResultEstimate,
    /// Number of batches executed.
    pub num_batches: usize,
    /// Per-batch records.
    pub batches: Vec<BatchReport>,
    /// Multi-stream pipeline schedule of the batches.
    pub pipeline: PipelineReport,
    /// Accumulated warp counters across all batches.
    pub totals: WarpExecution,
    /// Total result pairs.
    pub total_pairs: usize,
    /// Fault-recovery accounting; `None` when the run was clean.
    pub degradation: Option<DegradationReport>,
    /// Device sort/scan pre-pass accounting; `None` under the default
    /// [`SortBackend::Host`]. Pre-pass model seconds are reported here and
    /// in telemetry only — [`JoinReport::response_time_s`] stays
    /// backend-invariant so recorded tables never depend on the backend.
    pub prepass: Option<PrePassReport>,
}

impl JoinReport {
    /// Warp execution efficiency across the whole join, in `[0, 1]`.
    pub fn wee(&self) -> f64 {
        self.totals.efficiency()
    }

    /// End-to-end response time in model seconds: kernels + exposed
    /// transfers under the stream pipeline, plus (for faulted runs) retry
    /// backoffs and the CPU fallback time, which happen serially on the
    /// host and cannot overlap the pipeline.
    pub fn response_time_s(&self) -> f64 {
        let recovery_s = self
            .degradation
            .as_ref()
            .map_or(0.0, |d| d.backoff_s + d.cpu_model_s);
        self.pipeline.total_s + recovery_s
    }

    /// Sum of kernel times (no transfers), model seconds.
    pub fn kernel_time_s(&self) -> f64 {
        self.batches.iter().map(|b| b.kernel_s).sum()
    }

    /// Total distance calculations performed.
    pub fn distance_calcs(&self) -> u64 {
        self.totals.lane_ops_by_kind[warpsim::OpKind::Distance.index()]
    }

    /// Per-warp duration summary pooled over all batches.
    pub fn warp_stats(&self) -> Option<WarpStatsSummary> {
        let all: Vec<u64> = self
            .batches
            .iter()
            .flat_map(|b| b.launch.warp_cycles.iter().copied())
            .collect();
        WarpStatsSummary::from_durations(&all)
    }
}

/// A join's outcome: the pair set and the execution report.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// The self-join result.
    pub result: ResultSet,
    /// Timing and efficiency report.
    pub report: JoinReport,
}

/// A configured self-join over a dataset.
///
/// Construction builds the ε-grid index and resolves the access pattern;
/// [`SelfJoin::run`] executes the batched kernels on the simulated GPU.
pub struct SelfJoin<'a, const N: usize> {
    points: &'a [Point<N>],
    config: SelfJoinConfig,
    grid: GridIndex<N>,
    resolved: ResolvedPatterns,
    profile: Option<WorkloadProfile>,
    telemetry: &'a dyn Telemetry,
    fault: Option<&'a FaultPlane>,
    index_build_ns: u64,
    profile_ns: u64,
}

impl<const N: usize> std::fmt::Debug for SelfJoin<'_, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfJoin")
            .field("points", &self.points.len())
            .field("config", &self.config)
            .field("grid", &self.grid)
            .field("resolved", &self.resolved)
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

impl<'a, const N: usize> SelfJoin<'a, N> {
    /// Indexes `points` and prepares the kernels described by `config`.
    pub fn new(points: &'a [Point<N>], config: SelfJoinConfig) -> Result<Self, JoinError> {
        crate::config::validate_epsilon(config.epsilon)?;
        CoopGroups::new(config.gpu.warp_size, config.k).map_err(JoinError::InvalidK)?;
        let sw_index = Stopwatch::start();
        let grid = GridIndex::build(points, config.epsilon)?;
        let index_build_ns = sw_index.elapsed_ns();
        Self::with_built_grid(points, config, grid, None, index_build_ns)
    }

    /// Prepares a join over an **already built** index — the serve path's
    /// amortization seam: a maintained [`epsgrid::DynamicGrid`] hands its
    /// index (and optionally its incrementally re-quantified per-cell
    /// workloads) straight to the executor, skipping the per-request index
    /// build and full workload quantification.
    ///
    /// The grid must have been built over exactly `points` at
    /// `config.epsilon` (bit-equal); mismatches are rejected as
    /// [`JoinError::StaleIndex`] rather than silently joining against a
    /// stale index.
    pub fn with_maintained_index(
        points: &'a [Point<N>],
        config: SelfJoinConfig,
        grid: GridIndex<N>,
        per_cell_workload: Option<&[u64]>,
    ) -> Result<Self, JoinError> {
        crate::config::validate_epsilon(config.epsilon)?;
        CoopGroups::new(config.gpu.warp_size, config.k).map_err(JoinError::InvalidK)?;
        if grid.epsilon().to_bits() != config.epsilon.to_bits() || grid.num_points() != points.len()
        {
            return Err(JoinError::StaleIndex(format!(
                "maintained index covers {} points at eps {} but the join has {} points at eps {}",
                grid.num_points(),
                grid.epsilon(),
                points.len(),
                config.epsilon
            )));
        }
        Self::with_built_grid(points, config, grid, per_cell_workload, 0)
    }

    fn with_built_grid(
        points: &'a [Point<N>],
        config: SelfJoinConfig,
        grid: GridIndex<N>,
        per_cell_workload: Option<&[u64]>,
        index_build_ns: u64,
    ) -> Result<Self, JoinError> {
        let resolved = ResolvedPatterns::compute(&grid, config.pattern);
        let sw_profile = Stopwatch::start();
        let profile = match config.balancing {
            Balancing::None => None,
            Balancing::SortByWorkload | Balancing::WorkQueue => {
                // Prefer the maintained per-cell quantification; fall back to
                // computing from scratch if it does not line up with the grid.
                per_cell_workload
                    .and_then(|pc| WorkloadProfile::from_per_cell(&grid, pc))
                    .or_else(|| Some(WorkloadProfile::compute(&grid)))
            }
        };
        let profile_ns = sw_profile.elapsed_ns();
        Ok(Self {
            points,
            config,
            grid,
            resolved,
            profile,
            telemetry: &sj_telemetry::NULL,
            fault: None,
            index_build_ns,
            profile_ns,
        })
    }

    /// Attaches a telemetry sink receiving the executor's phase timers,
    /// estimator-accuracy and overflow-recovery events, plus the per-launch
    /// spans from `warpsim`. Observation only: the sink never changes pair
    /// sets, cycle counts, or model seconds.
    pub fn with_telemetry(mut self, telemetry: &'a dyn Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a fault-injection plane: every kernel launch is admitted
    /// through it, and host-side injections (counter bumps, transfer
    /// stalls) are consumed around launches. Without a plane — or with an
    /// empty schedule — execution is bit-identical to the fault-free path.
    pub fn with_fault_plane(mut self, plane: &'a FaultPlane) -> Self {
        self.fault = Some(plane);
        self
    }

    /// The grid index (for inspection).
    pub fn grid(&self) -> &GridIndex<N> {
        &self.grid
    }

    /// The configuration.
    pub fn config(&self) -> &SelfJoinConfig {
        &self.config
    }

    /// The workload profile, if the balancing strategy required one.
    pub fn profile(&self) -> Option<&WorkloadProfile> {
        self.profile.as_ref()
    }

    /// Mean candidate count per query point (the average refine-step
    /// workload).
    pub fn mean_candidates(&self) -> f64 {
        let total: u128 = (0..self.grid.num_cells())
            .map(|ci| {
                self.grid.window_candidate_count(ci) as u128
                    * self.grid.cell_points(ci).len() as u128
            })
            .sum();
        total as f64 / self.grid.num_points() as f64
    }

    /// Recommends a thread granularity `k` from the dataset's workload.
    ///
    /// The paper evaluates only `k = 1` vs `k = 8` and observes that high
    /// granularity pays off when query points carry large candidate sets
    /// (Expo2D at large ε) but wastes warps when per-point work is small
    /// (Unif6D at any ε). This heuristic encodes that observation: the
    /// recommended `k` grows with the mean candidate count so that each
    /// lane still keeps a few dozen distance calculations.
    pub fn recommended_k(&self) -> u32 {
        let mean = self.mean_candidates();
        if mean < 64.0 {
            1
        } else if mean < 192.0 {
            2
        } else if mean < 512.0 {
            4
        } else {
            8
        }
    }

    /// Builds the batch plan (exposed for tests and benches).
    pub fn plan(&self) -> (ResultEstimate, BatchPlan) {
        let (estimate, plan, _) = self.plan_with();
        (estimate, plan)
    }

    /// The pre-pass driver for [`SortBackend::Device`], or `None` under the
    /// host backend.
    fn device_prepass(&self) -> Option<DevicePrepass<'_>> {
        match self.config.sort_backend {
            SortBackend::Host => None,
            SortBackend::Device => Some(DevicePrepass::new(
                &self.config.gpu,
                self.config.step_mode,
                self.config.resolved_host_jobs(),
                self.fault,
                self.telemetry,
            )),
        }
    }

    /// Builds the batch plan. Under [`SortBackend::Device`] the SORTBYWL
    /// sorts, the WORKQUEUE cell ordering, and the balanced-queue prefix
    /// sum run as warp-kernel chains; the returned plan is bit-identical to
    /// the host backend's (the primitives match the host oracles exactly,
    /// and a faulted pre-pass degrades to the host path), with the chains'
    /// cost accounting in the third tuple slot.
    fn plan_with(&self) -> (ResultEstimate, BatchPlan, Option<PrePassReport>) {
        let c = &self.config;
        let mut prepass = self.device_prepass();
        match c.balancing {
            Balancing::None | Balancing::SortByWorkload => {
                let estimate = estimate_strided(
                    &self.grid,
                    self.points,
                    c.epsilon,
                    c.batching.sample_fraction,
                );
                let nb = num_batches_for(&estimate, &c.batching);
                let plan = match (&mut prepass, self.profile.as_ref()) {
                    (Some(pp), Some(profile)) => {
                        let mut plan = plan_strided(self.points.len(), nb, None);
                        if let BatchPlan::Strided { batches } = &mut plan {
                            for batch in batches.iter_mut() {
                                if !pp.sort_by_workload(profile.per_point(), batch, "sortbywl") {
                                    profile.sort_by_workload(batch);
                                }
                            }
                        }
                        plan
                    }
                    _ => plan_strided(self.points.len(), nb, self.profile.as_ref()),
                };
                (estimate, plan, prepass.map(|pp| pp.stats))
            }
            Balancing::WorkQueue => {
                // Construction always attaches a profile for WorkQueue, but a
                // missing one (a constructor slip at a request boundary)
                // degrades to an on-the-spot quantification instead of
                // panicking mid-request.
                let computed;
                let profile = match self.profile.as_ref() {
                    Some(p) => p,
                    None => {
                        computed = WorkloadProfile::compute(&self.grid);
                        &computed
                    }
                };
                let order = prepass
                    .as_mut()
                    .and_then(|pp| pp.cell_order(profile.per_cell(), "workqueue_order"))
                    .map(|cells| expand_cell_order(&self.grid, &cells))
                    .unwrap_or_else(|| profile.sorted_dataset(&self.grid));
                let estimate = estimate_prefix(
                    &self.grid,
                    self.points,
                    c.epsilon,
                    c.batching.sample_fraction,
                    &order,
                );
                let nb = num_batches_for(&estimate, &c.batching);
                let plan = if c.batching.balanced_queue {
                    let values: Vec<u64> = order
                        .iter()
                        .map(|&pid| profile.per_point()[pid as usize])
                        .collect();
                    let prefix = prepass
                        .as_mut()
                        .and_then(|pp| pp.inclusive_prefix(&values, "queue_cut"))
                        .unwrap_or_else(|| inclusive_workload_prefix(&order, profile.per_point()));
                    plan_queue_balanced_from_prefix(order, &prefix, nb)
                } else {
                    plan_queue(order, nb)
                };
                (estimate, plan, prepass.map(|pp| pp.stats))
            }
        }
    }

    /// Executes the join with per-batch fault recovery.
    ///
    /// Completed batches are always salvaged. A batch that overflows its
    /// result buffer is split in two and the halves retried (bounded by
    /// [`RetryPolicy::MAX_OVERFLOW_SPLITS`]); transient launch failures are
    /// re-submitted under geometric backoff; a queue chunk whose device
    /// counter does not land exactly on the chunk boundary is discarded,
    /// the counter repaired, and the chunk re-run statically; and after
    /// persistent device failure the remaining query points complete on the
    /// exact CPU fallback join — the returned pair set is brute-force
    /// identical in every recovered outcome.
    pub fn run(&self) -> Result<JoinOutcome, JoinError> {
        let planned = self.plan_join();
        let (mut exec, mut ledger, mut done) = self.execute_plan(&planned)?;
        self.degrade(&mut exec, &mut done, None, &planned.plan, &mut ledger);
        Ok(self.finish(planned, ledger, done, exec.recovery, exec.gather_ns))
    }

    /// Executes the join sharded across a [`DeviceFleet`].
    ///
    /// The join is planned **once**, exactly as [`SelfJoin::run`] plans it;
    /// the plan's units are then cut into one contiguous region per device
    /// by `strategy` (see [`crate::fleet`]) and each region executes on its
    /// own device — own queue head, own result buffer, own stream pipeline,
    /// own fault plane. Per-batch launches are parameterized identically to
    /// the single-device run, so on a clean homogeneous fleet the merged
    /// pair set and the canonical [`FleetOutcome::report`] are bit-identical
    /// to [`SelfJoin::run`] for **any** device count; the fleet adds the
    /// per-shard breakdown and the makespan (maximum shard response time).
    ///
    /// Faults are per-device (attach schedules via
    /// [`DeviceFleet::with_fault_schedule`]): the unexecuted remainder of a
    /// device lost mid-shard is re-sharded onto the survivors, or under
    /// [`RecoveryPolicy::Degrade`] finished on the exact CPU fallback, and
    /// the merged join stays exact. One difference from the single-device
    /// executor under faults: the overflow-split and retry budgets of
    /// [`RetryPolicy`] apply **per shard**, since each device
    /// recovers independently.
    pub fn run_on_fleet(
        &self,
        fleet: &DeviceFleet,
        strategy: ShardStrategy,
    ) -> Result<FleetOutcome, JoinError> {
        let c = &self.config;
        if fleet.is_empty() {
            return Err(JoinError::Fleet("fleet has no devices".into()));
        }
        for dev in fleet.iter() {
            if dev.gpu().warp_size != c.gpu.warp_size {
                return Err(JoinError::Fleet(format!(
                    "device {} warp size {} differs from the configured {} \
                     (a heterogeneous warp width would change the coop-group \
                     layout per shard)",
                    dev.id(),
                    dev.gpu().warp_size,
                    c.gpu.warp_size
                )));
            }
        }
        let telemetry_on = self.telemetry.is_enabled();
        let planned = self.plan_join();
        let plan = &planned.plan;
        let profile = self.cut_profile();
        let per_point = profile.per_point();
        let weights = unit_workloads(plan, per_point);
        let regions = self.partition_for_fleet(&weights, fleet.len(), strategy);
        // Quantified workload of a re-shardable work item: planned units
        // reuse the cut weights, carried-over query sets re-sum per point.
        let item_weight = |it: &WorkItem| -> u64 {
            match &it.queries {
                Some(qs) => qs.iter().map(|&q| per_point[q as usize]).sum(),
                None => weights[it.unit],
            }
        };

        let mut states: Vec<DeviceState> =
            (0..fleet.len()).map(|_| DeviceState::default()).collect();
        let mut rec = crate::fleet::FleetRecoveryReport::default();
        let mut ledger = Ledger::default();
        let mut cpu_done: Vec<DoneItem> = Vec::new();
        let mut gather_ns: u64 = 0;
        let mut round: u32 = 0;

        // Round 0: the initial per-region assignment.
        let mut region_queries: Vec<usize> = Vec::with_capacity(fleet.len());
        let mut region_workloads: Vec<u64> = Vec::with_capacity(fleet.len());
        let mut assignment: Vec<(usize, Vec<WorkItem>)> = Vec::with_capacity(fleet.len());
        for (d, region) in regions.iter().enumerate() {
            let queries: usize = region.clone().map(|u| plan.unit_queries(u).len()).sum();
            let workload: u64 = weights[region.clone()].iter().sum();
            if telemetry_on {
                self.telemetry.record(
                    Event::new("executor.fleet", "shard_plan")
                        .u64("device", d as u64)
                        .u64("first_unit", region.start as u64)
                        .u64("units", region.len() as u64)
                        .u64("queries", queries as u64)
                        .u64("workload", workload)
                        .str("strategy", strategy.label()),
                );
            }
            region_queries.push(queries);
            region_workloads.push(workload);
            assignment.push((d, region.clone().map(WorkItem::planned).collect()));
        }

        // The recovery loop: execute the current assignment. Under
        // `Degrade` a failed shard finishes its own remainder on the CPU;
        // under `Reshard` whatever interrupted shards left behind is re-cut
        // onto survivors, bounded by the round budget, with the CPU as the
        // last resort.
        loop {
            let mut leftovers: Vec<WorkItem> = Vec::new();
            // Execute this round's shard assignments concurrently on the
            // host pool: every device owns its queue counter and fault
            // plane, so per-device execution is independent. Each device's
            // event stream is captured into its own buffer and spliced in
            // device (assignment) order below; all result merging stays
            // serial in that same order, so the outcome is bit-identical
            // to executing the devices one after another.
            let round_assignment: Vec<(usize, Vec<WorkItem>)> = std::mem::take(&mut assignment)
                .into_iter()
                .filter(|(_, items)| !items.is_empty())
                .collect();
            let execs =
                crate::pool::par_map(c.resolved_host_jobs(), round_assignment, |(d, items)| {
                    let device = fleet.device(d);
                    let ctx = ShardCtx {
                        planned: &planned,
                        device: Some(d as u64),
                        gpu: device.gpu(),
                        fault: device.fault_plane(),
                        counter: device.counter(),
                    };
                    let buffer = EventBuffer::new(telemetry_on);
                    let res = self.execute_units(&items, &ctx, &buffer);
                    (d, items, buffer, res)
                });
            for (d, items, buffer, res) in execs {
                buffer.splice_into(self.telemetry, 0, 0);
                // A typed error surfaces after the failing device's own
                // partial events, exactly as in the serial walk; later
                // devices' buffers are dropped unseen.
                let mut exec = res?;
                gather_ns += exec.gather_ns;
                let mut done = ledger.checkpoint(&mut exec, &items);
                if c.recovery == RecoveryPolicy::Degrade {
                    let device = Some((d as u64, fleet.device(d).gpu()));
                    self.degrade(&mut exec, &mut done, device, plan, &mut ledger);
                }
                let state = &mut states[d];
                if let Some(intr) = exec.interruption.take() {
                    let device_lost = exec.recovery.device_lost;
                    state.failed = true;
                    state.reassigned_out += intr.remnants.len();
                    rec.devices_lost += 1;
                    rec.health.push(crate::fleet::HealthEvent {
                        device: d as u64,
                        round,
                        state: if device_lost {
                            crate::fleet::DeviceHealth::Lost
                        } else {
                            crate::fleet::DeviceHealth::TransientExhausted
                        },
                        units: intr.remnants.len(),
                    });
                    if telemetry_on {
                        self.telemetry.record(
                            Event::new("fleet", "device_lost")
                                .u64("device", d as u64)
                                .u64("round", round as u64)
                                .u64("remnant_units", intr.remnants.len() as u64)
                                .bool("device_lost", device_lost),
                        );
                    }
                    leftovers.extend(intr.remnants);
                }
                state.recovery.merge(&exec.recovery);
                state.done.extend(done);
            }
            if leftovers.is_empty() {
                break;
            }

            let mut survivors: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.failed)
                .map(|(d, _)| d)
                .collect();
            if survivors.is_empty() || rec.reshard_rounds >= RecoveryPolicy::RESHARD_ROUNDS {
                // The exact CPU last resort: one pair segment per remnant
                // item, so the canonical merge can interleave CPU-completed
                // units with GPU-completed units in plan order.
                let sw_cpu = Stopwatch::start();
                let (segments, stats) = total(self.cpu_join_items(
                    &leftovers,
                    plan,
                    c.resolved_host_jobs(),
                    &mut ledger,
                ));
                let cpu_model_s = stats.model_seconds(N as u32, &c.gpu.cost);
                rec.cpu_last_resort_points = stats.queries;
                rec.cpu_last_resort_pairs = stats.pairs;
                rec.cpu_last_resort_model_s = cpu_model_s;
                if telemetry_on {
                    self.telemetry.record(
                        Event::new("fleet", "cpu_last_resort")
                            .u64("points", stats.queries as u64)
                            .u64("pairs", stats.pairs)
                            .u64("distance_calcs", stats.distance_calcs)
                            .f64("cpu_model_s", cpu_model_s)
                            .str(
                                "reason",
                                if survivors.is_empty() {
                                    "no_survivors"
                                } else {
                                    "budget_exhausted"
                                },
                            )
                            .u64("host_ns", sw_cpu.elapsed_ns()),
                    );
                }
                cpu_done = segments;
                break;
            }
            round += 1;
            rec.reshard_rounds += 1;
            rec.reassigned_units += leftovers.len();
            // The same workload-aware cut that built the fleet's regions,
            // applied to the shrunken fleet over the unexecuted remainder.
            // Survivors take cuts in ascending order of accumulated response
            // time, so the least-loaded device absorbs the (possibly
            // heavier) first slice. Assignment order still follows cut
            // order, which keeps same-unit fragments in plan order for the
            // merge.
            survivors.sort_by(|&a, &b| {
                states[a]
                    .pipeline_and_response()
                    .1
                    .total_cmp(&states[b].pipeline_and_response().1)
                    .then(a.cmp(&b))
            });
            if telemetry_on {
                self.telemetry.record(
                    Event::new("fleet", "reshard")
                        .u64("round", round as u64)
                        .u64("units", leftovers.len() as u64)
                        .u64("survivors", survivors.len() as u64),
                );
            }
            let leftover_weights: Vec<u64> = leftovers.iter().map(item_weight).collect();
            let cuts = partition_units(
                &leftover_weights,
                survivors.len(),
                ShardStrategy::WorkloadAware,
            );
            for (&d, cut) in survivors
                .iter()
                .zip(cuts)
                .filter(|(_, cut)| !cut.is_empty())
            {
                let slice = leftovers[cut].to_vec();
                states[d].reassigned_in += slice.len();
                rec.health.push(crate::fleet::HealthEvent {
                    device: d as u64,
                    round,
                    state: crate::fleet::DeviceHealth::Reassigned,
                    units: slice.len(),
                });
                assignment.push((d, slice));
            }
        }

        // Final per-device accounting.
        let mut shards: Vec<ShardReport> = Vec::with_capacity(fleet.len());
        let mut makespan_s = 0.0f64;
        let mut recovery = RecoveryCounters::default();
        for (d, state) in states.iter().enumerate() {
            let (pipeline, response_time_s) = state.pipeline_and_response();
            makespan_s = makespan_s.max(response_time_s);
            let batches: usize = state.done.iter().map(|di| di.batches.len()).sum();
            let pairs: usize = state.done.iter().map(|di| di.pairs.len()).sum();
            let degradation = state.recovery.clone().into_report(batches);
            if telemetry_on {
                self.telemetry.record(
                    Event::new("executor.fleet", "shard_done")
                        .u64("device", d as u64)
                        .u64("batches", batches as u64)
                        .u64("pairs", pairs as u64)
                        .f64("pipeline_model_s", pipeline.total_s)
                        .f64("response_model_s", response_time_s)
                        .bool(
                            "degraded",
                            degradation
                                .as_ref()
                                .is_some_and(DegradationReport::cpu_fallback_ran),
                        ),
                );
            }
            shards.push(ShardReport {
                device: d as u64,
                units: regions[d].clone(),
                queries: region_queries[d],
                workload: region_workloads[d],
                batches,
                pairs,
                pipeline,
                degradation,
                response_time_s,
                reassigned_in: state.reassigned_in,
                reassigned_out: state.reassigned_out,
            });
            recovery.merge(&state.recovery);
        }
        // The CPU last resort runs serially on the host after the devices.
        makespan_s += rec.cpu_last_resort_model_s;
        if rec.cpu_last_resort_points > 0 {
            let acc = recovery.cpu.get_or_insert((0, 0, 0.0));
            acc.0 += rec.cpu_last_resort_points;
            acc.1 += rec.cpu_last_resort_pairs;
            acc.2 += rec.cpu_last_resort_model_s;
        }

        let done: Vec<DoneItem> = states
            .into_iter()
            .flat_map(|s| s.done)
            .chain(cpu_done)
            .collect();
        let JoinOutcome { result, report } =
            self.finish(planned, ledger, done, recovery, gather_ns);
        if telemetry_on {
            self.telemetry.record(
                Event::new("executor.fleet", "fleet_summary")
                    .u64("devices", fleet.len() as u64)
                    .str("strategy", strategy.label())
                    .f64("makespan_model_s", makespan_s)
                    .f64("canonical_response_model_s", report.response_time_s())
                    .u64("devices_lost", fleet.lost_devices() as u64),
            );
        }
        Ok(FleetOutcome {
            result,
            report,
            fleet: FleetReport {
                strategy,
                shards,
                makespan_s,
                recovery: rec,
            },
        })
    }

    /// Executes the join as a hybrid CPU/GPU co-process.
    ///
    /// The join is planned **once**, exactly as [`SelfJoin::run`] plans it,
    /// and the planned unit list is cut in two: units `[0, cut)` are the
    /// GPU's share, units `[cut, n)` the CPU pool's. The cut is the policy's
    /// forced fraction, or else [`crate::hybrid::choose_cut_measured`]'s
    /// choice from the measured costs of both. Execution is
    /// **differential**: the GPU executes the full plan exactly as
    /// [`SelfJoin::run`] does — which keeps the returned canonical
    /// [`JoinReport`] and the executor telemetry bit-identical to it —
    /// while the CPU pool independently recomputes its share with the
    /// exact [`crate::fallback`] join on [`crate::pool::par_map`] workers
    /// (the CPU step every target finishes work with). Each CPU segment is
    /// checked against the GPU's pairs for its unit before the plan-order
    /// merge: an exact multiset comparison read in place from the GPU's
    /// ledger slices, linear in the unit's pairs plus the points, with no
    /// copy and no sort. A divergence returns [`JoinError::Hybrid`] instead
    /// of a silently different result. The split decision and both
    /// backends' cost accounting (the overlapped makespan in model seconds)
    /// land on [`HybridOutcome::hybrid`] and in `hybrid.*` telemetry only,
    /// so result tables stay backend-invariant.
    ///
    /// Under [`RecoveryPolicy::Reshard`] the CPU backend is also the
    /// failover peer: a device lost mid-run hands its unexecuted remainder
    /// to the pool (not to degradation), the remnants are recomputed
    /// exactly, and the merged join stays exact under any fault schedule.
    /// Under [`RecoveryPolicy::Degrade`] the remainder is finished exactly
    /// as [`SelfJoin::run`] finishes it.
    pub fn run_hybrid(&self, policy: &HybridPolicy) -> Result<HybridOutcome, JoinError> {
        let telemetry_on = self.telemetry.is_enabled();
        let c = &self.config;
        let planned = self.plan_join();
        let plan = &planned.plan;
        let n = plan.num_batches();
        let jobs = policy.jobs.max(1);

        // Quantified per-unit workload for the cut (host-side only, same
        // reuse rule as the fleet path).
        let weights = unit_workloads(plan, self.cut_profile().per_point());
        let gpu_rate = gpu_weight_throughput(&c.gpu, N as u32);
        let cpu_rate = cpu_weight_throughput(N as u32, &c.gpu.cost);
        // A forced fraction fixes the cut up front (with throughput-model
        // predictions); the auto chooser decides after the shadow execution,
        // from the measured per-unit model costs of both backends.
        let forced_choice = policy
            .forced_cpu_fraction
            .map(|fraction| forced_cut(&weights, fraction, gpu_rate, cpu_rate, CPU_DISPATCH_S));

        // The GPU shadow-executes the full plan exactly as `run` does: same
        // context, same counter, same fault plane. This is what keeps the
        // canonical report and event stream split-invariant — and it is the
        // oracle the CPU segments are differentially checked against.
        let (mut exec, mut ledger, mut done) = self.execute_plan(&planned)?;

        // The first plan unit with no complete GPU result: everything at or
        // past it is finished on the CPU — by the failed device's own
        // degradation, or spilled onto the CPU backend — so planned CPU
        // replacement (and the differential check) applies only to the
        // fully completed units in `[cut, f_complete)`.
        let f_complete = exec
            .interruption
            .as_ref()
            .and_then(|intr| intr.remnants.first())
            .map_or(n, |it| it.unit);
        if c.recovery == RecoveryPolicy::Degrade {
            self.degrade(&mut exec, &mut done, None, plan, &mut ledger);
        }

        // Measured inputs to the auto cut: the executed batch timings
        // grouped by plan unit, and the GPU side's fixed recovery charge.
        let mut unit_timings: Vec<Vec<BatchTiming>> = vec![Vec::new(); n];
        for di in &done {
            unit_timings[di.key].extend(di.batches.iter().map(BatchReport::timing));
        }
        let gpu_fixed_s = exec.recovery.backoff_s() + exec.recovery.cpu.map_or(0.0, |(_, _, s)| s);

        // The CPU pool recomputes the candidate share: under a forced cut
        // just the forced suffix, under the auto chooser every completed
        // unit — which is both the full differential harness and the exact
        // per-unit CPU costs the measured cut decision needs.
        let task_lo = forced_choice.as_ref().map_or(0, |ch| ch.cut);
        let planned_items: Vec<WorkItem> = (task_lo..f_complete)
            .filter(|&u| !plan.unit_queries(u).is_empty())
            .map(WorkItem::planned)
            .collect();
        let sw_cpu = Stopwatch::start();
        let planned_segments = self.cpu_join_items(&planned_items, plan, jobs, &mut ledger);
        let choice = match forced_choice {
            Some(ch) => ch,
            None => {
                let mut cpu_unit_s = vec![0.0f64; n];
                for (di, stats) in &planned_segments {
                    cpu_unit_s[di.key] = cpu_backend_seconds(stats, N as u32, &c.gpu.cost, 1);
                }
                choose_cut_measured(
                    &unit_timings,
                    gpu_fixed_s,
                    &cpu_unit_s,
                    BatchingConfig::NUM_STREAMS,
                )
            }
        };
        let cut = choice.cut;
        if telemetry_on {
            self.telemetry.record(
                Event::new("hybrid", "cut")
                    .u64("units", n as u64)
                    .u64("cut", cut as u64)
                    .u64("gpu_units", cut as u64)
                    .u64("cpu_units", (n - cut) as u64)
                    .bool("forced", choice.forced)
                    .f64("predicted_gpu_model_s", choice.predicted_gpu_s)
                    .f64("predicted_cpu_model_s", choice.predicted_cpu_s),
            );
        }

        // Under reshard recovery, a lost device's unexecuted remnants spill
        // onto the CPU backend — the CPU is a peer device, not a last
        // resort, so there is no degradation accounting for them.
        let spill = exec.interruption.take();
        let spilled = spill.is_some();
        let spill_items: Vec<WorkItem> = spill
            .into_iter()
            .flat_map(|intr| intr.remnants)
            .filter(|it| !it.queries(plan).is_empty())
            .collect();
        let spilled_units = spill_items.len();
        if spilled && telemetry_on {
            let spilled_queries: usize = spill_items.iter().map(|it| it.queries(plan).len()).sum();
            self.telemetry.record(
                Event::new("hybrid", "spill")
                    .u64("units", spilled_units as u64)
                    .u64("queries", spilled_queries as u64)
                    .bool("device_lost", exec.recovery.device_lost),
            );
        }
        let (spill_segments, spill_stats) =
            total(self.cpu_join_items(&spill_items, plan, jobs, &mut ledger));
        let cpu_host_ns = sw_cpu.elapsed_ns();

        // Differential check: every recomputed segment must hold the same
        // pairs as the GPU's output for its unit (the oracle), compared as
        // multisets in place in the ledger. The GPU side of a unit is every
        // slice it was checkpointed in: recovery can split a unit.
        let checked = task_lo..f_complete;
        let mut gpu_slices: Vec<Vec<&[(u32, u32)]>> = vec![Vec::new(); n];
        for di in done.iter().filter(|di| checked.contains(&di.key)) {
            gpu_slices[di.key].push(ledger.pairs(di));
        }
        let slices_len = |slices: &[&[(u32, u32)]]| slices.iter().map(|s| s.len()).sum::<usize>();
        for (di, _) in &planned_segments {
            let (cpu, gpu) = (ledger.pairs(di), std::mem::take(&mut gpu_slices[di.key]));
            if !same_pair_multiset(&[cpu], &gpu) {
                return Err(JoinError::Hybrid(format!(
                    "unit {}: the CPU segment ({} pairs) disagrees with \
                     the GPU segment ({} pairs)",
                    di.key,
                    cpu.len(),
                    slices_len(&gpu)
                )));
            }
        }
        let gpu_lens = gpu_slices.iter().map(|slices| slices_len(slices));
        if let Some((key, gpu)) = gpu_lens.enumerate().skip(cut).find(|&(_, gpu)| gpu > 0) {
            return Err(JoinError::Hybrid(format!(
                "unit {key}: the GPU produced {gpu} pairs but the CPU share had \
                 no queries for it"
            )));
        }

        // Drop the GPU's pairs of the replaced units `[cut, f_complete)`
        // from the merge (their batches stay in the canonical report); the
        // CPU segments at or past the cut replace them, and checked prefix
        // segments (auto mode) are released. Spills are admitted unchecked:
        // the GPU never completed them, the brute-force suites cover those.
        let mut gpu_pairs_total = 0usize;
        for di in &mut done {
            if di.key >= cut && di.key < f_complete {
                di.pairs.end = di.pairs.start;
            }
            gpu_pairs_total += di.pairs.len();
        }
        let mut cpu_stats = spill_stats;
        let mut cpu_pairs_total: usize = spill_segments.iter().map(|di| di.pairs.len()).sum();
        let mut cpu_items = spill_segments.len();
        for (di, stats) in planned_segments {
            if di.key >= cut {
                cpu_stats.add(&stats);
                cpu_pairs_total += di.pairs.len();
                cpu_items += 1;
                done.push(di);
            } else {
                ledger.release(di);
            }
        }
        done.extend(spill_segments);

        // Hybrid accounting: the GPU side is charged only for its kept
        // prefix (rescheduled as its own pipeline) plus its recovery time;
        // the CPU side is costed by the calibrated backend model. Both run
        // overlapped, so the hybrid response is their maximum.
        let gpu_response_s = schedule(
            done.iter()
                .filter(|di| di.key < cut)
                .flat_map(|di| &di.batches),
        )
        .total_s
            + exec.recovery.backoff_s()
            + exec.recovery.cpu.map_or(0.0, |(_, _, s)| s);
        let cpu_model_s = cpu_backend_seconds(&cpu_stats, N as u32, &c.gpu.cost, cpu_items);
        let makespan_s = gpu_response_s.max(cpu_model_s);

        // The canonical merge and report over the full shadow execution —
        // bit-identical report and telemetry for clean runs.
        let JoinOutcome { result, report } =
            self.finish(planned, ledger, done, exec.recovery, exec.gather_ns);
        if telemetry_on {
            self.telemetry.record(
                Event::new("hybrid", "backend_done")
                    .str("backend", "gpu")
                    .u64("units", cut.min(f_complete) as u64)
                    .u64("pairs", gpu_pairs_total as u64)
                    .f64("model_s", gpu_response_s),
            );
            self.telemetry.record(
                Event::new("hybrid", "backend_done")
                    .str("backend", "cpu")
                    .u64("units", cpu_items as u64)
                    .u64("pairs", cpu_pairs_total as u64)
                    .f64("model_s", cpu_model_s)
                    .u64("host_ns", cpu_host_ns),
            );
        }

        Ok(HybridOutcome {
            result,
            report,
            hybrid: HybridReport {
                units: n,
                cut,
                gpu_units: cut.min(f_complete),
                cpu_units: cpu_items,
                spilled_units,
                forced: choice.forced,
                predicted_gpu_s: choice.predicted_gpu_s,
                predicted_cpu_s: choice.predicted_cpu_s,
                gpu_response_s,
                cpu_model_s,
                cpu_stats,
                makespan_s,
                jobs,
            },
        })
    }

    /// Plans the join, emitting the setup-phase telemetry (index build,
    /// workload profile) and the estimate-and-plan event. Every driver
    /// plans through here, so planning and its telemetry are identical
    /// across targets.
    fn plan_join(&self) -> Planned {
        if self.telemetry.is_enabled() {
            // Index build and workload profiling happened in `new()`; their
            // host durations were captured there and are reported once.
            self.telemetry.record(
                Event::new("executor.phase", "index_build")
                    .u64("points", self.grid.num_points() as u64)
                    .u64("cells", self.grid.num_cells() as u64)
                    .u64("host_ns", self.index_build_ns),
            );
            self.telemetry.record(
                Event::new("executor.phase", "workload_profile")
                    .bool("profiled", self.profile.is_some())
                    .str("balancing", format!("{:?}", self.config.balancing))
                    .u64("host_ns", self.profile_ns),
            );
        }
        let sw_plan = Stopwatch::start();
        let (estimate, plan, prepass) = self.plan_with();
        if self.telemetry.is_enabled() {
            self.telemetry.record(
                Event::new("executor.phase", "estimate_and_plan")
                    .u64("multiplier", 1)
                    .u64("sampled_points", estimate.sampled_points as u64)
                    .u64("sampled_pairs", estimate.sampled_pairs)
                    .u64("estimated_total", estimate.estimated_total)
                    .u64("num_batches", plan.num_batches() as u64)
                    .u64("host_ns", sw_plan.elapsed_ns()),
            );
            if let Some(pp) = &prepass {
                self.record_prepass_events(pp);
            }
        }
        // With the device-saturation floor enabled, the pinned buffer grows
        // to fit the fewer, larger batches; otherwise it is exactly `b_s`.
        let capacity = if self.config.batching.max_batches > 0 {
            buffer_capacity_for(&estimate, plan.num_batches(), &self.config.batching)
        } else {
            self.config.batching.batch_result_capacity
        };
        Planned {
            estimate,
            plan,
            prepass,
            capacity,
        }
    }

    /// Emits the `sort`/`scan` phase events of a device pre-pass: the
    /// model-second cost of the planner's sorts and prefix sums, which the
    /// host backend performs invisibly. Only phases that actually ran are
    /// emitted (e.g. a STATIC-balancing join sorts nothing).
    fn record_prepass_events(&self, pp: &PrePassReport) {
        if pp.sort_invocations > 0 {
            self.telemetry.record(
                Event::new("executor.phase", "sort")
                    .str("backend", "device")
                    .u64("invocations", pp.sort_invocations as u64)
                    .u64("launches", pp.sort_launches)
                    .u64("passes", pp.sort_passes as u64)
                    .u64("cycles", pp.sort_cycles)
                    .f64("model_s", pp.sort_model_s)
                    .u64("transient_retries", pp.transient_retries as u64)
                    .f64("backoff_model_s", pp.backoff_s)
                    .bool("degraded_to_host", pp.degraded_to_host),
            );
        }
        if pp.scan_invocations > 0 {
            self.telemetry.record(scan_event(pp, None));
        }
    }

    /// Cuts the fleet's shard regions. Under [`SortBackend::Device`] with
    /// the workload-aware strategy, the cumulative-weight prefix behind the
    /// cut runs through the device exclusive-scan chain (telemetry records
    /// its cost as a `scan` phase with `site = "fleet_cut"`); the cut
    /// points are identical to the host fold's by construction, and the
    /// chain's cost stays **out** of [`JoinReport::prepass`] so the
    /// canonical report remains bit-identical to the single-device run.
    fn partition_for_fleet(
        &self,
        weights: &[u64],
        devices: usize,
        strategy: ShardStrategy,
    ) -> Vec<std::ops::Range<usize>> {
        if strategy == ShardStrategy::WorkloadAware {
            if let Some(mut pp) = self.device_prepass() {
                if let Some(prefix) = pp.inclusive_prefix(weights, "fleet_cut") {
                    if self.telemetry.is_enabled() {
                        self.telemetry
                            .record(scan_event(&pp.stats, Some("fleet_cut")));
                    }
                    return partition_units_from_prefix(&prefix, devices, strategy);
                }
            }
        }
        partition_units(weights, devices, strategy)
    }

    /// The quantified workload the fleet and hybrid cuts weigh units by:
    /// the balancing profile when one exists, otherwise one computed here.
    /// Host-side only — it cannot change kernel behaviour or model times.
    fn cut_profile(&self) -> Cow<'_, WorkloadProfile> {
        match &self.profile {
            Some(profile) => Cow::Borrowed(profile),
            None => Cow::Owned(WorkloadProfile::compute(&self.grid)),
        }
    }

    /// Executes every unit of the plan on this join's own device (no
    /// device tag, the join's fault plane, a fresh queue head) — the device
    /// side of [`SelfJoin::run`] and the GPU shadow of
    /// [`SelfJoin::run_hybrid`] — and checkpoints its output.
    fn execute_plan(
        &self,
        planned: &Planned,
    ) -> Result<(ShardExecution, Ledger, Vec<DoneItem>), JoinError> {
        let counter = DeviceCounter::new();
        let items: Vec<WorkItem> = (0..planned.plan.num_batches())
            .map(WorkItem::planned)
            .collect();
        let ctx = ShardCtx {
            planned,
            device: None,
            gpu: &self.config.gpu,
            fault: self.fault,
            counter: &counter,
        };
        let mut exec = self.execute_units(&items, &ctx, self.telemetry)?;
        let mut ledger = Ledger::default();
        let done = ledger.checkpoint(&mut exec, &items);
        Ok((exec, ledger, done))
    }

    /// Finishes an interrupted execution on the host, charged to the device
    /// that failed (`device`: its fleet id and GPU; `None` for the join's
    /// own device): the unexecuted items go through the CPU step
    /// ([`SelfJoin::cpu_join_items`]) into `done`, which holds what the
    /// device completed before it failed; their cost on that device's cost
    /// model becomes the execution's CPU fallback, and an
    /// `executor.degradation` event reports it.
    fn degrade(
        &self,
        exec: &mut ShardExecution,
        done: &mut Vec<DoneItem>,
        device: Option<(u64, &GpuConfig)>,
        plan: &BatchPlan,
        ledger: &mut Ledger,
    ) {
        let Some(intr) = exec.interruption.take() else {
            return;
        };
        let c = &self.config;
        let sw_cpu = Stopwatch::start();
        let batches_salvaged: usize = done.iter().map(|di| di.batches.len()).sum();
        let jobs = c.resolved_host_jobs();
        let (cpu, stats) = total(self.cpu_join_items(&intr.remnants, plan, jobs, ledger));
        done.extend(cpu);
        let gpu = device.map_or(&c.gpu, |(_, gpu)| gpu);
        let cpu_model_s = stats.model_seconds(N as u32, &gpu.cost);
        exec.recovery.cpu = Some((stats.queries, stats.pairs, cpu_model_s));
        if self.telemetry.is_enabled() {
            let event = Event::new("executor", "degradation")
                .u64("batches_salvaged", batches_salvaged as u64)
                .u64("points_degraded", stats.queries as u64)
                .u64("cpu_pairs", stats.pairs)
                .u64("cpu_distance_calcs", stats.distance_calcs)
                .f64("cpu_model_s", cpu_model_s)
                .bool("device_lost", exec.recovery.device_lost)
                .u64("host_ns", sw_cpu.elapsed_ns());
            self.telemetry.record(match device {
                Some((d, _)) => event.u64("device", d),
                None => event,
            });
        }
    }

    /// The one step that finishes work on the host: the exact CPU join of
    /// each item's queries ([`cpu_join_queries`]) on `jobs` pool workers,
    /// results in item order. Each item's pairs are checkpointed as one
    /// ledger segment keyed by its plan unit, so the canonical merge
    /// interleaves CPU-finished items with device-finished ones in plan
    /// order; each comes back with its operation counts.
    fn cpu_join_items(
        &self,
        items: &[WorkItem],
        plan: &BatchPlan,
        jobs: usize,
        ledger: &mut Ledger,
    ) -> Vec<(DoneItem, CpuFallbackStats)> {
        let joined = crate::pool::par_map(jobs, items.iter().collect(), |item: &WorkItem| {
            let mut pairs = Vec::new();
            let stats = cpu_join_queries(
                &self.grid,
                self.points,
                &self.resolved,
                self.config.epsilon,
                item.queries(plan),
                &mut pairs,
            );
            (item.unit, pairs, stats)
        });
        joined
            .into_iter()
            .map(|(unit, pairs, stats)| (ledger.segment(unit, pairs), stats))
            .collect()
    }

    /// The epilogue every driver ends with: the canonical merge of the
    /// checkpointed items, the stream-pipeline schedule and warp totals of
    /// the merged batches, the degradation report, and the end-of-join
    /// telemetry (gather phase, estimator accuracy, join summary).
    fn finish(
        &self,
        planned: Planned,
        ledger: Ledger,
        done: Vec<DoneItem>,
        recovery: RecoveryCounters,
        gather_ns: u64,
    ) -> JoinOutcome {
        let c = &self.config;
        let (result, batches) = ledger.merge(done);
        let mut totals = WarpExecution {
            warp_size: c.gpu.warp_size,
            ..WarpExecution::default()
        };
        for batch in &batches {
            totals.accumulate(&batch.launch.totals);
        }
        let report = JoinReport {
            estimate: planned.estimate,
            num_batches: batches.len(),
            pipeline: schedule(&batches),
            totals,
            total_pairs: result.len(),
            degradation: recovery.into_report(batches.len()),
            prepass: planned.prepass,
            batches,
        };
        if self.telemetry.is_enabled() {
            self.telemetry
                .record(Event::new("executor.phase", "gather").u64("host_ns", gather_ns));
            // How well the 1 % sample predicted the true result size — the
            // quantity that decides whether the batch plan over- or
            // under-provisions the result buffers (§III-D). A zero-pair join
            // has no meaningful ratio: the field is omitted (NaN is not valid
            // JSON) and `zero_actual` flags the case instead.
            let total_pairs = report.total_pairs;
            let estimated_total = report.estimate.estimated_total;
            let mut accuracy = Event::new("executor", "estimator_accuracy")
                .u64("estimated_total", estimated_total)
                .u64("actual_total", total_pairs as u64)
                .bool("zero_actual", total_pairs == 0);
            if total_pairs > 0 {
                accuracy = accuracy.f64(
                    "estimate_over_actual",
                    estimated_total as f64 / total_pairs as f64,
                );
            }
            self.telemetry.record(accuracy);
            self.telemetry.record(
                Event::new("executor", "join_summary")
                    .str("config", self.config.label())
                    .u64("num_batches", report.num_batches as u64)
                    .u64("total_pairs", total_pairs as u64)
                    .f64("response_model_s", report.response_time_s())
                    .f64("wee", report.wee())
                    .u64("distance_calcs", report.distance_calcs())
                    .bool(
                        "degraded",
                        report
                            .degradation
                            .as_ref()
                            .is_some_and(DegradationReport::cpu_fallback_ran),
                    ),
            );
        }
        JoinOutcome { result, report }
    }

    /// Executes work items on one device through the one batch walk,
    /// [`SelfJoin::walk`], and hands back the raw output (pairs, batch
    /// reports, recovery tallies) for the caller to re-key and merge.
    ///
    /// Running in parallel is only a way to capture and re-order the
    /// walk's events. Without a fault plane and with more than one host
    /// job, every item walks alone on a pool thread against a **private**
    /// queue-head counter — every queue chunk re-aims the head at its own
    /// start before launching, so a private head pops exactly the chunk's
    /// range — with its events captured into a per-item buffer. Outputs
    /// and events are then spliced strictly in item order, which is the
    /// order the serial walk produces them in (it executes items
    /// depth-first), so pairs, batch reports, recovery tallies and the
    /// event stream are bit-identical; only wall-clock time changes.
    /// Run-global running counts in events (`executor.batch` `index`,
    /// `executor.overflow_recovery` `split`/`splits_used`) are restored by
    /// offsetting each item's local counts with the totals of the items
    /// before it.
    ///
    /// Fault admission is a cross-item serial protocol (the plane's
    /// schedule is keyed by global launch index), so a faulted context
    /// always walks serially; only clean-path recovery (overflow splits,
    /// whose budget is per unit) ever runs item-parallel.
    fn execute_units(
        &self,
        items: &[WorkItem],
        ctx: &ShardCtx<'_>,
        sink: &dyn Telemetry,
    ) -> Result<ShardExecution, JoinError> {
        let jobs = self.config.resolved_host_jobs();
        if ctx.fault.is_some() || jobs <= 1 || items.len() <= 1 {
            return self.walk(items, ctx, sink, jobs.max(1));
        }
        let telemetry_on = sink.is_enabled();
        let walks = crate::pool::par_map(jobs, items.to_vec(), |item| {
            let buffer = EventBuffer::new(telemetry_on);
            let counter = DeviceCounter::new();
            let item_ctx = ShardCtx {
                counter: &counter,
                ..*ctx
            };
            let res = self.walk(std::slice::from_ref(&item), &item_ctx, &buffer, 1);
            (buffer, res)
        });
        let mut exec = ShardExecution::default();
        for (item_idx, (buffer, res)) in walks.into_iter().enumerate() {
            buffer.splice_into(
                sink,
                exec.batch_reports.len() as u64,
                exec.recovery.overflow_splits as u64,
            );
            // An error aborts the splice exactly where the serial walk
            // would have stopped: this item's partial events are spliced,
            // later items' buffers are dropped unseen.
            let item = res?;
            debug_assert!(
                item.interruption.is_none(),
                "faultless items cannot interrupt"
            );
            exec.result.extend(item.result.pairs());
            let batches = exec.batch_items.len() + item.batch_reports.len();
            exec.batch_items.resize(batches, item_idx);
            exec.batch_reports.extend(item.batch_reports);
            exec.gather_ns += item.gather_ns;
            exec.recovery.merge(&item.recovery);
        }
        // Leave the shared queue head where the serial walk would have.
        if let Some(expected) = queue_drain_target(&ctx.planned.plan, items) {
            ctx.counter.store(expected);
        }
        Ok(exec)
    }

    /// The batch walk: one item at a time, depth-first through its
    /// recovery splits, with the full per-batch fault-recovery loop.
    /// `workers` bounds the host threads the warp simulator may use
    /// underneath each launch.
    fn walk(
        &self,
        items: &[WorkItem],
        ctx: &ShardCtx<'_>,
        sink: &dyn Telemetry,
        workers: usize,
    ) -> Result<ShardExecution, JoinError> {
        let telemetry_on = sink.is_enabled();
        let c = &self.config;
        let plan = &ctx.planned.plan;
        let issue_order = c.issue_order();
        let tag = |event: Event| match ctx.device {
            Some(d) => event.u64("device", d),
            None => event,
        };
        let mut exec = ShardExecution {
            batch_reports: Vec::with_capacity(items.len()),
            batch_items: Vec::with_capacity(items.len()),
            ..ShardExecution::default()
        };
        let mut buffer = DeviceBuffer::with_capacity(ctx.planned.capacity);

        let counter = ctx.counter;
        let queue_limit = plan.queue_limit();
        let mut pending: VecDeque<Pending> = items
            .iter()
            .enumerate()
            .filter_map(|(idx, item)| match &item.queries {
                Some(queries) if queries.is_empty() => None,
                Some(queries) => Some(Pending::new(
                    idx,
                    Work::Split(queries.clone()),
                    item.split_attempts,
                )),
                None => match plan {
                    BatchPlan::Queue { chunks, .. } if chunks[item.unit].is_empty() => None,
                    _ => Some(Pending::new(idx, Work::Planned(item.unit), 0)),
                },
            })
            .collect();
        let recovery = &mut exec.recovery;
        while let Some(mut unit) = pending.pop_front() {
            let (assignment, num_groups, chunk_range) = match (&unit.work, plan) {
                (Work::Planned(i), BatchPlan::Strided { batches }) => (
                    Assignment::Static {
                        queries: &batches[*i],
                    },
                    batches[*i].len(),
                    None,
                ),
                (Work::Planned(i), BatchPlan::Queue { order, chunks }) => (
                    Assignment::Queue {
                        order,
                        counter,
                        limit: queue_limit,
                    },
                    chunks[*i].len(),
                    Some(chunks[*i].clone()),
                ),
                (Work::Split(queries), _) => (Assignment::Static { queries }, queries.len(), None),
            };
            if let Some(chunk) = &chunk_range {
                // Aim the queue head at this chunk's start. On a contiguous
                // unit list this is a no-op (the previous chunk left the
                // head exactly here), but it lets recovery hand arbitrary
                // unit subsets to a surviving device and still pop exactly
                // the ranges the original plan assigned them.
                counter.store(chunk.start as u64);
                // Host-side injection: a stuck/corrupted device counter,
                // observed just before this chunk launches.
                if let Some(plane) = ctx.fault {
                    if let Some(bump) = plane.take_counter_bump() {
                        counter.fetch_add(bump);
                        if telemetry_on {
                            sink.record(tag(Event::new("executor", "fault_injected")
                                .str("kind", "counter_bump")
                                .u64("bump", bump)));
                        }
                    }
                }
            }
            let source = JoinKernelSource {
                grid: &self.grid,
                points: self.points,
                resolved: &self.resolved,
                epsilon: c.epsilon,
                k: c.k,
                warp_size: ctx.gpu.warp_size,
                cost: ctx.gpu.cost,
                assignment,
                num_groups,
            };
            let mut opts = LaunchOptions::with_telemetry(sink);
            opts.fault_plane = ctx.fault;
            opts.step_mode = c.step_mode;
            opts.workers = Some(workers);
            match launch_with(ctx.gpu, &source, issue_order, &mut buffer, &opts) {
                Ok(launch_report) => {
                    // Queue-drain invariant, promoted from a debug assert:
                    // each pop advances the counter by the group's slot
                    // count, so chunk `i` must leave the head at exactly
                    // `chunk.end`. Anything else means the counter is
                    // corrupt and the chunk's coverage is unknown.
                    if let Some(chunk) = &chunk_range {
                        let expected = chunk.end as u64;
                        let observed = counter.load();
                        if observed != expected {
                            buffer.clear();
                            unit.counter_attempts += 1;
                            recovery.counter_retries += 1;
                            let backoff = RetryPolicy::backoff_for(
                                RetryPolicy::COUNTER_BACKOFF_S,
                                unit.counter_attempts,
                            );
                            // The corrupted launch's kernel time is wasted
                            // serial host time, not pipeline time.
                            recovery
                                .backoff_terms
                                .push(backoff + launch_report.elapsed_seconds());
                            if telemetry_on {
                                sink.record(tag(Event::new("executor", "fault_retry")
                                    .str("class", "counter")
                                    .u64("attempt", unit.counter_attempts as u64)
                                    .u64("expected", expected)
                                    .u64("observed", observed)
                                    .f64("backoff_model_s", backoff)));
                            }
                            if unit.counter_attempts > RetryPolicy::MAX_COUNTER_RETRIES {
                                return Err(JoinError::Launch(LaunchError::CounterFault(
                                    CounterFault { expected, observed },
                                )));
                            }
                            // Repair the head for the chunks behind us and
                            // re-run exactly this chunk's queries statically.
                            counter.store(expected);
                            let queries = unit.work.queries(plan);
                            unit.work = Work::Split(queries);
                            pending.push_front(unit);
                            continue;
                        }
                    }
                    let pairs = buffer.len();
                    let sw_gather = Stopwatch::start();
                    exec.result.extend(buffer.as_slice());
                    buffer.clear();
                    exec.gather_ns += sw_gather.elapsed_ns();
                    let kernel_s = launch_report.elapsed_seconds();
                    let mut transfer_s = c.batching.transfer_seconds(pairs);
                    if let Some(plane) = ctx.fault {
                        if let Some(stall_s) = plane.take_transfer_stall() {
                            // A stalled copy engine lengthens this batch's
                            // transfer; it flows through the stream
                            // pipeline like any slow transfer.
                            transfer_s += stall_s;
                            recovery.transfer_stalls += 1;
                            if telemetry_on {
                                sink.record(tag(Event::new("executor", "fault_injected")
                                    .str("kind", "transfer_stall")
                                    .f64("stall_model_s", stall_s)));
                            }
                        }
                    }
                    if telemetry_on {
                        sink.record(tag(Event::new("executor", "batch")
                            .u64("index", exec.batch_reports.len() as u64)
                            .u64("pairs", pairs as u64)
                            .f64("kernel_model_s", kernel_s)
                            .f64("transfer_model_s", transfer_s)));
                    }
                    exec.batch_reports.push(BatchReport {
                        launch: launch_report,
                        pairs,
                        kernel_s,
                        transfer_s,
                    });
                    exec.batch_items.push(unit.item);
                }
                Err(LaunchError::ResultOverflow(overflow)) => {
                    buffer.clear();
                    // An overflowing queue chunk has already consumed its
                    // pops — repair the head so the chunks behind it still
                    // cover their own ranges, then split this chunk's exact
                    // queries into static halves.
                    if let Some(chunk) = &chunk_range {
                        counter.store(chunk.end as u64);
                    }
                    let mut queries = match unit.work {
                        Work::Split(queries) => queries,
                        ref planned => planned.queries(plan),
                    };
                    // The split budget is the unit's own ancestry depth —
                    // never a run-global tally — so the terminal decision
                    // depends only on this unit's history and stays
                    // identical under any sharding or host-parallel
                    // interleaving of the other units.
                    if queries.len() <= 1 || unit.split_attempts >= RetryPolicy::MAX_OVERFLOW_SPLITS
                    {
                        if telemetry_on {
                            sink.record(tag(Event::new("executor", "overflow_recovery")
                                .bool("terminal", true)
                                .u64("splits_used", recovery.overflow_splits as u64)
                                .u64("batch_queries", queries.len() as u64)
                                .u64("attempted", overflow.attempted as u64)
                                .u64("capacity", overflow.capacity as u64)));
                        }
                        return Err(JoinError::Launch(LaunchError::ResultOverflow(overflow)));
                    }
                    recovery.overflow_splits += 1;
                    // Escalate with this unit's own split ancestry, not the
                    // run-wide split count: per-unit attempt keying keeps
                    // recovery deterministic under any sharding of the plan.
                    let attempt = unit.split_attempts + 1;
                    let backoff =
                        RetryPolicy::backoff_for(RetryPolicy::OVERFLOW_BACKOFF_S, attempt);
                    recovery.backoff_terms.push(backoff);
                    let right = queries.split_off(queries.len() / 2);
                    if telemetry_on {
                        sink.record(tag(Event::new("executor", "overflow_recovery")
                            .bool("terminal", false)
                            .u64("split", recovery.overflow_splits as u64)
                            .u64("attempt", attempt as u64)
                            .u64("left_queries", queries.len() as u64)
                            .u64("right_queries", right.len() as u64)
                            .f64("backoff_model_s", backoff)));
                    }
                    pending.push_front(Pending::new(unit.item, Work::Split(right), attempt));
                    pending.push_front(Pending::new(unit.item, Work::Split(queries), attempt));
                }
                Err(LaunchError::Transient(_)) => {
                    // Transient faults fail at admission, before any queue
                    // pop: counter and buffer are untouched, so the same
                    // unit can simply be re-submitted.
                    unit.transient_attempts += 1;
                    recovery.transient_retries += 1;
                    let backoff = RetryPolicy::backoff_for(
                        RetryPolicy::TRANSIENT_BACKOFF_S,
                        unit.transient_attempts,
                    );
                    recovery.backoff_terms.push(backoff);
                    if telemetry_on {
                        sink.record(tag(Event::new("executor", "fault_retry")
                            .str("class", "transient")
                            .u64("attempt", unit.transient_attempts as u64)
                            .f64("backoff_model_s", backoff)));
                    }
                    let exhausted = unit.transient_attempts > RetryPolicy::MAX_TRANSIENT_RETRIES;
                    pending.push_front(unit);
                    if exhausted {
                        break;
                    }
                }
                Err(LaunchError::DeviceLost(_)) => {
                    recovery.device_lost = true;
                    pending.push_front(unit);
                    break;
                }
                Err(err @ LaunchError::CounterFault(_)) => {
                    // Not raised by the device model today; never retryable.
                    return Err(JoinError::Launch(err));
                }
            }
        }

        if !pending.is_empty() {
            // A persistent launch failure stopped the walk with the failing
            // unit back in front: the device is unusable for the rest of the
            // join, and everything not yet executed goes back to the caller.
            exec.interruption = Some(Interruption {
                remnants: pending.into_iter().map(|p| p.remnant(items)).collect(),
            });
        } else if let Some(expected) = queue_drain_target(plan, items) {
            // Final queue-drain invariant: a fully GPU-completed queue shard
            // must have consumed exactly its slice of the sorted dataset
            // (for the single-device path, the whole of it).
            let observed = counter.load();
            if observed != expected {
                return Err(JoinError::Launch(LaunchError::CounterFault(CounterFault {
                    expected,
                    observed,
                })));
            }
        }
        Ok(exec)
    }
}

impl BatchReport {
    /// The batch's kernel and transfer times, as the stream pipeline
    /// schedules them.
    fn timing(&self) -> BatchTiming {
        BatchTiming {
            kernel_s: self.kernel_s,
            transfer_s: self.transfer_s,
        }
    }
}

/// The `scan` phase event of a device pre-pass; `site` names a scan that
/// ran outside the planner.
fn scan_event(pp: &PrePassReport, site: Option<&'static str>) -> Event {
    let mut event = Event::new("executor.phase", "scan").str("backend", "device");
    if let Some(site) = site {
        event = event.str("site", site);
    }
    event
        .u64("invocations", pp.scan_invocations as u64)
        .u64("launches", pp.scan_launches)
        .u64("cycles", pp.scan_cycles)
        .f64("model_s", pp.scan_model_s)
        .u64("transient_retries", pp.transient_retries as u64)
        .f64("backoff_model_s", pp.backoff_s)
        .bool("degraded_to_host", pp.degraded_to_host)
}

/// The stream-pipeline schedule of `batches`, in order.
fn schedule<'b>(batches: impl IntoIterator<Item = &'b BatchReport>) -> PipelineReport {
    let timings: Vec<BatchTiming> = batches.into_iter().map(BatchReport::timing).collect();
    StreamPipeline::new(BatchingConfig::NUM_STREAMS).schedule(&timings)
}

/// Splits the CPU step's output into its segments and their summed
/// operation counts.
fn total(items: Vec<(DoneItem, CpuFallbackStats)>) -> (Vec<DoneItem>, CpuFallbackStats) {
    let mut stats = CpuFallbackStats::default();
    let done = items
        .into_iter()
        .map(|(di, s)| {
            stats.add(&s);
            di
        })
        .collect();
    (done, stats)
}

/// A planned join: the estimate, the batch plan, its device pre-pass
/// accounting, and the result-buffer capacity every launch of the plan is
/// sized with.
struct Planned {
    estimate: ResultEstimate,
    plan: BatchPlan,
    prepass: Option<PrePassReport>,
    capacity: usize,
}

/// Where a queue plan's head must land once the last non-empty planned
/// chunk of `items` is done; `None` when the list carries no such chunk
/// (then the head never moves) or the plan has no queue.
fn queue_drain_target(plan: &BatchPlan, items: &[WorkItem]) -> Option<u64> {
    match plan {
        BatchPlan::Queue { chunks, .. } => items
            .iter()
            .filter(|item| item.queries.is_none() && !chunks[item.unit].is_empty())
            .map(|item| chunks[item.unit].end as u64)
            .next_back(),
        BatchPlan::Strided { .. } => None,
    }
}

/// A thread-local telemetry capture: events recorded here are spliced into
/// the real sink afterwards, in a deterministic merge order chosen by the
/// capturing caller (item order within a shard, device order across a
/// fleet round).
struct EventBuffer {
    enabled: bool,
    events: std::sync::Mutex<Vec<Event>>,
}

impl EventBuffer {
    fn new(enabled: bool) -> Self {
        EventBuffer {
            enabled,
            events: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Records the captured events into `sink`, adding `batch_offset` to
    /// `executor.batch` indices and `split_offset` to
    /// `executor.overflow_recovery` split counts: the splice-time
    /// restoration of run-global running counts in a per-item capture.
    fn splice_into(self, sink: &dyn Telemetry, batch_offset: u64, split_offset: u64) {
        // Poisoned only by a walk that panicked inside the pool's scope,
        // which re-raises that panic; a push never leaves the list torn.
        let events = self
            .events
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for mut event in events {
            let (keys, delta): (&[&str], u64) = match (event.scope, event.name) {
                ("executor", "batch") => (&["index"], batch_offset),
                ("executor", "overflow_recovery") => (&["split", "splits_used"], split_offset),
                _ => (&[], 0),
            };
            for (key, value) in event.fields.iter_mut() {
                if let (true, Value::U64(x)) = (keys.contains(key), value) {
                    *x += delta;
                }
            }
            sink.record(event);
        }
    }
}

impl Telemetry for EventBuffer {
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn record(&self, event: Event) {
        if self.enabled {
            self.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(event);
        }
    }
}

/// Execution context of one shard — or, on the single-device path, of the
/// whole join: which plan it executes, which device runs it (for
/// telemetry tagging and the GPU configuration), and through which fault
/// plane and queue head.
struct ShardCtx<'s> {
    /// The plan being executed, with the result-buffer capacity.
    planned: &'s Planned,
    /// Device id for telemetry; `None` on the single-device path keeps its
    /// event stream bit-identical to the pre-fleet executor.
    device: Option<u64>,
    /// The GPU executing this shard's launches.
    gpu: &'s GpuConfig,
    /// This device's fault plane, if any.
    fault: Option<&'s FaultPlane>,
    /// This device's queue-head atomic.
    counter: &'s DeviceCounter,
}

/// One top-level item of shard work: a unit of the original batch plan, or
/// an explicit query set carried over from an interrupted device (a split
/// half whose sibling already completed elsewhere). `unit` is always the
/// originating plan-unit index — the merge key that lets the ledger
/// reassemble outputs in original plan order no matter which device
/// executed what.
#[derive(Clone)]
struct WorkItem {
    /// Originating plan-unit index (the canonical merge key).
    unit: usize,
    /// `None` runs the planned unit itself; `Some` runs an explicit query
    /// set statically.
    queries: Option<Vec<u32>>,
    /// Overflow-split ancestry carried across devices, so a re-homed split
    /// keeps escalating its backoff instead of resetting it.
    split_attempts: u32,
}

impl WorkItem {
    fn planned(unit: usize) -> Self {
        WorkItem {
            unit,
            queries: None,
            split_attempts: 0,
        }
    }

    /// The query ids this item runs.
    fn queries<'p>(&'p self, plan: &'p BatchPlan) -> &'p [u32] {
        self.queries
            .as_deref()
            .unwrap_or_else(|| plan.unit_queries(self.unit))
    }
}

/// Where a batch walk stopped at a persistent launch failure (the device
/// latched `DeviceLost`, or a launch exhausted its transient budget): the
/// caller finishes the remnants elsewhere — on the CPU, on surviving
/// devices, or on the hybrid's CPU backend.
struct Interruption {
    /// Unstarted work, in execution (plan) order, ready for re-submission
    /// to another device.
    remnants: Vec<WorkItem>,
}

/// What one execution of work items produced, before re-keying.
#[derive(Default)]
struct ShardExecution {
    /// Every pair, in production order (the execution's flat buffer).
    result: ResultSet,
    batch_reports: Vec<BatchReport>,
    /// The submitting item index (into the `items` slice given to
    /// [`SelfJoin::execute_units`]) of every batch, parallel to
    /// `batch_reports`. Items complete strictly in order, so this is
    /// non-decreasing.
    batch_items: Vec<usize>,
    gather_ns: u64,
    recovery: RecoveryCounters,
    /// Present when the device failed persistently.
    interruption: Option<Interruption>,
}

/// One completed work item's checkpointed output, tagged for the canonical
/// merge: `key` is the originating plan-unit index, `seq` the global
/// completion order (the tiebreak that keeps same-unit fragments — e.g. a
/// salvaged split half and its re-homed sibling — in execution order).
struct DoneItem {
    key: usize,
    seq: usize,
    /// The ledger buffer holding this item's pairs, and their range in it.
    buffer: usize,
    pairs: Range<usize>,
    batches: Vec<BatchReport>,
}

/// Every execution's output for one join, re-keyed by plan unit. Pairs
/// stay in each execution's flat buffer; checkpointed items hold ranges
/// into it, so a join that merges one execution in order never copies its
/// pairs.
#[derive(Default)]
struct Ledger {
    buffers: Vec<ResultSet>,
    seq: usize,
}

impl Ledger {
    fn next_seq(&mut self) -> usize {
        self.seq += 1;
        self.seq - 1
    }

    /// Re-keys an execution's output by submitting item, moving its pair
    /// buffer and batch reports into the ledger. Items complete strictly in
    /// order, so each item's batches and pairs are contiguous runs of the
    /// output.
    fn checkpoint(&mut self, exec: &mut ShardExecution, items: &[WorkItem]) -> Vec<DoneItem> {
        let buffer = self.buffers.len();
        let mut done: Vec<DoneItem> = Vec::new();
        let mut pair_off = 0usize;
        let mut reports = std::mem::take(&mut exec.batch_reports)
            .into_iter()
            .zip(exec.batch_items.iter().copied())
            .peekable();
        while let Some((first, item_idx)) = reports.next() {
            let mut batches = vec![first];
            while let Some((batch, _)) = reports.next_if(|&(_, i)| i == item_idx) {
                batches.push(batch);
            }
            let pairs: usize = batches.iter().map(|b| b.pairs).sum();
            done.push(DoneItem {
                key: items[item_idx].unit,
                seq: self.next_seq(),
                buffer,
                pairs: pair_off..pair_off + pairs,
                batches,
            });
            pair_off += pairs;
        }
        self.buffers.push(std::mem::take(&mut exec.result));
        done
    }

    /// Checkpoints a CPU-computed pair segment for plan unit `key`.
    fn segment(&mut self, key: usize, pairs: Vec<(u32, u32)>) -> DoneItem {
        let len = pairs.len();
        self.buffers.push(ResultSet::from_pairs(pairs));
        DoneItem {
            key,
            seq: self.next_seq(),
            buffer: self.buffers.len() - 1,
            pairs: 0..len,
            batches: Vec::new(),
        }
    }

    /// The pairs a checkpointed item holds.
    fn pairs(&self, item: &DoneItem) -> &[(u32, u32)] {
        &self.buffers[item.buffer].pairs()[item.pairs.clone()]
    }

    /// Frees a CPU segment that will not be merged.
    fn release(&mut self, segment: DoneItem) {
        self.buffers[segment.buffer] = ResultSet::default();
    }

    /// The canonical merge: items in plan-unit order (completion order
    /// within a unit), their pairs concatenated and their batches listed in
    /// that same order. When the items tile the first buffer in order, it
    /// moves through uncopied.
    fn merge(mut self, mut done: Vec<DoneItem>) -> (ResultSet, Vec<BatchReport>) {
        done.sort_by_key(|di| (di.key, di.seq));
        let mut end = 0usize;
        let tiles = done.iter().all(|di| {
            let contiguous = di.buffer == 0 && di.pairs.start == end;
            end = di.pairs.end;
            contiguous
        }) && self.buffers.first().is_some_and(|b| b.len() == end);
        let result = if tiles {
            self.buffers.swap_remove(0)
        } else {
            let total: usize = done.iter().map(|di| di.pairs.len()).sum();
            let mut pairs = Vec::with_capacity(total);
            for di in &done {
                pairs.extend_from_slice(self.pairs(di));
            }
            ResultSet::from_pairs(pairs)
        };
        let batches = done.into_iter().flat_map(|di| di.batches).collect();
        (result, batches)
    }
}

/// Accumulated per-device state across recovery rounds.
#[derive(Default)]
struct DeviceState {
    /// Set when the device latches a persistent failure; failed devices
    /// never receive re-sharded work.
    failed: bool,
    done: Vec<DoneItem>,
    recovery: RecoveryCounters,
    reassigned_in: usize,
    reassigned_out: usize,
}

impl DeviceState {
    /// This device's pipeline schedule over everything it has executed so
    /// far, and its response time: pipeline makespan plus serially accrued
    /// recovery time (retry backoff, the CPU fallback charged to it).
    fn pipeline_and_response(&self) -> (PipelineReport, f64) {
        let pipeline = schedule(self.done.iter().flat_map(|di| &di.batches));
        let cpu_s = self.recovery.cpu.map_or(0.0, |(_, _, s)| s);
        let response = pipeline.total_s + self.recovery.backoff_s() + cpu_s;
        (pipeline, response)
    }
}

/// A unit of pending executor work: a batch/chunk of the original plan, or
/// an explicit query set (recovery split, counter repair, or a query-set
/// work item handed over from another device).
enum Work {
    Planned(usize),
    Split(Vec<u32>),
}

impl Work {
    /// The query ids this work runs (for splits, counter repairs, and
    /// degradation hand-off).
    fn queries(&self, plan: &BatchPlan) -> Vec<u32> {
        match self {
            Work::Planned(unit) => plan.unit_queries(*unit).to_vec(),
            Work::Split(queries) => queries.clone(),
        }
    }
}

struct Pending {
    /// Index of the submitting [`WorkItem`] in the shard's item list.
    item: usize,
    work: Work,
    transient_attempts: u32,
    counter_attempts: u32,
    /// How many overflow splits produced this unit (its ancestry depth):
    /// the geometric overflow backoff escalates with it, like the other
    /// retry classes escalate with their per-unit attempt counts.
    split_attempts: u32,
}

impl Pending {
    fn new(item: usize, work: Work, split_attempts: u32) -> Self {
        Pending {
            item,
            work,
            transient_attempts: 0,
            counter_attempts: 0,
            split_attempts,
        }
    }

    /// The re-submittable [`WorkItem`] of this unexecuted entry: a
    /// still-planned unit stays planned (a surviving device re-aims its own
    /// queue head at the chunk), while recovery-produced query sets travel
    /// as explicit query items keyed to their originating unit.
    fn remnant(self, items: &[WorkItem]) -> WorkItem {
        WorkItem {
            unit: items[self.item].unit,
            queries: match self.work {
                Work::Planned(_) => None,
                Work::Split(queries) => Some(queries),
            },
            split_attempts: self.split_attempts,
        }
    }
}

/// Tallies of what recovery had to do during one shard's execution.
#[derive(Clone, Default)]
struct RecoveryCounters {
    transient_retries: u32,
    overflow_splits: u32,
    counter_retries: u32,
    transfer_stalls: u32,
    /// Individual backoff charges, model seconds, in execution order. Kept
    /// as terms and left-folded at report time, so that merging per-item or
    /// per-device tallies by concatenation (always in plan/device order)
    /// reproduces the serial `+=` accumulation bit-for-bit — f64 addition
    /// is not associative, partial sums would not be.
    backoff_terms: Vec<f64>,
    device_lost: bool,
    /// `(points, pairs, model seconds)` of the CPU fallback, if it ran.
    cpu: Option<(usize, u64, f64)>,
}

impl RecoveryCounters {
    /// Total recovery backoff in model seconds: the left-fold of the
    /// charge terms in execution order.
    fn backoff_s(&self) -> f64 {
        self.backoff_terms.iter().fold(0.0, |acc, t| acc + t)
    }

    /// Folds another shard's tallies into this one (fleet merge). The
    /// `device_lost` flag becomes "any device lost"; CPU fallback accounting
    /// sums across shards.
    fn merge(&mut self, other: &RecoveryCounters) {
        self.transient_retries += other.transient_retries;
        self.overflow_splits += other.overflow_splits;
        self.counter_retries += other.counter_retries;
        self.transfer_stalls += other.transfer_stalls;
        self.backoff_terms.extend_from_slice(&other.backoff_terms);
        self.device_lost |= other.device_lost;
        if let Some((points, pairs, model_s)) = other.cpu {
            let acc = self.cpu.get_or_insert((0, 0, 0.0));
            acc.0 += points;
            acc.1 += pairs;
            acc.2 += model_s;
        }
    }

    fn into_report(self, batches_salvaged: usize) -> Option<DegradationReport> {
        let clean = self.transient_retries == 0
            && self.overflow_splits == 0
            && self.counter_retries == 0
            && self.transfer_stalls == 0
            && !self.device_lost
            && self.cpu.is_none();
        if clean {
            return None;
        }
        let (points_degraded, cpu_pairs, cpu_model_s) = self.cpu.unwrap_or((0, 0, 0.0));
        Some(DegradationReport {
            batches_salvaged,
            points_degraded,
            cpu_pairs,
            cpu_model_s,
            transient_retries: self.transient_retries,
            overflow_splits: self.overflow_splits,
            counter_retries: self.counter_retries,
            transfer_stalls: self.transfer_stalls,
            backoff_s: self.backoff_s(),
            device_lost: self.device_lost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use crate::config::{AccessPattern, Balancing};
    use warpsim::GpuConfig;

    fn skewed_points(n: usize) -> Vec<Point<2>> {
        // Half the points bunched in a dense blob, half spread out.
        let mut pts = Vec::with_capacity(n);
        for i in 0..n / 2 {
            pts.push([
                0.2 + 0.001 * (i % 50) as f32,
                0.2 + 0.0013 * (i % 37) as f32,
            ]);
        }
        for i in n / 2..n {
            pts.push([3.0 + 0.17 * (i % 61) as f32, 2.0 + 0.19 * (i % 53) as f32]);
        }
        pts
    }

    /// A jittered `side`-wide lattice: near-uniform density (every point
    /// has a similar neighbor count), the GPU-favorable workload shape.
    fn lattice_points(n: usize, side: usize) -> Vec<Point<2>> {
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let (r, c) = (i / side, i % side);
            pts.push([
                0.04 * c as f32 + 0.009 * ((i * 7) % 5) as f32,
                0.04 * r as f32 + 0.009 * ((i * 11) % 5) as f32,
            ]);
        }
        pts
    }

    fn reference(pts: &[Point<2>], eps: f32) -> Vec<(u32, u32)> {
        let mut p = brute_force_join(pts, eps);
        p.sort_unstable();
        p
    }

    fn all_variants(eps: f32) -> Vec<SelfJoinConfig> {
        let mut configs = Vec::new();
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            for pattern in [
                AccessPattern::FullWindow,
                AccessPattern::Unicomp,
                AccessPattern::LidUnicomp,
            ] {
                for k in [1u32, 8] {
                    configs.push(
                        SelfJoinConfig::new(eps)
                            .with_pattern(pattern)
                            .with_balancing(balancing)
                            .with_k(k),
                    );
                }
            }
        }
        configs
    }

    #[test]
    fn every_variant_matches_brute_force() {
        let pts = skewed_points(120);
        let eps = 0.08;
        let expected = reference(&pts, eps);
        for config in all_variants(eps) {
            let label = config.label();
            let outcome = SelfJoin::new(&pts, config).unwrap().run().unwrap();
            assert_eq!(outcome.result.sorted_pairs(), expected, "variant {label}");
            outcome
                .result
                .validate()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn hybrid_matches_gpu_run_for_every_variant_and_split() {
        let pts = skewed_points(120);
        let eps = 0.08;
        let expected = reference(&pts, eps);
        for config in all_variants(eps) {
            let label = config.label();
            let gpu = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
            for fraction in [0.0, 0.5, 1.0] {
                let policy = HybridPolicy::default().with_forced_cpu_fraction(fraction);
                let hybrid = SelfJoin::new(&pts, config.clone())
                    .unwrap()
                    .run_hybrid(&policy)
                    .unwrap();
                assert_eq!(
                    hybrid.result.sorted_pairs(),
                    expected,
                    "variant {label}, fraction {fraction}"
                );
                // The canonical report is split-invariant: same batches,
                // same pipeline schedule, same totals as the GPU run.
                assert_eq!(hybrid.report.num_batches, gpu.report.num_batches);
                assert_eq!(hybrid.report.total_pairs, gpu.report.total_pairs);
                assert_eq!(
                    hybrid.report.pipeline.total_s.to_bits(),
                    gpu.report.pipeline.total_s.to_bits(),
                    "variant {label}, fraction {fraction}"
                );
                assert_eq!(hybrid.report.totals, gpu.report.totals);
                assert!(hybrid.hybrid.makespan_s.is_finite());
            }
        }
    }

    #[test]
    fn hybrid_chosen_cut_beats_both_single_backends_on_skewed_data() {
        // The makespan pin of the co-executor: on a skewed workload the
        // chosen cut's overlapped makespan is no worse than either pure
        // backend under the same cost model. WorkQueue without the balanced
        // queue keeps per-unit workloads descending, so there is a light
        // tail worth offloading.
        let pts = skewed_points(400);
        let config = SelfJoinConfig::new(0.1)
            .with_pattern(AccessPattern::LidUnicomp)
            .with_balancing(Balancing::WorkQueue)
            .with_batching(crate::BatchingConfig {
                max_batches: 16,
                ..crate::BatchingConfig::default()
            });
        let join = SelfJoin::new(&pts, config).unwrap();
        let auto = join.run_hybrid(&HybridPolicy::default()).unwrap();
        let gpu_only = join
            .run_hybrid(&HybridPolicy::default().with_forced_cpu_fraction(0.0))
            .unwrap();
        let cpu_only = join.run_hybrid(&HybridPolicy::cpu_only()).unwrap();
        assert_eq!(gpu_only.hybrid.cut, gpu_only.hybrid.units);
        assert_eq!(cpu_only.hybrid.cut, 0);
        let bound = gpu_only.hybrid.makespan_s.min(cpu_only.hybrid.makespan_s);
        assert!(
            auto.hybrid.makespan_s <= bound + 1e-12,
            "hybrid {} vs min(gpu {}, cpu {})",
            auto.hybrid.makespan_s,
            gpu_only.hybrid.makespan_s,
            cpu_only.hybrid.makespan_s
        );
        assert_eq!(auto.result.sorted_pairs(), gpu_only.result.sorted_pairs());
    }

    #[test]
    fn hybrid_cpu_only_is_the_checked_cpu_result() {
        // ExecMode::Cpu routes through cpu_only(): every unit is computed
        // by the pool and differentially checked against the GPU shadow.
        let pts = skewed_points(150);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let config = SelfJoinConfig::new(eps).with_balancing(Balancing::SortByWorkload);
        let join = SelfJoin::new(&pts, config).unwrap();
        let outcome = join.run_hybrid(&HybridPolicy::cpu_only()).unwrap();
        assert_eq!(outcome.result.sorted_pairs(), expected);
        assert_eq!(outcome.hybrid.gpu_units, 0);
        assert!(outcome.hybrid.cpu_stats.queries >= pts.len());
        assert!(outcome.hybrid.cpu_model_s > 0.0);
    }

    #[test]
    fn hybrid_jobs_count_does_not_change_the_outcome() {
        let pts = skewed_points(200);
        let config = SelfJoinConfig::new(0.1).with_balancing(Balancing::WorkQueue);
        let join = SelfJoin::new(&pts, config).unwrap();
        let one = join
            .run_hybrid(&HybridPolicy::default().with_forced_cpu_fraction(0.4))
            .unwrap();
        let many = join
            .run_hybrid(
                &HybridPolicy::default()
                    .with_forced_cpu_fraction(0.4)
                    .with_jobs(4),
            )
            .unwrap();
        assert_eq!(one.result.sorted_pairs(), many.result.sorted_pairs());
        assert_eq!(one.hybrid.cut, many.hybrid.cut);
        assert_eq!(
            one.hybrid.cpu_model_s.to_bits(),
            many.hybrid.cpu_model_s.to_bits()
        );
        assert_eq!(
            one.report.pipeline.total_s.to_bits(),
            many.report.pipeline.total_s.to_bits()
        );
    }

    #[test]
    fn batching_splits_and_preserves_results() {
        let pts = skewed_points(200);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: expected.len() / 3 + 8,
            ..crate::BatchingConfig::default()
        };
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            let config = SelfJoinConfig::new(eps)
                .with_balancing(balancing)
                .with_batching(small_batches);
            let outcome = SelfJoin::new(&pts, config).unwrap().run().unwrap();
            assert!(
                outcome.report.num_batches >= 2,
                "{balancing:?}: expected multiple batches, got {}",
                outcome.report.num_batches
            );
            assert_eq!(outcome.result.sorted_pairs(), expected, "{balancing:?}");
            for batch in &outcome.report.batches {
                assert!(batch.pairs <= small_batches.batch_result_capacity);
            }
        }
    }

    #[test]
    fn workqueue_runs_at_least_as_many_batches_as_strided() {
        // The prefix (heaviest-first) estimator is pessimistic → more batches
        // (§III-D).
        let pts = skewed_points(300);
        let eps = 0.1;
        let batching = crate::BatchingConfig {
            batch_result_capacity: 3_000,
            safety_factor: 1.5,
            ..crate::BatchingConfig::default()
        };
        let strided = SelfJoin::new(&pts, SelfJoinConfig::new(eps).with_batching(batching))
            .unwrap()
            .run()
            .unwrap();
        let queued = SelfJoin::new(
            &pts,
            SelfJoinConfig::new(eps)
                .with_balancing(Balancing::WorkQueue)
                .with_batching(batching),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(queued.report.num_batches >= strided.report.num_batches);
    }

    #[test]
    fn workqueue_improves_wee_on_skewed_data() {
        let pts = skewed_points(400);
        let eps = 0.12;
        let base = SelfJoin::new(&pts, SelfJoinConfig::new(eps))
            .unwrap()
            .run()
            .unwrap();
        let wq = SelfJoin::new(
            &pts,
            SelfJoinConfig::new(eps).with_balancing(Balancing::WorkQueue),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            wq.report.wee() > base.report.wee(),
            "WORKQUEUE WEE {} should beat baseline WEE {}",
            wq.report.wee(),
            base.report.wee()
        );
    }

    #[test]
    fn stale_maintained_index_is_a_stale_index_error() {
        let pts = skewed_points(60);
        let config = SelfJoinConfig::new(0.1);
        let grid = GridIndex::build(&pts, 0.2).unwrap();
        let err = SelfJoin::with_maintained_index(&pts, config.clone(), grid, None).unwrap_err();
        assert!(matches!(err, JoinError::StaleIndex(_)), "{err}");
        assert!(!err.to_string().contains("fleet"), "{err}");
        let grid = GridIndex::build(&pts[..30], 0.1).unwrap();
        let err = SelfJoin::with_maintained_index(&pts, config, grid, None).unwrap_err();
        assert!(matches!(err, JoinError::StaleIndex(_)), "{err}");
        assert!(!err.is_execution());
    }

    #[test]
    fn invalid_k_is_rejected() {
        let pts = skewed_points(10);
        let config = SelfJoinConfig::new(0.1).with_k(5);
        assert!(matches!(
            SelfJoin::new(&pts, config),
            Err(JoinError::InvalidK(_))
        ));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let pts: Vec<Point<2>> = vec![];
        assert!(matches!(
            SelfJoin::new(&pts, SelfJoinConfig::new(0.1)),
            Err(JoinError::Grid(_))
        ));
    }

    #[test]
    fn report_invariants() {
        let pts = skewed_points(150);
        let outcome = SelfJoin::new(&pts, SelfJoinConfig::optimized(0.1))
            .unwrap()
            .run()
            .unwrap();
        let r = &outcome.report;
        assert!(r.wee() > 0.0 && r.wee() <= 1.0);
        assert_eq!(r.total_pairs, outcome.result.len());
        assert!(r.response_time_s() >= r.kernel_time_s() - 1e-12);
        assert!(r.distance_calcs() > 0);
        assert_eq!(r.batches.len(), r.num_batches);
        let stats = r.warp_stats().unwrap();
        assert!(stats.count > 0);
    }

    #[test]
    fn balanced_queue_tightens_per_batch_result_spread() {
        let pts = skewed_points(500);
        let eps = 0.15;
        let batching = crate::BatchingConfig {
            batch_result_capacity: 8_000,
            safety_factor: 1.5,
            ..crate::BatchingConfig::default()
        };
        let fixed = SelfJoin::new(
            &pts,
            SelfJoinConfig::new(eps)
                .with_balancing(Balancing::WorkQueue)
                .with_batching(batching),
        )
        .unwrap()
        .run()
        .unwrap();
        let balanced = SelfJoin::new(
            &pts,
            SelfJoinConfig::new(eps)
                .with_balancing(Balancing::WorkQueue)
                .with_batching(crate::BatchingConfig {
                    balanced_queue: true,
                    ..batching
                }),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(balanced.result.same_pairs_as(&fixed.result));
        let spread = |r: &crate::JoinReport| -> f64 {
            let pairs: Vec<f64> = r.batches.iter().map(|b| b.pairs as f64).collect();
            let mean = pairs.iter().sum::<f64>() / pairs.len() as f64;
            if mean == 0.0 {
                return 0.0;
            }
            pairs.iter().copied().fold(f64::MIN, f64::max) / mean
        };
        assert!(
            fixed.report.num_batches >= 2,
            "need several batches for the comparison"
        );
        assert!(
            spread(&balanced.report) <= spread(&fixed.report) + 1e-9,
            "balanced chunking must not widen the per-batch result spread \
             (balanced {:.2} vs fixed {:.2})",
            spread(&balanced.report),
            spread(&fixed.report)
        );
    }

    #[test]
    fn recommended_k_tracks_workload() {
        // Dense duplicate-heavy data → large candidate sets → high k.
        let dense: Vec<Point<2>> = (0..600)
            .map(|i| [0.001 * (i % 10) as f32, 0.001 * (i / 10) as f32])
            .collect();
        let join = SelfJoin::new(&dense, SelfJoinConfig::new(0.5)).unwrap();
        assert_eq!(join.recommended_k(), 8);
        assert!(join.mean_candidates() > 512.0);
        // Sparse data → tiny candidate sets → k = 1.
        let sparse: Vec<Point<2>> = (0..200)
            .map(|i| [10.0 * (i % 20) as f32, 10.0 * (i / 20) as f32])
            .collect();
        let join = SelfJoin::new(&sparse, SelfJoinConfig::new(0.5)).unwrap();
        assert_eq!(join.recommended_k(), 1);
    }

    #[test]
    fn overflow_triggers_replan_with_more_batches() {
        // Give the estimator a hopeless sample fraction so it undercounts,
        // with a buffer too small for the single planned batch: the executor
        // must recover by doubling the batch count.
        let pts = skewed_points(300);
        let eps = 0.12;
        let expected = reference(&pts, eps);
        assert!(!expected.is_empty());
        let config = SelfJoinConfig::new(eps).with_batching(crate::BatchingConfig {
            batch_result_capacity: expected.len() / 4 + 64,
            sample_fraction: 0.005,
            safety_factor: 1.0,
            ..crate::BatchingConfig::default()
        });
        let outcome = SelfJoin::new(&pts, config).unwrap().run().unwrap();
        assert_eq!(outcome.result.sorted_pairs(), expected);
        assert!(outcome.report.num_batches >= 2);
    }

    #[test]
    fn transient_faults_are_retried_to_an_exact_result() {
        let pts = skewed_points(150);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let plane = warpsim::FaultPlane::new(
            warpsim::FaultSchedule::new()
                .transient_at(0)
                .transient_at(1),
        );
        let config = SelfJoinConfig::new(eps).with_balancing(Balancing::SortByWorkload);
        let outcome = SelfJoin::new(&pts, config)
            .unwrap()
            .with_fault_plane(&plane)
            .run()
            .unwrap();
        assert_eq!(outcome.result.sorted_pairs(), expected);
        assert!(outcome.report.response_time_s() > outcome.report.pipeline.total_s);
        let d = outcome.report.degradation.expect("faulted run must report");
        assert_eq!(d.transient_retries, 2);
        assert!(!d.device_lost);
        assert_eq!(d.points_degraded, 0);
        assert!(d.backoff_s > 0.0);
    }

    #[test]
    fn device_lost_mid_join_degrades_to_exact_cpu_fallback() {
        let pts = skewed_points(200);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: expected.len() / 3 + 8,
            ..crate::BatchingConfig::default()
        };
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            // Lose the device on the second batch so at least one GPU batch
            // is salvaged and the rest complete on the CPU.
            let plane = warpsim::FaultPlane::new(warpsim::FaultSchedule::new().device_lost_at(1));
            let config = SelfJoinConfig::new(eps)
                .with_balancing(balancing)
                .with_batching(small_batches);
            let outcome = SelfJoin::new(&pts, config)
                .unwrap()
                .with_fault_plane(&plane)
                .run()
                .unwrap();
            assert_eq!(outcome.result.sorted_pairs(), expected, "{balancing:?}");
            let d = outcome
                .report
                .degradation
                .expect("degraded run must report");
            assert!(d.device_lost, "{balancing:?}");
            assert_eq!(d.batches_salvaged, 1, "{balancing:?}");
            assert!(d.points_degraded > 0, "{balancing:?}");
            assert!(d.cpu_model_s > 0.0, "{balancing:?}");
        }
    }

    #[test]
    fn counter_bump_is_detected_repaired_and_rerun() {
        let pts = skewed_points(200);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: expected.len() / 3 + 8,
            ..crate::BatchingConfig::default()
        };
        let plane = warpsim::FaultPlane::new(warpsim::FaultSchedule::new().counter_bump_at(1, 7));
        let config = SelfJoinConfig::new(eps)
            .with_balancing(Balancing::WorkQueue)
            .with_batching(small_batches);
        let outcome = SelfJoin::new(&pts, config)
            .unwrap()
            .with_fault_plane(&plane)
            .run()
            .unwrap();
        assert_eq!(outcome.result.sorted_pairs(), expected);
        let d = outcome.report.degradation.expect("faulted run must report");
        assert_eq!(d.counter_retries, 1);
        assert_eq!(d.points_degraded, 0);
    }

    #[test]
    fn transfer_stall_lengthens_response_but_not_pairs() {
        let pts = skewed_points(120);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let config = SelfJoinConfig::new(eps);
        let clean = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
        let plane =
            warpsim::FaultPlane::new(warpsim::FaultSchedule::new().transfer_stall_at(0, 0.25));
        let stalled = SelfJoin::new(&pts, config)
            .unwrap()
            .with_fault_plane(&plane)
            .run()
            .unwrap();
        assert_eq!(stalled.result.sorted_pairs(), expected);
        assert!(clean.report.degradation.is_none());
        let d = stalled.report.degradation.expect("stall must be reported");
        assert_eq!(d.transfer_stalls, 1);
        assert!(stalled.report.pipeline.total_s > clean.report.pipeline.total_s + 0.2);
    }

    #[test]
    fn empty_fault_plane_is_bit_identical_to_no_plane() {
        let pts = skewed_points(150);
        let config = SelfJoinConfig::optimized(0.1);
        let clean = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
        let plane = warpsim::FaultPlane::new(warpsim::FaultSchedule::new());
        let faulted = SelfJoin::new(&pts, config)
            .unwrap()
            .with_fault_plane(&plane)
            .run()
            .unwrap();
        assert_eq!(clean.result.sorted_pairs(), faulted.result.sorted_pairs());
        assert_eq!(
            clean.report.response_time_s(),
            faulted.report.response_time_s()
        );
        assert_eq!(clean.report.totals.cycles, faulted.report.totals.cycles);
        assert!(faulted.report.degradation.is_none());
    }

    #[test]
    fn overflow_past_the_split_budget_is_a_typed_terminal_error() {
        // A query whose own neighbourhood outgrows the result buffer cannot
        // be split any further: the walk halves its batch down to that one
        // query and then stops with a typed terminal error, not a loop.
        let pts = skewed_points(300);
        let eps = 0.12;
        let mut degree = vec![0usize; pts.len()];
        for (a, _) in reference(&pts, eps) {
            degree[a as usize] += 1;
        }
        let widest = degree.into_iter().max().unwrap();
        // The planner pads each buffer to at most twice `b_s`.
        let config = SelfJoinConfig::new(eps).with_batching(crate::BatchingConfig {
            batch_result_capacity: (widest - 1) / 2,
            ..crate::BatchingConfig::default()
        });
        let err = SelfJoin::new(&pts, config).unwrap().run().unwrap_err();
        assert!(matches!(
            err,
            JoinError::Launch(LaunchError::ResultOverflow(_))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let pts = skewed_points(100);
        let config = SelfJoinConfig::new(0.1).with_balancing(Balancing::SortByWorkload);
        let a = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
        let b = SelfJoin::new(&pts, config).unwrap().run().unwrap();
        assert_eq!(a.result.sorted_pairs(), b.result.sorted_pairs());
        assert_eq!(a.report.response_time_s(), b.report.response_time_s());
        assert_eq!(a.report.wee(), b.report.wee());
    }

    #[test]
    fn small_gpu_config_also_works() {
        let pts = skewed_points(60);
        let config = SelfJoinConfig::optimized(0.1).with_gpu(GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        });
        let outcome = SelfJoin::new(&pts, config).unwrap().run().unwrap();
        assert_eq!(outcome.result.sorted_pairs(), reference(&pts, 0.1));
    }

    /// Asserts the fleet's canonical outcome is bit-identical to a
    /// single-device run: same pairs in the same production order, same
    /// batches with the same model times, same canonical report.
    fn assert_canonical_match(single: &JoinOutcome, fleet: &crate::FleetOutcome, ctx: &str) {
        assert_eq!(single.result.pairs(), fleet.result.pairs(), "{ctx}: pairs");
        assert_eq!(
            single.report.estimate, fleet.report.estimate,
            "{ctx}: estimate"
        );
        assert_eq!(
            single.report.num_batches, fleet.report.num_batches,
            "{ctx}: num_batches"
        );
        assert_eq!(
            single.report.total_pairs, fleet.report.total_pairs,
            "{ctx}: total_pairs"
        );
        assert_eq!(single.report.totals, fleet.report.totals, "{ctx}: totals");
        assert_eq!(
            single.report.pipeline.total_s.to_bits(),
            fleet.report.pipeline.total_s.to_bits(),
            "{ctx}: pipeline total"
        );
        assert_eq!(
            single.report.response_time_s().to_bits(),
            fleet.report.response_time_s().to_bits(),
            "{ctx}: response time"
        );
        assert_eq!(
            single.report.degradation, fleet.report.degradation,
            "{ctx}: degradation"
        );
        for (i, (a, b)) in single
            .report
            .batches
            .iter()
            .zip(&fleet.report.batches)
            .enumerate()
        {
            assert_eq!(a.pairs, b.pairs, "{ctx}: batch {i} pairs");
            assert_eq!(
                a.kernel_s.to_bits(),
                b.kernel_s.to_bits(),
                "{ctx}: batch {i} kernel"
            );
            assert_eq!(
                a.transfer_s.to_bits(),
                b.transfer_s.to_bits(),
                "{ctx}: batch {i} transfer"
            );
        }
    }

    #[test]
    fn fleet_of_one_is_bit_identical_to_run() {
        let pts = skewed_points(200);
        let eps = 0.1;
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: reference(&pts, eps).len() / 3 + 8,
            ..crate::BatchingConfig::default()
        };
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            let config = SelfJoinConfig::new(eps)
                .with_balancing(balancing)
                .with_batching(small_batches);
            let single = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
            let join = SelfJoin::new(&pts, config.clone()).unwrap();
            let fleet = warpsim::DeviceFleet::homogeneous(1, config.gpu);
            let sharded = join
                .run_on_fleet(&fleet, crate::ShardStrategy::WorkloadAware)
                .unwrap();
            assert_canonical_match(&single, &sharded, &format!("{balancing:?}"));
            assert_eq!(sharded.fleet.shards.len(), 1);
            assert_eq!(
                sharded.fleet.shards[0].batches, single.report.num_batches,
                "{balancing:?}: the only shard holds the whole plan"
            );
        }
    }

    #[test]
    fn fleet_canonical_report_is_device_count_invariant() {
        let pts = skewed_points(300);
        let eps = 0.12;
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: reference(&pts, eps).len() / 6 + 8,
            ..crate::BatchingConfig::default()
        };
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            for strategy in [
                crate::ShardStrategy::WorkloadAware,
                crate::ShardStrategy::EqualCount,
            ] {
                let config = SelfJoinConfig::new(eps)
                    .with_balancing(balancing)
                    .with_batching(small_batches);
                let single = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
                assert!(single.report.num_batches >= 4, "want several units");
                let join = SelfJoin::new(&pts, config.clone()).unwrap();
                let fleet = warpsim::DeviceFleet::homogeneous(4, config.gpu);
                let sharded = join.run_on_fleet(&fleet, strategy).unwrap();
                let ctx = format!("{balancing:?}/{}", strategy.label());
                assert_canonical_match(&single, &sharded, &ctx);
                assert_eq!(sharded.fleet.shards.len(), 4, "{ctx}");
                // Shards tile the plan: per-shard batch and pair counts sum
                // to the canonical totals (splits included).
                let shard_batches: usize = sharded.fleet.shards.iter().map(|s| s.batches).sum();
                let shard_pairs: usize = sharded.fleet.shards.iter().map(|s| s.pairs).sum();
                assert_eq!(shard_batches, sharded.report.num_batches, "{ctx}");
                assert_eq!(shard_pairs, sharded.report.total_pairs, "{ctx}");
                // Every shard runs no longer than the fleet makespan, and the
                // makespan is no longer than the serialized canonical time.
                for s in &sharded.fleet.shards {
                    assert!(
                        s.response_time_s <= sharded.fleet.makespan_s + 1e-12,
                        "{ctx}"
                    );
                }
                assert!(
                    sharded.fleet.makespan_s <= sharded.report.response_time_s() + 1e-12,
                    "{ctx}: makespan {} vs canonical {}",
                    sharded.fleet.makespan_s,
                    sharded.report.response_time_s()
                );
            }
        }
    }

    #[test]
    fn fleet_device_loss_degrades_only_that_shard_under_degrade_policy() {
        // RecoveryPolicy::Degrade reproduces the pre-failover behaviour:
        // the lost shard finishes its own remainder on the CPU.
        let pts = skewed_points(240);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: expected.len() / 6 + 8,
            ..crate::BatchingConfig::default()
        };
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            let config = SelfJoinConfig::new(eps)
                .with_balancing(balancing)
                .with_batching(small_batches)
                .with_recovery(crate::RecoveryPolicy::Degrade);
            let join = SelfJoin::new(&pts, config.clone()).unwrap();
            let fleet = warpsim::DeviceFleet::homogeneous(3, config.gpu)
                .with_fault_schedule(1, warpsim::FaultSchedule::new().device_lost_at(0));
            let outcome = join
                .run_on_fleet(&fleet, crate::ShardStrategy::WorkloadAware)
                .unwrap();
            // The merged join is still exact.
            assert_eq!(outcome.result.sorted_pairs(), expected, "{balancing:?}");
            assert_eq!(fleet.lost_devices(), 1, "{balancing:?}");
            assert!(!outcome.fleet.recovery.intervened(), "{balancing:?}");
            // Only device 1's shard reports a degradation.
            let lost = &outcome.fleet.shards[1];
            let d = lost.degradation.as_ref().expect("lost shard must report");
            assert!(d.device_lost, "{balancing:?}");
            assert!(d.points_degraded > 0, "{balancing:?}");
            for s in [&outcome.fleet.shards[0], &outcome.fleet.shards[2]] {
                assert!(
                    s.degradation.is_none(),
                    "{balancing:?}: clean shard {} must not degrade",
                    s.device
                );
            }
            // The canonical report carries the merged degradation.
            let merged = outcome.report.degradation.as_ref().unwrap();
            assert!(merged.device_lost, "{balancing:?}");
            assert_eq!(merged.points_degraded, d.points_degraded, "{balancing:?}");
        }
    }

    #[test]
    fn fleet_device_loss_reshards_onto_survivors() {
        // Default policy: the lost device's unexecuted units are re-cut
        // workload-aware across the survivors and the merged result stays
        // bit-identical to the clean fleet run — no CPU degradation at all.
        let pts = skewed_points(240);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: expected.len() / 6 + 8,
            ..crate::BatchingConfig::default()
        };
        for balancing in [
            Balancing::None,
            Balancing::SortByWorkload,
            Balancing::WorkQueue,
        ] {
            let config = SelfJoinConfig::new(eps)
                .with_balancing(balancing)
                .with_batching(small_batches);
            let clean = SelfJoin::new(&pts, config.clone())
                .unwrap()
                .run_on_fleet(
                    &warpsim::DeviceFleet::homogeneous(4, config.gpu),
                    crate::ShardStrategy::WorkloadAware,
                )
                .unwrap();
            let join = SelfJoin::new(&pts, config.clone()).unwrap();
            let fleet = warpsim::DeviceFleet::homogeneous(4, config.gpu)
                .with_fault_schedule(1, warpsim::FaultSchedule::new().device_lost_at(0));
            let outcome = join
                .run_on_fleet(&fleet, crate::ShardStrategy::WorkloadAware)
                .unwrap();
            // Bit-identical to the clean run: same pair production order,
            // not just the same set.
            assert_eq!(
                outcome.result.pairs(),
                clean.result.pairs(),
                "{balancing:?}"
            );
            assert_eq!(outcome.result.sorted_pairs(), expected, "{balancing:?}");
            let rec = &outcome.fleet.recovery;
            assert!(rec.reshard_rounds >= 1, "{balancing:?}");
            assert_eq!(rec.devices_lost, 1, "{balancing:?}");
            assert!(rec.reassigned_units >= 1, "{balancing:?}");
            assert_eq!(rec.cpu_last_resort_points, 0, "{balancing:?}");
            assert!(
                outcome.report.degradation.is_none()
                    || !outcome
                        .report
                        .degradation
                        .as_ref()
                        .unwrap()
                        .cpu_fallback_ran(),
                "{balancing:?}: reshard must not fall back to the CPU"
            );
            // Accounting: the lost shard handed units out, survivors took
            // them in.
            assert!(outcome.fleet.shards[1].reassigned_out >= 1, "{balancing:?}");
            let taken: usize = outcome.fleet.shards.iter().map(|s| s.reassigned_in).sum();
            assert_eq!(
                taken, outcome.fleet.shards[1].reassigned_out,
                "{balancing:?}"
            );
            assert!(
                rec.health
                    .iter()
                    .any(|h| h.state == crate::DeviceHealth::Lost && h.device == 1),
                "{balancing:?}"
            );
        }
    }

    #[test]
    fn fleet_reshard_beats_cpu_degradation_makespan() {
        // The point of failover: at a dataset size where the GPU's
        // parallelism is actually exercised (hundreds of queries per
        // launch, compute-bound on a high-bandwidth link), finishing the
        // lost shard's work on the survivors beats finishing it on the
        // host. (On tiny or transfer-bound workloads the modeled host can
        // win — the GPU sits mostly idle — so this property is asserted in
        // the paper's GPU-favorable regime.)
        let pts = lattice_points(9800, 99);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let small_batches = crate::BatchingConfig {
            batch_result_capacity: expected.len() / 12 + 8,
            transfer_bandwidth: 80.0e9,
            ..crate::BatchingConfig::default()
        };
        let config = SelfJoinConfig::new(eps)
            .with_balancing(Balancing::WorkQueue)
            .with_batching(small_batches);
        let run = |recovery: crate::RecoveryPolicy| {
            let cfg = config.clone().with_recovery(recovery);
            let fleet = warpsim::DeviceFleet::homogeneous(4, cfg.gpu)
                .with_fault_schedule(1, warpsim::FaultSchedule::new().device_lost_at(0));
            SelfJoin::new(&pts, cfg)
                .unwrap()
                .run_on_fleet(&fleet, crate::ShardStrategy::WorkloadAware)
                .unwrap()
        };
        let resharded = run(crate::RecoveryPolicy::Reshard);
        let degraded = run(crate::RecoveryPolicy::Degrade);
        assert_eq!(resharded.result.sorted_pairs(), expected);
        assert_eq!(
            resharded.result.sorted_pairs(),
            degraded.result.sorted_pairs()
        );
        assert!(resharded.fleet.recovery.reshard_rounds >= 1);
        assert!(degraded.fleet.recovery.reshard_rounds == 0);
        assert!(
            resharded.fleet.makespan_s < degraded.fleet.makespan_s,
            "recovered makespan {} must beat degraded {}",
            resharded.fleet.makespan_s,
            degraded.fleet.makespan_s
        );
    }

    #[test]
    fn fleet_all_devices_lost_falls_back_to_cpu_last_resort() {
        let pts = skewed_points(160);
        let eps = 0.1;
        let expected = reference(&pts, eps);
        let config = SelfJoinConfig::new(eps).with_balancing(Balancing::WorkQueue);
        let join = SelfJoin::new(&pts, config.clone()).unwrap();
        let mut fleet = warpsim::DeviceFleet::homogeneous(2, config.gpu);
        for d in 0..2 {
            fleet = fleet.with_fault_schedule(d, warpsim::FaultSchedule::new().device_lost_at(0));
        }
        let outcome = join
            .run_on_fleet(&fleet, crate::ShardStrategy::WorkloadAware)
            .unwrap();
        assert_eq!(outcome.result.sorted_pairs(), expected);
        let rec = &outcome.fleet.recovery;
        assert_eq!(rec.devices_lost, 2);
        assert!(rec.cpu_last_resort_points > 0);
        assert!(rec.cpu_last_resort_model_s > 0.0);
        // The serial host tail extends the makespan.
        assert!(outcome.fleet.makespan_s >= rec.cpu_last_resort_model_s);
        let merged = outcome.report.degradation.as_ref().unwrap();
        assert!(merged.cpu_fallback_ran());
    }

    #[test]
    fn fleet_with_more_devices_than_units_stays_exact() {
        let pts = skewed_points(80);
        let eps = 0.1;
        let config = SelfJoinConfig::optimized(eps);
        let single = SelfJoin::new(&pts, config.clone()).unwrap().run().unwrap();
        let join = SelfJoin::new(&pts, config.clone()).unwrap();
        let fleet = warpsim::DeviceFleet::homogeneous(8, config.gpu);
        let sharded = join
            .run_on_fleet(&fleet, crate::ShardStrategy::WorkloadAware)
            .unwrap();
        assert_canonical_match(&single, &sharded, "8 devices, few units");
        assert_eq!(sharded.fleet.shards.len(), 8);
        let idle = sharded
            .fleet
            .shards
            .iter()
            .filter(|s| s.units.is_empty())
            .count();
        assert!(idle > 0, "some devices must sit idle");
        for s in sharded.fleet.shards.iter().filter(|s| s.units.is_empty()) {
            assert_eq!(s.batches, 0);
            assert_eq!(s.pairs, 0);
            assert_eq!(s.response_time_s, 0.0);
        }
    }

    #[test]
    fn fleet_configuration_errors_are_typed() {
        let pts = skewed_points(40);
        let config = SelfJoinConfig::new(0.1);
        let join = SelfJoin::new(&pts, config.clone()).unwrap();
        let empty = warpsim::DeviceFleet::homogeneous(0, config.gpu);
        let err = join
            .run_on_fleet(&empty, crate::ShardStrategy::WorkloadAware)
            .unwrap_err();
        assert!(matches!(err, JoinError::Fleet(_)), "{err}");
        let narrow = warpsim::DeviceFleet::homogeneous(
            2,
            GpuConfig {
                warp_size: 8,
                block_size: 16,
                ..GpuConfig::small_test()
            },
        );
        let err = join
            .run_on_fleet(&narrow, crate::ShardStrategy::WorkloadAware)
            .unwrap_err();
        assert!(
            matches!(&err, JoinError::Fleet(msg) if msg.contains("warp size")),
            "{err}"
        );
    }
}
