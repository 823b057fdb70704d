//! Self-join configuration: which kernel variant, which mitigations.

use warpsim::{GpuConfig, IssueOrder, StepMode};

use crate::batching::BatchingConfig;

/// Why an ε value was rejected at a request entry point.
///
/// Every front door — [`crate::SelfJoin::new`], the serve protocol, the CLI,
/// the bench drivers — funnels ε through [`validate_epsilon`] so a NaN,
/// infinite, or non-positive threshold surfaces as this one typed error
/// instead of panicking (or wrapping) deep inside the grid geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpsilonError {
    /// ε is NaN or infinite.
    NonFinite,
    /// ε is zero or negative (an empty query radius joins nothing and the
    /// grid would need infinitely many cells).
    NotPositive,
}

impl std::fmt::Display for EpsilonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One canonical message: the CLI, the serve protocol and the bench
        // drivers all print this verbatim.
        match self {
            EpsilonError::NonFinite => {
                write!(
                    f,
                    "epsilon must be a finite, strictly positive number (got a non-finite value)"
                )
            }
            EpsilonError::NotPositive => {
                write!(
                    f,
                    "epsilon must be a finite, strictly positive number (got a non-positive value)"
                )
            }
        }
    }
}

impl std::error::Error for EpsilonError {}

/// Validates a request-supplied ε, returning it unchanged when acceptable.
pub fn validate_epsilon(epsilon: f32) -> Result<f32, EpsilonError> {
    if !epsilon.is_finite() {
        return Err(EpsilonError::NonFinite);
    }
    if epsilon <= 0.0 {
        return Err(EpsilonError::NotPositive);
    }
    Ok(epsilon)
}

/// The bounded recovery budgets of the resilient executor.
///
/// Every backoff is counted in **model seconds** and accounted into the
/// join's response time (on real hardware the host waits before
/// re-submitting a failed launch; the device is idle meanwhile). Backoffs
/// grow geometrically with the attempt number by
/// [`RetryPolicy::BACKOFF_MULTIPLIER`].
pub struct RetryPolicy;

impl RetryPolicy {
    /// Re-submissions of a transiently failed batch before the executor
    /// treats the device as unusable.
    pub const MAX_TRANSIENT_RETRIES: u32 = 3;
    /// Batch splits the executor may perform **per plan unit** when result
    /// buffers overflow; past this ceiling the overflow error surfaces. The
    /// budget is per unit (a unit's split ancestry depth), never shared
    /// across units, so one unit's recovery can never be starved — or
    /// rescued — by another unit's splits. This is also what lets
    /// independent units execute on different host threads without their
    /// recovery state interacting.
    pub const MAX_OVERFLOW_SPLITS: u32 = 32;
    /// Static re-runs of a queue chunk after a detected counter fault
    /// before the fault surfaces as a typed error.
    pub const MAX_COUNTER_RETRIES: u32 = 4;
    /// Base host backoff before re-submitting a transient failure, model
    /// seconds.
    pub const TRANSIENT_BACKOFF_S: f64 = 2e-3;
    /// Host re-plan cost per overflow split, model seconds.
    pub const OVERFLOW_BACKOFF_S: f64 = 1e-3;
    /// Host cost of repairing the queue head after a counter fault, model
    /// seconds.
    pub const COUNTER_BACKOFF_S: f64 = 5e-4;
    /// Geometric growth factor of per-class backoff across attempts.
    pub const BACKOFF_MULTIPLIER: f64 = 2.0;

    /// The backoff for the `attempt`-th retry (1-based) of an error class
    /// with base backoff `base_s`, model seconds.
    pub fn backoff_for(base_s: f64, attempt: u32) -> f64 {
        base_s * Self::BACKOFF_MULTIPLIER.powi(attempt.saturating_sub(1) as i32)
    }
}

/// What happens to the work a persistently failed device left unexecuted
/// (the device latched `DeviceLost`, or a launch exhausted
/// [`RetryPolicy::MAX_TRANSIENT_RETRIES`]). The remainder always ends exact.
///
/// A single-device join, and every fleet shard under `Degrade`, finishes it
/// on the exact CPU fallback join, charged to the failed device. Under
/// `Reshard` a fleet re-cuts it workload-aware across the surviving devices
/// — the same `partition_units` cut applied to a shrunken fleet — for up to
/// [`RecoveryPolicy::RESHARD_ROUNDS`] rounds, and finishes what is left on
/// the CPU as a last resort when no device survives or the rounds run out;
/// a hybrid join spills it onto its CPU backend. All recovery costs are
/// accounted in **model seconds**; the host-side re-cut itself is charged
/// at zero model cost (it reuses the already-computed per-unit workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Fleet failover onto surviving devices (the default).
    #[default]
    Reshard,
    /// The pre-recovery behaviour: a failed shard finishes its own
    /// remainder on the CPU fallback.
    Degrade,
}

impl RecoveryPolicy {
    /// Re-shard rounds a fleet may spend before the CPU last resort.
    pub const RESHARD_ROUNDS: u32 = 4;

    /// Short stable mode name (used by CLI flags and telemetry).
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::Reshard => "reshard",
            RecoveryPolicy::Degrade => "degrade",
        }
    }

    /// Parses a [`RecoveryPolicy::label`] name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "reshard" => Some(RecoveryPolicy::Reshard),
            "degrade" => Some(RecoveryPolicy::Degrade),
            _ => None,
        }
    }
}

/// The cell access pattern used by the range-query kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// The original `GPUCALCGLOBAL` pattern: every point compares against
    /// every candidate in all (up to `3^n`) adjacent cells. Each in-ε pair
    /// is therefore computed twice (once from each side).
    FullWindow,
    /// The `UNICOMP` pattern of Gowanlock & Karsin: cells with odd
    /// coordinates compare "forward" along per-dimension arrows, so each
    /// adjacent-cell pair is computed once and both orientations of a found
    /// pair are emitted after a single distance calculation. Workload per
    /// cell varies from 0 to `3^n - 1` neighbor cells.
    Unicomp,
    /// The paper's `LID-UNICOMP` pattern (§III-B): compare only to neighbor
    /// cells with a **larger linear id** than the origin cell. Same halving
    /// of distance calculations as `UNICOMP`, but every interior cell
    /// compares to exactly `(3^n - 1) / 2` neighbors — balanced work.
    LidUnicomp,
}

impl AccessPattern {
    /// Whether the pattern computes each pair once and emits both
    /// orientations (the unidirectional patterns) rather than computing each
    /// direction independently.
    pub fn is_unidirectional(&self) -> bool {
        !matches!(self, AccessPattern::FullWindow)
    }

    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            AccessPattern::FullWindow => "GPUCALCGLOBAL",
            AccessPattern::Unicomp => "UNICOMP",
            AccessPattern::LidUnicomp => "LID-UNICOMP",
        }
    }
}

/// The load-balancing strategy applied across threads and warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Balancing {
    /// Static strided assignment, hardware-arbitrary warp order (baseline).
    None,
    /// `SORTBYWL` (§III-C): each batch's points are sorted by quantified
    /// workload so warps are packed with similar-workload threads. The warp
    /// *execution* order remains up to the hardware scheduler.
    SortByWorkload,
    /// `WORKQUEUE` (§III-D): the whole dataset is sorted by workload and
    /// threads acquire points through a global atomic counter, forcing
    /// warps to execute in non-increasing workload order.
    WorkQueue,
}

impl Balancing {
    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            Balancing::None => "STATIC",
            Balancing::SortByWorkload => "SORTBYWL",
            Balancing::WorkQueue => "WORKQUEUE",
        }
    }
}

/// Where the planner's sort and prefix-sum pre-passes execute.
///
/// The paper runs SORTBYWL's sort and the batch planner's prefix sums on the
/// device; this reproduction historically ran them as host-side
/// `sort_unstable_by`/folds, invisible to the cost model. `Device` routes
/// them through the warp-kernel primitive chains in `warpsim::primitives`,
/// whose model-seconds surface as `sort`/`scan` phase telemetry. The
/// **result** of planning is bit-identical across backends (the device
/// primitives are differentially tested against the host oracles), so the
/// canonical pair set and every recorded table are invariant; only telemetry
/// and the [`PrePassReport`](crate::PrePassReport) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortBackend {
    /// Host-side sorts and folds (default; keeps recorded tables invariant).
    #[default]
    Host,
    /// Warp-kernel radix sort / exclusive scan chains, costed in model
    /// cycles and admitted through the fault plane.
    Device,
}

impl SortBackend {
    /// Short display name (`"host"` / `"device"`).
    pub fn label(&self) -> &'static str {
        match self {
            SortBackend::Host => "host",
            SortBackend::Device => "device",
        }
    }

    /// Parses a display name back into a backend.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "host" => Some(SortBackend::Host),
            "device" => Some(SortBackend::Device),
            _ => None,
        }
    }
}

/// Which execution substrate runs the join's work units, by name (the
/// `--exec-mode` flag of the front-ends; [`ExecMode::target`] maps it to an
/// [`ExecTarget`](crate::ExecTarget)).
///
/// `Gpu` is the paper's configuration: every unit of the batch plan
/// executes as simulated device kernels. `Cpu` runs every unit on the
/// modeled host backend (the exact [`crate::fallback`] path promoted from
/// degradation target to peer). `Hybrid` cuts the workload-sorted unit
/// list between the two with the throughput-aware chooser of
/// [`crate::hybrid`], co-processing both sides and merging by plan-unit
/// order. The canonical pair set is identical across all three modes; the
/// modes differ only in the co-processed makespan and the
/// [`HybridReport`](crate::HybridReport) accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Every plan unit executes on the simulated GPU (default).
    #[default]
    Gpu,
    /// Every plan unit executes on the modeled CPU backend.
    Cpu,
    /// Units are cut between the GPU and the CPU backend by the
    /// throughput-aware chooser (or a forced split fraction).
    Hybrid,
}

impl ExecMode {
    /// Short display name (`"gpu"` / `"cpu"` / `"hybrid"`).
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Gpu => "gpu",
            ExecMode::Cpu => "cpu",
            ExecMode::Hybrid => "hybrid",
        }
    }

    /// Parses a display name back into a mode.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "gpu" => Some(ExecMode::Gpu),
            "cpu" => Some(ExecMode::Cpu),
            "hybrid" => Some(ExecMode::Hybrid),
            _ => None,
        }
    }
}

/// Full configuration of one self-join execution.
#[derive(Debug, Clone)]
pub struct SelfJoinConfig {
    /// The distance threshold ε.
    pub epsilon: f32,
    /// Threads per query point (§III-A). Must divide the warp size.
    pub k: u32,
    /// Cell access pattern.
    pub pattern: AccessPattern,
    /// Load-balancing strategy.
    pub balancing: Balancing,
    /// Batching scheme parameters.
    pub batching: BatchingConfig,
    /// The simulated GPU.
    pub gpu: GpuConfig,
    /// Overrides the warp issue order implied by `balancing` (ablations
    /// only: e.g. SORTBYWL with a forced in-order scheduler isolates the
    /// WORKQUEUE's ordering contribution).
    pub issue_override: Option<IssueOrder>,
    /// What happens to a failed device's unexecuted work (re-sharding it
    /// across surviving devices, or finishing it on the CPU).
    pub recovery: RecoveryPolicy,
    /// How the warp simulator advances lockstep rounds (host-side only;
    /// simulated results are bit-identical across modes).
    pub step_mode: StepMode,
    /// Where the planner's sort/scan pre-passes execute (see
    /// [`SortBackend`]).
    pub sort_backend: SortBackend,
    /// Host worker threads for intra-join parallelism: fleet shards,
    /// within-device batches, warp micro-execution and the device
    /// pre-pass's launches all run on up to this many OS threads. `0` (the
    /// default) means "auto" (available hardware parallelism). Purely
    /// host-side — canonical results, reports, model seconds, and telemetry
    /// artifacts are bit-identical for every value; only wall-clock time
    /// changes.
    pub host_jobs: usize,
}

impl SelfJoinConfig {
    /// Seed of the arbitrary hardware scheduler model.
    pub const SCHEDULER_SEED: u64 = 0xC0FFEE;

    /// A baseline configuration (GPUCALCGLOBAL, `k = 1`, no balancing) with
    /// the given ε.
    pub fn new(epsilon: f32) -> Self {
        Self {
            epsilon,
            k: 1,
            pattern: AccessPattern::FullWindow,
            balancing: Balancing::None,
            batching: BatchingConfig::default(),
            gpu: GpuConfig::default(),
            issue_override: None,
            recovery: RecoveryPolicy::default(),
            step_mode: StepMode::default(),
            sort_backend: SortBackend::default(),
            host_jobs: 0,
        }
    }

    /// The paper's best combination: WORKQUEUE + LID-UNICOMP + `k = 8`.
    pub fn optimized(epsilon: f32) -> Self {
        Self {
            k: 8,
            pattern: AccessPattern::LidUnicomp,
            balancing: Balancing::WorkQueue,
            ..Self::new(epsilon)
        }
    }

    /// Builder-style: set `k`.
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Builder-style: set the access pattern.
    pub fn with_pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Builder-style: set the balancing strategy.
    pub fn with_balancing(mut self, balancing: Balancing) -> Self {
        self.balancing = balancing;
        self
    }

    /// Builder-style: set the batching configuration.
    pub fn with_batching(mut self, batching: BatchingConfig) -> Self {
        self.batching = batching;
        self
    }

    /// Builder-style: set the GPU model.
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Builder-style: set the fleet failover policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Builder-style: set the warp simulator step mode.
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Builder-style: set the sort/scan pre-pass backend.
    pub fn with_sort_backend(mut self, backend: SortBackend) -> Self {
        self.sort_backend = backend;
        self
    }

    /// Builder-style: set the host worker thread count (`0` = auto).
    pub fn with_host_jobs(mut self, jobs: usize) -> Self {
        self.host_jobs = jobs;
        self
    }

    /// The concrete host worker count: `host_jobs`, with `0` resolved to
    /// the available hardware parallelism.
    pub fn resolved_host_jobs(&self) -> usize {
        crate::pool::resolve(self.host_jobs)
    }

    /// The warp issue order implied by the balancing strategy: the
    /// WORKQUEUE forces in-order execution, everything else is at the
    /// mercy of the (modeled) hardware scheduler. An explicit
    /// `issue_override` wins over both.
    pub fn issue_order(&self) -> IssueOrder {
        if let Some(order) = self.issue_override {
            return order;
        }
        match self.balancing {
            Balancing::WorkQueue => IssueOrder::InOrder,
            _ => IssueOrder::Arbitrary {
                seed: Self::SCHEDULER_SEED,
            },
        }
    }

    /// Builder-style: force a warp issue order (ablations).
    pub fn with_issue_override(mut self, order: IssueOrder) -> Self {
        self.issue_override = Some(order);
        self
    }

    /// A human-readable variant label, e.g. `"WORKQUEUE+LID-UNICOMP, k=8"`.
    pub fn label(&self) -> String {
        format!(
            "{}+{}, k={}",
            self.balancing.name(),
            self.pattern.name(),
            self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_defaults() {
        let c = SelfJoinConfig::new(0.5);
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.k, 1);
        assert_eq!(c.pattern, AccessPattern::FullWindow);
        assert_eq!(c.balancing, Balancing::None);
        assert!(matches!(c.issue_order(), IssueOrder::Arbitrary { .. }));
    }

    #[test]
    fn optimized_matches_paper_combination() {
        let c = SelfJoinConfig::optimized(0.5);
        assert_eq!(c.k, 8);
        assert_eq!(c.pattern, AccessPattern::LidUnicomp);
        assert_eq!(c.balancing, Balancing::WorkQueue);
        assert_eq!(c.issue_order(), IssueOrder::InOrder);
    }

    #[test]
    fn builders_compose() {
        let c = SelfJoinConfig::new(1.0)
            .with_k(4)
            .with_pattern(AccessPattern::Unicomp)
            .with_balancing(Balancing::SortByWorkload);
        assert_eq!(c.k, 4);
        assert_eq!(c.pattern, AccessPattern::Unicomp);
        assert_eq!(c.balancing, Balancing::SortByWorkload);
    }

    #[test]
    fn sort_backend_round_trips() {
        assert_eq!(SortBackend::default(), SortBackend::Host);
        for b in [SortBackend::Host, SortBackend::Device] {
            assert_eq!(SortBackend::by_name(b.label()), Some(b));
        }
        assert_eq!(SortBackend::by_name("gpu"), None);
        let c = SelfJoinConfig::new(0.5).with_sort_backend(SortBackend::Device);
        assert_eq!(c.sort_backend, SortBackend::Device);
    }

    #[test]
    fn exec_mode_round_trips() {
        assert_eq!(ExecMode::default(), ExecMode::Gpu);
        for m in [ExecMode::Gpu, ExecMode::Cpu, ExecMode::Hybrid] {
            assert_eq!(ExecMode::by_name(m.label()), Some(m));
        }
        assert_eq!(ExecMode::by_name("host"), None);
        let policy = crate::HybridPolicy::default();
        assert!(matches!(
            ExecMode::Gpu.target(policy),
            crate::ExecTarget::Gpu
        ));
        assert!(matches!(
            ExecMode::Cpu.target(policy),
            crate::ExecTarget::Hybrid(p) if p.forced_cpu_fraction == Some(1.0)
        ));
        assert!(matches!(
            ExecMode::Hybrid.target(policy),
            crate::ExecTarget::Hybrid(p) if p.forced_cpu_fraction.is_none()
        ));
    }

    #[test]
    fn recovery_policy_round_trips() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Reshard);
        for p in [RecoveryPolicy::Reshard, RecoveryPolicy::Degrade] {
            assert_eq!(RecoveryPolicy::by_name(p.label()), Some(p));
        }
        assert_eq!(RecoveryPolicy::by_name("retry"), None);
        let c = SelfJoinConfig::new(0.5).with_recovery(RecoveryPolicy::Degrade);
        assert_eq!(c.recovery, RecoveryPolicy::Degrade);
    }

    #[test]
    fn epsilon_validation_is_typed() {
        assert_eq!(validate_epsilon(0.5), Ok(0.5));
        assert_eq!(validate_epsilon(f32::NAN), Err(EpsilonError::NonFinite));
        assert_eq!(
            validate_epsilon(f32::INFINITY),
            Err(EpsilonError::NonFinite)
        );
        assert_eq!(
            validate_epsilon(f32::NEG_INFINITY),
            Err(EpsilonError::NonFinite)
        );
        assert_eq!(validate_epsilon(0.0), Err(EpsilonError::NotPositive));
        assert_eq!(validate_epsilon(-1.0), Err(EpsilonError::NotPositive));
        // Both variants render the one unified message prefix.
        for e in [EpsilonError::NonFinite, EpsilonError::NotPositive] {
            assert!(e
                .to_string()
                .starts_with("epsilon must be a finite, strictly positive number"));
        }
    }

    #[test]
    fn pattern_properties() {
        assert!(!AccessPattern::FullWindow.is_unidirectional());
        assert!(AccessPattern::Unicomp.is_unidirectional());
        assert!(AccessPattern::LidUnicomp.is_unidirectional());
        assert_eq!(AccessPattern::LidUnicomp.name(), "LID-UNICOMP");
        assert_eq!(Balancing::WorkQueue.name(), "WORKQUEUE");
    }
}
