//! Execution targets and the dimension-erased entry point.
//!
//! [`SelfJoin::run_on`] runs a join on any [`ExecTarget`] — one simulated
//! GPU, a [`DeviceFleet`], or the hybrid CPU/GPU co-executor — and returns
//! an [`ExecOutcome`] whose canonical [`JoinReport`] is bit-identical
//! across targets on clean runs. [`with_points`] is the one place a
//! runtime dimensionality ([`DynPoints`]) becomes a `Point<N>`;
//! [`DynSelfJoin`], the front-ends' way into the executor, is built on it.

use std::ops::RangeInclusive;

use epsgrid::{DynPoints, Point};
use sj_telemetry::Telemetry;
use warpsim::{DeviceFleet, FaultPlane};

use crate::config::{ExecMode, SelfJoinConfig};
use crate::executor::{JoinError, JoinReport, SelfJoin};
use crate::fleet::{FleetReport, ShardStrategy};
use crate::hybrid::{HybridPolicy, HybridReport};
use crate::result::ResultSet;

/// The point dimensionalities [`with_points`] instantiates.
pub const DIMS: RangeInclusive<usize> = 2..=6;

/// Where a join's planned units execute.
#[derive(Debug, Clone, Copy)]
pub enum ExecTarget<'f> {
    /// One simulated GPU ([`SelfJoin::run`]).
    Gpu,
    /// The fleet's devices, sharded by the strategy
    /// ([`SelfJoin::run_on_fleet`]).
    Fleet(&'f DeviceFleet, ShardStrategy),
    /// The GPU and the host CPU backend, cut by the policy
    /// ([`SelfJoin::run_hybrid`]).
    Hybrid(HybridPolicy),
}

impl ExecMode {
    /// The single-device target this mode names: the GPU alone, or the
    /// hybrid co-executor under `policy` (every unit on the CPU backend
    /// under [`ExecMode::Cpu`]).
    pub fn target(self, policy: HybridPolicy) -> ExecTarget<'static> {
        match self {
            ExecMode::Gpu => ExecTarget::Gpu,
            ExecMode::Cpu => ExecTarget::Hybrid(policy.with_forced_cpu_fraction(1.0)),
            ExecMode::Hybrid => ExecTarget::Hybrid(policy),
        }
    }
}

/// What a join returns on any target.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The exact self-join result, merged in plan order.
    pub result: ResultSet,
    /// Canonical report: bit-identical across targets on clean runs.
    pub report: JoinReport,
    /// The per-device breakdown, on a fleet target.
    pub fleet: Option<FleetReport>,
    /// The split and per-backend accounting, on a hybrid target.
    pub hybrid: Option<HybridReport>,
}

impl ExecOutcome {
    /// The target's completion time in model seconds: the fleet or hybrid
    /// makespan, or the single GPU's response time.
    pub fn model_s(&self) -> f64 {
        match (&self.fleet, &self.hybrid) {
            (Some(fleet), _) => fleet.makespan_s,
            (_, Some(hybrid)) => hybrid.makespan_s,
            _ => self.report.response_time_s(),
        }
    }
}

impl<const N: usize> SelfJoin<'_, N> {
    /// Executes the join on `target`.
    pub fn run_on(&self, target: &ExecTarget<'_>) -> Result<ExecOutcome, JoinError> {
        let (result, report, fleet, hybrid) = match *target {
            ExecTarget::Gpu => {
                let o = self.run()?;
                (o.result, o.report, None, None)
            }
            ExecTarget::Fleet(fleet, strategy) => {
                let o = self.run_on_fleet(fleet, strategy)?;
                (o.result, o.report, Some(o.fleet), None)
            }
            ExecTarget::Hybrid(policy) => {
                let o = self.run_hybrid(&policy)?;
                (o.result, o.report, None, Some(o.hybrid))
            }
        };
        Ok(ExecOutcome {
            result,
            report,
            fleet,
            hybrid,
        })
    }
}

/// A computation over a dataset of any supported dimensionality, run by
/// [`with_points`] at the dataset's own dimension.
pub trait WithPoints {
    /// What the computation returns.
    type Output;

    /// Runs the computation over fixed-dimension points.
    fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output;
}

/// Runs `f` over `points` at their dimensionality, or returns
/// [`JoinError::Dimensionality`] when it lies outside [`DIMS`].
pub fn with_points<F: WithPoints>(points: &DynPoints, f: F) -> Result<F::Output, JoinError> {
    macro_rules! dims {
        ($($n:literal),*) => {
            match points.dims() {
                $($n => points.as_fixed::<$n>().map(|pts| f.call(&pts)),)*
                _ => None,
            }
        };
    }
    dims!(2, 3, 4, 5, 6).ok_or(JoinError::Dimensionality(points.dims()))
}

/// A self-join over a dimension-erased dataset: indexes the points at
/// their runtime dimensionality and runs on any [`ExecTarget`].
pub struct DynSelfJoin<'a> {
    points: &'a DynPoints,
    config: SelfJoinConfig,
    telemetry: &'a dyn Telemetry,
    fault: Option<&'a FaultPlane>,
}

impl<'a> DynSelfJoin<'a> {
    /// A join over `points` described by `config`.
    pub fn new(points: &'a DynPoints, config: SelfJoinConfig) -> Self {
        Self {
            points,
            config,
            telemetry: &sj_telemetry::NULL,
            fault: None,
        }
    }

    /// Attaches a telemetry sink (see [`SelfJoin::with_telemetry`]).
    pub fn with_telemetry(mut self, telemetry: &'a dyn Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a fault plane (see [`SelfJoin::with_fault_plane`]).
    pub fn with_fault_plane(mut self, plane: &'a FaultPlane) -> Self {
        self.fault = Some(plane);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SelfJoinConfig {
        &self.config
    }

    /// [`SelfJoin::recommended_k`] for this dataset at the configured ε.
    pub fn recommended_k(&self) -> Result<u32, JoinError> {
        struct RecommendedK<'c>(&'c SelfJoinConfig);
        impl WithPoints for RecommendedK<'_> {
            type Output = Result<u32, JoinError>;
            fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output {
                Ok(SelfJoin::new(points, self.0.clone())?.recommended_k())
            }
        }
        with_points(self.points, RecommendedK(&self.config))?
    }

    /// Indexes the dataset and executes the join on `target`.
    pub fn run(&self, target: &ExecTarget<'_>) -> Result<ExecOutcome, JoinError> {
        struct Run<'r, 'a> {
            join: &'r DynSelfJoin<'a>,
            target: &'r ExecTarget<'r>,
        }
        impl WithPoints for Run<'_, '_> {
            type Output = Result<ExecOutcome, JoinError>;
            fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output {
                let mut join = SelfJoin::new(points, self.join.config.clone())?
                    .with_telemetry(self.join.telemetry);
                if let Some(plane) = self.join.fault {
                    join = join.with_fault_plane(plane);
                }
                join.run_on(self.target)
            }
        }
        with_points(self.points, Run { join: self, target })?
    }
}
