//! # simjoin — GPU distance similarity self-join with load-imbalance mitigation
//!
//! This crate reproduces the system of *Gallet & Gowanlock, "Load Imbalance
//! Mitigation Optimizations for GPU-Accelerated Similarity Joins"* (2019) on
//! top of the [`warpsim`] SIMT simulator and the [`epsgrid`] ε-grid index.
//!
//! Given a dataset `D` of `n`-dimensional points and a distance threshold ε,
//! the **self-join** finds every ordered pair `(a, b)`, `a ≠ b`, with
//! `dist(a, b) ≤ ε`. The join runs as a sequence of batched GPU kernels; the
//! crate implements the baseline kernel of Gowanlock & Karsin
//! (`GPUCALCGLOBAL`), their `UNICOMP` cell-access pattern, and the paper's
//! four optimizations:
//!
//! - [`AccessPattern::LidUnicomp`] — compare only to neighbor cells with a
//!   larger linear id, balancing per-cell work while halving distance
//!   calculations (§III-B);
//! - [`config::SelfJoinConfig::k`] — `k` threads per query point, each
//!   refining a slice of the candidate set (§III-A);
//! - [`Balancing::SortByWorkload`] — pack threads with similar workloads
//!   into the same warp by sorting each batch by quantified workload
//!   (§III-C);
//! - [`Balancing::WorkQueue`] — a global atomic queue head over the
//!   workload-sorted dataset plus a forced warp execution order (§III-D).
//!
//! ```
//! use simjoin::{SelfJoinConfig, SelfJoin};
//!
//! let pts: Vec<[f32; 2]> = vec![[0.0, 0.0], [0.05, 0.0], [0.9, 0.9]];
//! let config = SelfJoinConfig::new(0.1);
//! let outcome = SelfJoin::new(&pts, config).unwrap().run().unwrap();
//! let pairs = outcome.result.sorted_pairs();
//! assert_eq!(pairs, vec![(0, 1), (1, 0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batching;
pub mod brute;
pub mod config;
pub mod device_prepass;
pub mod executor;
pub mod fallback;
pub mod fleet;
pub mod hybrid;
pub mod kernels;
pub mod patterns;
pub mod result;
pub mod serve;
pub mod target;
pub mod workload;

pub use warpsim::pool;

pub use batching::{BatchPlan, BatchingConfig, ResultEstimate};
pub use brute::brute_force_join;
pub use config::{
    validate_epsilon, AccessPattern, Balancing, EpsilonError, ExecMode, RecoveryPolicy,
    RetryPolicy, SelfJoinConfig, SortBackend,
};
pub use device_prepass::{
    device_cell_order, device_inclusive_prefix, device_sort_by_workload, PrePassReport,
};
pub use executor::{DegradationReport, JoinError, JoinOutcome, JoinReport, SelfJoin};
pub use fallback::{cpu_join_queries, CpuFallbackStats, CpuModel};
pub use fleet::{
    inclusive_weight_prefix, partition_units, partition_units_from_prefix, unit_workloads,
    DeviceHealth, FleetOutcome, FleetRecoveryReport, FleetReport, HealthEvent, ShardReport,
    ShardStrategy,
};
pub use hybrid::{
    choose_cut_measured, forced_cut, gpu_weight_throughput, CutChoice, HybridOutcome, HybridPolicy,
    HybridReport,
};
pub use result::{NeighborIndex, ResultSet};
pub use serve::{
    Latency, Reply, Request, Response, ServeConfig, ServeError, ServeReport, ServeSession,
};
pub use target::{with_points, DynSelfJoin, ExecOutcome, ExecTarget, WithPoints, DIMS};
pub use workload::{expand_cell_order, CellWorkload, WorkloadProfile};
