//! # sj-bench — the benchmark harness regenerating the paper's evaluation
//!
//! Two complementary layers:
//!
//! - the [`harness`] module runs join variants over dimension-erased
//!   datasets and converts simulated-GPU and modeled-CPU executions to a
//!   common model-time scale;
//! - the [`experiments`] module regenerates **every table and figure** of
//!   the paper's §IV (Tables I and III–VI, Figures 9–13) as printed series,
//!   via the `experiments` binary.
//!
//! Model times are *not* expected to match the paper's absolute seconds
//! (the substrate is a simulator, see `DESIGN.md` §2); the comparisons that
//! must hold are the relative ones, recorded in `EXPERIMENTS.md`. Host
//! wall-clock is not measured here: `perfbench` (its own workspace, see
//! `perfbench/README.md`) is the one wall-clock ledger.

pub mod cpu_model;
pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{run_gpu, run_superego, CpuRunResult, GpuRunResult};
