//! # superego — the SUPER-EGO parallel CPU ε self-join
//!
//! A from-scratch reimplementation of the state-of-the-art CPU comparator
//! used by the paper: Kalashnikov's SUPER-EGO (Epsilon Grid Order) join.
//! The algorithm:
//!
//! 1. **Dimension reordering** ([`reorder`]): dimensions are permuted so the
//!    most selective ones (largest extent in units of ε) come first, which
//!    makes both the EGO sort order and the short-circuited distance test
//!    discriminate earlier.
//! 2. **EGO-sort** ([`egosort`]): points are sorted lexicographically by
//!    their ε-cell coordinates. A contiguous range of the sorted array then
//!    spans a small, lexicographically-bounded region of the grid.
//! 3. **EGO-join** ([`join`]): a recursive double-tree walk over sorted
//!    ranges. Two ranges are *pruned* when some leading dimension is fixed
//!    within both and the cell coordinates differ by more than one — no pair
//!    between them can be within ε. Small range pairs fall through to a
//!    short-circuited nested-loop join.
//! 4. **Parallelism** ([`parallel`]): the recursion is unrolled into a task
//!    list joined by a pool of worker threads (`std::thread::scope`).
//!
//! The join returns ordered pairs `(a, b)`, `a ≠ b`, both orientations,
//! matching the convention of the `simjoin` GPU kernels, plus operation
//! counts so the benchmark harness can put CPU and simulated-GPU executions
//! on a common model-time scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod egosort;
pub mod join;
pub mod parallel;
pub mod reorder;

pub use egosort::{ego_cell_coords, EgoSorted};
pub use join::{ego_join_sequential, JoinStats, SuperEgoConfig};
pub use parallel::{super_ego_join, super_ego_join_with};
pub use reorder::DimOrder;
