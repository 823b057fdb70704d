//! # warpsim — a lane-accurate SIMT (warp-level) GPU execution simulator
//!
//! This crate stands in for the CUDA GPU used by the paper. It models the
//! parts of the SIMT execution model that determine load-imbalance behaviour:
//!
//! - **Warps**: threads execute in lockstep groups of `warp_size` (32) lanes.
//!   Each lane runs a [`lane::LaneProgram`] — a resumable instruction stream.
//!   Lanes whose next instructions differ (branch divergence) are serialized
//!   into divergence groups, and lanes that retire early sit idle while the
//!   rest of the warp keeps executing.
//! - **Warp execution efficiency (WEE)**: the average fraction of active
//!   lanes per issued warp instruction — the exact quantity `nvprof` reports
//!   as `warp_execution_efficiency` and the paper's headline metric. Because
//!   the simulator accounts every lockstep round, WEE here is exact rather
//!   than sampled.
//! - **Machine occupancy**: the GPU executes a bounded number of warps
//!   concurrently (`num_sms × warp_slots_per_sm`). Warps are issued to free
//!   slots in an order chosen by an [`scheduler::IssueOrder`] policy —
//!   `Arbitrary` models the uncontrollable hardware scheduler, `InOrder`
//!   models the forced execution order obtained with the paper's WORKQUEUE.
//! - **Device-side primitives**: a global atomic counter
//!   ([`atomics::DeviceCounter`], the work-queue head), a capacity-bounded
//!   result buffer ([`memory::DeviceBuffer`]), cooperative thread groups
//!   ([`coop`]), and an analytic multi-stream transfer/kernel overlap model
//!   ([`stream`]) for the batching scheme.
//! - **Fault injection**: a deterministic, seeded [`fault::FaultPlane`]
//!   attachable via [`kernel::LaunchOptions`] injects transient launch
//!   failures, device-lost conditions, forced result overflows, queue-head
//!   corruption, and transfer stalls on a reproducible schedule, so the
//!   host-side recovery paths of the batching scheme can be exercised.
//!
//! Simulated time is counted in model cycles and converted to model seconds
//! with [`config::GpuConfig::cycles_to_seconds`]. Absolute times are not
//! meant to match any physical device; relative behaviour between kernel
//! variants (who wins, by what factor, where crossovers fall) is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod config;
pub mod coop;
pub mod fault;
pub mod fleet;
pub mod kernel;
pub mod lane;
pub mod machine;
pub mod memory;
pub mod metrics;
pub mod op;
pub mod primitives;
pub mod scheduler;
pub mod stream;
pub mod trace;
pub mod warp;

pub use atomics::DeviceCounter;
pub use config::{CostModel, GpuConfig};
pub use coop::CoopGroups;
pub use fault::{
    CounterFault, DeviceLostFault, FaultPlane, FaultProfile, FaultSchedule, LaunchAdmission,
    TransientFault,
};
pub use fleet::{DeviceFleet, SimDevice};
pub use kernel::{launch, launch_with, LaunchError, LaunchOptions, LaunchReport, WarpSource};
pub use lane::{LaneProgram, LaneSink, LaneTrace, OpHandle};
pub use machine::{MachineModel, MakespanReport};
pub use memory::{BufferOverflow, DeviceBuffer};
pub use metrics::WarpStatsSummary;
pub use op::{Op, OpKind, NUM_OP_KINDS};
pub use primitives::{
    device_exclusive_scan, device_radix_argsort, PrimitiveReport, DEFAULT_DIGIT_BITS,
};
pub use scheduler::IssueOrder;
pub use stream::{BatchTiming, PipelineReport, StreamPipeline};
pub use trace::{trace_warp, WarpTrace};
pub use warp::{execute_warp, execute_warp_with, StepMode, WarpExecution};
