//! GPU machine configuration and the op cost model.

use crate::op::{Op, OpKind};

/// Cycle costs for each op category.
///
/// These are *model* constants — chosen to reflect plausible relative costs
/// on a Pascal-class GPU (the paper's Quadro GP100) — and are the knobs of
/// the simulator's timing model. The `ablations` bench sweeps the ones that
/// could plausibly change experimental conclusions (atomic cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Kernel prologue (tid computation, point load, neighbor ranges).
    pub setup: u32,
    /// One binary-search probe sequence over the non-empty cell list.
    pub cell_lookup: u32,
    /// Fixed part of one distance calculation (loop control, compare, sqrt-free test).
    pub distance_base: u32,
    /// Per-dimension part of one distance calculation (sub, mul, add).
    pub distance_per_dim: u32,
    /// One result-pair write (buffered global store).
    pub emit: u32,
    /// One global atomic RMW (uncontended).
    pub atomic: u32,
    /// One warp shuffle / cooperative-group broadcast.
    pub shuffle: u32,
    /// One synchronization.
    pub sync: u32,
    /// One scan combine step: load an element and add it into a running
    /// partial sum (the per-lane tile reduction of the device scan).
    pub scan_combine: u32,
    /// One radix-digit extraction: load a key, shift/mask out the current
    /// digit and bump the work-group histogram bin.
    pub digit_extract: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            setup: 24,
            cell_lookup: 18,
            distance_base: 6,
            distance_per_dim: 4,
            emit: 8,
            atomic: 40,
            shuffle: 4,
            sync: 4,
            scan_combine: 6,
            digit_extract: 10,
        }
    }
}

impl CostModel {
    /// The [`Op`] for one distance calculation in `dims` dimensions.
    pub fn distance_op(&self, dims: u32) -> Op {
        Op::new(
            OpKind::Distance,
            self.distance_base + self.distance_per_dim * dims,
        )
    }

    /// The [`Op`] for the kernel prologue.
    pub fn setup_op(&self) -> Op {
        Op::new(OpKind::Setup, self.setup)
    }

    /// The [`Op`] for one neighbor-cell lookup.
    pub fn cell_lookup_op(&self) -> Op {
        Op::new(OpKind::CellLookup, self.cell_lookup)
    }

    /// The [`Op`] for one result emission.
    pub fn emit_op(&self) -> Op {
        Op::new(OpKind::Emit, self.emit)
    }

    /// The [`Op`] for one global atomic.
    pub fn atomic_op(&self) -> Op {
        Op::new(OpKind::Atomic, self.atomic)
    }

    /// The [`Op`] for one shuffle/broadcast.
    pub fn shuffle_op(&self) -> Op {
        Op::new(OpKind::Shuffle, self.shuffle)
    }

    /// The [`Op`] for one synchronization barrier.
    pub fn sync_op(&self) -> Op {
        Op::new(OpKind::Sync, self.sync)
    }

    /// The [`Op`] for one scan combine step (load + add).
    pub fn scan_combine_op(&self) -> Op {
        Op::new(OpKind::Other, self.scan_combine)
    }

    /// The [`Op`] for one radix-digit extraction (load + shift/mask +
    /// histogram bump).
    pub fn digit_extract_op(&self) -> Op {
        Op::new(OpKind::Other, self.digit_extract)
    }
}

/// The simulated GPU: SIMT widths, occupancy limits and clock.
///
/// Defaults approximate the paper's Quadro GP100 (56 SMs, 32-lane warps).
/// `warp_slots_per_sm` is the number of warps an SM makes *forward progress
/// on* concurrently in the model (a throughput abstraction of its schedulers
/// and pipelines), not the architectural residency limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Lanes per warp.
    pub warp_size: u32,
    /// Threads per block (CTA); warp issue shuffles at block granularity.
    pub block_size: u32,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Concurrent warp slots per SM (throughput abstraction).
    pub warp_slots_per_sm: u32,
    /// Model clock in Hz, used only to convert cycles to model seconds.
    pub clock_hz: f64,
    /// Average stall factor per op (memory latency, pipeline bubbles) used
    /// when converting cycles to model seconds. This is the calibration
    /// constant that puts simulated-GPU times on a scale comparable with
    /// modeled CPU times; it scales all kernel times uniformly, so
    /// GPU-vs-GPU comparisons are unaffected by its value.
    pub ipc_derate: f64,
    /// Op cost table.
    pub cost: CostModel,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            warp_size: 32,
            block_size: 256,
            num_sms: 56,
            warp_slots_per_sm: 8,
            clock_hz: 1.3e9,
            ipc_derate: 2.0,
            cost: CostModel::default(),
        }
    }
}

impl GpuConfig {
    /// Total concurrent warp slots on the device.
    pub fn total_warp_slots(&self) -> usize {
        (self.num_sms * self.warp_slots_per_sm) as usize
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> u32 {
        self.block_size.div_ceil(self.warp_size)
    }

    /// Converts model cycles to model seconds (applying the derate).
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * self.ipc_derate / self.clock_hz
    }

    /// The effective clock after derating (`clock_hz / ipc_derate`).
    pub fn effective_clock_hz(&self) -> f64 {
        self.clock_hz / self.ipc_derate
    }

    /// A small configuration for unit tests: 4 SMs, 2 slots each.
    pub fn small_test() -> Self {
        Self {
            warp_size: 4,
            block_size: 8,
            num_sms: 4,
            warp_slots_per_sm: 2,
            clock_hz: 1.0e9,
            ipc_derate: 1.0,
            cost: CostModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_gp100_shape() {
        let c = GpuConfig::default();
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.num_sms, 56);
        assert_eq!(c.total_warp_slots(), 56 * 8);
        assert_eq!(c.warps_per_block(), 8);
    }

    #[test]
    fn distance_cost_scales_with_dims() {
        let cost = CostModel::default();
        let d2 = cost.distance_op(2).cycles;
        let d6 = cost.distance_op(6).cycles;
        assert!(d6 > d2);
        assert_eq!(d6 - d2, 4 * cost.distance_per_dim);
    }

    #[test]
    fn cycles_to_seconds_uses_effective_clock() {
        let c = GpuConfig {
            clock_hz: 2.0e9,
            ipc_derate: 1.0,
            ..GpuConfig::default()
        };
        assert!((c.cycles_to_seconds(2_000_000_000) - 1.0).abs() < 1e-12);
        let derated = GpuConfig {
            clock_hz: 2.0e9,
            ipc_derate: 4.0,
            ..GpuConfig::default()
        };
        assert!((derated.cycles_to_seconds(2_000_000_000) - 4.0).abs() < 1e-12);
        assert!((derated.effective_clock_hz() - 0.5e9).abs() < 1.0);
    }

    #[test]
    fn op_constructors_use_table() {
        let cost = CostModel::default();
        assert_eq!(cost.setup_op().kind, OpKind::Setup);
        assert_eq!(cost.setup_op().cycles, cost.setup);
        assert_eq!(cost.atomic_op().kind, OpKind::Atomic);
        assert_eq!(cost.emit_op().kind, OpKind::Emit);
        assert_eq!(cost.cell_lookup_op().kind, OpKind::CellLookup);
        assert_eq!(cost.shuffle_op().kind, OpKind::Shuffle);
        assert_eq!(cost.sync_op().kind, OpKind::Sync);
        assert_eq!(cost.sync_op().cycles, cost.sync);
        assert_eq!(cost.scan_combine_op().kind, OpKind::Other);
        assert_eq!(cost.scan_combine_op().cycles, cost.scan_combine);
        assert_eq!(cost.digit_extract_op().kind, OpKind::Other);
        assert_eq!(cost.digit_extract_op().cycles, cost.digit_extract);
    }
}
