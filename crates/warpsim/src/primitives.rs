//! On-device parallel primitives: exclusive scan and LSD radix sort as
//! multi-dispatch warp-kernel chains.
//!
//! Real GPU sorts and scans are not single kernels but *chains* of launches
//! with device global memory carrying state between them: radix sort runs a
//! per-digit histogram **count** kernel, an exclusive **scan** of the
//! histogram, and a **scatter** kernel, iterated over digit passes; the scan
//! itself is a per-tile reduce, a recursive scan of the partial sums, and an
//! offset-add write-out. This module models exactly that structure on the
//! warp simulator: every dispatch is a [`launch_with`] over [`LaneProgram`]
//! warps (so it is costed in model cycles, divergence-aware, admitted
//! through the fault plane, and bit-identical across
//! [`StepMode`](crate::warp::StepMode)s), while the host plays the role of
//! device global memory between dispatches.
//!
//! Two fidelity notes, in the spirit of the simulator's envelope:
//!
//! - The **data plane of the scatter kernel is real**: destinations are
//!   emitted through the [`LaneSink`] as `(dst, element)` pairs, gathered in
//!   warp-id order by the kernel driver, and applied to the next-pass array —
//!   the permutation genuinely flows through the simulated kernel output
//!   path. The count and scan dispatches are costed op streams whose results
//!   (histograms, partial sums) the host mirrors with the same tile/warp
//!   decomposition the lanes execute, because lane programs have no shared
//!   memory to return `u64` sums through.
//! - All arithmetic is exact (wrapping `u64` adds, integer key digits), so
//!   the primitives are **bit-identical to their host oracles** regardless
//!   of device shape (`num_sms`, `warp_size`) or step mode — the property
//!   the differential suite in `tests/` pins.
//!
//! The pure-compute lanes (tile reductions, digit extractions, histogram
//! stores) are lists of `(op, count)` segments, which is already their
//! [`LaneProgram::trace`]: under the run-length step mode each segment is
//! one range fill, whatever the tile length.

use std::ops::Range;

use crate::config::GpuConfig;
use crate::kernel::{launch_with, LaunchError, LaunchOptions, WarpSource};
use crate::lane::{LaneProgram, LaneSink, LaneTrace};
use crate::memory::DeviceBuffer;
use crate::op::Op;
use crate::scheduler::IssueOrder;

/// Default radix-digit width in bits (256-way counting sort per pass — the
/// standard choice of GPU radix sorts).
pub const DEFAULT_DIGIT_BITS: u32 = 8;

/// Aggregated accounting of one primitive invocation's kernel-launch chain.
///
/// Dispatches within a chain are serial on the device, so elapsed cycles and
/// model seconds are sums over the chain's launches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrimitiveReport {
    /// Kernel launches in the chain (scan levels and, for the sort, the
    /// count/scan/scatter dispatches of every digit pass).
    pub launches: u64,
    /// Radix passes executed (0 for a standalone scan).
    pub passes: u32,
    /// Total elapsed model cycles (sum of per-launch makespans).
    pub elapsed_cycles: u64,
    /// Total elapsed model seconds.
    pub model_s: f64,
}

impl PrimitiveReport {
    fn absorb(&mut self, launch: &crate::kernel::LaunchReport) {
        self.launches += 1;
        self.elapsed_cycles += launch.elapsed_cycles();
        self.model_s += launch.elapsed_seconds();
    }

    /// Folds another chain's accounting into this one (serial composition).
    pub fn merge(&mut self, other: &PrimitiveReport) {
        self.launches += other.launches;
        self.passes += other.passes;
        self.elapsed_cycles += other.elapsed_cycles;
        self.model_s += other.model_s;
    }
}

/// Contiguous-tile assignment of `n` elements onto the device's concurrent
/// lane slots: the grid is sized to the device (every dispatch saturates it
/// once), each lane owning `ceil(n / lanes)` consecutive elements. The tail
/// lane may own fewer — the natural intra-warp divergence of tail tiles is
/// then modeled by the warp executor, not special-cased here.
#[derive(Debug, Clone, Copy)]
struct Tiling {
    n: usize,
    lanes: usize,
    tile: usize,
    warp_size: u32,
}

impl Tiling {
    fn new(gpu: &GpuConfig, n: usize) -> Self {
        let max_lanes = (gpu.total_warp_slots() * gpu.warp_size as usize).max(1);
        let tile = n.div_ceil(max_lanes).max(1);
        let lanes = n.div_ceil(tile).max(1);
        Self {
            n,
            lanes,
            tile,
            warp_size: gpu.warp_size,
        }
    }

    fn lane_range(&self, lane: usize) -> Range<usize> {
        let start = (lane * self.tile).min(self.n);
        start..((lane + 1) * self.tile).min(self.n)
    }

    fn num_warps(&self) -> usize {
        self.lanes.div_ceil(self.warp_size as usize)
    }

    fn warp_lanes(&self, warp: usize) -> Range<usize> {
        let start = warp * self.warp_size as usize;
        start..((warp + 1) * self.warp_size as usize).min(self.lanes)
    }
}

/// `ceil(log2(n))` — the tree depth of a warp-level upsweep or downsweep
/// over `n` lanes.
fn log2_ceil(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// A pure-compute lane: a sequence of segments, each `count` repeats of one
/// op, with no sink effects. The segments are the lane's trace.
#[derive(Debug, Clone)]
struct SegmentedLane {
    segments: Vec<(Op, u32)>,
    seg: usize,
    done: u32,
}

impl SegmentedLane {
    fn new(segments: Vec<(Op, u32)>) -> Self {
        let mut lane = Self {
            segments,
            seg: 0,
            done: 0,
        };
        lane.skip_empty();
        lane
    }

    fn skip_empty(&mut self) {
        while self.seg < self.segments.len() && self.done >= self.segments[self.seg].1 {
            self.seg += 1;
            self.done = 0;
        }
    }
}

impl LaneProgram for SegmentedLane {
    fn step(&mut self, _sink: &mut LaneSink) -> Option<Op> {
        let &(op, _) = self.segments.get(self.seg)?;
        self.done += 1;
        self.skip_empty();
        Some(op)
    }

    fn trace(&mut self, t: &mut LaneTrace) {
        for &(op, count) in &self.segments {
            let op = t.handle(op);
            t.run(op, count);
        }
        self.seg = self.segments.len();
    }
}

/// The scatter lane of a radix pass: for each owned element, one
/// rank-computation op (digit extraction + offset lookup) followed by one
/// emitting store of `(destination, element)` through the sink — the real
/// data path of the sort. It keeps the default, step-driven
/// [`LaneProgram::trace`]: its ops alternate every round, so there are no
/// runs to record in bulk, and scatter dispatches are a small fraction of
/// a pass's ops.
#[derive(Debug, Clone)]
struct ScatterLane {
    writes: Vec<(u32, u32)>,
    pos: usize,
    pending_store: bool,
    compute_op: Op,
    store_op: Op,
}

impl LaneProgram for ScatterLane {
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
        if self.pos >= self.writes.len() {
            return None;
        }
        if self.pending_store {
            let (dst, val) = self.writes[self.pos];
            sink.emit(dst, val);
            self.pos += 1;
            self.pending_store = false;
            Some(self.store_op)
        } else {
            self.pending_store = true;
            Some(self.compute_op)
        }
    }
}

/// A launch grid of prebuilt warps (the host precomputes each dispatch's
/// lane parameters, as [`crate::kernel`] sources precompute index
/// structures).
struct PrebuiltGrid<L> {
    warps: Vec<Vec<L>>,
}

impl<L: LaneProgram + Clone> WarpSource for PrebuiltGrid<L> {
    type Lane = L;

    fn num_warps(&self) -> usize {
        self.warps.len()
    }

    fn make_warp(&self, warp_id: u32) -> Vec<L> {
        self.warps[warp_id as usize].clone()
    }
}

/// Runs one dispatch of the chain and returns the pairs its lanes emitted.
fn run_dispatch<L: LaneProgram + Clone>(
    gpu: &GpuConfig,
    warps: Vec<Vec<L>>,
    result_capacity: usize,
    opts: &LaunchOptions<'_>,
    report: &mut PrimitiveReport,
) -> Result<Vec<(u32, u32)>, LaunchError> {
    let grid = PrebuiltGrid { warps };
    let mut out = DeviceBuffer::with_capacity(result_capacity);
    let launch = launch_with(gpu, &grid, IssueOrder::InOrder, &mut out, opts)?;
    report.absorb(&launch);
    Ok(out.as_slice().to_vec())
}

/// Exclusive prefix sum of `values` (wrapping `u64` addition) computed as a
/// device kernel chain: per-lane tile reduce + warp upsweep/downsweep, a
/// recursive scan of the per-warp sums, and an offset-add write-out.
///
/// Returns `out` with `out[i] = values[0] + … + values[i-1]` (`out[0] = 0`),
/// bit-identical to a host `fold` for any device shape, plus the chain's
/// cost accounting. Empty input performs no launches.
pub fn device_exclusive_scan(
    gpu: &GpuConfig,
    values: &[u64],
    opts: &LaunchOptions<'_>,
) -> Result<(Vec<u64>, PrimitiveReport), LaunchError> {
    let mut report = PrimitiveReport::default();
    let out = scan_level(gpu, values, opts, &mut report)?;
    Ok((out, report))
}

fn scan_level(
    gpu: &GpuConfig,
    values: &[u64],
    opts: &LaunchOptions<'_>,
    report: &mut PrimitiveReport,
) -> Result<Vec<u64>, LaunchError> {
    let n = values.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let t = Tiling::new(gpu, n);
    let cost = &gpu.cost;
    let combine = cost.scan_combine_op();
    let shuffle = cost.shuffle_op();
    let sync = cost.sync_op();
    let store = cost.emit_op();

    // Dispatch 1 — reduce: each lane folds its tile into a partial sum, then
    // the warp runs an upsweep/downsweep shuffle tree over the lane partials.
    let mut warps = Vec::with_capacity(t.num_warps());
    for w in 0..t.num_warps() {
        let wl = t.warp_lanes(w);
        let tree = 2 * log2_ceil(wl.len());
        warps.push(
            wl.map(|l| {
                SegmentedLane::new(vec![
                    (combine, t.lane_range(l).len() as u32),
                    (shuffle, tree),
                    (sync, 1),
                ])
            })
            .collect::<Vec<_>>(),
        );
    }
    run_dispatch(gpu, warps, 0, opts, report)?;

    // Host mirror of the reduce kernel's outputs: per-lane partial sums,
    // intra-warp exclusive lane offsets, per-warp totals.
    let lane_sums: Vec<u64> = (0..t.lanes)
        .map(|l| {
            values[t.lane_range(l)]
                .iter()
                .fold(0u64, |a, &v| a.wrapping_add(v))
        })
        .collect();
    let mut warp_sums = vec![0u64; t.num_warps()];
    let mut lane_offsets = vec![0u64; t.lanes];
    for (w, warp_sum) in warp_sums.iter_mut().enumerate() {
        let mut acc = 0u64;
        for l in t.warp_lanes(w) {
            lane_offsets[l] = acc;
            acc = acc.wrapping_add(lane_sums[l]);
        }
        *warp_sum = acc;
    }

    // Dispatch 2 — recursive scan of the per-warp sums (a single warp's
    // sums need no further level: its offset is 0).
    let warp_offsets = if t.num_warps() > 1 {
        scan_level(gpu, &warp_sums, opts, report)?
    } else {
        vec![0u64]
    };

    // Dispatch 3 — write-out: each lane re-walks its tile, adding its warp
    // and lane offsets, and stores the exclusive prefixes.
    let mut warps = Vec::with_capacity(t.num_warps());
    for w in 0..t.num_warps() {
        warps.push(
            t.warp_lanes(w)
                .map(|l| {
                    let len = t.lane_range(l).len() as u32;
                    SegmentedLane::new(vec![(combine, len), (store, len)])
                })
                .collect::<Vec<_>>(),
        );
    }
    run_dispatch(gpu, warps, 0, opts, report)?;

    let mut out = vec![0u64; n];
    for (w, &warp_offset) in warp_offsets.iter().enumerate() {
        for l in t.warp_lanes(w) {
            let mut running = warp_offset.wrapping_add(lane_offsets[l]);
            for i in t.lane_range(l) {
                out[i] = running;
                running = running.wrapping_add(values[i]);
            }
        }
    }
    Ok(out)
}

/// Stable LSD radix argsort: returns the indices of `keys` in ascending key
/// order (equal keys keep input order), as a chain of per-digit-pass
/// count → scan → scatter kernel launches.
///
/// Each pass histograms the current digit per warp (count kernel), runs
/// [`device_exclusive_scan`] over the digit-major flattened histogram to turn
/// counts into global scatter offsets, and scatters `(destination, index)`
/// pairs through the lane sinks. The pass count is
/// `ceil(bits(max_key) / digit_bits)`, so cheap keys cost fewer passes;
/// all-equal keys (and inputs of length ≤ 1) sort in zero passes and zero
/// launches.
///
/// Stability makes composite orderings exact: ascending sort on
/// `((max_w - w) << 32) | id` reproduces "descending workload, ties by
/// ascending id" bit-for-bit — the SORTBYWL oracle.
pub fn device_radix_argsort(
    gpu: &GpuConfig,
    keys: &[u128],
    digit_bits: u32,
    opts: &LaunchOptions<'_>,
) -> Result<(Vec<u32>, PrimitiveReport), LaunchError> {
    assert!(
        (1..=16).contains(&digit_bits),
        "digit width must be in 1..=16 bits"
    );
    assert!(
        keys.len() <= u32::MAX as usize,
        "radix argsort indexes with u32"
    );
    let mut report = PrimitiveReport::default();
    let n = keys.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    if n <= 1 {
        return Ok((order, report));
    }
    let max_key = keys.iter().copied().max().unwrap_or(0);
    let key_bits = 128 - max_key.leading_zeros();
    let passes = key_bits.div_ceil(digit_bits);
    report.passes = passes;
    let radix = 1usize << digit_bits;
    let mask = (radix - 1) as u128;
    let t = Tiling::new(gpu, n);
    let num_warps = t.num_warps();
    let cost = &gpu.cost;
    let extract = cost.digit_extract_op();
    let store = cost.emit_op();
    let sync = cost.sync_op();

    for pass in 0..passes {
        let shift = pass * digit_bits;
        let digit = |idx: u32| ((keys[idx as usize] >> shift) & mask) as usize;

        // Count kernel: per-warp digit histograms (the work-group shared
        // histogram of a real radix sort). Each lane extracts its tile's
        // digits, then the warp cooperatively stores its histogram bins.
        let mut warps = Vec::with_capacity(num_warps);
        for w in 0..num_warps {
            let wl = t.warp_lanes(w);
            let bin_stores = radix.div_ceil(wl.len()) as u32;
            warps.push(
                wl.map(|l| {
                    SegmentedLane::new(vec![
                        (extract, t.lane_range(l).len() as u32),
                        (sync, 1),
                        (store, bin_stores),
                    ])
                })
                .collect::<Vec<_>>(),
            );
        }
        run_dispatch(gpu, warps, 0, opts, &mut report)?;

        // Host mirror of the histograms, flattened digit-major so the scan
        // below yields, for every (digit, warp), the first global output
        // slot of that warp's elements carrying that digit.
        let mut hist = vec![0u64; radix * num_warps];
        for w in 0..num_warps {
            for l in t.warp_lanes(w) {
                for i in t.lane_range(l) {
                    hist[digit(order[i]) * num_warps + w] += 1;
                }
            }
        }

        // Scan kernel(s): exclusive scan of the flattened histogram.
        let offsets = scan_level(gpu, &hist, opts, &mut report)?;

        // Scatter kernel: each warp walks its lanes' tiles in order, ranking
        // every element behind the elements with the same digit that precede
        // it (stability), and emits the actual (destination, index) moves.
        let mut warps = Vec::with_capacity(num_warps);
        for w in 0..num_warps {
            let mut cursor: Vec<u64> = (0..radix).map(|d| offsets[d * num_warps + w]).collect();
            warps.push(
                t.warp_lanes(w)
                    .map(|l| {
                        let writes: Vec<(u32, u32)> = t
                            .lane_range(l)
                            .map(|i| {
                                let d = digit(order[i]);
                                let dst = cursor[d];
                                cursor[d] += 1;
                                (dst as u32, order[i])
                            })
                            .collect();
                        ScatterLane {
                            writes,
                            pos: 0,
                            pending_store: false,
                            compute_op: extract,
                            store_op: store,
                        }
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let moves = run_dispatch(gpu, warps, n, opts, &mut report)?;
        debug_assert_eq!(moves.len(), n, "a radix pass permutes every element");
        let mut next = vec![0u32; n];
        for (dst, idx) in moves {
            next[dst as usize] = idx;
        }
        order = next;
    }
    Ok((order, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlane, FaultSchedule};
    use crate::warp::StepMode;

    fn host_exclusive_scan(values: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(values.len());
        let mut acc = 0u64;
        for &v in values {
            out.push(acc);
            acc = acc.wrapping_add(v);
        }
        out
    }

    fn host_argsort(keys: &[u128]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        idx.sort_by_key(|&i| keys[i as usize]); // stable
        idx
    }

    #[test]
    fn scan_matches_host_fold() {
        let gpu = GpuConfig::small_test();
        for n in [0usize, 1, 2, 7, 31, 32, 33, 257, 1000] {
            let values: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101).collect();
            let (out, report) =
                device_exclusive_scan(&gpu, &values, &LaunchOptions::default()).unwrap();
            assert_eq!(out, host_exclusive_scan(&values), "n = {n}");
            if n > 0 {
                assert!(report.launches >= 2);
                assert!(report.model_s > 0.0);
            } else {
                assert_eq!(report.launches, 0);
            }
        }
    }

    #[test]
    fn scan_is_exact_under_wrapping_sums() {
        let gpu = GpuConfig::small_test();
        let values = vec![u64::MAX, 3, u64::MAX - 1, 7, u64::MAX / 2];
        let (out, _) = device_exclusive_scan(&gpu, &values, &LaunchOptions::default()).unwrap();
        assert_eq!(out, host_exclusive_scan(&values));
    }

    #[test]
    fn scan_is_shape_invariant() {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 13) % 29).collect();
        let small = GpuConfig::small_test();
        let big = GpuConfig::default();
        let (a, _) = device_exclusive_scan(&small, &values, &LaunchOptions::default()).unwrap();
        let (b, _) = device_exclusive_scan(&big, &values, &LaunchOptions::default()).unwrap();
        assert_eq!(a, b, "device shape must not change scan results");
    }

    #[test]
    fn argsort_matches_stable_host_sort() {
        let gpu = GpuConfig::small_test();
        let cases: Vec<Vec<u128>> = vec![
            vec![],
            vec![42],
            vec![5, 5, 5, 5],
            (0..300u128).rev().collect(),
            (0..300u128).collect(),
            (0..300u128).map(|i| (i * 7919) % 257).collect(),
            vec![u128::MAX, 0, u128::MAX / 2, 1, u128::MAX],
        ];
        for keys in cases {
            let (order, _) =
                device_radix_argsort(&gpu, &keys, DEFAULT_DIGIT_BITS, &LaunchOptions::default())
                    .unwrap();
            assert_eq!(order, host_argsort(&keys), "keys = {keys:?}");
        }
    }

    #[test]
    fn argsort_pass_count_tracks_key_width() {
        let gpu = GpuConfig::small_test();
        let opts = LaunchOptions::default();
        let (_, wide) = device_radix_argsort(&gpu, &[1u128 << 63, 5], 8, &opts).unwrap();
        assert_eq!(wide.passes, 8);
        let (_, narrow) = device_radix_argsort(&gpu, &[200u128, 5], 8, &opts).unwrap();
        assert_eq!(narrow.passes, 1);
        let (order, zero) = device_radix_argsort(&gpu, &[0u128, 0, 0], 8, &opts).unwrap();
        assert_eq!(zero.passes, 0, "all-zero keys need no passes");
        assert_eq!(zero.launches, 0);
        assert_eq!(order, vec![0, 1, 2], "zero passes keep input order");
    }

    #[test]
    fn step_modes_agree_bit_for_bit() {
        let gpu = GpuConfig::small_test();
        let keys: Vec<u128> = (0..200u128).map(|i| ((i * 31) % 17) << 32 | i).collect();
        let values: Vec<u64> = (0..200u64).map(|i| (i * 31) % 17).collect();
        let stepped = LaunchOptions::default().with_step_mode(StepMode::Stepped);
        let runlength = LaunchOptions::default().with_step_mode(StepMode::RunLength);
        let (o1, r1) = device_radix_argsort(&gpu, &keys, 8, &stepped).unwrap();
        let (o2, r2) = device_radix_argsort(&gpu, &keys, 8, &runlength).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(r1, r2, "cost accounting must match across step modes");
        let (s1, c1) = device_exclusive_scan(&gpu, &values, &stepped).unwrap();
        let (s2, c2) = device_exclusive_scan(&gpu, &values, &runlength).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn digit_width_changes_cost_not_order() {
        let gpu = GpuConfig::small_test();
        let keys: Vec<u128> = (0..128u128).map(|i| (i * 2654435761) % 100_000).collect();
        let opts = LaunchOptions::default();
        let (o4, r4) = device_radix_argsort(&gpu, &keys, 4, &opts).unwrap();
        let (o8, r8) = device_radix_argsort(&gpu, &keys, 8, &opts).unwrap();
        assert_eq!(o4, o8);
        assert!(r4.passes > r8.passes);
    }

    #[test]
    fn fault_plane_gates_the_chain() {
        let gpu = GpuConfig::small_test();
        let keys: Vec<u128> = (0..64u128).rev().collect();
        // The first launch of the chain fails transiently: the whole
        // primitive aborts with the typed error and no partial state.
        let plane = FaultPlane::new(FaultSchedule::new().transient_at(0));
        let opts = LaunchOptions::default().with_fault_plane(&plane);
        let err = device_radix_argsort(&gpu, &keys, 8, &opts).unwrap_err();
        assert!(matches!(err, LaunchError::Transient(_)));
        // Re-running against the same plane (fault consumed) succeeds and is
        // bit-identical to an ungated run.
        let (order, _) = device_radix_argsort(&gpu, &keys, 8, &opts).unwrap();
        let (clean, _) = device_radix_argsort(&gpu, &keys, 8, &LaunchOptions::default()).unwrap();
        assert_eq!(order, clean);
    }

    #[test]
    fn segmented_lane_upholds_the_run_contract() {
        let op_a = Op::new(crate::op::OpKind::Other, 6);
        let op_b = Op::new(crate::op::OpKind::Emit, 8);
        let mut stepped = SegmentedLane::new(vec![(op_b, 0), (op_a, 3), (op_b, 0), (op_a, 2)]);
        let mut traced = stepped.clone();
        let mut sink = LaneSink::new();
        let mut ops = Vec::new();
        while let Some(op) = stepped.step(&mut sink) {
            ops.push(op);
        }
        let mut t = LaneTrace::default();
        traced.trace(&mut t);
        let traced_ops: Vec<Op> = (0..t.round()).flat_map(|r| t.ops_in(r)).collect();
        assert_eq!(traced_ops, ops);
        assert_eq!(ops.len(), 5);
        assert!(traced.step(&mut sink).is_none(), "a traced lane retires");
    }

    #[test]
    fn tiling_covers_exactly_once() {
        let gpu = GpuConfig::small_test();
        for n in [1usize, 5, 31, 32, 33, 100, 1000] {
            let t = Tiling::new(&gpu, n);
            let mut covered = 0usize;
            for l in 0..t.lanes {
                covered += t.lane_range(l).len();
            }
            assert_eq!(covered, n, "n = {n}");
            let lanes_via_warps: usize = (0..t.num_warps()).map(|w| t.warp_lanes(w).len()).sum();
            assert_eq!(lanes_via_warps, t.lanes);
            assert!(t.lanes <= gpu.total_warp_slots() * gpu.warp_size as usize);
        }
    }
}
