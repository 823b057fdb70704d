//! The range-query kernels as SIMT lane programs.
//!
//! One *group* of `k` lanes computes the ε-neighborhood of one query point
//! (`k = 1` reproduces `GPUCALCGLOBAL`'s one-thread-per-point mapping;
//! `k > 1` is the granularity optimization of §III-A, with each lane
//! refining a contiguous `1/k` slice of every candidate cell, as in the
//! paper's Figure 4). The instruction stream of a lane is:
//!
//! 1. optional work-queue prologue: the group leader's global atomic
//!    increment and the cooperative-group broadcast shuffle (§III-D);
//! 2. a setup op (thread-id computation, query-point load, window ranges);
//! 3. per probed cell: a lookup op (binary search of the non-empty cell
//!    list), then one distance op per assigned candidate, plus an emit op
//!    after every candidate found within ε.
//!
//! Which cells are probed comes from the configured
//! [`crate::patterns`] access pattern, resolved once per join into a
//! [`ResolvedPatterns`] table shared by all batches.
//!
//! [`RangeQueryLane`] runs this stream two ways: `step`, one op per call,
//! for the stepped oracle; and a native `trace` that scans each candidate
//! slice in one loop and records the distance ops in runs that end at an
//! in-ε candidate. Both emit every pair at the round of its distance op.

use epsgrid::{euclidean_dist_sq, GridIndex, Point};
use warpsim::{
    CostModel, DeviceCounter, LaneProgram, LaneSink, LaneTrace, Op, OpHandle, WarpSource,
};

use crate::config::AccessPattern;
use crate::patterns::{probes_for, ProbeRelation};

/// A probe with its index lookup pre-resolved: `found` is the index of the
/// probed cell in the grid's non-empty cell list, if it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedProbe {
    /// Index of the probed cell, or `None` if the probe misses.
    pub found: Option<u32>,
    /// Relation of the probed cell's points to the query point.
    pub relation: ProbeRelation,
}

/// Pattern probes resolved against the index, shared across batches.
#[derive(Debug, Clone)]
pub struct ResolvedPatterns {
    /// For each non-empty cell, its probe list.
    pub per_cell: Vec<Vec<ResolvedProbe>>,
    /// For each dataset point, its position within its home cell's point
    /// list (used by [`ProbeRelation::OwnCellForward`]).
    pub pos_in_cell: Vec<u32>,
}

impl ResolvedPatterns {
    /// Resolves `pattern` against `grid` for every non-empty cell.
    pub fn compute<const N: usize>(grid: &GridIndex<N>, pattern: AccessPattern) -> Self {
        let per_cell = (0..grid.num_cells())
            .map(|ci| {
                probes_for(pattern, grid, ci)
                    .into_iter()
                    .map(|p| ResolvedProbe {
                        found: grid.find_cell(p.linear_id).map(|i| i as u32),
                        relation: p.relation,
                    })
                    .collect()
            })
            .collect();
        let mut pos_in_cell = vec![0u32; grid.num_points()];
        for ci in 0..grid.num_cells() {
            for (pos, &pid) in grid.cell_points(ci).iter().enumerate() {
                pos_in_cell[pid as usize] = pos as u32;
            }
        }
        Self {
            per_cell,
            pos_in_cell,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LanePhase {
    Prologue(u8),
    Setup,
    NextProbe,
    Scan,
    Emit,
    Done,
}

/// The per-lane state machine of the range-query kernel.
#[derive(Debug, Clone)]
pub struct RangeQueryLane<'a, const N: usize> {
    grid: &'a GridIndex<N>,
    points: &'a [Point<N>],
    resolved: &'a ResolvedPatterns,
    query: u32,
    home_cell: u32,
    rank: u32,
    k: u32,
    eps_sq: f32,
    setup_op: Op,
    lookup_op: Op,
    dist_op: Op,
    emit_op: Op,
    prologue: [Option<Op>; 2],
    phase: LanePhase,
    probe_i: u32,
    /// The current probe's candidates not yet refined.
    cands: &'a [u32],
    cur_rel: ProbeRelation,
}

impl<'a, const N: usize> RangeQueryLane<'a, N> {
    /// Builds the lane for group rank `rank` (0-based, `< k`) of `query`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid: &'a GridIndex<N>,
        points: &'a [Point<N>],
        resolved: &'a ResolvedPatterns,
        query: u32,
        rank: u32,
        k: u32,
        epsilon: f32,
        cost: &CostModel,
        prologue: [Option<Op>; 2],
    ) -> Self {
        debug_assert!(rank < k);
        Self {
            grid,
            points,
            resolved,
            query,
            home_cell: grid.home_cell_of(query as usize) as u32,
            rank,
            k,
            eps_sq: epsilon * epsilon,
            setup_op: cost.setup_op(),
            lookup_op: cost.cell_lookup_op(),
            dist_op: cost.distance_op(N as u32),
            emit_op: cost.emit_op(),
            prologue,
            phase: LanePhase::Prologue(0),
            probe_i: 0,
            cands: &[],
            cur_rel: ProbeRelation::AllBidirectional,
        }
    }

    /// The contiguous candidate slice `[lo, hi)` this lane refines within a
    /// found cell (Figure 4's per-thread split).
    fn rank_slice(&self, base_lo: u32, base_hi: u32) -> (u32, u32) {
        let n = (base_hi - base_lo) as u64;
        // `k` divides the warp size, so it is nearly always a power of two:
        // shift rather than divide on this per-probe path.
        let split = |r: u64| {
            let x = n * r;
            let part = if self.k.is_power_of_two() {
                x >> self.k.trailing_zeros()
            } else {
                x / self.k as u64
            };
            base_lo + part as u32
        };
        (split(self.rank as u64), split(self.rank as u64 + 1))
    }

    /// Traces the refinement of `cands`: one distance op per candidate,
    /// recorded in runs that end at an in-ε candidate, whose distance op
    /// emits and is followed by an emit op.
    fn scan(
        &self,
        t: &mut LaneTrace,
        cands: &[u32],
        rel: ProbeRelation,
        dist: OpHandle,
        emit: OpHandle,
    ) {
        let query = &self.points[self.query as usize];
        let mut run_start = 0;
        for (i, &cand) in cands.iter().enumerate() {
            let d2 = euclidean_dist_sq(query, &self.points[cand as usize]);
            if d2 <= self.eps_sq && cand != self.query {
                let round = t.run(dist, (i + 1 - run_start) as u32);
                t.emit(round, self.query, cand);
                if rel != ProbeRelation::AllBidirectional {
                    t.emit(round, cand, self.query);
                }
                t.run(emit, 1);
                run_start = i + 1;
            }
        }
        t.run(dist, (cands.len() - run_start) as u32);
    }

    /// The candidates of `probe` this lane refines: its rank's slice of
    /// the probed cell, empty when the probe misses.
    fn probe_slice(&self, probe: &ResolvedProbe) -> &'a [u32] {
        let Some(cell) = probe.found else {
            return &[];
        };
        let cands = self.grid.cell_points(cell as usize);
        let len = cands.len() as u32;
        let base_lo = match probe.relation {
            ProbeRelation::OwnCellForward => self.resolved.pos_in_cell[self.query as usize] + 1,
            _ => 0,
        };
        let (lo, hi) = self.rank_slice(base_lo.min(len), len);
        &cands[lo as usize..hi as usize]
    }
}

impl<const N: usize> LaneProgram for RangeQueryLane<'_, N> {
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
        loop {
            match self.phase {
                LanePhase::Prologue(i) => {
                    if (i as usize) < self.prologue.len() {
                        self.phase = LanePhase::Prologue(i + 1);
                        if let Some(op) = self.prologue[i as usize] {
                            return Some(op);
                        }
                    } else {
                        self.phase = LanePhase::Setup;
                    }
                }
                LanePhase::Setup => {
                    self.phase = LanePhase::NextProbe;
                    return Some(self.setup_op);
                }
                LanePhase::NextProbe => {
                    let probes = &self.resolved.per_cell[self.home_cell as usize];
                    let Some(probe) = probes.get(self.probe_i as usize) else {
                        self.phase = LanePhase::Done;
                        return None;
                    };
                    self.probe_i += 1;
                    self.cands = self.probe_slice(probe);
                    self.cur_rel = probe.relation;
                    self.phase = LanePhase::Scan;
                    // A missing cell still costs its binary search.
                    return Some(self.lookup_op);
                }
                LanePhase::Scan => {
                    let Some((&cand, rest)) = self.cands.split_first() else {
                        self.phase = LanePhase::NextProbe;
                        continue;
                    };
                    self.cands = rest;
                    let d2 = euclidean_dist_sq(
                        &self.points[self.query as usize],
                        &self.points[cand as usize],
                    );
                    if d2 <= self.eps_sq && cand != self.query {
                        if self.cur_rel == ProbeRelation::AllBidirectional {
                            sink.emit(self.query, cand);
                        } else {
                            sink.emit_symmetric(self.query, cand);
                        }
                        self.phase = LanePhase::Emit;
                    }
                    return Some(self.dist_op);
                }
                LanePhase::Emit => {
                    self.phase = LanePhase::Scan;
                    return Some(self.emit_op);
                }
                LanePhase::Done => return None,
            }
        }
    }

    /// The native trace: the prologue and setup ops, then a lookup op and
    /// a scan of its candidate slice per probe.
    fn trace(&mut self, t: &mut LaneTrace) {
        debug_assert_eq!(self.phase, LanePhase::Prologue(0), "traced after stepping");
        for &op in self.prologue.iter().flatten().chain([&self.setup_op]) {
            let op = t.handle(op);
            t.run(op, 1);
        }
        let (lookup, dist, emit) = (
            t.handle(self.lookup_op),
            t.handle(self.dist_op),
            t.handle(self.emit_op),
        );
        for probe in &self.resolved.per_cell[self.home_cell as usize] {
            t.run(lookup, 1);
            self.scan(t, self.probe_slice(probe), probe.relation, dist, emit);
        }
        self.phase = LanePhase::Done;
    }
}

/// How query points are handed to thread groups.
#[derive(Debug, Clone, Copy)]
pub enum Assignment<'a> {
    /// Static mapping: group `g` computes `queries[g]`.
    Static {
        /// Query point ids in thread-group order.
        queries: &'a [u32],
    },
    /// Work-queue mapping (§III-D): at warp start, the warp's group leaders
    /// reserve the next indices of the workload-sorted `order` array through
    /// the global counter.
    Queue {
        /// The workload-sorted dataset `D'`.
        order: &'a [u32],
        /// The persistent queue head.
        counter: &'a DeviceCounter,
        /// Exclusive upper bound on queue indices this kernel may consume.
        limit: u64,
    },
}

/// The self-join kernel as a [`WarpSource`].
#[derive(Debug, Clone)]
pub struct JoinKernelSource<'a, const N: usize> {
    /// The grid index.
    pub grid: &'a GridIndex<N>,
    /// The dataset (in original id order).
    pub points: &'a [Point<N>],
    /// Pattern probes resolved against the index.
    pub resolved: &'a ResolvedPatterns,
    /// ε.
    pub epsilon: f32,
    /// Threads per query point.
    pub k: u32,
    /// Warp width (must be a multiple of `k`).
    pub warp_size: u32,
    /// Op cost table.
    pub cost: CostModel,
    /// Query-point assignment.
    pub assignment: Assignment<'a>,
    /// Number of thread groups (query-point slots) launched.
    pub num_groups: usize,
}

impl<const N: usize> JoinKernelSource<'_, N> {
    fn groups_per_warp(&self) -> usize {
        (self.warp_size / self.k) as usize
    }

    fn prologue_for(&self, rank: u32) -> [Option<Op>; 2] {
        match self.assignment {
            Assignment::Static { .. } => [None, None],
            Assignment::Queue { .. } => {
                let atomic = (rank == 0).then(|| self.cost.atomic_op());
                let shuffle = (self.k > 1).then(|| self.cost.shuffle_op());
                [atomic, shuffle]
            }
        }
    }
}

impl<'a, const N: usize> WarpSource for JoinKernelSource<'a, N> {
    type Lane = RangeQueryLane<'a, N>;

    fn num_warps(&self) -> usize {
        (self.num_groups * self.k as usize).div_ceil(self.warp_size as usize)
    }

    fn make_warp(&self, warp_id: u32) -> Vec<Self::Lane> {
        let gpw = self.groups_per_warp();
        let g_lo = warp_id as usize * gpw;
        let slots = gpw.min(self.num_groups.saturating_sub(g_lo));
        let assigned: Vec<u32> = match self.assignment {
            Assignment::Static { queries } => queries[g_lo..g_lo + slots].to_vec(),
            Assignment::Queue {
                order,
                counter,
                limit,
            } => {
                if slots == 0 {
                    Vec::new()
                } else {
                    let start = counter.fetch_add(slots as u64);
                    (0..slots as u64)
                        .filter_map(|i| {
                            let idx = start + i;
                            (idx < limit).then(|| order[idx as usize])
                        })
                        .collect()
                }
            }
        };
        let mut lanes = Vec::with_capacity(assigned.len() * self.k as usize);
        for &pid in &assigned {
            for rank in 0..self.k {
                lanes.push(RangeQueryLane::new(
                    self.grid,
                    self.points,
                    self.resolved,
                    pid,
                    rank,
                    self.k,
                    self.epsilon,
                    &self.cost,
                    self.prologue_for(rank),
                ));
            }
        }
        lanes
    }
}

/// Micro-executes one warp of a kernel while recording its lane-occupancy
/// timeline (see [`warpsim::trace`]) — the diagnostic view behind the
/// paper's Figures 3 and 7. For queue-assigned kernels this consumes the
/// warp's queue reservations, so trace on a throwaway source.
pub fn trace_warp_of<const N: usize>(
    source: &JoinKernelSource<'_, N>,
    warp_id: u32,
) -> warpsim::WarpTrace {
    let mut lanes = source.make_warp(warp_id);
    let mut sink = LaneSink::new();
    warpsim::trace_warp(&mut lanes, source.warp_size, &mut sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use warpsim::{launch, DeviceBuffer, GpuConfig, IssueOrder};

    fn clustered_points() -> Vec<Point<2>> {
        let mut pts = Vec::new();
        // a dense blob, a pair, and isolated points
        for i in 0..12 {
            pts.push([0.3 + 0.015 * i as f32, 0.4 + 0.01 * (i % 3) as f32]);
        }
        pts.push([2.0, 2.0]);
        pts.push([2.05, 2.02]);
        pts.push([5.0, 5.0]);
        pts.push([-1.0, 3.0]);
        pts
    }

    fn run_kernel(
        pts: &[Point<2>],
        eps: f32,
        pattern: AccessPattern,
        k: u32,
    ) -> (Vec<(u32, u32)>, warpsim::LaunchReport) {
        let grid = GridIndex::build(pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, pattern);
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        let src = JoinKernelSource {
            grid: &grid,
            points: pts,
            resolved: &resolved,
            epsilon: eps,
            k,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Static { queries: &queries },
            num_groups: pts.len(),
        };
        let mut out = DeviceBuffer::with_capacity(1_000_000);
        let report = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        let mut pairs = out.into_vec();
        pairs.sort_unstable();
        (pairs, report)
    }

    fn reference(pts: &[Point<2>], eps: f32) -> Vec<(u32, u32)> {
        let mut pairs = brute_force_join(pts, eps);
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn full_window_matches_brute_force() {
        let pts = clustered_points();
        let (pairs, _) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 1);
        assert_eq!(pairs, reference(&pts, 0.12));
    }

    #[test]
    fn unicomp_matches_brute_force() {
        let pts = clustered_points();
        let (pairs, _) = run_kernel(&pts, 0.12, AccessPattern::Unicomp, 1);
        assert_eq!(pairs, reference(&pts, 0.12));
    }

    #[test]
    fn lid_unicomp_matches_brute_force() {
        let pts = clustered_points();
        let (pairs, _) = run_kernel(&pts, 0.12, AccessPattern::LidUnicomp, 1);
        assert_eq!(pairs, reference(&pts, 0.12));
    }

    #[test]
    fn k_split_matches_brute_force_for_all_k() {
        let pts = clustered_points();
        for k in [1u32, 2, 4, 8] {
            for pattern in [
                AccessPattern::FullWindow,
                AccessPattern::Unicomp,
                AccessPattern::LidUnicomp,
            ] {
                let (pairs, _) = run_kernel(&pts, 0.12, pattern, k);
                assert_eq!(pairs, reference(&pts, 0.12), "pattern {pattern:?}, k={k}");
            }
        }
    }

    #[test]
    fn unidirectional_patterns_halve_distance_calcs() {
        let pts = clustered_points();
        let (_, full) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 1);
        let (_, uni) = run_kernel(&pts, 0.12, AccessPattern::Unicomp, 1);
        let (_, lid) = run_kernel(&pts, 0.12, AccessPattern::LidUnicomp, 1);
        // Unidirectional patterns compute each cross-cell pair once instead
        // of twice and intra-cell pairs m(m-1)/2 instead of m² times.
        assert!(uni.distance_calcs() < full.distance_calcs());
        assert!(lid.distance_calcs() < full.distance_calcs());
        assert_eq!(uni.distance_calcs(), lid.distance_calcs());
        let ratio = full.distance_calcs() as f64 / uni.distance_calcs() as f64;
        assert!(
            ratio > 1.7 && ratio < 2.6,
            "expected roughly half, got ratio {ratio}"
        );
    }

    #[test]
    fn queue_assignment_consumes_order_exactly_once() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::LidUnicomp);
        let order: Vec<u32> = (0..pts.len() as u32).rev().collect();
        let counter = DeviceCounter::new();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: eps,
            k: 2,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Queue {
                order: &order,
                counter: &counter,
                limit: order.len() as u64,
            },
            num_groups: pts.len(),
        };
        let mut out = DeviceBuffer::with_capacity(1_000_000);
        launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        assert_eq!(counter.load(), pts.len() as u64);
        let mut pairs = out.into_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, reference(&pts, eps));
    }

    #[test]
    fn queue_respects_limit() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::FullWindow);
        let order: Vec<u32> = (0..pts.len() as u32).collect();
        let counter = DeviceCounter::new();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        // Launch more group slots than the limit allows.
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: eps,
            k: 1,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Queue {
                order: &order,
                counter: &counter,
                limit: 4,
            },
            num_groups: pts.len(),
        };
        let mut out = DeviceBuffer::with_capacity(1_000_000);
        launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        // Only queries 0..4 were processed.
        let processed: std::collections::BTreeSet<u32> =
            out.as_slice().iter().map(|&(q, _)| q).collect();
        assert!(processed.iter().all(|&q| q < 4 || {
            // symmetric emissions may name later points as the *first*
            // element only via emit_symmetric from queries < 4
            reference(&pts, eps).iter().any(|&(a, b)| a == q && b < 4)
        }));
    }

    #[test]
    fn k_and_granularity_reduce_per_lane_imbalance() {
        // With k=4 the heavy query's work is split across four lanes, so the
        // warp-level efficiency improves on skewed data.
        let pts = clustered_points();
        let (_, k1) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 1);
        let (_, k4) = run_kernel(&pts, 0.12, AccessPattern::FullWindow, 4);
        assert!(
            k4.wee() > k1.wee(),
            "k=4 WEE {} should exceed k=1 WEE {}",
            k4.wee(),
            k1.wee()
        );
        assert_eq!(k1.distance_calcs(), k4.distance_calcs(), "same total work");
    }

    #[test]
    fn warp_trace_reflects_imbalance() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::FullWindow);
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: eps,
            k: 1,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Static { queries: &queries },
            num_groups: pts.len(),
        };
        // Warp 0 holds the 8 densest points plus… actually points 0..8 of
        // the 12-point blob: similar workloads. Warp 1 mixes blob tail with
        // isolated points → idle lanes.
        let t0 = trace_warp_of(&src, 0);
        let t1 = trace_warp_of(&src, 1);
        assert!(t0.cycles() > 0 && t1.cycles() > 0);
        assert!(
            t1.idle_fraction() > t0.idle_fraction(),
            "mixed warp should idle more: {} vs {}",
            t1.idle_fraction(),
            t0.idle_fraction()
        );
        let art = t1.render_ascii(40);
        assert_eq!(art.lines().count(), 8);
        assert!(art.contains('.'), "idle periods must be visible");
    }

    #[test]
    fn step_modes_are_bit_identical_on_real_kernels() {
        use warpsim::{launch_with, LaunchOptions, StepMode};
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            block_size: 16,
            ..GpuConfig::small_test()
        };
        for pattern in [
            AccessPattern::FullWindow,
            AccessPattern::Unicomp,
            AccessPattern::LidUnicomp,
        ] {
            let resolved = ResolvedPatterns::compute(&grid, pattern);
            for k in [1u32, 2, 4] {
                let src = JoinKernelSource {
                    grid: &grid,
                    points: &pts,
                    resolved: &resolved,
                    epsilon: eps,
                    k,
                    warp_size: gpu.warp_size,
                    cost: gpu.cost,
                    assignment: Assignment::Static { queries: &queries },
                    num_groups: pts.len(),
                };
                let run = |mode: StepMode| {
                    let mut out = DeviceBuffer::with_capacity(1_000_000);
                    let opts = LaunchOptions::default().with_step_mode(mode);
                    let r = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap();
                    (out.into_vec(), r)
                };
                let (pairs_s, rep_s) = run(StepMode::Stepped);
                let (pairs_f, rep_f) = run(StepMode::RunLength);
                // Exact emission order, not just the sorted pair set.
                assert_eq!(pairs_s, pairs_f, "pattern {pattern:?}, k={k}");
                assert_eq!(rep_s.totals, rep_f.totals, "pattern {pattern:?}, k={k}");
                assert_eq!(rep_s.warp_cycles, rep_f.warp_cycles);
                assert_eq!(rep_s.makespan.makespan, rep_f.makespan.makespan);
            }
        }
    }

    #[test]
    fn native_trace_matches_stepping_a_clone() {
        let pts = clustered_points();
        let eps = 0.12;
        let grid = GridIndex::build(&pts, eps).unwrap();
        let queries: Vec<u32> = (0..pts.len() as u32).collect();
        let gpu = GpuConfig {
            warp_size: 8,
            ..GpuConfig::small_test()
        };
        for pattern in [
            AccessPattern::FullWindow,
            AccessPattern::Unicomp,
            AccessPattern::LidUnicomp,
        ] {
            let resolved = ResolvedPatterns::compute(&grid, pattern);
            for k in [1u32, 2, 8] {
                for queue in [false, true] {
                    let counter = DeviceCounter::new();
                    let assignment = if queue {
                        Assignment::Queue {
                            order: &queries,
                            counter: &counter,
                            limit: queries.len() as u64,
                        }
                    } else {
                        Assignment::Static { queries: &queries }
                    };
                    let src = JoinKernelSource {
                        grid: &grid,
                        points: &pts,
                        resolved: &resolved,
                        epsilon: eps,
                        k,
                        warp_size: gpu.warp_size,
                        cost: gpu.cost,
                        assignment,
                        num_groups: pts.len(),
                    };
                    let case = format!("pattern {pattern:?}, k={k}, queue={queue}");
                    for w in 0..src.num_warps() as u32 {
                        for mut lane in src.make_warp(w) {
                            // The oracle: step a clone, noting each op and
                            // the round of every pair it emits.
                            let mut stepped = lane.clone();
                            let (mut ops, mut emitted) = (Vec::new(), Vec::new());
                            let mut sink = LaneSink::new();
                            loop {
                                let before = sink.len();
                                let op = stepped.step(&mut sink);
                                let round = ops.len() as u32;
                                emitted.extend(sink.pairs()[before..].iter().map(|&p| (round, p)));
                                let Some(op) = op else { break };
                                ops.push(op);
                            }
                            let mut t = LaneTrace::default();
                            lane.trace(&mut t);
                            let traced: Vec<Op> = (0..t.round())
                                .map(|r| {
                                    let mut at = t.ops_in(r);
                                    let op = at.next().expect("one op per round");
                                    assert!(at.next().is_none(), "{case}: one lane, one op");
                                    op
                                })
                                .collect();
                            assert_eq!(traced, ops, "{case}");
                            assert_eq!(t.pairs(), emitted.as_slice(), "{case}");
                            assert!(
                                lane.step(&mut sink).is_none(),
                                "{case}: traced lane retires"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_launch_with_zero_groups() {
        let pts = clustered_points();
        let grid = GridIndex::build(&pts, 0.12).unwrap();
        let resolved = ResolvedPatterns::compute(&grid, AccessPattern::FullWindow);
        let gpu = GpuConfig::small_test();
        let src = JoinKernelSource {
            grid: &grid,
            points: &pts,
            resolved: &resolved,
            epsilon: 0.12,
            k: 1,
            warp_size: gpu.warp_size,
            cost: gpu.cost,
            assignment: Assignment::Static { queries: &[] },
            num_groups: 0,
        };
        let mut out = DeviceBuffer::with_capacity(10);
        let r = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        assert_eq!(r.warps, 0);
        assert!(out.is_empty());
    }
}
