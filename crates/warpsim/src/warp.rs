//! Lockstep warp execution with divergence serialization.
//!
//! Two host-side paths compute the same [`WarpExecution`]. The stepped
//! oracle steps every live lane once per lockstep round and groups the
//! round's ops. The traced path lets each lane run to retirement on its own
//! ([`LaneProgram::trace`]) and accounts the lockstep afterwards from one
//! round bitset per distinct op: only `issued`, `cycles` and
//! `divergent_rounds` depend on which ops share a round, and all three are
//! popcounts over those bitsets.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::lane::{LaneProgram, LaneSink, LaneTrace};
use crate::op::{Op, NUM_OP_KINDS};

/// How the executor advances a warp through its lockstep rounds.
///
/// Purely a host-side knob: both modes produce bit-identical simulated
/// results (cycles, issued, WEE, lane-op histograms, divergent rounds, pair
/// emission order) — the differential test suite asserts it. The run-length
/// mode only changes how fast the *simulation* runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// The original round-by-round interpreter: every lockstep round steps
    /// every live lane once. Kept as the oracle for differential testing.
    Stepped,
    /// The bulk path: each lane is traced natively to retirement (see
    /// [`LaneProgram::trace`]) as run-length op segments, and the warp's
    /// lockstep rounds are accounted from one round bitset per distinct op.
    #[default]
    RunLength,
}

impl StepMode {
    /// Parses a CLI-style name (`"stepped"` / `"runlength"`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "stepped" => Some(StepMode::Stepped),
            "runlength" | "run-length" => Some(StepMode::RunLength),
            _ => None,
        }
    }

    /// Short machine-readable name (CLI / telemetry field value).
    pub fn name(&self) -> &'static str {
        match self {
            StepMode::Stepped => "stepped",
            StepMode::RunLength => "runlength",
        }
    }
}

/// The outcome of micro-executing one warp: its serialized duration and the
/// statistics from which warp execution efficiency is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarpExecution {
    /// Serialized duration of the warp's instruction stream, in model cycles.
    pub cycles: u64,
    /// Number of warp instructions issued (divergence groups issue separately).
    pub issued: u64,
    /// Sum over issues of the number of active lanes.
    pub active_lane_slots: u64,
    /// Lanes the warp was created with (may be < warp size for tail warps).
    pub lanes: u32,
    /// The warp width used for efficiency accounting.
    pub warp_size: u32,
    /// Per-kind count of lane-ops executed (e.g. total distance calculations).
    pub lane_ops_by_kind: [u64; NUM_OP_KINDS],
    /// Number of lockstep rounds in which >1 divergence group was present.
    pub divergent_rounds: u64,
}

impl WarpExecution {
    /// Warp execution efficiency: average fraction of active lanes per
    /// issued warp instruction, in `[0, 1]`. Lanes disabled because a tail
    /// warp is only partially populated count as inactive, as on hardware.
    pub fn efficiency(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.active_lane_slots as f64 / (self.issued * self.warp_size as u64) as f64
        }
    }

    /// Total lane-ops across all kinds.
    pub fn total_lane_ops(&self) -> u64 {
        self.lane_ops_by_kind.iter().sum()
    }

    /// Accumulates another warp's counters into this one (for kernel totals).
    pub fn accumulate(&mut self, other: &WarpExecution) {
        self.cycles += other.cycles;
        self.issued += other.issued;
        self.active_lane_slots += other.active_lane_slots;
        self.divergent_rounds += other.divergent_rounds;
        for k in 0..NUM_OP_KINDS {
            self.lane_ops_by_kind[k] += other.lane_ops_by_kind[k];
        }
    }
}

/// Micro-executes one warp's lanes in lockstep.
///
/// Each round, every unfinished lane produces its next [`Op`]. Lanes whose
/// ops are identical execute together as one warp instruction; distinct ops
/// within a round are divergence groups and execute serially, with the other
/// lanes masked (idle) — the SIMT branch-serialization rule. A lane that has
/// retired stays masked for the remainder of the warp's execution, which is
/// precisely how intra-warp load imbalance wastes execution slots.
///
/// Uses the default [`StepMode::RunLength`] bulk path; see
/// [`execute_warp_with`] for the explicit-mode variant.
pub fn execute_warp<L: LaneProgram>(
    lanes: &mut [L],
    warp_size: u32,
    sink: &mut LaneSink,
) -> WarpExecution {
    execute_warp_with(lanes, warp_size, sink, StepMode::default())
}

/// [`execute_warp`] with an explicit [`StepMode`]. Both modes are
/// bit-identical in every simulated result; `Stepped` is the slow oracle
/// kept alive for differential testing.
pub fn execute_warp_with<L: LaneProgram>(
    lanes: &mut [L],
    warp_size: u32,
    sink: &mut LaneSink,
    mode: StepMode,
) -> WarpExecution {
    assert!(
        lanes.len() <= warp_size as usize,
        "warp created with {} lanes but warp size is {}",
        lanes.len(),
        warp_size
    );
    match mode {
        StepMode::Stepped => execute_stepped(lanes, warp_size, sink),
        StepMode::RunLength => execute_traced(lanes, warp_size, sink),
    }
}

/// The original round-by-round interpreter (the differential oracle).
fn execute_stepped<L: LaneProgram>(
    lanes: &mut [L],
    warp_size: u32,
    sink: &mut LaneSink,
) -> WarpExecution {
    let mut exec = WarpExecution {
        lanes: lanes.len() as u32,
        warp_size,
        ..WarpExecution::default()
    };
    let mut retired: Vec<bool> = vec![false; lanes.len()];
    let mut live = lanes.len();

    while live > 0 {
        // Gather one op from every live lane.
        let mut groups: BTreeMap<Op, u32> = BTreeMap::new();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if retired[i] {
                continue;
            }
            match lane.step(sink) {
                Some(op) => {
                    *groups.entry(op).or_insert(0) += 1;
                }
                None => {
                    retired[i] = true;
                    live -= 1;
                }
            }
        }
        if groups.is_empty() {
            break;
        }
        if groups.len() > 1 {
            exec.divergent_rounds += 1;
        }
        for (op, lane_count) in groups {
            exec.issued += 1;
            exec.cycles += op.cycles as u64;
            exec.active_lane_slots += lane_count as u64;
            exec.lane_ops_by_kind[op.kind.index()] += lane_count as u64;
        }
    }
    exec
}

thread_local! {
    /// One trace scratch per host thread, reused warp after warp.
    static SCRATCH: RefCell<LaneTrace> = RefCell::default();
}

/// The bulk accounting path: traces each lane natively to retirement, in
/// lane order, into one round bitset per distinct op, then derives the
/// counters the stepped rounds would have accumulated.
fn execute_traced<L: LaneProgram>(
    lanes: &mut [L],
    warp_size: u32,
    sink: &mut LaneSink,
) -> WarpExecution {
    SCRATCH.with_borrow_mut(|t| {
        t.reset();
        for lane in lanes.iter_mut() {
            t.begin_lane();
            lane.trace(t);
        }
        let mut exec = WarpExecution {
            lanes: lanes.len() as u32,
            warp_size,
            ..WarpExecution::default()
        };
        // A round issues each distinct op once, so an op's issues are the
        // popcount of its bitset; lane-ops are plain per-lane sums.
        let mut words = 0;
        for row in t.rows() {
            let issued: u64 = row.rounds.iter().map(|w| w.count_ones() as u64).sum();
            exec.issued += issued;
            exec.cycles += row.op.cycles as u64 * issued;
            exec.active_lane_slots += row.lane_ops;
            exec.lane_ops_by_kind[row.op.kind.index()] += row.lane_ops;
            words = words.max(row.rounds.len());
        }
        // A round diverges when two or more ops issue in it.
        for w in 0..words {
            let (mut once, mut twice) = (0u64, 0u64);
            for row in t.rows() {
                let bits = row.rounds.get(w).copied().unwrap_or(0);
                twice |= once & bits;
                once |= bits;
            }
            exec.divergent_rounds += twice.count_ones() as u64;
        }
        t.drain_pairs_into(sink);
        exec
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::FixedWorkLane;
    use crate::op::{Op, OpKind};

    fn dist_op() -> Op {
        Op::new(OpKind::Distance, 10)
    }

    #[test]
    fn uniform_work_is_fully_efficient() {
        let mut lanes: Vec<_> = (0..4).map(|_| FixedWorkLane::new(5, dist_op())).collect();
        let mut sink = LaneSink::new();
        let exec = execute_warp(&mut lanes, 4, &mut sink);
        assert_eq!(exec.issued, 5);
        assert_eq!(exec.cycles, 50);
        assert!((exec.efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(exec.lane_ops_by_kind[OpKind::Distance.index()], 20);
        assert_eq!(exec.divergent_rounds, 0);
    }

    #[test]
    fn skewed_work_lowers_efficiency() {
        // One lane does 10 ops, three lanes do 1 op: the three sit idle for
        // nine rounds → efficiency = (4 + 9*1) / (10*4).
        let mut lanes = vec![
            FixedWorkLane::new(10, dist_op()),
            FixedWorkLane::new(1, dist_op()),
            FixedWorkLane::new(1, dist_op()),
            FixedWorkLane::new(1, dist_op()),
        ];
        let mut sink = LaneSink::new();
        let exec = execute_warp(&mut lanes, 4, &mut sink);
        assert_eq!(exec.issued, 10);
        assert_eq!(exec.cycles, 100);
        let expected = (4 + 9) as f64 / 40.0;
        assert!((exec.efficiency() - expected).abs() < 1e-12);
    }

    #[test]
    fn partial_warp_counts_missing_lanes_as_inactive() {
        let mut lanes = vec![FixedWorkLane::new(2, dist_op()); 2];
        let mut sink = LaneSink::new();
        let exec = execute_warp(&mut lanes, 4, &mut sink);
        assert_eq!(exec.lanes, 2);
        assert!((exec.efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn divergent_ops_serialize() {
        // Two lanes issue Distance, two issue Emit each round → 2 warp
        // instructions per round, each with half the lanes active.
        struct Alternating(u32, Op);
        impl LaneProgram for Alternating {
            fn step(&mut self, _s: &mut LaneSink) -> Option<Op> {
                if self.0 == 0 {
                    None
                } else {
                    self.0 -= 1;
                    Some(self.1)
                }
            }
        }
        let mut lanes = vec![
            Alternating(3, Op::new(OpKind::Distance, 10)),
            Alternating(3, Op::new(OpKind::Distance, 10)),
            Alternating(3, Op::new(OpKind::Emit, 8)),
            Alternating(3, Op::new(OpKind::Emit, 8)),
        ];
        let mut sink = LaneSink::new();
        let exec = execute_warp(&mut lanes, 4, &mut sink);
        assert_eq!(exec.issued, 6);
        assert_eq!(exec.cycles, 3 * (10 + 8));
        assert_eq!(exec.divergent_rounds, 3);
        assert!((exec.efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_warp_is_trivially_done() {
        let mut lanes: Vec<FixedWorkLane> = vec![];
        let mut sink = LaneSink::new();
        let exec = execute_warp(&mut lanes, 4, &mut sink);
        assert_eq!(exec.cycles, 0);
        assert_eq!(exec.issued, 0);
        assert_eq!(exec.efficiency(), 1.0);
    }

    #[test]
    #[should_panic(expected = "warp size")]
    fn oversized_warp_panics() {
        let mut lanes = vec![FixedWorkLane::new(1, dist_op()); 5];
        let mut sink = LaneSink::new();
        let _ = execute_warp(&mut lanes, 4, &mut sink);
    }

    #[test]
    fn modes_agree_on_skewed_work() {
        let work = [10u32, 1, 7, 3];
        let make = || -> Vec<FixedWorkLane> {
            work.iter()
                .map(|&w| FixedWorkLane::new(w, dist_op()))
                .collect()
        };
        let (mut a, mut b) = (make(), make());
        let stepped = execute_warp_with(&mut a, 4, &mut LaneSink::new(), StepMode::Stepped);
        let fast = execute_warp_with(&mut b, 4, &mut LaneSink::new(), StepMode::RunLength);
        assert_eq!(stepped, fast);
        assert_eq!(fast.issued, 10);
        assert_eq!(fast.cycles, 100);
    }

    #[test]
    fn same_kind_different_cost_ops_diverge_identically_in_both_modes() {
        // Two Distance groups with different cycle costs plus an Emit group:
        // three divergence groups per round, one bitset each in RunLength
        // mode and three BTreeMap entries in Stepped mode.
        #[derive(Clone)]
        struct Fixed(u32, Op);
        impl LaneProgram for Fixed {
            fn step(&mut self, _s: &mut LaneSink) -> Option<Op> {
                (self.0 > 0).then(|| {
                    self.0 -= 1;
                    self.1
                })
            }
        }
        let make = || {
            vec![
                Fixed(4, Op::new(OpKind::Distance, 10)),
                Fixed(4, Op::new(OpKind::Distance, 25)),
                Fixed(4, Op::new(OpKind::Emit, 8)),
                Fixed(2, Op::new(OpKind::Distance, 10)),
            ]
        };
        let (mut a, mut b) = (make(), make());
        let stepped = execute_warp_with(&mut a, 4, &mut LaneSink::new(), StepMode::Stepped);
        let fast = execute_warp_with(&mut b, 4, &mut LaneSink::new(), StepMode::RunLength);
        assert_eq!(stepped, fast);
        assert_eq!(fast.divergent_rounds, 4);
        assert_eq!(fast.lane_ops_by_kind[OpKind::Distance.index()], 10);
        assert_eq!(fast.lane_ops_by_kind[OpKind::Emit.index()], 4);
    }

    #[test]
    fn accumulate_sums_counters() {
        let mut lanes = vec![FixedWorkLane::new(2, dist_op()); 4];
        let mut sink = LaneSink::new();
        let a = execute_warp(&mut lanes, 4, &mut sink);
        let mut total = WarpExecution::default();
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(total.cycles, 2 * a.cycles);
        assert_eq!(total.issued, 2 * a.issued);
        assert_eq!(
            total.lane_ops_by_kind[OpKind::Distance.index()],
            2 * a.lane_ops_by_kind[OpKind::Distance.index()]
        );
    }
}
