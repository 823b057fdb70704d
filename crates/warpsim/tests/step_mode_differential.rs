//! Differential property tests: [`StepMode::RunLength`] must be
//! bit-identical to the [`StepMode::Stepped`] oracle — same
//! [`warpsim::WarpExecution`], same pairs in the same emission order — over
//! scripted lane programs that exercise every corner of the trace contract:
//! runs crossing the 64-round words of the round bitsets, pairs from one
//! step, pairs emitted by the retiring step, tail and empty warps, and warps
//! mixing native and step-driven traces.

use proptest::prelude::*;
use warpsim::lane::FixedWorkLane;
use warpsim::{
    execute_warp_with, launch_with, DeviceBuffer, GpuConfig, IssueOrder, LaneProgram, LaneSink,
    LaneTrace, LaunchOptions, Op, OpKind, StepMode, WarpExecution, WarpSource,
};

/// One homogeneous stretch of a scripted lane: `len` copies of `op`, whose
/// final step emits `emits` pairs.
#[derive(Debug, Clone)]
struct Segment {
    op: Op,
    len: u32,
    emits: u32,
}

/// A lane program driven by a script of [`Segment`]s, with a native
/// [`LaneProgram::trace`] that records each segment as one run.
/// `emit_on_retire` makes the step that returns `None` emit a pair.
#[derive(Debug, Clone)]
struct ScriptLane {
    id: u32,
    segments: Vec<Segment>,
    seg: usize,
    done_in_seg: u32,
    emit_on_retire: bool,
}

impl ScriptLane {
    fn new(id: u32, segments: Vec<Segment>, emit_on_retire: bool) -> Self {
        Self {
            id,
            segments,
            seg: 0,
            done_in_seg: 0,
            emit_on_retire,
        }
    }

    /// The `e`-th pair emitted at the end of segment `seg`.
    fn pair(&self, seg: usize, e: u32) -> (u32, u32) {
        (self.id, seg as u32 * 8 + e)
    }
}

impl LaneProgram for ScriptLane {
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
        let Some(segment) = self.segments.get(self.seg) else {
            if std::mem::take(&mut self.emit_on_retire) {
                sink.emit(self.id, u32::MAX);
            }
            return None;
        };
        let (op, emits) = (segment.op, segment.emits);
        self.done_in_seg += 1;
        if self.done_in_seg == segment.len {
            for e in 0..emits {
                let (a, b) = self.pair(self.seg, e);
                sink.emit(a, b);
            }
            self.seg += 1;
            self.done_in_seg = 0;
        }
        Some(op)
    }

    fn trace(&mut self, t: &mut LaneTrace) {
        while let Some(segment) = self.segments.get(self.seg) {
            let op = t.handle(segment.op);
            let round = t.run(op, segment.len - self.done_in_seg);
            for e in 0..segment.emits {
                let (a, b) = self.pair(self.seg, e);
                t.emit(round, a, b);
            }
            self.seg += 1;
            self.done_in_seg = 0;
        }
        if std::mem::take(&mut self.emit_on_retire) {
            t.emit(t.round(), self.id, u32::MAX);
        }
    }
}

/// The same script through the trait's default, step-driven trace.
#[derive(Debug, Clone)]
struct StepDriven(ScriptLane);

impl LaneProgram for StepDriven {
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
        self.0.step(sink)
    }
}

/// A lane of a warp that mixes native and step-driven traces.
#[derive(Debug, Clone)]
enum MixedLane {
    Native(ScriptLane),
    Stepped(StepDriven),
}

impl LaneProgram for MixedLane {
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
        match self {
            MixedLane::Native(l) => l.step(sink),
            MixedLane::Stepped(l) => l.step(sink),
        }
    }

    fn trace(&mut self, t: &mut LaneTrace) {
        match self {
            MixedLane::Native(l) => l.trace(t),
            MixedLane::Stepped(l) => l.trace(t),
        }
    }
}

const OP_KINDS: [OpKind; 4] = [
    OpKind::Setup,
    OpKind::Distance,
    OpKind::Emit,
    OpKind::Atomic,
];

const WARP: u32 = 8;

/// Runs `lanes` in both modes and returns the oracle's outcome after
/// asserting the run-length mode matches it.
fn assert_modes_agree<L: LaneProgram + Clone>(lanes: &[L]) -> (WarpExecution, Vec<(u32, u32)>) {
    let run = |mode| {
        let mut lanes = lanes.to_vec();
        let mut sink = LaneSink::new();
        let exec = execute_warp_with(&mut lanes, WARP, &mut sink, mode);
        (exec, sink.into_pairs())
    };
    let stepped = run(StepMode::Stepped);
    let fast = run(StepMode::RunLength);
    assert_eq!(stepped.0, fast.0, "warp execution differs");
    assert_eq!(stepped.1, fast.1, "pair emission order differs");
    stepped
}

fn seg(kind: usize, cycles: u32, len: u32, emits: u32) -> Segment {
    Segment {
        op: Op::new(OP_KINDS[kind], cycles),
        len,
        emits,
    }
}

/// A raw lane: its segments, whether it traces natively, whether its
/// retiring step emits.
type RawLane = (Vec<((usize, u32), u32, u32)>, bool, bool);

fn mixed_from(raw: &[RawLane]) -> Vec<MixedLane> {
    raw.iter()
        .enumerate()
        .map(|(i, (segs, native, emit_on_retire))| {
            let segments = segs
                .iter()
                .map(|&((kind, cycles), len, emits)| seg(kind % 4, cycles, len, emits))
                .collect();
            let lane = ScriptLane::new(i as u32, segments, *emit_on_retire);
            if *native {
                MixedLane::Native(lane)
            } else {
                MixedLane::Stepped(StepDriven(lane))
            }
        })
        .collect()
}

fn raw_warp() -> impl Strategy<Value = Vec<RawLane>> {
    // Up to 8 lanes against warp_size 8: tail warps (fewer lanes than the
    // warp width) and the empty warp are both generated. Segment lengths mix
    // short runs with runs of about a bitset word, so lanes and runs start
    // and end on both sides of the 64- and 128-round word boundaries.
    let len = prop_oneof![1u32..10, 60u32..70];
    prop::collection::vec(
        (
            prop::collection::vec(((0usize..4, 1u32..12), len, 0u32..3), 0..6),
            any::<bool>(),
            any::<bool>(),
        ),
        0..9,
    )
}

proptest! {
    /// The bulk path reproduces the oracle bit for bit on scripted warps
    /// that mix native and step-driven lanes: execution counters and pair
    /// emission order.
    #[test]
    fn step_modes_agree_on_adversarial_scripts(raw in raw_warp()) {
        let lanes = mixed_from(&raw);
        let run = |mode| {
            let mut lanes = lanes.clone();
            let mut sink = LaneSink::new();
            let exec = execute_warp_with(&mut lanes, WARP, &mut sink, mode);
            (exec, sink.into_pairs())
        };
        let (stepped, fast) = (run(StepMode::Stepped), run(StepMode::RunLength));
        prop_assert_eq!(stepped.0, fast.0);
        prop_assert_eq!(stepped.1, fast.1, "pair emission order differs");
    }

    /// Whole launches agree across modes for step-driven lanes with skewed
    /// per-warp work (short lanes retire while long lanes run on).
    #[test]
    fn step_modes_agree_on_launches(work in prop::collection::vec(0u32..200, 1..30)) {
        struct Skewed {
            work: Vec<u32>,
        }
        impl WarpSource for Skewed {
            type Lane = FixedWorkLane;
            fn num_warps(&self) -> usize {
                self.work.len()
            }
            fn make_warp(&self, warp_id: u32) -> Vec<FixedWorkLane> {
                let w = self.work[warp_id as usize];
                // Lane i carries a decreasing share, so lanes retire at
                // different rounds within the warp.
                (0..4)
                    .map(|i| FixedWorkLane::new(w / (i + 1), Op::new(OpKind::Distance, 10)))
                    .collect()
            }
        }
        let gpu = GpuConfig::small_test();
        let src = Skewed { work };
        let run = |mode: StepMode| {
            let mut out = DeviceBuffer::with_capacity(0);
            let opts = LaunchOptions::default().with_step_mode(mode);
            launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap()
        };
        let stepped = run(StepMode::Stepped);
        let fast = run(StepMode::RunLength);
        prop_assert_eq!(stepped.totals, fast.totals);
        prop_assert_eq!(stepped.warp_cycles, fast.warp_cycles);
        prop_assert_eq!(stepped.makespan.makespan, fast.makespan.makespan);
        prop_assert!((stepped.wee() - fast.wee()).abs() == 0.0);
    }
}

#[test]
fn runs_crossing_bitset_words_agree() {
    // Lane b starts a new op at each of rounds 63, 64, 65, 127 and 128
    // while lane a runs one op throughout; lane c switches ops at the same
    // rounds from the other side.
    let a = ScriptLane::new(0, vec![seg(1, 10, 140, 1)], false);
    let b = ScriptLane::new(
        1,
        vec![
            seg(1, 10, 63, 0),
            seg(2, 8, 1, 1),
            seg(1, 10, 1, 0),
            seg(2, 8, 62, 2),
            seg(1, 10, 1, 1),
            seg(2, 8, 12, 0),
        ],
        false,
    );
    let c = ScriptLane::new(
        2,
        vec![seg(2, 8, 64, 1), seg(1, 10, 64, 0), seg(3, 5, 1, 1)],
        true,
    );
    let (exec, pairs) = assert_modes_agree(&[a.clone(), b.clone(), c.clone()]);
    assert_eq!(exec.active_lane_slots, 140 + 140 + 129);
    assert!(exec.divergent_rounds > 0);
    assert!(pairs.contains(&(2, u32::MAX)), "the retiring step's pair");
    // Lanes ending exactly at those rounds.
    for len in [63u32, 64, 65, 127, 128] {
        let short = ScriptLane::new(3, vec![seg(1, 10, len, 1)], true);
        assert_modes_agree(&[a.clone(), short, b.clone()]);
    }
}

#[test]
fn lanes_of_exactly_one_word_agree() {
    let lanes: Vec<ScriptLane> = (0..WARP)
        .map(|i| ScriptLane::new(i, vec![seg(1, 10, 64, 1)], false))
        .collect();
    let (exec, pairs) = assert_modes_agree(&lanes);
    assert_eq!(exec.issued, 64);
    assert_eq!(exec.divergent_rounds, 0);
    assert_eq!(pairs.len(), WARP as usize);
    let split: Vec<ScriptLane> = (0..WARP)
        .map(|i| ScriptLane::new(i, vec![seg(i as usize % 4, 10, 64, 0)], false))
        .collect();
    let (exec, _) = assert_modes_agree(&split);
    assert_eq!(exec.issued, 4 * 64);
    assert_eq!(exec.divergent_rounds, 64);
}

#[test]
fn two_pairs_from_one_step_keep_their_order() {
    let lanes = [
        ScriptLane::new(0, vec![seg(1, 10, 3, 2), seg(2, 8, 1, 2)], false),
        ScriptLane::new(1, vec![seg(1, 10, 3, 2)], false),
    ];
    let (_, pairs) = assert_modes_agree(&lanes);
    assert_eq!(pairs, [(0, 0), (0, 1), (1, 0), (1, 1), (0, 8), (0, 9)]);
}

#[test]
fn empty_and_single_lane_warps_agree() {
    let (exec, pairs) = assert_modes_agree::<ScriptLane>(&[]);
    assert_eq!(
        exec,
        WarpExecution {
            warp_size: WARP,
            ..WarpExecution::default()
        }
    );
    assert!(pairs.is_empty());
    // A lane with no ops, whose retiring step still emits.
    let (exec, pairs) = assert_modes_agree(&[ScriptLane::new(5, vec![], true)]);
    assert_eq!((exec.issued, exec.lanes), (0, 1));
    assert_eq!(pairs, [(5, u32::MAX)]);
    let one = ScriptLane::new(0, vec![seg(0, 4, 2, 1), seg(1, 10, 70, 1)], true);
    let (exec, _) = assert_modes_agree(&[one]);
    assert_eq!(exec.issued, 72);
}

#[test]
fn native_and_step_driven_lanes_mix_in_one_warp() {
    let script = |i: u32| {
        ScriptLane::new(
            i,
            vec![seg(0, 4, 1, 0), seg(1, 10, 5 + 20 * i, 1), seg(2, 8, 1, 2)],
            i.is_multiple_of(3),
        )
    };
    let lanes: Vec<MixedLane> = (0..WARP)
        .map(|i| {
            if i % 2 == 0 {
                MixedLane::Native(script(i))
            } else {
                MixedLane::Stepped(StepDriven(script(i)))
            }
        })
        .collect();
    let (_, mixed_pairs) = assert_modes_agree(&lanes);
    let native: Vec<ScriptLane> = (0..WARP).map(script).collect();
    let (_, native_pairs) = assert_modes_agree(&native);
    assert_eq!(mixed_pairs, native_pairs);
}
