//! Lane programs: the per-thread instruction streams the simulator executes.

use crate::op::Op;

/// A resumable per-lane instruction stream.
///
/// A lane is driven in one of two ways, which must agree op for op and pair
/// for pair:
///
/// - [`LaneProgram::step`] performs the side effects of one SIMT op (e.g.
///   one distance calculation, possibly recording a result pair into the
///   [`LaneSink`]) and returns the op's descriptor, or `None` once the lane
///   has retired. The [`StepMode::Stepped`](crate::warp::StepMode) oracle
///   drives all lanes of a warp round by round with it and serializes
///   divergent steps.
/// - [`LaneProgram::trace`] runs a lane that has not stepped to retirement
///   in one loop, recording into a [`LaneTrace`] the ops it issues, as
///   run-length segments, and every pair it emits, tagged with the lockstep
///   round of the step that emitted it.
///   [`StepMode::RunLength`](crate::warp::StepMode) traces the lanes of a
///   warp one after another and accounts their lockstep in bulk.
///
/// The default `trace` drives `step`, so a lane that only implements `step`
/// is valid in both modes. A native `trace` must record exactly the ops the
/// `step` calls would return, in order, and each pair at the round of the
/// step that emits it: round `r` is the lane's `r`-th op, and a pair emitted
/// by the step that returns `None` belongs to the retiring round, the
/// lane's length.
pub trait LaneProgram {
    /// Advance the lane by one op. Returns `None` when the lane has retired.
    fn step(&mut self, sink: &mut LaneSink) -> Option<Op>;

    /// Runs the lane to retirement, recording its ops and pairs into `t`.
    fn trace(&mut self, t: &mut LaneTrace) {
        let mut sink = LaneSink::new();
        loop {
            let round = t.round();
            let op = self.step(&mut sink);
            for (query, neighbor) in sink.pairs.drain(..) {
                t.emit(round, query, neighbor);
            }
            let Some(op) = op else { return };
            let handle = t.handle(op);
            t.run(handle, 1);
        }
    }
}

/// Collects the outputs of a warp's lanes.
///
/// The kernel driver reuses one sink for all warps of a launch: it holds one
/// warp's pairs at a time, which move into the device result buffer as the
/// warp retires, mimicking the buffered global writes of the real kernels.
#[derive(Debug, Default)]
pub struct LaneSink {
    pairs: Vec<(u32, u32)>,
}

impl LaneSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a result pair `(query, neighbor)`.
    pub fn emit(&mut self, query: u32, neighbor: u32) {
        self.pairs.push((query, neighbor));
    }

    /// Records both orientations of a symmetric pair, as the unidirectional
    /// access patterns do after a single distance calculation.
    pub fn emit_symmetric(&mut self, a: u32, b: u32) {
        self.pairs.push((a, b));
        self.pairs.push((b, a));
    }

    /// Number of pairs recorded so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The recorded pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Consumes the sink, returning the recorded pairs.
    pub fn into_pairs(self) -> Vec<(u32, u32)> {
        self.pairs
    }

    /// Forgets the recorded pairs, keeping the allocation for the next warp.
    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
    }
}

/// A handle to one distinct op's row of a [`LaneTrace`], taken once per lane
/// with [`LaneTrace::handle`] so that recording a run needs no op search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHandle(usize);

/// One distinct op of a traced warp.
#[derive(Debug)]
pub(crate) struct OpRow {
    pub(crate) op: Op,
    /// Bit `r` is set when some lane issues `op` in lockstep round `r`.
    pub(crate) rounds: Vec<u64>,
    /// Lane-ops of `op` summed over the warp's lanes.
    pub(crate) lane_ops: u64,
}

impl OpRow {
    /// Sets the bits of rounds `start..end`, growing the bitset as needed.
    fn fill(&mut self, start: usize, end: usize) {
        let (first, last) = (start / 64, (end - 1) / 64);
        if self.rounds.len() <= last {
            self.rounds.resize(last + 1, 0);
        }
        let head = !0u64 << (start % 64);
        let tail = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            self.rounds[first] |= head & tail;
        } else {
            self.rounds[first] |= head;
            self.rounds[first + 1..last].fill(!0);
            self.rounds[last] |= tail;
        }
    }
}

/// The warp-wide record that lanes trace into under
/// [`StepMode::RunLength`](crate::warp::StepMode).
///
/// It keeps one round bitset per distinct [`Op`], each op's lane-op count,
/// and every emitted pair tagged with its round. Lanes are traced one after
/// another, each from round 0, so a lane's [`LaneTrace::run`] is a range
/// fill of its op's bitset. The warp executor reuses one `LaneTrace` per
/// host thread: rows keep their storage from warp to warp.
#[derive(Debug, Default)]
pub struct LaneTrace {
    /// The current lane's next round.
    round: u32,
    /// Rows in use are `rows[..live]`; the rest keep storage for reuse.
    rows: Vec<OpRow>,
    live: usize,
    /// `(round, pair)` in trace order.
    pairs: Vec<(u32, (u32, u32))>,
    /// Counting-sort scratch for [`LaneTrace::drain_pairs_into`].
    starts: Vec<u32>,
}

impl LaneTrace {
    /// The round the current lane's next op issues in: the number of ops it
    /// has recorded so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The handle of `op`'s row, added on the op's first use in this warp.
    pub fn handle(&mut self, op: Op) -> OpHandle {
        if let Some(i) = self.rows[..self.live].iter().position(|r| r.op == op) {
            return OpHandle(i);
        }
        if self.live == self.rows.len() {
            self.rows.push(OpRow {
                op,
                rounds: Vec::new(),
                lane_ops: 0,
            });
        } else {
            let row = &mut self.rows[self.live];
            row.op = op;
            row.rounds.clear();
            row.lane_ops = 0;
        }
        self.live += 1;
        OpHandle(self.live - 1)
    }

    /// Records `len` consecutive issues of the op behind `op`, from the
    /// current round on, and advances the round past them. Returns the
    /// round of the run's last op (meaningless when `len` is 0).
    #[inline(always)]
    pub fn run(&mut self, op: OpHandle, len: u32) -> u32 {
        let (start, end) = (self.round as usize, (self.round + len) as usize);
        self.round += len;
        let row = &mut self.rows[op.0];
        row.lane_ops += len as u64;
        let word = start / 64;
        // The common case, inline: a short run inside one stored word.
        if len > 0 && (end - 1) / 64 == word && word < row.rounds.len() {
            row.rounds[word] |= (!0u64 << (start % 64)) & (!0u64 >> (63 - (end - 1) % 64));
        } else if len > 0 {
            row.fill(start, end);
        }
        self.round.wrapping_sub(1)
    }

    /// Records the pair `(query, neighbor)`, emitted by the current lane's
    /// step in `round`.
    #[inline]
    pub fn emit(&mut self, round: u32, query: u32, neighbor: u32) {
        self.pairs.push((round, (query, neighbor)));
    }

    /// The distinct ops recorded in `round` by the lanes traced so far.
    pub fn ops_in(&self, round: u32) -> impl Iterator<Item = Op> + '_ {
        let (word, bit) = (round as usize / 64, 1u64 << (round % 64));
        self.rows()
            .iter()
            .filter(move |r| r.rounds.get(word).is_some_and(|w| w & bit != 0))
            .map(|r| r.op)
    }

    /// The pairs recorded so far, each with the round that emitted it, in
    /// trace order.
    pub fn pairs(&self) -> &[(u32, (u32, u32))] {
        &self.pairs
    }

    /// Starts a new warp: no rows, no pairs.
    pub(crate) fn reset(&mut self) {
        self.live = 0;
        self.pairs.clear();
    }

    /// Starts the next lane of the warp at round 0.
    pub(crate) fn begin_lane(&mut self) {
        self.round = 0;
    }

    /// The distinct ops the warp's lanes have recorded.
    pub(crate) fn rows(&self) -> &[OpRow] {
        &self.rows[..self.live]
    }

    /// Moves the recorded pairs into `sink` in the stepped oracle's order.
    /// Lanes were traced in lane order, so a stable counting sort by round
    /// yields (round, lane) order; pairs from one step keep their order.
    pub(crate) fn drain_pairs_into(&mut self, sink: &mut LaneSink) {
        let Some(max_round) = self.pairs.iter().map(|&(r, _)| r).max() else {
            return;
        };
        self.starts.clear();
        self.starts.resize(max_round as usize + 2, 0);
        for &(r, _) in &self.pairs {
            self.starts[r as usize + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        let base = sink.pairs.len();
        sink.pairs.resize(base + self.pairs.len(), (0, 0));
        for &(r, pair) in &self.pairs {
            let slot = &mut self.starts[r as usize];
            sink.pairs[base + *slot as usize] = pair;
            *slot += 1;
        }
        self.pairs.clear();
    }
}

/// A trivial lane program executing a fixed number of identical ops.
/// Used by tests and by the machine-model calibration benches.
#[derive(Debug, Clone)]
pub struct FixedWorkLane {
    remaining: u32,
    op: Op,
}

impl FixedWorkLane {
    /// A lane that performs `count` copies of `op` and then retires.
    pub fn new(count: u32, op: Op) -> Self {
        Self {
            remaining: count,
            op,
        }
    }
}

impl LaneProgram for FixedWorkLane {
    fn step(&mut self, _sink: &mut LaneSink) -> Option<Op> {
        if self.remaining == 0 {
            None
        } else {
            self.remaining -= 1;
            Some(self.op)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn sink_records_pairs() {
        let mut sink = LaneSink::new();
        assert!(sink.is_empty());
        sink.emit(1, 2);
        sink.emit_symmetric(3, 4);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.pairs(), &[(1, 2), (3, 4), (4, 3)]);
        assert_eq!(sink.into_pairs().len(), 3);
    }

    #[test]
    fn fixed_work_lane_retires_after_count() {
        let mut lane = FixedWorkLane::new(3, Op::new(OpKind::Distance, 10));
        let mut sink = LaneSink::new();
        let mut steps = 0;
        while lane.step(&mut sink).is_some() {
            steps += 1;
        }
        assert_eq!(steps, 3);
        assert!(lane.step(&mut sink).is_none(), "retired lanes stay retired");
    }

    #[test]
    fn runs_fill_round_bitsets_across_word_boundaries() {
        let a = Op::new(OpKind::Distance, 10);
        let b = Op::new(OpKind::Emit, 8);
        let mut t = LaneTrace::default();
        t.begin_lane();
        let (ha, hb) = (t.handle(a), t.handle(b));
        assert_eq!(t.handle(a), ha, "one row per distinct op");
        assert_eq!(t.run(ha, 63), 62);
        assert_eq!(t.run(hb, 2), 64);
        assert_eq!(t.run(ha, 64), 128);
        assert_eq!(t.round(), 129);
        let rows = t.rows();
        assert_eq!(rows[0].rounds, vec![(1u64 << 63) - 1, !0 << 1, 1]);
        assert_eq!(rows[1].rounds, vec![1 << 63, 1]);
        assert_eq!((rows[0].lane_ops, rows[1].lane_ops), (127, 2));
    }

    #[test]
    fn pairs_drain_in_round_then_lane_order() {
        let mut t = LaneTrace::default();
        for (round, lane) in [(0, 0), (3, 0), (3, 0), (1, 1), (3, 1), (0, 2)] {
            t.emit(round, lane, round);
        }
        let mut sink = LaneSink::new();
        sink.emit(9, 9);
        t.drain_pairs_into(&mut sink);
        assert_eq!(
            sink.pairs(),
            &[(9, 9), (0, 0), (2, 0), (1, 1), (0, 3), (0, 3), (1, 3)]
        );
    }
}
