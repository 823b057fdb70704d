//! Warp execution traces: the per-round lane-occupancy view behind the
//! paper's Figures 3 and 7 (idle periods of threads within a warp).
//!
//! [`trace_warp`] steps a warp through the same lockstep semantics as
//! [`crate::warp::execute_warp`] while recording, for every lockstep round,
//! which lanes were active and how many divergence groups were
//! serialized. [`WarpTrace::render_ascii`] draws the classic
//! one-row-per-lane timeline where `#` is an executing lane and `.` an idle
//! one.

use crate::lane::{LaneProgram, LaneSink};
use crate::op::Op;

/// One lockstep round of a traced warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRound {
    /// Which lanes issued an op this round.
    pub active: Vec<bool>,
    /// Number of serialized divergence groups.
    pub groups: u32,
    /// Cycle cost of the round (sum of its groups' op costs).
    pub cycles: u64,
}

/// The recorded execution of one warp.
#[derive(Debug, Clone, Default)]
pub struct WarpTrace {
    /// Rounds, in execution order.
    pub rounds: Vec<TraceRound>,
    /// Warp width used for idle accounting.
    pub warp_size: u32,
}

impl WarpTrace {
    /// Total cycles of the traced warp.
    pub fn cycles(&self) -> u64 {
        self.rounds.iter().map(|r| r.cycles).sum()
    }

    /// Fraction of lane-rounds spent idle (1 − WEE at round granularity,
    /// counting absent lanes of a partial warp as idle).
    pub fn idle_fraction(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        let total = self.rounds.len() as u64 * self.warp_size as u64;
        let active: u64 = self
            .rounds
            .iter()
            .map(|r| r.active.iter().filter(|&&a| a).count() as u64)
            .sum();
        1.0 - active as f64 / total as f64
    }

    /// Renders the lane × round occupancy grid: one row per lane, `#` for
    /// an active round, `.` for an idle one. Rounds beyond `max_cols` are
    /// elided with a trailing `…`.
    pub fn render_ascii(&self, max_cols: usize) -> String {
        let mut out = String::new();
        let cols = self.rounds.len().min(max_cols);
        for lane in 0..self.warp_size as usize {
            out.push_str(&format!("lane {lane:>2} "));
            for round in &self.rounds[..cols] {
                let active = round.active.get(lane).copied().unwrap_or(false);
                out.push(if active { '#' } else { '.' });
            }
            if self.rounds.len() > max_cols {
                out.push('…');
            }
            out.push('\n');
        }
        out
    }
}

/// Executes a warp round by round, as the [`StepMode::Stepped`] oracle of
/// [`crate::warp::execute_warp_with`] does, while recording the occupancy
/// timeline. A diagnostic: it steps every lane once per round, so it is
/// off every measured path.
///
/// [`StepMode::Stepped`]: crate::warp::StepMode::Stepped
pub fn trace_warp<L: LaneProgram>(
    lanes: &mut [L],
    warp_size: u32,
    sink: &mut LaneSink,
) -> WarpTrace {
    assert!(
        lanes.len() <= warp_size as usize,
        "too many lanes for the warp"
    );
    let mut trace = WarpTrace {
        rounds: Vec::new(),
        warp_size,
    };
    let mut retired = vec![false; lanes.len()];
    let mut live = lanes.len();
    while live > 0 {
        let mut active = vec![false; lanes.len()];
        let mut groups: std::collections::BTreeMap<Op, u32> = std::collections::BTreeMap::new();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if retired[i] {
                continue;
            }
            match lane.step(sink) {
                Some(op) => {
                    active[i] = true;
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
        let cycles = groups.keys().map(|op| op.cycles as u64).sum();
        trace.rounds.push(TraceRound {
            active,
            groups: groups.len() as u32,
            cycles,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::FixedWorkLane;
    use crate::op::OpKind;
    use crate::warp::execute_warp;

    fn work_lanes(work: &[u32]) -> Vec<FixedWorkLane> {
        work.iter()
            .map(|&w| FixedWorkLane::new(w, Op::new(OpKind::Distance, 10)))
            .collect()
    }

    #[test]
    fn trace_matches_execute_warp_timing() {
        let work = [7u32, 2, 5, 1];
        let mut a = work_lanes(&work);
        let mut b = work_lanes(&work);
        let mut sink_a = LaneSink::new();
        let mut sink_b = LaneSink::new();
        let exec = execute_warp(&mut a, 4, &mut sink_a);
        let trace = trace_warp(&mut b, 4, &mut sink_b);
        assert_eq!(trace.cycles(), exec.cycles);
        assert_eq!(trace.rounds.len() as u64, 7, "rounds = max lane work");
    }

    #[test]
    fn idle_fraction_reflects_skew() {
        let mut balanced = work_lanes(&[4, 4, 4, 4]);
        let mut skewed = work_lanes(&[8, 1, 1, 1]);
        let t1 = trace_warp(&mut balanced, 4, &mut LaneSink::new());
        let t2 = trace_warp(&mut skewed, 4, &mut LaneSink::new());
        assert_eq!(t1.idle_fraction(), 0.0);
        assert!(t2.idle_fraction() > 0.5);
    }

    #[test]
    fn ascii_rendering_shows_idle_tails() {
        let mut lanes = work_lanes(&[4, 2]);
        let trace = trace_warp(&mut lanes, 2, &mut LaneSink::new());
        let art = trace.render_ascii(10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("####"));
        assert!(lines[1].ends_with("##.."));
    }

    #[test]
    fn rendering_elides_long_traces() {
        let mut lanes = work_lanes(&[50]);
        let trace = trace_warp(&mut lanes, 1, &mut LaneSink::new());
        let art = trace.render_ascii(10);
        assert!(art.lines().next().unwrap().ends_with('…'));
    }

    #[test]
    fn empty_warp_traces_empty() {
        let mut lanes: Vec<FixedWorkLane> = vec![];
        let trace = trace_warp(&mut lanes, 4, &mut LaneSink::new());
        assert!(trace.rounds.is_empty());
        assert_eq!(trace.idle_fraction(), 0.0);
        assert_eq!(trace.cycles(), 0);
    }
}
