//! Spans around the benchmark's calls into the library, child spans read
//! from the `host_*` fields the program already emits through
//! `sj_telemetry`, and the self-time roll-up per layer.
//!
//! The benchmark times each public call it makes (a span). The program's
//! telemetry then says how long the layers inside that call took: the
//! grid build and workload profile captured in `SelfJoin::new`, the
//! planner, every kernel launch's construction and warp execution, the
//! gather, and the hybrid CPU backend. A layer's self time is its span's
//! duration minus the time of the spans nested in it.
//!
//! The self time of an outer call (`SelfJoin::run`, `run_on_fleet`,
//! `run_hybrid`, a serve request) is what no reported layer explains; it
//! is kept apart as unattributed time. The other spans, the reported
//! layers and the calls that are one layer's work alone (`SelfJoin::new`,
//! whose remainder is pattern resolution, SUPER-EGO, the benchmark's
//! reading of the telemetry, a serve write), cover the traced pass.

use std::collections::BTreeMap;
use std::time::Instant;

use epsgrid::Point;
use simjoin::{JoinError, JoinReport, SelfJoin, SelfJoinConfig};
use sj_telemetry::{Event, JsonTelemetry, Value};
use warpsim::{OpKind, WarpExecution};

use crate::report::Outcome;

/// One timed call, attributed to a layer, with the timed calls nested in
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The module the call's own work belongs to.
    pub layer: &'static str,
    /// Host duration of the call.
    pub ns: u64,
    /// Timed calls nested inside this one.
    pub children: Vec<Span>,
    /// An outer call: its self time is unattributed, not its layer's
    /// measured work.
    pub outer: bool,
}

impl Span {
    /// A span of one layer's work, with no children yet.
    pub fn new(layer: &'static str, ns: u64) -> Self {
        Self {
            layer,
            ns,
            children: Vec::new(),
            outer: false,
        }
    }

    /// An outer call attributed to `layer`, whose self time no reported
    /// layer explains.
    pub fn outer(layer: &'static str, ns: u64) -> Self {
        Self {
            outer: true,
            ..Self::new(layer, ns)
        }
    }

    /// Adds nested spans (builder style).
    pub fn with(mut self, children: impl IntoIterator<Item = Span>) -> Self {
        self.children.extend(children);
        self
    }

    /// Duration minus the nested spans' durations. Children run by
    /// parallel workers can add up to more than the parent's wall time;
    /// the self time then floors at zero.
    pub fn self_ns(&self) -> u64 {
        let nested: u64 = self.children.iter().map(|c| c.ns).sum();
        self.ns.saturating_sub(nested)
    }
}

/// Self time per layer, summed over `spans` and every span nested in them,
/// and apart from it the outer calls' self time (under the key
/// [`UNATTRIBUTED`]). For sequential calls the totals partition the spans'
/// wall time; where parallel workers ran nested spans, a layer's total is
/// its busy time summed over the workers.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    fn walk(span: &Span, out: &mut BTreeMap<&'static str, u64>) {
        let key = if span.outer { UNATTRIBUTED } else { span.layer };
        *out.entry(key).or_default() += span.self_ns();
        for child in &span.children {
            walk(child, out);
        }
    }
    let mut out = BTreeMap::new();
    for span in spans {
        walk(span, &mut out);
    }
    out
}

/// The [`self_times`] key of the outer calls' self time.
pub const UNATTRIBUTED: &str = "unattributed";

/// Host time the program reported for the layers inside one executor call
/// (a join, fleet, hybrid or serve launch), from its telemetry events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutorTimes {
    /// `GridIndex::build` inside `SelfJoin::new`.
    pub build_ns: u64,
    /// `WorkloadProfile::compute` inside `SelfJoin::new`.
    pub profile_ns: u64,
    /// The estimate-and-plan phase (`SelfJoin::plan`'s work).
    pub plan_ns: u64,
    /// Construction of the join's kernel launches.
    pub construct_ns: u64,
    /// Warp execution of the join's kernel launches.
    pub exec_ns: u64,
    /// The join's own kernel launches (the device executed that many plan
    /// units, counting retries).
    pub launches: u64,
    /// Gathering batch results into the merged result set.
    pub gather_ns: u64,
    /// The hybrid CPU backend and CPU fallbacks.
    pub cpu_ns: u64,
    /// Non-empty grid cells over all index builds.
    pub cells: u64,
    /// Points over all index builds.
    pub points: u64,
}

impl ExecutorTimes {
    /// Reads the `host_*` fields of `events`.
    pub fn from_events(events: &[Event]) -> Self {
        let mut t = Self::default();
        for e in events {
            match (e.scope, e.name) {
                ("executor.phase", "index_build") => {
                    t.build_ns += u64_field(e, "host_ns");
                    t.cells += u64_field(e, "cells");
                    t.points += u64_field(e, "points");
                }
                ("executor.phase", "workload_profile") => t.profile_ns += u64_field(e, "host_ns"),
                ("executor.phase", "estimate_and_plan") => t.plan_ns += u64_field(e, "host_ns"),
                ("executor.phase", "gather") => t.gather_ns += u64_field(e, "host_ns"),
                ("warpsim.launch", "kernel") => {
                    t.construct_ns += u64_field(e, "host_construct_ns");
                    t.exec_ns += u64_field(e, "host_exec_ns");
                    t.launches += 1;
                }
                ("hybrid", "backend_done") | ("executor", "degradation") | ("fleet", _) => {
                    t.cpu_ns += u64_field(e, "host_ns");
                }
                _ => {}
            }
        }
        t
    }

    /// Child spans of the call that ran the join (`SelfJoin::run`,
    /// `run_on_fleet`, `run_hybrid`, or a serve launch).
    pub fn run_children(&self) -> Vec<Span> {
        vec![
            Span::new("batching", self.plan_ns),
            Span::new("warpsim", self.construct_ns + self.exec_ns),
            Span::new("executor", self.gather_ns),
            Span::new("fallback", self.cpu_ns),
        ]
    }

    /// Child spans of `SelfJoin::new`: the grid build and the workload
    /// profile. What remains of the call is `ResolvedPatterns::compute`
    /// (plus two constant-time argument checks).
    pub fn new_children(&self) -> Vec<Span> {
        vec![
            Span::new("epsgrid", self.build_ns),
            Span::new("workload", self.profile_ns),
        ]
    }
}

impl std::ops::AddAssign for ExecutorTimes {
    fn add_assign(&mut self, o: Self) {
        self.build_ns += o.build_ns;
        self.profile_ns += o.profile_ns;
        self.plan_ns += o.plan_ns;
        self.construct_ns += o.construct_ns;
        self.exec_ns += o.exec_ns;
        self.gather_ns += o.gather_ns;
        self.launches += o.launches;
        self.cpu_ns += o.cpu_ns;
        self.cells += o.cells;
        self.points += o.points;
    }
}

/// The per-layer numbers every join of a traced pass contributes: its
/// spans, the host times its telemetry reported, and the counters of its
/// report.
#[derive(Debug, Default)]
pub struct JoinLayers {
    /// Spans of the traced pass, in call order.
    pub spans: Vec<Span>,
    /// Host times read from telemetry, summed.
    pub times: ExecutorTimes,
    joins: u64,
    batches: u64,
    estimated_pairs: u64,
    pairs: u64,
    totals: WarpExecution,
    issued_lane_slots: u64,
    warp_cv_sum: f64,
    kernel_model_s: f64,
    transfer_model_s: f64,
}

impl JoinLayers {
    /// Adds one join's report: batches, estimator accuracy, warp counters
    /// and the stream pipeline's kernel/exposed-transfer split.
    pub fn add_report(&mut self, r: &JoinReport) {
        self.joins += 1;
        self.batches += r.num_batches as u64;
        self.estimated_pairs += r.estimate.estimated_total;
        self.pairs += r.total_pairs as u64;
        self.totals.accumulate(&r.totals);
        self.issued_lane_slots += r.totals.issued * u64::from(r.totals.warp_size);
        self.warp_cv_sum += r.warp_stats().map_or(0.0, |s| s.cv());
        self.kernel_model_s += r.pipeline.kernel_busy_s;
        self.transfer_model_s += r.pipeline.total_s - r.pipeline.kernel_busy_s;
    }

    /// Writes the layer metrics every join-running workload shares.
    pub fn write(&self, out: &mut Outcome) {
        let t = &self.times;
        let s = |ns: u64| ns as f64 * 1e-9;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let lane_ops = self.totals.total_lane_ops();
        out.set("epsgrid.build_s", s(t.build_ns));
        out.set(
            "epsgrid.cells_per_point",
            ratio(t.cells as f64, t.points as f64),
        );
        out.set("workload.profile_s", s(t.profile_ns));
        out.set("batching.plan_s", s(t.plan_ns));
        out.set("batching.batches", self.batches as f64);
        out.set(
            "batching.estimate_ratio",
            ratio(self.estimated_pairs as f64, self.pairs as f64),
        );
        out.set("warpsim.construct_s", s(t.construct_ns));
        out.set("warpsim.exec_s", s(t.exec_ns));
        out.set(
            "warpsim.ns_per_lane_op",
            ratio(t.exec_ns as f64, lane_ops as f64),
        );
        out.set(
            "warpsim.distance_calcs",
            self.totals.lane_ops_by_kind[OpKind::Distance.index()] as f64,
        );
        out.set(
            "warpsim.cell_lookups",
            self.totals.lane_ops_by_kind[OpKind::CellLookup.index()] as f64,
        );
        out.set(
            "warpsim.wee",
            ratio(
                self.totals.active_lane_slots as f64,
                self.issued_lane_slots as f64,
            ),
        );
        out.set(
            "warpsim.warp_cv",
            ratio(self.warp_cv_sum, self.joins as f64),
        );
        out.set("warpsim.kernel_model_s", self.kernel_model_s);
        out.set("warpsim.transfer_model_s", self.transfer_model_s);
        out.set("executor.gather_s", s(t.gather_ns));
    }
}

/// One call into the executor: `SelfJoin::new` over `pts`, then `call` on
/// the join. With `layers`, a telemetry sink is attached to the join and
/// three spans are recorded: `SelfJoin::new`, the call attributed to
/// `layer`, and the benchmark's own reading of the sink. Returns the
/// call's result, its host time in nanoseconds, and what its telemetry
/// reported (all zero without `layers`).
pub fn join_call<const N: usize, T>(
    pts: &[Point<N>],
    config: SelfJoinConfig,
    layers: Option<&mut JoinLayers>,
    layer: &'static str,
    call: impl FnOnce(&SelfJoin<'_, N>) -> Result<T, JoinError>,
) -> Result<(T, u64, ExecutorTimes), JoinError> {
    let sink = JsonTelemetry::new("perfbench");
    let t = Instant::now();
    let join = SelfJoin::new(pts, config)?;
    let new_ns = t.elapsed().as_nanos() as u64;
    let join = match layers {
        Some(_) => join.with_telemetry(&sink),
        None => join,
    };
    let t = Instant::now();
    let result = call(&join)?;
    let call_ns = t.elapsed().as_nanos() as u64;
    let mut times = ExecutorTimes::default();
    if let Some(layers) = layers {
        let t = Instant::now();
        times = ExecutorTimes::from_events(&sink.events());
        let read_ns = t.elapsed().as_nanos() as u64;
        layers.spans.extend([
            Span::new("kernels", new_ns).with(times.new_children()),
            Span::outer(layer, call_ns).with(times.run_children()),
            Span::new("sj_telemetry", read_ns),
        ]);
        layers.times += times;
    }
    Ok((result, call_ns, times))
}

/// Sets the roll-up metrics of a traced pass from its spans and `pass_s`,
/// its wall time from start to end, the benchmark's own work between calls
/// (answer checks, bookkeeping) included:
///
/// - `kernels.resolve_s`, the self time of the `SelfJoin::new` spans;
/// - `trace.covered_frac`, the layers' self times over `pass_s` (above 1
///   where parallel workers' busy time is summed);
/// - `trace.unattributed_s`, the outer calls' self time;
/// - `telemetry.overhead_frac`, the top-level spans' sum over the untraced
///   passes' median wall time, minus 1.
pub fn write_pass(out: &mut Outcome, spans: &[Span], pass_s: f64, untraced_wall_s: f64) {
    let times = self_times(spans);
    let s = |ns: u64| ns as f64 * 1e-9;
    let get = |layer: &str| times.get(layer).copied().unwrap_or(0);
    let covered_ns: u64 = times
        .iter()
        .filter(|(layer, _)| **layer != UNATTRIBUTED)
        .map(|(_, ns)| ns)
        .sum();
    let spans_ns: u64 = spans.iter().map(|span| span.ns).sum();
    out.set("kernels.resolve_s", s(get("kernels")));
    out.set("trace.pass_s", pass_s);
    out.set("trace.covered_frac", s(covered_ns) / pass_s);
    out.set("trace.unattributed_s", s(get(UNATTRIBUTED)));
    out.set("telemetry.overhead_frac", s(spans_ns) / untraced_wall_s - 1.0);
    let layers: Vec<String> = times.iter().map(|(l, ns)| format!("{l} {}", s(*ns))).collect();
    println!(
        "# traced pass {pass_s} s: self times s: {}; between calls {} s",
        layers.join(", "),
        pass_s - s(spans_ns)
    );
}

fn u64_field(e: &Event, key: &str) -> u64 {
    match e.field(key) {
        Some(Value::U64(v)) => *v,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<Span> {
        vec![
            Span::new("kernels", 100).with([Span::new("epsgrid", 30), Span::new("workload", 20)]),
            Span::outer("executor", 400).with([
                Span::new("batching", 50),
                Span::new("warpsim", 300),
                Span::new("executor", 25),
            ]),
            Span::new("superego", 70),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_spans_per_layer() {
        let t = self_times(&spans());
        assert_eq!(t["kernels"], 50);
        assert_eq!(t["epsgrid"], 30);
        assert_eq!(t["workload"], 20);
        assert_eq!(t["batching"], 50);
        assert_eq!(t["warpsim"], 300);
        // The outer call's remainder is not the executor's measured work.
        assert_eq!(t["executor"], 25);
        assert_eq!(t[UNATTRIBUTED], 25);
        assert_eq!(t["superego"], 70);
        // Self times partition the top-level spans exactly.
        assert_eq!(t.values().sum::<u64>(), 100 + 400 + 70);
    }

    #[test]
    fn coverage_leaves_out_gaps_and_unattributed_time() {
        let mut out = Outcome::default();
        // 570 ns of spans in a pass of 600 ns: 30 ns between calls, 25 ns
        // of the outer call unexplained.
        write_pass(&mut out, &spans(), 600e-9, 500e-9);
        let v = |name: &str| out.values[name];
        assert!((v("trace.covered_frac") - 545.0 / 600.0).abs() < 1e-12);
        assert!((v("trace.unattributed_s") - 25e-9).abs() < 1e-18);
        assert!((v("kernels.resolve_s") - 50e-9).abs() < 1e-18);
        assert!((v("telemetry.overhead_frac") - (570.0 / 500.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_floor_the_parent_at_zero() {
        let span =
            Span::outer("fleet", 100).with([Span::new("warpsim", 80), Span::new("warpsim", 70)]);
        assert_eq!(span.self_ns(), 0);
        let t = self_times(&[span]);
        assert_eq!((t["warpsim"], t[UNATTRIBUTED]), (150, 0));
    }

    #[test]
    fn executor_times_read_the_host_fields() {
        let launch = |c: u64, x: u64| {
            Event::new("warpsim.launch", "kernel")
                .u64("host_construct_ns", c)
                .u64("host_exec_ns", x)
        };
        let events = vec![
            Event::new("executor.phase", "index_build")
                .u64("points", 10)
                .u64("cells", 4)
                .u64("host_ns", 7),
            Event::new("executor.phase", "workload_profile").u64("host_ns", 5),
            Event::new("executor.phase", "estimate_and_plan").u64("host_ns", 9),
            launch(3, 40),
            launch(4, 50),
            Event::new("executor.phase", "gather").u64("host_ns", 6),
            Event::new("hybrid", "backend_done").u64("host_ns", 11),
        ];
        let t = ExecutorTimes::from_events(&events);
        assert_eq!((t.build_ns, t.profile_ns, t.plan_ns), (7, 5, 9));
        assert_eq!((t.construct_ns, t.exec_ns, t.gather_ns), (7, 90, 6));
        assert_eq!((t.launches, t.cpu_ns), (2, 11));
        assert_eq!((t.cells, t.points), (4, 10));
    }
}
