//! Kernel launch: warps → lockstep micro-execution → machine makespan.
//!
//! A kernel is described by a [`WarpSource`], which constructs the lane
//! programs of each warp. Construction happens **sequentially in issue
//! order** — this is what gives the WORKQUEUE its semantics: a source that
//! pops a [`crate::atomics::DeviceCounter`] in `make_warp` hands out work in
//! exactly the order warps start on the device. The warp bodies are then
//! micro-executed on the calling thread in warp-id order, and each warp's
//! pairs reach the result buffer as it retires. Host parallelism lives
//! above a launch (the executor's batches, fleet shards), never inside one.

use sj_telemetry::{Event, Stopwatch, Telemetry};

use crate::config::GpuConfig;
use crate::fault::{CounterFault, DeviceLostFault, FaultPlane, TransientFault};
use crate::lane::{LaneProgram, LaneSink};
use crate::machine::{MachineModel, MakespanReport};
use crate::memory::{BufferOverflow, DeviceBuffer};
use crate::metrics::WarpStatsSummary;
use crate::scheduler::IssueOrder;
use crate::warp::{execute_warp_with, StepMode, WarpExecution};

/// Describes the warps of one kernel launch.
pub trait WarpSource {
    /// The lane program type of this kernel.
    type Lane: LaneProgram;

    /// Number of warps in the launch grid.
    fn num_warps(&self) -> usize;

    /// Constructs the lane programs of warp `warp_id`.
    ///
    /// Called exactly once per warp, sequentially, in **issue order**.
    /// May return fewer lanes than the warp size (tail warps).
    fn make_warp(&self, warp_id: u32) -> Vec<Self::Lane>;
}

/// Errors from [`launch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel emitted more result pairs than the device buffer holds.
    /// On real hardware this is the buffer overflow the batching scheme must
    /// prevent; the simulator turns it into a hard error.
    ResultOverflow(BufferOverflow),
    /// The launch failed transiently; re-submitting it may succeed.
    Transient(TransientFault),
    /// The device is gone; this launch and every later one fails.
    DeviceLost(DeviceLostFault),
    /// A device counter does not hold the value the host requires (detected
    /// by the executor's queue-drain invariant, never raised by the
    /// simulator itself).
    CounterFault(CounterFault),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::ResultOverflow(e) => write!(f, "kernel result overflow: {e}"),
            LaunchError::Transient(e) => write!(f, "transient launch failure: {e}"),
            LaunchError::DeviceLost(e) => write!(f, "device lost: {e}"),
            LaunchError::CounterFault(e) => write!(f, "device counter fault: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LaunchError::ResultOverflow(e) => Some(e),
            LaunchError::Transient(e) => Some(e),
            LaunchError::DeviceLost(e) => Some(e),
            LaunchError::CounterFault(e) => Some(e),
        }
    }
}

impl LaunchError {
    /// Short machine-readable class name (telemetry field value).
    pub fn class(&self) -> &'static str {
        match self {
            LaunchError::ResultOverflow(_) => "overflow",
            LaunchError::Transient(_) => "transient",
            LaunchError::DeviceLost(_) => "device_lost",
            LaunchError::CounterFault(_) => "counter",
        }
    }
}

/// The outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Number of warps launched.
    pub warps: usize,
    /// Accumulated per-warp counters (cycles here is the *sum* of warp
    /// durations, not elapsed time — see `makespan`).
    pub totals: WarpExecution,
    /// Machine-level schedule of the warps.
    pub makespan: MakespanReport,
    /// Per-warp serialized durations, indexed by warp id.
    pub warp_cycles: Vec<u64>,
    /// Result pairs emitted by this launch.
    pub pairs_emitted: usize,
    /// Effective model clock (derated) used for second conversions.
    pub clock_hz: f64,
}

impl LaunchReport {
    /// Warp execution efficiency over the whole launch, in `[0, 1]`.
    pub fn wee(&self) -> f64 {
        self.totals.efficiency()
    }

    /// Elapsed model cycles (machine makespan).
    pub fn elapsed_cycles(&self) -> u64 {
        self.makespan.makespan
    }

    /// Elapsed model seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_cycles() as f64 / self.clock_hz
    }

    /// Summary of per-warp durations (inter-warp imbalance).
    pub fn warp_stats(&self) -> Option<WarpStatsSummary> {
        WarpStatsSummary::from_durations(&self.warp_cycles)
    }

    /// Total distance calculations performed (refine-step work).
    pub fn distance_calcs(&self) -> u64 {
        self.totals.lane_ops_by_kind[crate::op::OpKind::Distance.index()]
    }
}

/// Host-side options for [`launch_with`].
///
/// Every knob is purely host-side: they may change how fast the simulation
/// itself runs and what gets observed, but never the simulated results
/// (pair sets, cycle counts, WEE). [`launch`] uses the defaults.
pub struct LaunchOptions<'t> {
    /// Sink receiving the per-launch telemetry span (warp serialization,
    /// list scheduling, WEE, lane-occupancy histogram). Defaults to the
    /// zero-cost null sink.
    pub telemetry: &'t dyn Telemetry,
    /// Fault-injection plane gating this launch (see [`crate::fault`]).
    /// `None` — and a plane with an empty schedule — leave simulated
    /// behaviour unchanged.
    pub fault_plane: Option<&'t FaultPlane>,
    /// How warps are advanced through their lockstep rounds: the default
    /// [`StepMode::RunLength`] per-lane traces, or the [`StepMode::Stepped`]
    /// oracle. Bit-identical simulated results either way.
    pub step_mode: StepMode,
}

impl Default for LaunchOptions<'static> {
    fn default() -> Self {
        Self::with_telemetry(&sj_telemetry::NULL)
    }
}

impl<'t> LaunchOptions<'t> {
    /// Options recording to `telemetry`, with no fault plane and the
    /// default step mode.
    pub fn with_telemetry(telemetry: &'t dyn Telemetry) -> Self {
        Self {
            telemetry,
            fault_plane: None,
            step_mode: StepMode::default(),
        }
    }

    /// Builder-style: attach a fault-injection plane.
    pub fn with_fault_plane(mut self, plane: &'t FaultPlane) -> Self {
        self.fault_plane = Some(plane);
        self
    }

    /// Builder-style: select the warp step mode.
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }
}

/// Launches a kernel: constructs warps in issue order, micro-executes them
/// in warp-id order on the calling thread, appends each warp's result pairs
/// to `out` as it retires (so output is deterministic across issue
/// policies), and schedules their durations onto the occupancy-limited
/// machine in issue order. The first warp whose pairs do not fit fails the
/// launch with [`LaunchError::ResultOverflow`]; later warps are not
/// stepped.
pub fn launch<S: WarpSource>(
    gpu: &GpuConfig,
    source: &S,
    order: IssueOrder,
    out: &mut DeviceBuffer<(u32, u32)>,
) -> Result<LaunchReport, LaunchError> {
    launch_with(gpu, source, order, out, &LaunchOptions::default())
}

/// [`launch`] with explicit host-side [`LaunchOptions`].
pub fn launch_with<S: WarpSource>(
    gpu: &GpuConfig,
    source: &S,
    order: IssueOrder,
    out: &mut DeviceBuffer<(u32, u32)>,
    opts: &LaunchOptions<'_>,
) -> Result<LaunchReport, LaunchError> {
    let sw_total = Stopwatch::start();
    let telemetry_on = opts.telemetry.is_enabled();

    // Fault-plane admission. Transient and device-lost faults abort here,
    // before any warp is constructed, so device state (queue counters) is
    // exactly that of a launch that never reached the device. A forced
    // overflow lets the launch run and surfaces once its warps have
    // retired, like a real capacity overflow.
    let mut force_overflow = false;
    if let Some(plane) = opts.fault_plane {
        match plane.admit_launch() {
            Ok(admission) => {
                force_overflow = admission.force_overflow;
                if telemetry_on && force_overflow {
                    opts.telemetry.record(
                        Event::new("warpsim.fault", "injected")
                            .str("kind", "forced_overflow")
                            .u64("launch_index", admission.launch_index),
                    );
                }
            }
            Err(err) => {
                if telemetry_on {
                    opts.telemetry.record(
                        Event::new("warpsim.fault", "injected")
                            .str("kind", err.class())
                            .str("error", err.to_string()),
                    );
                }
                return Err(err);
            }
        }
    }

    let num_warps = source.num_warps();
    let issue_order = order.permutation(num_warps, gpu.warps_per_block() as usize);

    // Phase 1: construct lane programs sequentially in issue order (this is
    // where work-queue sources pop the device counter).
    let sw_construct = Stopwatch::start();
    let mut warps: Vec<Vec<S::Lane>> = Vec::new();
    warps.resize_with(num_warps, Vec::new);
    for &warp_id in &issue_order {
        warps[warp_id as usize] = source.make_warp(warp_id);
    }
    let construct_ns = sw_construct.elapsed_ns();

    // Phase 2: micro-execute the warps in warp-id order into one reused
    // sink, moving each warp's pairs into `out` as it retires.
    let sw_exec = Stopwatch::start();
    let warp_size = gpu.warp_size;
    let mut totals = WarpExecution {
        warp_size,
        ..WarpExecution::default()
    };
    let mut warp_cycles = vec![0u64; num_warps];
    // Lane-occupancy histogram (the per-warp view behind Fig. 3/7): bucket
    // each warp by its mean active lanes per issued instruction. Collected
    // only when a real sink is attached — observation only, never behaviour.
    let mut occupancy_hist = vec![0u64; warp_size as usize + 1];
    let mut sink = LaneSink::new();
    let mut pairs_emitted = 0usize;
    for (cycles, mut lanes) in warp_cycles.iter_mut().zip(warps) {
        sink.clear();
        let exec = execute_warp_with(&mut lanes, warp_size, &mut sink, opts.step_mode);
        totals.accumulate(&exec);
        totals.lanes += exec.lanes;
        *cycles = exec.cycles;
        if telemetry_on && exec.issued > 0 {
            let mean_active = (exec.active_lane_slots as f64 / exec.issued as f64).round() as usize;
            occupancy_hist[mean_active.min(warp_size as usize)] += 1;
        }
        out.extend_from_slice(sink.pairs())
            .map_err(LaunchError::ResultOverflow)?;
        pairs_emitted += sink.len();
    }
    let exec_ns = sw_exec.elapsed_ns();
    if force_overflow {
        // Synthesize the overflow the schedule demanded: report one more
        // pair than the buffer could still have held.
        return Err(LaunchError::ResultOverflow(BufferOverflow {
            capacity: out.capacity(),
            len: out.len(),
            attempted: out.remaining() + 1,
        }));
    }

    // The machine model reads the durations in issue order.
    let durations_issue_order: Vec<u64> = issue_order
        .iter()
        .map(|&warp_id| warp_cycles[warp_id as usize])
        .collect();
    let machine = MachineModel::new(gpu.total_warp_slots());
    let makespan = machine.schedule(&durations_issue_order);

    let report = LaunchReport {
        warps: num_warps,
        totals,
        makespan,
        warp_cycles,
        pairs_emitted,
        clock_hz: gpu.effective_clock_hz(),
    };

    if telemetry_on {
        let hist = occupancy_hist
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        opts.telemetry.record(
            Event::new("warpsim.launch", "kernel")
                .u64("warps", report.warps as u64)
                .u64("pairs_emitted", report.pairs_emitted as u64)
                .u64("elapsed_cycles", report.elapsed_cycles())
                .f64("elapsed_model_s", report.elapsed_seconds())
                .u64("serialized_cycles", report.totals.cycles)
                .u64("issued", report.totals.issued)
                .u64("active_lane_slots", report.totals.active_lane_slots)
                .u64("divergent_rounds", report.totals.divergent_rounds)
                .u64("distance_calcs", report.distance_calcs())
                .f64("wee", report.wee())
                .u64("machine_slots", report.makespan.slots as u64)
                .f64("machine_idle_fraction", report.makespan.idle_fraction())
                .f64(
                    "machine_balance_overhead",
                    report.makespan.balance_overhead(),
                )
                .str("lane_occupancy_hist", hist)
                .u64("host_construct_ns", construct_ns)
                .u64("host_exec_ns", exec_ns)
                .u64("host_total_ns", sw_total.elapsed_ns()),
        );
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::lane::FixedWorkLane;
    use crate::op::{Op, OpKind};

    /// A kernel of `warps` warps where warp `w` has lanes doing `work[w]`
    /// identical distance ops each.
    struct UniformWarps {
        work: Vec<u32>,
        lanes_per_warp: u32,
    }

    impl WarpSource for UniformWarps {
        type Lane = FixedWorkLane;
        fn num_warps(&self) -> usize {
            self.work.len()
        }
        fn make_warp(&self, warp_id: u32) -> Vec<FixedWorkLane> {
            (0..self.lanes_per_warp)
                .map(|_| {
                    FixedWorkLane::new(self.work[warp_id as usize], Op::new(OpKind::Distance, 10))
                })
                .collect()
        }
    }

    /// A kernel whose lanes each emit one pair.
    struct Emitter {
        warps: usize,
        lanes: u32,
    }

    struct EmitLane {
        id: u32,
        done: bool,
    }

    impl LaneProgram for EmitLane {
        fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
            if self.done {
                return None;
            }
            self.done = true;
            sink.emit(self.id, self.id + 1);
            Some(Op::new(OpKind::Emit, 8))
        }
    }

    impl WarpSource for Emitter {
        type Lane = EmitLane;
        fn num_warps(&self) -> usize {
            self.warps
        }
        fn make_warp(&self, warp_id: u32) -> Vec<EmitLane> {
            (0..self.lanes)
                .map(|l| EmitLane {
                    id: warp_id * self.lanes + l,
                    done: false,
                })
                .collect()
        }
    }

    #[test]
    fn launch_reports_full_efficiency_for_uniform_work() {
        let gpu = GpuConfig::small_test();
        let src = UniformWarps {
            work: vec![5; 16],
            lanes_per_warp: 4,
        };
        let mut out = DeviceBuffer::with_capacity(0);
        let r = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        assert_eq!(r.warps, 16);
        assert!((r.wee() - 1.0).abs() < 1e-12);
        // 16 warps of 50 cycles on 8 slots → two rounds of 50 cycles.
        assert_eq!(r.elapsed_cycles(), 100);
        assert_eq!(r.distance_calcs(), 16 * 4 * 5);
    }

    #[test]
    fn issue_order_changes_makespan_not_results() {
        let gpu = GpuConfig::small_test();
        // 8 slots; 15 short warps and 1 very long warp.
        let mut work = vec![10u32; 15];
        work.push(1000);
        let src = UniformWarps {
            work,
            lanes_per_warp: 4,
        };
        let mut out1 = DeviceBuffer::with_capacity(0);
        let mut out2 = DeviceBuffer::with_capacity(0);
        // In warp-id order the long warp (id 15) starts in the second wave →
        // long tail. Reversed order starts it first → tail hidden.
        let bad = launch(&gpu, &src, IssueOrder::InOrder, &mut out1).unwrap();
        let good = launch(&gpu, &src, IssueOrder::Reversed, &mut out2).unwrap();
        assert!(bad.elapsed_cycles() > good.elapsed_cycles());
        assert_eq!(bad.distance_calcs(), good.distance_calcs());
        assert!(
            (bad.wee() - good.wee()).abs() < 1e-12,
            "WEE is order-independent"
        );
    }

    #[test]
    fn pairs_are_gathered_in_warp_id_order_regardless_of_issue_order() {
        let gpu = GpuConfig::small_test();
        let src = Emitter { warps: 6, lanes: 4 };
        let mut out1 = DeviceBuffer::with_capacity(1000);
        let mut out2 = DeviceBuffer::with_capacity(1000);
        launch(&gpu, &src, IssueOrder::InOrder, &mut out1).unwrap();
        launch(&gpu, &src, IssueOrder::Arbitrary { seed: 99 }, &mut out2).unwrap();
        assert_eq!(out1.as_slice(), out2.as_slice());
        assert_eq!(out1.len(), 24);
        assert_eq!(out1.as_slice()[0], (0, 1));
    }

    #[test]
    fn overflow_is_reported() {
        let gpu = GpuConfig::small_test();
        let src = Emitter { warps: 4, lanes: 4 };
        let mut out = DeviceBuffer::with_capacity(3);
        let err = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap_err();
        assert!(matches!(err, LaunchError::ResultOverflow(_)));
    }

    /// Warp `w` is one lane that emits `pairs[w]` pairs `(w, j)`, one per
    /// step, and counts itself in `stepped` on its first step.
    struct UnevenEmitter<'a> {
        pairs: Vec<u32>,
        stepped: &'a Cell<usize>,
    }

    struct UnevenLane<'a> {
        warp: u32,
        next: u32,
        count: u32,
        stepped: &'a Cell<usize>,
    }

    impl LaneProgram for UnevenLane<'_> {
        fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
            if self.next == 0 {
                self.stepped.set(self.stepped.get() + 1);
            }
            if self.next == self.count {
                return None;
            }
            sink.emit(self.warp, self.next);
            self.next += 1;
            Some(Op::new(OpKind::Emit, 8))
        }
    }

    impl<'a> WarpSource for UnevenEmitter<'a> {
        type Lane = UnevenLane<'a>;
        fn num_warps(&self) -> usize {
            self.pairs.len()
        }
        fn make_warp(&self, warp_id: u32) -> Vec<UnevenLane<'a>> {
            vec![UnevenLane {
                warp: warp_id,
                next: 0,
                count: self.pairs[warp_id as usize],
                stepped: self.stepped,
            }]
        }
    }

    #[test]
    fn overflow_names_the_first_warp_in_id_order_that_does_not_fit() {
        let gpu = GpuConfig::small_test();
        // In warp-id order 3 + 0 + 5 = 8 pairs fit in 10; warp 3's 4 do not.
        let pairs = vec![3, 0, 5, 4, 1, 6, 2, 7];
        let stepped = Cell::new(0);
        let src = UnevenEmitter {
            pairs: pairs.clone(),
            stepped: &stepped,
        };
        let mut out = DeviceBuffer::with_capacity(10);
        let err = launch(&gpu, &src, IssueOrder::Arbitrary { seed: 3 }, &mut out).unwrap_err();
        let overflow = BufferOverflow {
            capacity: 10,
            len: 8,
            attempted: 4,
        };
        assert_eq!(err, LaunchError::ResultOverflow(overflow));
        let earlier: Vec<(u32, u32)> = (0..3u32)
            .flat_map(|w| (0..pairs[w as usize]).map(move |j| (w, j)))
            .collect();
        assert_eq!(out.as_slice(), earlier);
        assert_eq!(stepped.get(), 4, "warps after the overflow are not stepped");
    }

    /// A lane that asserts it steps on the thread that launched it.
    struct HomeLane {
        home: std::thread::ThreadId,
        remaining: u32,
    }

    impl LaneProgram for HomeLane {
        fn step(&mut self, sink: &mut LaneSink) -> Option<Op> {
            assert_eq!(std::thread::current().id(), self.home);
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            sink.emit(self.remaining, self.remaining);
            Some(Op::new(OpKind::Distance, 10))
        }
    }

    struct HomeWarps {
        warps: usize,
        home: std::thread::ThreadId,
    }

    impl WarpSource for HomeWarps {
        type Lane = HomeLane;
        fn num_warps(&self) -> usize {
            self.warps
        }
        fn make_warp(&self, warp_id: u32) -> Vec<HomeLane> {
            (0..4)
                .map(|l| HomeLane {
                    home: self.home,
                    remaining: (warp_id + l) % 5,
                })
                .collect()
        }
    }

    #[test]
    fn every_lane_steps_on_the_launching_thread() {
        let gpu = GpuConfig::small_test();
        let src = HomeWarps {
            warps: 64,
            home: std::thread::current().id(),
        };
        for mode in [StepMode::Stepped, StepMode::RunLength] {
            let mut out = DeviceBuffer::with_capacity(1000);
            let opts = LaunchOptions::default().with_step_mode(mode);
            let r = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap();
            assert_eq!(r.warps, 64);
            assert!(r.pairs_emitted > 0);
        }
    }

    #[test]
    fn empty_launch_is_ok() {
        let gpu = GpuConfig::small_test();
        let src = UniformWarps {
            work: vec![],
            lanes_per_warp: 4,
        };
        let mut out = DeviceBuffer::with_capacity(0);
        let r = launch(&gpu, &src, IssueOrder::InOrder, &mut out).unwrap();
        assert_eq!(r.warps, 0);
        assert_eq!(r.elapsed_cycles(), 0);
        assert_eq!(r.wee(), 1.0);
    }

    #[test]
    fn fault_plane_transient_fails_before_construction() {
        use crate::fault::{FaultPlane, FaultSchedule};
        let gpu = GpuConfig::small_test();
        let src = Emitter { warps: 4, lanes: 4 };
        let plane = FaultPlane::new(FaultSchedule::new().transient_at(0));
        let opts = LaunchOptions::default().with_fault_plane(&plane);
        let mut out = DeviceBuffer::with_capacity(100);
        let err = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap_err();
        assert!(matches!(err, LaunchError::Transient(_)));
        assert!(out.is_empty(), "failed launch must not write results");
        // The next launch (index 1, unscheduled) succeeds.
        let r = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap();
        assert_eq!(r.pairs_emitted, 16);
    }

    #[test]
    fn fault_plane_forced_overflow_surfaces_after_execution() {
        use crate::fault::{FaultPlane, FaultSchedule};
        let gpu = GpuConfig::small_test();
        let src = Emitter { warps: 4, lanes: 4 };
        let plane = FaultPlane::new(FaultSchedule::new().overflow_at(0));
        let opts = LaunchOptions::default().with_fault_plane(&plane);
        let mut out = DeviceBuffer::with_capacity(100);
        let err = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap_err();
        let LaunchError::ResultOverflow(overflow) = err else {
            panic!("expected overflow, got {err:?}");
        };
        assert_eq!(overflow.capacity, 100);
        assert!(overflow.len + overflow.attempted > overflow.capacity);
    }

    #[test]
    fn fault_plane_device_lost_is_sticky() {
        use crate::fault::{FaultPlane, FaultSchedule};
        let gpu = GpuConfig::small_test();
        let src = Emitter { warps: 2, lanes: 4 };
        let plane = FaultPlane::new(FaultSchedule::new().device_lost_at(1));
        let opts = LaunchOptions::default().with_fault_plane(&plane);
        let mut out = DeviceBuffer::with_capacity(100);
        launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap();
        for _ in 0..3 {
            let err = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out, &opts).unwrap_err();
            assert!(matches!(err, LaunchError::DeviceLost(_)));
        }
    }

    #[test]
    fn empty_fault_plane_changes_nothing() {
        use crate::fault::{FaultPlane, FaultSchedule};
        let gpu = GpuConfig::small_test();
        let work: Vec<u32> = (0..50).map(|i| (i * 7) % 23 + 1).collect();
        let src = UniformWarps {
            work,
            lanes_per_warp: 4,
        };
        let plane = FaultPlane::new(FaultSchedule::new());
        let opts = LaunchOptions::default().with_fault_plane(&plane);
        let mut out1 = DeviceBuffer::with_capacity(0);
        let mut out2 = DeviceBuffer::with_capacity(0);
        let plain = launch(&gpu, &src, IssueOrder::InOrder, &mut out1).unwrap();
        let gated = launch_with(&gpu, &src, IssueOrder::InOrder, &mut out2, &opts).unwrap();
        assert_eq!(plain.elapsed_cycles(), gated.elapsed_cycles());
        assert_eq!(plain.warp_cycles, gated.warp_cycles);
        assert_eq!(plain.totals, gated.totals);
        assert_eq!(out1.as_slice(), out2.as_slice());
    }

    #[test]
    fn launch_error_sources_chain() {
        use std::error::Error as _;
        let overflow = LaunchError::ResultOverflow(BufferOverflow {
            capacity: 1,
            len: 1,
            attempted: 2,
        });
        assert!(overflow.source().is_some());
        let transient = LaunchError::Transient(crate::fault::TransientFault { launch_index: 0 });
        assert!(transient.source().unwrap().to_string().contains("launch 0"));
        assert_eq!(transient.class(), "transient");
    }

    #[test]
    fn launch_is_deterministic() {
        let gpu = GpuConfig::small_test();
        let work: Vec<u32> = (0..50).map(|i| (i * 7) % 23 + 1).collect();
        let src = UniformWarps {
            work,
            lanes_per_warp: 4,
        };
        let mut out1 = DeviceBuffer::with_capacity(0);
        let mut out2 = DeviceBuffer::with_capacity(0);
        let a = launch(&gpu, &src, IssueOrder::Arbitrary { seed: 5 }, &mut out1).unwrap();
        let b = launch(&gpu, &src, IssueOrder::Arbitrary { seed: 5 }, &mut out2).unwrap();
        assert_eq!(a.elapsed_cycles(), b.elapsed_cycles());
        assert_eq!(a.warp_cycles, b.warp_cycles);
        assert_eq!(a.totals, b.totals);
    }
}
