//! Regeneration of every table and figure in the paper's evaluation (§IV),
//! and of the experiments outside it. [`Experiments::run`] runs one by name,
//! printing its markdown and returning it:
//!
//! | name | artifact |
//! |---|---|
//! | `table1` | Table I — dataset inventory |
//! | `fig9` | Fig. 9 — response time vs ε: GPUCALCGLOBAL vs UNICOMP vs LID-UNICOMP |
//! | `table3` | Table III — WEE & time for the three patterns |
//! | `fig10` | Fig. 10 — k = 1 vs k = 8 |
//! | `table4` | Table IV — WEE & time, k = 1 vs k = 8 |
//! | `fig11` | Fig. 11 — baseline vs SORTBYWL vs WORKQUEUE |
//! | `table5` | Table V — WEE & time, baseline vs WORKQUEUE (k = 8) |
//! | `fig12` | Fig. 12 — real-world datasets vs SUPER-EGO |
//! | `table6` | Table VI — WEE & time, all variants, real-world datasets |
//! | `fig13` | Fig. 13 — speedups of the combined optimization |
//! | `ablations` | DESIGN.md §5 — scheduler order, k sweep, estimator, atomic cost |
//! | `all` | every row above, in paper order |
//! | `chaos` | DESIGN.md §7 — the resilient executor under seeded fault profiles |
//! | `scaling` | DESIGN.md §8 — multi-device sharding, workload-aware vs equal-count |
//! | `failover` | DESIGN.md §10 — reshard recovery vs CPU degradation after a device loss |
//! | `hybrid` | DESIGN.md §11 — CPU/GPU co-execution, forced split fractions vs the measured auto cut |
//! | `serve` | DESIGN.md §13 — the serve daemon's churn-and-query stream, coalesced vs serial |
//! | `soak` | DESIGN.md §10 — seeded fault schedules over fleets (or the hybrid), exact or a typed error |
//!
//! Figs. 9–13 and Tables III–VI are data: each is a `Figure` value naming
//! its datasets, its ε (the sweep or the selected ε), the joins of a row
//! (kernel variants or SUPER-EGO) and its columns, and one renderer runs
//! every figure's joins as one sweep on the shared pool. Every join config
//! comes from one builder of (ε, variant) that applies the table batching,
//! the step mode, the sort backend and the thread budget. Within one driver
//! each dataset is generated once and each distinct join runs once: the
//! cell cache keeps its outcome and events and replays the events into
//! every document that uses it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use epsgrid::DynPoints;
use simjoin::{
    AccessPattern, Balancing, BatchingConfig, DynSelfJoin, ExecMode, ExecOutcome, ExecTarget,
    HybridPolicy, RecoveryPolicy, Reply, Request, SelfJoinConfig, ServeConfig, ServeSession,
    ShardStrategy, SortBackend,
};
use sj_telemetry::{Event, JsonTelemetry, Telemetry};
use sjdata::DatasetSpec;
use warpsim::{CostModel, FaultPlane, FaultProfile, FaultSchedule, IssueOrder, StepMode};

use crate::harness::{run_gpu, run_superego, CpuRunResult, GpuRunResult};
use crate::table::{fmt_pct, fmt_speedup, fmt_time, Table};

/// Scale knobs for the experiment suite.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Multiplier on each dataset's scaled default size.
    pub points_scale: f64,
    /// Keep every `eps_stride`-th ε of each sweep (1 = full sweep).
    pub eps_stride: usize,
}

impl ExperimentScale {
    /// Full-scale run (the numbers recorded in `EXPERIMENTS.md`).
    pub fn full() -> Self {
        Self {
            points_scale: 1.0,
            eps_stride: 1,
        }
    }

    /// Quick run for smoke-testing the suite.
    pub fn quick() -> Self {
        Self {
            points_scale: 0.15,
            eps_stride: 2,
        }
    }
}

/// The batching of every join the driver builds, unless an experiment
/// tightens it (`b_s` scaled down from the paper's 10⁸ to suit
/// simulator-scale result sets).
fn batching() -> BatchingConfig {
    BatchingConfig {
        batch_result_capacity: 2_000_000,
        // Scale bridging: the paper's 2M-point batches always
        // saturate the device; at simulator-scale sizes the
        // saturation floor keeps kernels large enough that batch
        // counts measure load balance, not launch overhead.
        max_batches: 8,
        // Scale bridging: preserve the paper's kernel:transfer time
        // ratio (kernels dominate, transfers hide under streams).
        // Simulator-scale kernels are short in model time while
        // result sets shrink only linearly, so the physical 12 GB/s
        // would make every heavy run transfer-bound — a regime the
        // paper's evaluation never enters.
        transfer_bandwidth: 400.0e9,
        ..BatchingConfig::default()
    }
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct Experiments {
    /// Scale knobs.
    pub scale: ExperimentScale,
    /// Directory receiving one schema-versioned telemetry JSON document per
    /// experiment (`None` disables artifact writing — runs are unaffected
    /// either way; the sink is observation-only).
    pub artifact_dir: Option<PathBuf>,
    /// The host thread budget. Every join runs on `jobs` threads
    /// ([`SelfJoinConfig::host_jobs`]), except in a sweep of several joins:
    /// those run `jobs` at a time on the shared pool, each on `jobs / joins`
    /// threads (at least one), so the two thread layers never nest. Tables
    /// and telemetry artifacts are identical for any value: each join
    /// records into a sink of its own, the joins' events join the
    /// experiment's document in cell order, and a join's canonical report
    /// is the same at any `host_jobs`.
    pub jobs: usize,
    /// Warp simulator step mode for every GPU run (host-side only; simulated
    /// results are bit-identical across modes — CI diffs both).
    pub step_mode: StepMode,
    /// Simulated devices every GPU run is sharded across (workload-aware
    /// partitioning). The canonical merged report is device-count invariant,
    /// so tables are bit-identical for any value — CI diffs 1 vs 4.
    pub devices: usize,
    /// Where the planner's sorts and prefix sums run (host folds or the
    /// on-device kernel chains) in every join. Planning is
    /// backend-invariant — the device pre-pass shows up only in telemetry —
    /// so tables are bit-identical across backends, except chaos's: its
    /// pre-pass launches go through the join's fault plane, so the seeded
    /// faults land on other launches. CI diffs host vs device on the rest.
    pub sort_backend: SortBackend,
    /// Lose this device (`DeviceLost` on its first launch) in every sharded
    /// run — the failover soak knob. Requires `devices > 1` to matter; with
    /// the default reshard recovery the canonical merged report is still
    /// bit-identical (re-executed units are re-parameterized identically
    /// and a device loss adds no backoff), so tables diff clean against a
    /// healthy fleet — CI verifies `--devices 4 --lose-device 1` vs
    /// `--devices 4`.
    pub lose_device: Option<usize>,
    /// Execution substrate for every (single-device) GPU cell: `Gpu` runs
    /// the plan on the simulated device alone; `Hybrid`/`Cpu` route it
    /// through the differential co-executor. The canonical report is
    /// split-invariant, so tables are bit-identical across modes — CI diffs
    /// `--exec-mode hybrid` vs `--exec-mode gpu` on fig9.
    pub exec_mode: ExecMode,
    /// Seed base of the `soak` experiment: iteration `i` replays the
    /// schedule seeded `seed + i`.
    pub seed: u64,
    sink: RefCell<Option<Arc<JsonTelemetry>>>,
    /// Each Table I dataset generated so far, by name and size.
    datasets: RefCell<HashMap<(String, usize), Arc<Dataset>>>,
    /// Each join run so far, by [`CellRunner::cell_key`]: its outcome and
    /// the events it recorded.
    cells: RefCell<HashMap<String, (CellOut, Vec<Event>)>>,
}

/// A Table I dataset generated at the driver's scale.
type Dataset = (DatasetSpec, DynPoints);

/// The `Sync` subset of the driver that executes one sweep cell, so cells
/// can run on [`par_map`] worker threads (`Experiments` itself holds a
/// `RefCell` and cannot cross threads).
#[derive(Clone)]
struct CellRunner {
    sink: Option<Arc<JsonTelemetry>>,
    devices: usize,
    lose_device: Option<usize>,
    exec_mode: ExecMode,
}

impl CellRunner {
    /// The open experiment's sink, or the null sink.
    fn telemetry(&self) -> &dyn Telemetry {
        match self.sink.as_ref() {
            Some(sink) => sink.as_ref(),
            None => &sj_telemetry::NULL,
        }
    }

    /// This runner with a fresh sink of its own in place of the open
    /// experiment's (none when no document is open).
    fn with_own_sink(&self) -> CellRunner {
        CellRunner {
            sink: self
                .sink
                .as_ref()
                .map(|_| Arc::new(JsonTelemetry::new("cell"))),
            ..self.clone()
        }
    }

    /// The cache key of `cell`: the rendering of everything that reaches
    /// its join — the dataset's name and size, the target GPU cells run on,
    /// whether events are captured, and the whole config but `host_jobs`
    /// (no result or event depends on it). A config field added later joins
    /// the key through `Debug` without an edit here.
    fn cell_key(&self, data: &[Arc<Dataset>], cell: &Cell) -> String {
        let (di, join) = match cell {
            Cell::Gpu(di, config) => {
                let config = SelfJoinConfig {
                    host_jobs: 0,
                    ..config.clone()
                };
                (*di, format!("{config:?}"))
            }
            Cell::Cpu(di, eps) => (*di, format!("SUPER-EGO {eps:?}")),
        };
        let (spec, pts) = &*data[di];
        format!(
            "{} {} {} {:?} {:?} {} {join}",
            spec.name,
            pts.len(),
            self.devices,
            self.lose_device,
            self.exec_mode,
            self.sink.is_some()
        )
    }

    /// Runs one cell on `target` with the sink attached, recording its
    /// `bench.gpu_run` summary.
    fn run_on(
        &self,
        pts: &DynPoints,
        config: SelfJoinConfig,
        target: &ExecTarget<'_>,
    ) -> (GpuRunResult, ExecOutcome) {
        let join = DynSelfJoin::new(pts, config).with_telemetry(self.telemetry());
        let (r, outcome) = run_gpu(&join, target).expect("join execution must succeed");
        if let Some(sink) = self.sink.as_ref() {
            sink.record(
                Event::new("bench", "gpu_run")
                    .str("variant", r.label.clone())
                    .u64("pairs", r.pairs as u64)
                    .u64("batches", r.batches as u64)
                    .u64("distance_calcs", r.distance_calcs)
                    .f64("response_model_s", r.response_s)
                    .f64("wee", r.wee)
                    .f64("warp_cv", r.warp_cv)
                    .f64("sim_wall_s", r.sim_wall.as_secs_f64()),
            );
        }
        (r, outcome)
    }

    fn run(&self, pts: &DynPoints, config: SelfJoinConfig) -> GpuRunResult {
        if self.devices > 1 {
            return self
                .run_sharded(pts, config, self.devices, ShardStrategy::default())
                .0;
        }
        self.run_on(pts, config, &self.exec_mode.target(HybridPolicy::default()))
            .0
    }

    /// Runs one cell sharded across `devices` simulated devices, returning
    /// the canonical merged result (bit-identical to [`Self::run`]) plus the
    /// per-shard fleet report.
    fn run_sharded(
        &self,
        pts: &DynPoints,
        config: SelfJoinConfig,
        devices: usize,
        strategy: ShardStrategy,
    ) -> (GpuRunResult, simjoin::FleetReport) {
        let mut fleet = warpsim::DeviceFleet::homogeneous(devices, config.gpu);
        // The failover soak knob: kill the chosen device on its first
        // launch. Reshard recovery must absorb it without changing the
        // canonical merged report.
        if let Some(lost) = self.lose_device.filter(|&d| devices > 1 && d < devices) {
            fleet = fleet.with_fault_schedule(lost, FaultSchedule::new().device_lost_at(0));
        }
        let (r, outcome) = self.run_on(pts, config, &ExecTarget::Fleet(&fleet, strategy));
        (r, outcome.fleet.expect("a fleet target reports its fleet"))
    }
}

/// One join of a sweep: a GPU variant run or the SUPER-EGO CPU comparator,
/// against the dataset at `usize`-indexed position.
// A sweep's cell list holds tens of entries for the duration of one sweep,
// so the Gpu variant's inline config outweighing Cpu is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Cell {
    Gpu(usize, SelfJoinConfig),
    Cpu(usize, f32),
}

/// The outcome of a [`Cell`].
#[derive(Debug, Clone)]
enum CellOut {
    Gpu(GpuRunResult),
    Cpu(CpuRunResult),
}

impl CellOut {
    fn gpu(&self) -> &GpuRunResult {
        match self {
            CellOut::Gpu(r) => r,
            CellOut::Cpu(_) => panic!("expected a GPU cell"),
        }
    }

    /// Model seconds: a GPU run's response time, SUPER-EGO's modeled time.
    fn time_s(&self) -> f64 {
        match self {
            CellOut::Gpu(r) => r.response_s,
            CellOut::Cpu(r) => r.model_s,
        }
    }
}

// Sweep cells run on `simjoin::pool::par_map` — the one shared pool behind
// the hybrid CPU backend and the executor's intra-join layers. Results come
// back in input order no matter how cells were scheduled, so every table
// built from them is deterministic.
use simjoin::pool::par_map;

/// A kernel variant of the paper (§III): cell access pattern, load
/// balancing and threads per query point `k`.
type Variant = (AccessPattern, Balancing, u32);

/// GPUCALCGLOBAL, the baseline of every figure.
const GCG: Variant = (AccessPattern::FullWindow, Balancing::None, 1);
const UNICOMP: Variant = (AccessPattern::Unicomp, Balancing::None, 1);
const LID: Variant = (AccessPattern::LidUnicomp, Balancing::None, 1);
const K8: Variant = (AccessPattern::FullWindow, Balancing::None, 8);
const SORTBYWL: Variant = (AccessPattern::FullWindow, Balancing::SortByWorkload, 1);
const WQ: Variant = (AccessPattern::FullWindow, Balancing::WorkQueue, 1);
const WQ_LID: Variant = (AccessPattern::LidUnicomp, Balancing::WorkQueue, 1);
const WQ_K8: Variant = (AccessPattern::FullWindow, Balancing::WorkQueue, 8);
/// The paper's combined optimization, WORKQUEUE + LID-UNICOMP + k = 8: also
/// the join of chaos, scaling, failover, hybrid and serve.
const OPTIMIZED: Variant = (AccessPattern::LidUnicomp, Balancing::WorkQueue, 8);

/// One join of a figure row.
#[derive(Clone, Copy)]
enum Run {
    Gpu(Variant),
    SuperEgo,
}

/// What a figure column shows in a row, by index into the figure's runs.
#[derive(Clone, Copy)]
enum Col {
    /// The run's model seconds.
    Time(usize),
    /// The GPU run's warp execution efficiency, in percent.
    Wee(usize),
    /// `time(a) / time(b)`. With the paper's (max, mean) claim, the
    /// column's max and mean go on a summary line under the table.
    Speedup(usize, usize, Option<&'static str>),
    /// The header of the row's fastest `Time` column.
    Best,
}

/// The ε of a figure's rows on each dataset.
#[derive(Clone, Copy)]
enum Eps {
    /// Every `eps_stride`-th ε of the dataset's sweep.
    Sweep,
    /// The one ε the tables report (`selected_eps`).
    Selected,
}

/// One of the paper's figures or tables as data: a row per dataset and ε,
/// each row running `runs` and showing `columns` after its dataset and ε.
struct Figure {
    /// Experiment name, which its telemetry document also takes.
    name: &'static str,
    title: &'static str,
    /// Table I names in row order; `None` is every Table I dataset.
    datasets: Option<&'static [&'static str]>,
    eps: Eps,
    /// A row's joins, in the order they record telemetry.
    runs: &'static [Run],
    columns: &'static [(&'static str, Col)],
}

const SYNTHETIC: Option<&[&str]> = Some(&["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"]);
const REAL_WORLD: Option<&[&str]> = Some(&["SW2DA", "SW2DB", "SW3DA", "SW3DB", "Gaia"]);

const FIG9: Figure = Figure {
    name: "fig9",
    title: "Fig. 9 — cell access patterns, response time vs eps (k = 1)",
    datasets: SYNTHETIC,
    eps: Eps::Sweep,
    runs: &[Run::Gpu(GCG), Run::Gpu(UNICOMP), Run::Gpu(LID)],
    columns: &[
        ("GPUCALCGLOBAL", Col::Time(0)),
        ("UNICOMP", Col::Time(1)),
        ("LID-UNICOMP", Col::Time(2)),
        ("best", Col::Best),
    ],
};

const TABLE3: Figure = Figure {
    name: "table3",
    title: "Table III — WEE and time of the cell access patterns",
    eps: Eps::Selected,
    columns: &[
        ("GCG WEE(%)", Col::Wee(0)),
        ("GCG time", Col::Time(0)),
        ("UNI WEE(%)", Col::Wee(1)),
        ("UNI time", Col::Time(1)),
        ("LID WEE(%)", Col::Wee(2)),
        ("LID time", Col::Time(2)),
    ],
    ..FIG9
};

const FIG10: Figure = Figure {
    name: "fig10",
    title: "Fig. 10 — thread granularity (k = 1 vs k = 8), GPUCALCGLOBAL",
    datasets: SYNTHETIC,
    eps: Eps::Sweep,
    runs: &[Run::Gpu(GCG), Run::Gpu(K8)],
    columns: &[
        ("k=1", Col::Time(0)),
        ("k=8", Col::Time(1)),
        ("k=8 speedup", Col::Speedup(0, 1, None)),
    ],
};

const TABLE4: Figure = Figure {
    name: "table4",
    title: "Table IV — WEE and time, k = 1 vs k = 8",
    eps: Eps::Selected,
    columns: &[
        ("k=1 WEE(%)", Col::Wee(0)),
        ("k=1 time", Col::Time(0)),
        ("k=8 WEE(%)", Col::Wee(1)),
        ("k=8 time", Col::Time(1)),
    ],
    ..FIG10
};

const FIG11: Figure = Figure {
    name: "fig11",
    title: "Fig. 11 — workload sorting and the work queue",
    datasets: SYNTHETIC,
    eps: Eps::Sweep,
    runs: &[Run::Gpu(GCG), Run::Gpu(SORTBYWL), Run::Gpu(WQ)],
    columns: &[
        ("GPUCALCGLOBAL", Col::Time(0)),
        ("SORTBYWL", Col::Time(1)),
        ("WORKQUEUE", Col::Time(2)),
        ("best", Col::Best),
    ],
};

const TABLE5: Figure = Figure {
    name: "table5",
    title: "Table V — WEE and time, baseline vs WORKQUEUE (k = 8)",
    datasets: SYNTHETIC,
    eps: Eps::Selected,
    runs: &[Run::Gpu(GCG), Run::Gpu(WQ_K8)],
    columns: &[
        ("GCG WEE(%)", Col::Wee(0)),
        ("GCG time", Col::Time(0)),
        ("WQ k=8 WEE(%)", Col::Wee(1)),
        ("WQ k=8 time", Col::Time(1)),
    ],
};

const FIG12: Figure = Figure {
    name: "fig12",
    title: "Fig. 12 — real-world datasets, response time vs eps",
    datasets: REAL_WORLD,
    eps: Eps::Sweep,
    runs: &[
        Run::Gpu(GCG),
        Run::SuperEgo,
        Run::Gpu(WQ),
        Run::Gpu(WQ_LID),
        Run::Gpu(WQ_K8),
        Run::Gpu(OPTIMIZED),
    ],
    columns: &[
        ("GPUCALCGLOBAL", Col::Time(0)),
        ("SUPER-EGO", Col::Time(1)),
        ("WQ", Col::Time(2)),
        ("WQ+LID", Col::Time(3)),
        ("WQ+k8", Col::Time(4)),
        ("WQ+LID+k8", Col::Time(5)),
    ],
};

const TABLE6: Figure = Figure {
    name: "table6",
    title: "Table VI — WEE and time on real-world datasets",
    datasets: REAL_WORLD,
    eps: Eps::Selected,
    runs: &[
        Run::Gpu(GCG),
        Run::Gpu(WQ),
        Run::Gpu(WQ_LID),
        Run::Gpu(WQ_K8),
        Run::Gpu(OPTIMIZED),
    ],
    columns: &[
        ("GCG WEE(%)", Col::Wee(0)),
        ("GCG time", Col::Time(0)),
        ("WQ WEE(%)", Col::Wee(1)),
        ("WQ+LID WEE(%)", Col::Wee(2)),
        ("WQ+k8 WEE(%)", Col::Wee(3)),
        ("WQ+LID+k8 WEE(%)", Col::Wee(4)),
        ("WQ+LID+k8 time", Col::Time(4)),
    ],
};

const FIG13: Figure = Figure {
    name: "fig13",
    title: "Fig. 13 — speedup of WORKQUEUE + LID-UNICOMP + k = 8",
    datasets: None,
    eps: Eps::Sweep,
    runs: &[Run::Gpu(GCG), Run::SuperEgo, Run::Gpu(OPTIMIZED)],
    columns: &[
        ("vs SUPER-EGO", Col::Speedup(1, 2, Some("10.7×, 2.5×"))),
        ("vs GPUCALCGLOBAL", Col::Speedup(0, 2, Some("9.7×, 1.6×"))),
    ],
};

/// Figs. 9–13 and Tables III–VI, in paper order.
const FIGURES: [&Figure; 9] = [
    &FIG9, &TABLE3, &FIG10, &TABLE4, &FIG11, &TABLE5, &FIG12, &TABLE6, &FIG13,
];

impl Experiments {
    /// Creates a driver at the given scale.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            scale,
            artifact_dir: None,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            step_mode: StepMode::default(),
            devices: 1,
            sort_backend: SortBackend::default(),
            lose_device: None,
            exec_mode: ExecMode::default(),
            seed: 0,
            sink: RefCell::new(None),
            datasets: RefCell::default(),
            cells: RefCell::default(),
        }
    }

    /// Table I's dataset `name` at the driver's scale, generated once per
    /// driver.
    fn dataset(&self, name: &str) -> Arc<Dataset> {
        let spec = DatasetSpec::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
        let n = self.scaled_points(&spec);
        let mut datasets = self.datasets.borrow_mut();
        let data = datasets.entry((spec.name.clone(), n)).or_insert_with(|| {
            let pts = spec.generate(n);
            Arc::new((spec, pts))
        });
        Arc::clone(data)
    }

    /// The point count `spec` is generated at.
    fn scaled_points(&self, spec: &DatasetSpec) -> usize {
        ((spec.default_points as f64 * self.scale.points_scale) as usize).max(500)
    }

    /// The join of `variant` at `eps`. Every config the driver builds comes
    /// from here, so each carries the table batching, the step mode, the
    /// sort backend and the thread budget.
    fn config(&self, eps: f32, (pattern, balancing, k): Variant) -> SelfJoinConfig {
        SelfJoinConfig::new(eps)
            .with_pattern(pattern)
            .with_balancing(balancing)
            .with_k(k)
            .with_batching(batching())
            .with_step_mode(self.step_mode)
            .with_sort_backend(self.sort_backend)
            .with_host_jobs(self.jobs)
    }

    /// Snapshot of the state a sweep cell needs, detached from the
    /// non-`Sync` driver so it can cross into [`par_map`] workers.
    fn runner(&self) -> CellRunner {
        CellRunner {
            sink: self.sink.borrow().clone(),
            devices: self.devices,
            lose_device: self.lose_device,
            exec_mode: self.exec_mode,
        }
    }

    /// Runs `experiment` with a fresh telemetry document for `name` open,
    /// so the joins it runs record into it, then writes the document to
    /// `<artifact_dir>/<name>_telemetry.json` (no document when
    /// `artifact_dir` is unset).
    fn document(&self, name: &str, experiment: impl FnOnce() -> String) -> String {
        let Some(dir) = self.artifact_dir.as_ref() else {
            return experiment();
        };
        let sink = Arc::new(JsonTelemetry::new(name));
        sink.record(
            Event::new("bench", "experiment")
                .str("name", name)
                .f64("points_scale", self.scale.points_scale)
                .u64("eps_stride", self.scale.eps_stride as u64),
        );
        *self.sink.borrow_mut() = Some(Arc::clone(&sink));
        let out = experiment();
        *self.sink.borrow_mut() = None;
        let path = dir.join(format!("{name}_telemetry.json"));
        match sink.write_to_file(&path) {
            Ok(()) => {
                println!(
                    "[telemetry] wrote {} ({} events)",
                    path.display(),
                    sink.len()
                );
            }
            Err(e) => eprintln!("[telemetry] failed to write {}: {e}", path.display()),
        }
        out
    }

    /// Executes the joins of `cells` and returns their outcomes in input
    /// order. A join this driver has run before, or that recurs in
    /// `cells`, runs once: the rest run on `self.jobs` pool workers, each
    /// into a sink of its own. Every cell then replays its join's events
    /// into the experiment's document in cell order, so the document is
    /// the same for any `jobs` and for whatever ran before.
    fn sweep(&self, data: &[Arc<Dataset>], cells: Vec<Cell>) -> Vec<CellOut> {
        let runner = self.runner();
        let keys: Vec<String> = cells
            .iter()
            .map(|cell| runner.cell_key(data, cell))
            .collect();
        let mut todo: Vec<(String, Cell)> = Vec::new();
        for (key, cell) in keys.iter().zip(cells) {
            if !self.cells.borrow().contains_key(key) && todo.iter().all(|(k, _)| k != key) {
                todo.push((key.clone(), cell));
            }
        }
        let host_jobs = (self.jobs / todo.len().max(1)).max(1);
        let ran = par_map(self.jobs, todo, |(key, cell)| {
            let cell_runner = runner.with_own_sink();
            let out = match cell {
                Cell::Gpu(di, config) => {
                    CellOut::Gpu(cell_runner.run(&data[di].1, config.with_host_jobs(host_jobs)))
                }
                Cell::Cpu(di, eps) => CellOut::Cpu(
                    run_superego(
                        &data[di].1,
                        eps,
                        &CostModel::default(),
                        cell_runner.telemetry(),
                    )
                    .expect("SUPER-EGO runs on every dataset dimensionality"),
                ),
            };
            let events = cell_runner.sink.map_or_else(Vec::new, |sink| sink.events());
            (key, (out, events))
        });
        let mut cache = self.cells.borrow_mut();
        cache.extend(ran);
        keys.iter()
            .map(|key| {
                let (out, events) = &cache[key];
                if let Some(sink) = runner.sink.as_ref() {
                    events.iter().for_each(|e| sink.record(e.clone()));
                }
                out.clone()
            })
            .collect()
    }

    /// Runs one join through the [`Self::sweep`] cache.
    fn join(&self, data: &Arc<Dataset>, config: SelfJoinConfig) -> GpuRunResult {
        let out = self.sweep(std::slice::from_ref(data), vec![Cell::Gpu(0, config)]);
        out[0].gpu().clone()
    }

    /// The batching of the multi-unit experiments: probe the result size
    /// at the table batching, then shrink the capacity to a 24th of it (at
    /// most 64 batches) so the plan holds enough units to shard, cut, or
    /// spread across threads.
    fn unit_batching(&self, data: &Arc<Dataset>, eps: f32) -> BatchingConfig {
        let probe = self.join(data, self.config(eps, OPTIMIZED));
        BatchingConfig {
            batch_result_capacity: probe.pairs / 24 + 64,
            max_batches: 64,
            ..batching()
        }
    }

    /// Renders `fig`: its rows' joins run as one sweep, then each row's
    /// columns are computed from them.
    fn figure(&self, fig: &Figure) -> String {
        let data: Vec<Arc<Dataset>> = match fig.datasets {
            Some(names) => names.iter().map(|n| self.dataset(n)).collect(),
            None => DatasetSpec::table1()
                .iter()
                .map(|s| self.dataset(&s.name))
                .collect(),
        };
        let mut rows = Vec::new();
        for (di, (spec, _)) in data.iter().map(|d| &**d).enumerate() {
            let stride = self.scale.eps_stride.max(1);
            let eps: Vec<f32> = match fig.eps {
                Eps::Sweep => spec.epsilons.iter().copied().step_by(stride).collect(),
                Eps::Selected => vec![selected_eps(spec)],
            };
            rows.extend(eps.into_iter().map(|eps| (di, eps)));
        }
        let cells = rows
            .iter()
            .flat_map(|&(di, eps)| {
                fig.runs.iter().map(move |run| match *run {
                    Run::Gpu(variant) => Cell::Gpu(di, self.config(eps, variant)),
                    Run::SuperEgo => Cell::Cpu(di, eps),
                })
            })
            .collect();
        let outs = self.sweep(&data, cells);
        let mut header = vec!["dataset", "eps"];
        header.extend(fig.columns.iter().map(|&(h, _)| h));
        let mut t = Table::new(header);
        let mut speedups = vec![Vec::new(); fig.columns.len()];
        for (&(di, eps), runs) in rows.iter().zip(outs.chunks(fig.runs.len())) {
            let mut row = vec![data[di].0.name.clone(), format!("{eps}")];
            for (ci, &(_, col)) in fig.columns.iter().enumerate() {
                row.push(match col {
                    Col::Time(i) => fmt_time(runs[i].time_s()),
                    Col::Wee(i) => fmt_pct(runs[i].gpu().wee),
                    Col::Speedup(a, b, _) => {
                        let speedup = runs[a].time_s() / runs[b].time_s();
                        speedups[ci].push(speedup);
                        fmt_speedup(speedup)
                    }
                    Col::Best => fig
                        .columns
                        .iter()
                        .filter_map(|&(h, c)| match c {
                            Col::Time(i) => Some((h, runs[i].time_s())),
                            _ => None,
                        })
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("a best-of column follows time columns")
                        .0
                        .to_string(),
                });
            }
            t.row(row);
        }
        let mut out = t.render();
        let claims: Vec<String> = fig
            .columns
            .iter()
            .zip(&speedups)
            .filter_map(|(&(h, col), v)| match col {
                Col::Speedup(_, _, Some(paper)) => {
                    let max = v.iter().copied().fold(f64::MIN, f64::max);
                    let avg = v.iter().sum::<f64>() / v.len().max(1) as f64;
                    let (max, avg) = (fmt_speedup(max), fmt_speedup(avg));
                    Some(format!("{h} max {max} avg {avg} (paper: {paper})"))
                }
                _ => None,
            })
            .collect();
        if !claims.is_empty() {
            out.push_str(&format!("\nSummary: {}\n", claims.join("; ")));
        }
        emit(fig.title, out)
    }

    /// Table I: the dataset inventory (paper size vs scaled size).
    fn table1(&self) -> String {
        let mut t = Table::new(vec![
            "Dataset",
            "n",
            "|D| (paper)",
            "|D| (scaled)",
            "family",
        ]);
        for spec in DatasetSpec::table1() {
            t.row(vec![
                spec.name.clone(),
                spec.dims.to_string(),
                spec.paper_points.to_string(),
                self.scaled_points(&spec).to_string(),
                format!("{:?}", spec.family),
            ]);
        }
        emit("Table I — datasets", t.render())
    }

    /// Ablations from DESIGN.md §5.
    fn ablations(&self) -> String {
        let data = self.dataset("Expo2D2M");
        let eps = selected_eps(&data.0);
        let orders = [
            ("arbitrary", IssueOrder::Arbitrary { seed: 0xC0FFEE }),
            ("in-order", IssueOrder::InOrder),
            ("reversed", IssueOrder::Reversed),
        ];
        let ks = [1u32, 2, 4, 8, 16, 32];
        let strategies = [("strided (baseline)", GCG), ("prefix (workqueue)", WQ)];
        let atomics = [10u32, 40, 160, 640];
        // The joins of ablations A–D, as one sweep. An issue order or a
        // cost model is part of a join's config, hence of its cache key.
        let mut configs = vec![self.config(eps, GCG)];
        configs.extend(orders.map(|(_, o)| self.config(eps, SORTBYWL).with_issue_override(o)));
        configs
            .extend(ks.map(|k| self.config(eps, (AccessPattern::FullWindow, Balancing::None, k))));
        configs.extend(strategies.map(|(_, variant)| self.config(eps, variant)));
        configs.extend(atomics.map(|atomic| {
            let mut cfg = self.config(eps, WQ);
            cfg.gpu.cost.atomic = atomic;
            cfg
        }));
        let cells = configs.into_iter().map(|c| Cell::Gpu(0, c)).collect();
        let outs = self.sweep(std::slice::from_ref(&data), cells);
        let mut runs = outs.iter().map(CellOut::gpu);
        let mut next = || runs.next().expect("one join per ablation row");
        let mut out = String::new();

        // (a) Warp issue order under SORTBYWL: isolates the WORKQUEUE's
        // forced execution order from its packing.
        let mut t = Table::new(vec!["variant", "issue order", "time", "WEE(%)"]);
        let rows = orders.map(|(label, _)| ("SORTBYWL", label));
        for (variant, order) in [("baseline", "arbitrary")].into_iter().chain(rows) {
            let r = next();
            t.row(vec![
                variant.to_string(),
                order.to_string(),
                fmt_time(r.response_s),
                fmt_pct(r.wee),
            ]);
        }
        out.push_str(&emit(
            "Ablation A — warp issue order under SORTBYWL (Expo2D)",
            t.render(),
        ));

        // (b) k sweep beyond the paper's 1-vs-8.
        let mut t = Table::new(vec!["k", "time", "WEE(%)", "warps cv"]);
        for k in ks {
            let r = next();
            t.row(vec![
                k.to_string(),
                fmt_time(r.response_s),
                fmt_pct(r.wee),
                format!("{:.3}", r.warp_cv),
            ]);
        }
        out.push_str(&emit(
            "Ablation B — thread granularity sweep (Expo2D)",
            t.render(),
        ));

        // (c) Estimator strategy: strided vs heaviest-prefix sampling.
        let mut t = Table::new(vec![
            "strategy",
            "estimated pairs",
            "batches",
            "actual pairs",
        ]);
        for (label, variant) in strategies {
            let (estimate, plan) = {
                let fixed = data.1.as_fixed::<2>().unwrap();
                let join = simjoin::SelfJoin::new(&fixed, self.config(eps, variant)).unwrap();
                join.plan()
            };
            t.row(vec![
                label.to_string(),
                estimate.estimated_total.to_string(),
                plan.num_batches().to_string(),
                next().pairs.to_string(),
            ]);
        }
        out.push_str(&emit(
            "Ablation C — result-size estimator strategies (Expo2D)",
            t.render(),
        ));

        // (d) Atomic-cost sensitivity of the WORKQUEUE.
        let mut t = Table::new(vec!["atomic cost (cycles)", "time", "WEE(%)"]);
        for atomic in atomics {
            let r = next();
            t.row(vec![
                atomic.to_string(),
                fmt_time(r.response_s),
                fmt_pct(r.wee),
            ]);
        }
        out.push_str(&emit(
            "Ablation D — work-queue atomic cost sensitivity (Expo2D)",
            t.render(),
        ));

        // (e) Fixed vs workload-balanced queue chunking (paper §V future
        // work): per-batch result spread and total time. These joins read
        // the per-batch report, so they run outside the sweep.
        let mut t = Table::new(vec!["chunking", "batches", "max/mean batch pairs", "time"]);
        for (label, balanced) in [("fixed (paper)", false), ("balanced (§V)", true)] {
            let cfg = self.config(eps, WQ).with_batching(BatchingConfig {
                batch_result_capacity: 500_000,
                balanced_queue: balanced,
                ..batching()
            });
            let fixed_pts = data.1.as_fixed::<2>().unwrap();
            let outcome = simjoin::SelfJoin::new(&fixed_pts, cfg)
                .unwrap()
                .run()
                .unwrap();
            let batch_pairs: Vec<f64> = outcome
                .report
                .batches
                .iter()
                .map(|b| b.pairs as f64)
                .collect();
            let mean = batch_pairs.iter().sum::<f64>() / batch_pairs.len().max(1) as f64;
            let max = batch_pairs.iter().copied().fold(0.0f64, f64::max);
            t.row(vec![
                label.to_string(),
                outcome.report.num_batches.to_string(),
                format!("{:.2}", if mean > 0.0 { max / mean } else { 0.0 }),
                fmt_time(outcome.report.response_time_s()),
            ]);
        }
        out.push_str(&emit(
            "Ablation E — fixed vs workload-balanced queue chunking (Expo2D)",
            t.render(),
        ));
        out
    }

    /// Resilience table (not part of the paper, nor of `all`): the
    /// optimized variant under each named fault profile at a fixed seed,
    /// reporting what recovery cost and whether the result stayed exact.
    fn chaos(&self) -> String {
        let mut t = Table::new(vec![
            "profile",
            "outcome",
            "pairs",
            "batches",
            "retries t/o/c",
            "stalls",
            "cpu pts",
            "time",
            "overhead",
        ]);
        let data = self.dataset("Expo2D2M");
        let eps = selected_eps(&data.0);
        // Probe the result size, then tighten the batch capacity so the run
        // spans several launches — otherwise most schedule entries sit past
        // the last launch index and nothing injects.
        let probe = self.join(&data, self.config(eps, OPTIMIZED));
        let config = self.config(eps, OPTIMIZED).with_batching(BatchingConfig {
            batch_result_capacity: probe.pairs / 6 + 64,
            ..batching()
        });
        let clean = self.join(&data, config.clone());
        t.row(vec![
            "(none)".into(),
            "clean".into(),
            format!("{}", clean.pairs),
            format!("{}", clean.batches),
            "0/0/0".into(),
            "0".into(),
            "0".into(),
            fmt_time(clean.response_s),
            fmt_speedup(1.0),
        ]);
        for profile_name in FaultProfile::names() {
            let profile = FaultProfile::by_name(profile_name).expect("named profile");
            let plane = FaultPlane::seeded(0xC4A05, &profile);
            let runner = self.runner();
            let join = DynSelfJoin::new(&data.1, config.clone())
                .with_telemetry(runner.telemetry())
                .with_fault_plane(&plane);
            match run_gpu(&join, &ExecTarget::Gpu) {
                Err(error) => {
                    let mut row = vec![profile_name.to_string(), format!("typed error: {error}")];
                    row.resize(9, "-".into());
                    t.row(row)
                }
                Ok((r, outcome)) => {
                    assert_eq!(
                        r.pairs, clean.pairs,
                        "chaos run under `{profile_name}` lost pairs"
                    );
                    let d = outcome.report.degradation.unwrap_or_default();
                    let prepass = outcome.report.prepass.unwrap_or_default();
                    // A fault on a pre-pass launch is absorbed by the
                    // planner, not by the batch recovery this table counts.
                    let label = if d.cpu_fallback_ran() {
                        "degraded, exact"
                    } else if d.transient_retries
                        + d.overflow_splits
                        + d.counter_retries
                        + d.transfer_stalls
                        > 0
                    {
                        "recovered, exact"
                    } else if prepass.degraded_to_host {
                        "pre-pass on host"
                    } else if prepass.transient_retries > 0 {
                        "pre-pass retried"
                    } else {
                        "clean (no fault landed)"
                    };
                    t.row(vec![
                        profile_name.to_string(),
                        label.into(),
                        format!("{}", r.pairs),
                        format!("{}", r.batches),
                        format!(
                            "{}/{}/{}",
                            d.transient_retries, d.overflow_splits, d.counter_retries
                        ),
                        format!("{}", d.transfer_stalls),
                        format!("{}", d.points_degraded),
                        fmt_time(r.response_s),
                        fmt_speedup(r.response_s / clean.response_s),
                    ])
                }
            }
        }
        emit(
            "Chaos — resilient executor under seeded fault profiles",
            t.render(),
        )
    }

    /// Multi-device scaling table (not part of the paper, nor
    /// of `all`): the optimized variant on the skewed Expo2D dataset,
    /// sharded across 1–8 simulated devices with workload-aware vs
    /// equal-count partitioning, all from the same global plan. The
    /// canonical merged time is device-count invariant by construction;
    /// what scales is the *fleet makespan*, and on skewed data the
    /// workload-aware cut should beat equal-count.
    fn scaling(&self) -> String {
        let mut t = Table::new(vec![
            "devices",
            "partition",
            "makespan",
            "speedup",
            "imbalance",
            "jain",
            "canonical time",
            "batches",
        ]);
        let data = self.dataset("Expo2D2M");
        let eps = selected_eps(&data.0);
        // Probe the result size, then tighten the batch capacity so the
        // plan holds enough units for an 8-way partition to be meaningful.
        let config = self
            .config(eps, OPTIMIZED)
            .with_batching(self.unit_batching(&data, eps));
        let runner = self.runner();
        let mut single = None;
        for devices in [1usize, 2, 4, 8] {
            for strategy in [ShardStrategy::WorkloadAware, ShardStrategy::EqualCount] {
                if devices == 1 && strategy != ShardStrategy::WorkloadAware {
                    continue;
                }
                let (r, fleet) = runner.run_sharded(&data.1, config.clone(), devices, strategy);
                if let Some(sink) = runner.sink.as_ref() {
                    sink.record(
                        Event::new("bench", "scaling_run")
                            .u64("devices", devices as u64)
                            .str("partition", strategy.label())
                            .f64("makespan_model_s", fleet.makespan_s)
                            .f64("workload_imbalance", fleet.workload_imbalance())
                            .f64("jain_fairness", fleet.jain_fairness())
                            .f64("canonical_model_s", r.response_s),
                    );
                }
                let single = *single.get_or_insert(fleet.makespan_s);
                t.row(vec![
                    devices.to_string(),
                    strategy.label().to_string(),
                    fmt_time(fleet.makespan_s),
                    fmt_speedup(single / fleet.makespan_s),
                    format!("{:.3}", fleet.workload_imbalance()),
                    format!("{:.3}", fleet.jain_fairness()),
                    fmt_time(r.response_s),
                    r.batches.to_string(),
                ]);
            }
        }
        emit(
            "Scaling — multi-device sharding, workload-aware vs equal-count",
            t.render(),
        )
    }

    /// One measured point of [`Self::failover`]: the same 4-device join
    /// under a clean fleet, a mid-join device loss with reshard recovery,
    /// and the same loss with CPU degradation.
    pub(crate) fn failover_points(&self) -> Vec<FailoverPoint> {
        const DEVICES: usize = 4;
        const LOST_DEVICE: usize = 1;
        let data = self.dataset("Unif2D2M");
        let eps = selected_eps(&data.0);
        // Tighten the batch capacity (as in the scaling sweep) so the plan
        // holds enough units that the lost device's region is non-trivial.
        let batching = self.unit_batching(&data, eps);
        let runner = self.runner();
        let mut points = Vec::new();
        for (mode, recovery, faulted) in [
            ("clean", RecoveryPolicy::Reshard, false),
            ("reshard", RecoveryPolicy::Reshard, true),
            ("degrade", RecoveryPolicy::Degrade, true),
        ] {
            let config = self
                .config(eps, OPTIMIZED)
                .with_batching(batching)
                .with_recovery(recovery);
            let mut fleet = warpsim::DeviceFleet::homogeneous(DEVICES, config.gpu);
            if faulted {
                fleet =
                    fleet.with_fault_schedule(LOST_DEVICE, FaultSchedule::new().device_lost_at(0));
            }
            let join = DynSelfJoin::new(&data.1, config).with_telemetry(runner.telemetry());
            let (r, outcome) = run_gpu(
                &join,
                &ExecTarget::Fleet(&fleet, ShardStrategy::WorkloadAware),
            )
            .expect("failover run must recover, not surface the loss");
            let fleet = outcome.fleet.expect("a fleet target reports its fleet");
            let cpu_points = fleet.recovery.cpu_last_resort_points
                + fleet
                    .shards
                    .iter()
                    .filter_map(|s| s.degradation.as_ref())
                    .map(|d| d.points_degraded)
                    .sum::<usize>();
            if let Some(s) = runner.sink.as_ref() {
                s.record(
                    Event::new("bench", "failover_run")
                        .str("mode", mode)
                        .f64("makespan_model_s", fleet.makespan_s)
                        .u64("pairs", r.pairs as u64)
                        .u64("reshard_rounds", u64::from(fleet.recovery.reshard_rounds))
                        .u64("reassigned_units", fleet.recovery.reassigned_units as u64)
                        .u64("cpu_points", cpu_points as u64),
                );
            }
            points.push(FailoverPoint {
                mode,
                makespan_s: fleet.makespan_s,
                pairs: r.pairs,
                reshard_rounds: fleet.recovery.reshard_rounds,
                reassigned_units: fleet.recovery.reassigned_units,
                cpu_points,
            });
        }
        points
    }

    /// Failover comparison table (not part of the paper, nor of `all`):
    /// device 1 of a 4-device fleet latches `DeviceLost` on its first
    /// launch. Re-sharding its unexecuted units onto the three survivors is
    /// compared against degrading them to the exact CPU fallback; the pair
    /// set is identical in all three rows by the exactness invariant.
    fn failover(&self) -> String {
        let mut t = Table::new(vec![
            "mode",
            "makespan",
            "inflation",
            "pairs",
            "reshard rounds",
            "units moved",
            "cpu points",
        ]);
        let points = self.failover_points();
        let clean = points.first().map_or(0.0, |p| p.makespan_s);
        for p in &points {
            t.row(vec![
                p.mode.to_string(),
                fmt_time(p.makespan_s),
                fmt_speedup(p.makespan_s / clean),
                p.pairs.to_string(),
                p.reshard_rounds.to_string(),
                p.reassigned_units.to_string(),
                p.cpu_points.to_string(),
            ]);
        }
        emit(
            "Failover — one device lost mid-join: reshard vs CPU degradation",
            t.render(),
        )
    }

    /// One measured point of [`Self::hybrid`]: the co-executor on the
    /// skewed Expo2D workload at one forced split fraction (or the measured
    /// auto cut), against the same plan.
    pub(crate) fn hybrid_points(&self) -> Vec<HybridPoint> {
        let data = self.dataset("Expo2D2M");
        let eps = selected_eps(&data.0);
        // WORKQUEUE sorting without balanced chunking leaves a light tail of
        // small units behind the heavy head — exactly the shape where
        // peeling the tail onto host workers shortens the GPU pipeline by
        // more than the tail costs on the CPU. Tighten the capacity (as in
        // the scaling sweep) so the plan holds enough units to cut.
        let config = self
            .config(eps, OPTIMIZED)
            .with_batching(self.unit_batching(&data, eps));
        let runner = self.runner();
        let mut points = Vec::new();
        let sweep: [(&'static str, Option<f64>); 6] = [
            ("gpu-only", Some(0.0)),
            ("f=0.25", Some(0.25)),
            ("f=0.50", Some(0.5)),
            ("f=0.75", Some(0.75)),
            ("cpu-only", Some(1.0)),
            ("auto", None),
        ];
        for (mode, fraction) in sweep {
            let mut policy = HybridPolicy::default().with_jobs(config.resolved_host_jobs());
            if let Some(f) = fraction {
                policy = policy.with_forced_cpu_fraction(f);
            }
            let join = DynSelfJoin::new(&data.1, config.clone()).with_telemetry(runner.telemetry());
            let (r, outcome) = run_gpu(&join, &ExecTarget::Hybrid(policy))
                .expect("hybrid join execution must succeed");
            let h = outcome.hybrid.expect("a hybrid target reports its cut");
            if let Some(s) = runner.sink.as_ref() {
                s.record(
                    Event::new("bench", "hybrid_run")
                        .str("mode", mode)
                        .f64("cpu_fraction", fraction.unwrap_or(-1.0))
                        .u64("units", h.units as u64)
                        .u64("cut", h.cut as u64)
                        .f64("gpu_model_s", h.gpu_response_s)
                        .f64("cpu_model_s", h.cpu_model_s)
                        .f64("makespan_model_s", h.makespan_s)
                        .u64("pairs", r.pairs as u64),
                );
            }
            points.push(HybridPoint {
                mode,
                units: h.units,
                cut: h.cut,
                gpu_units: h.gpu_units,
                cpu_units: h.cpu_units,
                gpu_s: h.gpu_response_s,
                cpu_s: h.cpu_model_s,
                makespan_s: h.makespan_s,
                pairs: r.pairs,
            });
        }
        points
    }

    /// Hybrid co-execution table (not part of the paper, nor of `all`):
    /// the optimized variant on the skewed Expo2D dataset, co-executed
    /// across the simulated GPU and the modeled CPU backend at forced split
    /// fractions plus the measured auto cut. The pair set is identical in
    /// every row (each CPU unit is differentially checked against the GPU
    /// segment); what varies is the co-processed makespan, and the measured
    /// cut should land at or below both single-backend rows.
    fn hybrid(&self) -> String {
        let mut t = Table::new(vec![
            "mode",
            "cut",
            "gpu units",
            "cpu units",
            "gpu side",
            "cpu side",
            "makespan",
            "vs gpu-only",
            "pairs",
        ]);
        let points = self.hybrid_points();
        let gpu_only = points.first().map_or(0.0, |p| p.makespan_s);
        for p in &points {
            t.row(vec![
                p.mode.to_string(),
                format!("{}/{}", p.cut, p.units),
                p.gpu_units.to_string(),
                p.cpu_units.to_string(),
                fmt_time(p.gpu_s),
                fmt_time(p.cpu_s),
                fmt_time(p.makespan_s),
                fmt_speedup(gpu_only / p.makespan_s),
                p.pairs.to_string(),
            ]);
        }
        emit(
            "Hybrid — CPU/GPU co-execution, forced splits vs the measured cut",
            t.render(),
        )
    }

    /// Serve daemon table (not part of the paper, nor of `all`): the
    /// same churn-and-query request stream through the always-on daemon in
    /// coalesced mode (admission queue merges same-ε requests into one
    /// launch, barrier-flushed by mutations) and in the serial baseline
    /// (one launch per request). Answers are asserted identical across the
    /// two modes — coalescing is a scheduling optimization, never a
    /// semantic one — and the coalesced mode must beat the serial baseline
    /// on total launch model seconds.
    fn serve(&self) -> String {
        const ROUNDS: usize = 5;
        const BURST: usize = 6;
        let mut t = Table::new(vec![
            "mode",
            "requests",
            "admitted",
            "launches",
            "coalesced",
            "cache hits",
            "reindex inc/full",
            "exec model s",
            "total p50",
            "total p99",
        ]);
        let data = self.dataset("Expo2D2M");
        let eps = selected_eps(&data.0);
        let fixed: Vec<[f32; 2]> = data.1.as_fixed::<2>().expect("Expo2D is 2-D");
        let runner = self.runner();
        let mut launch_s = Vec::new();
        let mut transcripts: Vec<Vec<String>> = Vec::new();
        for (mode, coalesce) in [("coalesced", true), ("serial", false)] {
            let serve_cfg = ServeConfig {
                queue_capacity: BURST + 4,
                coalesce,
                ..ServeConfig::default()
            };
            let mut session =
                ServeSession::new(fixed.clone(), self.config(eps, OPTIMIZED), serve_cfg)
                    .expect("dataset indexes at its sweep ε")
                    .with_telemetry(runner.telemetry());
            let mut responses = Vec::new();
            for round in 0..ROUNDS {
                // Churn: one insert near an existing point, one remove.
                // Mutations barrier-flush the previous round's burst.
                let seed = fixed[(round * 13) % fixed.len()];
                responses.extend(session.request(Request::Insert {
                    point: [seed[0] + 0.01, seed[1] - 0.01],
                }));
                responses.extend(session.request(Request::Remove {
                    point_id: (round % 7) as u32,
                }));
                for q in 0..BURST {
                    let pid = ((round * BURST + q) * 31 % session.num_points()) as u32;
                    responses.extend(session.request(Request::Query {
                        point_id: pid,
                        epsilon: eps,
                    }));
                }
                responses.extend(session.request(Request::Join { epsilon: eps }));
            }
            responses.extend(session.request(Request::Flush));
            let report = session.report();
            // Latency-independent answer transcript, keyed by request id.
            let transcript: Vec<String> = responses
                .iter()
                .filter_map(|r| match &r.reply {
                    Reply::Neighbors {
                        point_id,
                        neighbors,
                        ..
                    } => Some(format!("q{} p{point_id} {neighbors:?}", r.id)),
                    Reply::JoinSummary { pairs, .. } => Some(format!("j{} {pairs}", r.id)),
                    _ => None,
                })
                .collect();
            transcripts.push(transcript);
            if let Some(s) = runner.sink.as_ref() {
                s.record(
                    Event::new("bench", "serve_mode")
                        .str("mode", mode)
                        .u64("requests", report.requests)
                        .u64("launches", report.launches)
                        .u64("coalesced_requests", report.coalesced_requests)
                        .u64("cache_hits", report.cache_hits)
                        .f64("execute_model_s", report.execute_model_s)
                        .f64("total_p50_s", report.total_p50_s)
                        .f64("total_p99_s", report.total_p99_s),
                );
            }
            t.row(vec![
                mode.to_string(),
                report.requests.to_string(),
                (report.queries + report.joins).to_string(),
                report.launches.to_string(),
                report.coalesced_requests.to_string(),
                report.cache_hits.to_string(),
                format!("{}/{}", report.incremental_reindexes, report.full_rebuilds),
                fmt_time(report.execute_model_s),
                fmt_time(report.total_p50_s),
                fmt_time(report.total_p99_s),
            ]);
            launch_s.push(report.execute_model_s);
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "serve invariant violated: coalesced and serial modes answered differently"
        );
        let (coalesced, serial) = (launch_s[0], launch_s[1]);
        assert!(
            coalesced < serial,
            "serve acceptance violated: coalesced total {coalesced} model s is not below \
             serial {serial}"
        );
        emit(
            &format!(
                "Serve — coalesced admission vs serial baseline \
                 ({:.2}x less launch time)",
                serial / coalesced
            ),
            t.render(),
        )
    }

    /// Chaos soak (not part of the paper, nor of `all`): eight seeded
    /// iterations on a small Expo2D set, from seed base [`Self::seed`],
    /// cycling fault profile × device count (1–4) × access pattern. Each
    /// iteration runs the same join clean and under its fault schedule on
    /// the same target. The faulted run must find exactly the clean pair
    /// set or end in a typed error, and a fleet's makespan must stay within
    /// the serial response bound of the same recovered run; a broken
    /// invariant panics, naming the iteration. Under [`ExecMode::Hybrid`]
    /// every iteration soaks the co-executor on one device instead.
    ///
    /// # Panics
    /// Under [`ExecMode::Cpu`], which has no device to fault.
    fn soak(&self) -> String {
        const EPS: f32 = 0.5;
        assert!(
            self.exec_mode != ExecMode::Cpu,
            "the soak faults a simulated device: exec mode gpu or hybrid"
        );
        let n = ((800.0 * self.scale.points_scale) as usize).max(400);
        let pts = DatasetSpec::by_name("Expo2D2M")
            .expect("a Table I dataset")
            .generate(n);
        // Probe the clean pair count once, then tighten the batch capacity
        // so the plan holds enough units that seeded fault schedules land
        // inside each device's launch window — a soak over one-launch plans
        // would exercise nothing.
        let probe = DynSelfJoin::new(&pts, self.config(EPS, GCG))
            .run(&ExecTarget::Gpu)
            .expect("the clean soak probe must succeed");
        let base = self.config(EPS, GCG).with_batching(BatchingConfig {
            batch_result_capacity: probe.result.len() / 16 + 8,
            max_batches: 64,
            ..BatchingConfig::default()
        });
        let hybrid = (self.exec_mode == ExecMode::Hybrid).then(|| {
            ExecTarget::Hybrid(HybridPolicy::default().with_jobs(base.resolved_host_jobs()))
        });
        let patterns = [
            AccessPattern::LidUnicomp,
            AccessPattern::Unicomp,
            AccessPattern::FullWindow,
        ];
        let profiles = FaultProfile::names();
        let runner = self.runner();
        let mut t = Table::new(vec![
            "#", "profile", "devices", "pattern", "seed", "outcome", "pairs", "makespan",
            "vs clean",
        ]);
        let (mut typed_errors, mut recovered, mut worst) = (0, 0, 1.0f64);
        for i in 0..8u64 {
            let (seed, at) = (self.seed.wrapping_add(i), i as usize);
            let profile = profiles[at % profiles.len()];
            let devices = if hybrid.is_some() { 1 } else { 1 + at % 4 };
            let pattern = patterns[at % patterns.len()];
            let what =
                format!("soak iteration {i} (profile={profile} devices={devices} seed={seed})");
            let schedule = FaultSchedule::seeded(
                seed,
                &FaultProfile::by_name(profile).expect("a named profile"),
            );
            // A fleet soak lands the schedule on one device of the fleet, a
            // hybrid soak replays it on the join's own fault plane.
            let clean_fleet = warpsim::DeviceFleet::homogeneous(devices, base.gpu);
            let faulted_fleet = warpsim::DeviceFleet::homogeneous(devices, base.gpu)
                .with_fault_schedule(at % devices, schedule.clone());
            let plane = FaultPlane::new(schedule);
            let on =
                |fleet| hybrid.unwrap_or(ExecTarget::Fleet(fleet, ShardStrategy::WorkloadAware));
            let config = base.clone().with_pattern(pattern);
            let clean = DynSelfJoin::new(&pts, config.clone())
                .run(&on(&clean_fleet))
                .unwrap_or_else(|e| panic!("{what}: clean run failed: {e}"));
            let mut join = DynSelfJoin::new(&pts, config).with_telemetry(runner.telemetry());
            if hybrid.is_some() {
                join = join.with_fault_plane(&plane);
            }
            let (outcome, intervened) = match join.run(&on(&faulted_fleet)) {
                Err(e) if e.is_execution() => (Err(e.to_string()), false),
                Err(e) => panic!("{what}: {e}"),
                Ok(o) => {
                    assert!(
                        o.result.same_pairs_as(&clean.result),
                        "{what}: exact-result invariant VIOLATED: faulted run found {} pairs, \
                         clean run found {}",
                        o.result.len(),
                        clean.result.len()
                    );
                    let intervened = match (&o.fleet, &o.hybrid) {
                        (Some(fleet), _) => {
                            // Structural bound: the parallel makespan can never
                            // exceed the serialized response time of the same
                            // recovered run (plus the host last-resort tail).
                            let serial_bound =
                                o.report.response_time_s() + fleet.recovery.cpu_last_resort_model_s;
                            assert!(
                                fleet.makespan_s <= serial_bound * 1.05 + 1e-12,
                                "{what}: makespan bound VIOLATED: {:.6e} model s exceeds the \
                                 serial response bound {serial_bound:.6e}",
                                fleet.makespan_s
                            );
                            fleet.recovery.intervened()
                        }
                        (_, Some(h)) => h.spilled_units > 0,
                        _ => false,
                    };
                    (Ok(o), intervened)
                }
            };
            recovered += u32::from(intervened);
            let mut event = Event::new("soak", "iteration")
                .u64("iteration", i)
                .str("profile", profile)
                .u64("devices", devices as u64)
                .str("pattern", format!("{pattern:?}"))
                .u64("seed", seed)
                .bool("intervened", intervened);
            let mut row = vec![
                i.to_string(),
                profile.to_string(),
                devices.to_string(),
                format!("{pattern:?}"),
                seed.to_string(),
            ];
            match outcome {
                Err(e) => {
                    typed_errors += 1;
                    row.extend([
                        format!("typed error: {e}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    event = event.bool("typed_error", true).str("error", e);
                }
                Ok(o) => {
                    let (makespan_s, clean_s) = (o.model_s(), clean.model_s());
                    let inflation = if clean_s > 0.0 {
                        makespan_s / clean_s
                    } else {
                        1.0
                    };
                    worst = worst.max(inflation);
                    row.extend([
                        if intervened {
                            "recovered, exact"
                        } else {
                            "exact"
                        }
                        .into(),
                        o.result.len().to_string(),
                        fmt_time(makespan_s),
                        fmt_speedup(inflation),
                    ]);
                    event = event
                        .bool("typed_error", false)
                        .u64("pairs", o.result.len() as u64)
                        .f64("makespan_model_s", makespan_s)
                        .f64("clean_makespan_model_s", clean_s)
                        .f64("inflation", inflation);
                }
            }
            runner.telemetry().record(event);
            t.row(row);
        }
        emit(
            &format!(
                "Soak — seeded fault schedules, each exact or a typed error \
                 ({typed_errors} typed error(s), {recovered} recovered, worst makespan \
                 {worst:.2}x clean)"
            ),
            t.render(),
        )
    }

    /// Runs the experiment `name` (see the module table), printing its
    /// markdown and returning it; `None` if no experiment has that name.
    /// Each experiment but `all` and `table1` (which runs no join) records
    /// into a telemetry document of its own name.
    pub fn run(&self, name: &str) -> Option<String> {
        if let Some(fig) = FIGURES.into_iter().find(|fig| fig.name == name) {
            return Some(self.document(name, || self.figure(fig)));
        }
        let experiment = match name {
            "all" => {
                let paper = FIGURES.map(|fig| fig.name);
                let paper = ["table1"].into_iter().chain(paper).chain(["ablations"]);
                return Some(paper.filter_map(|name| self.run(name)).collect());
            }
            "table1" => return Some(self.table1()),
            "ablations" => Self::ablations,
            "chaos" => Self::chaos,
            "scaling" => Self::scaling,
            "failover" => Self::failover,
            "hybrid" => Self::hybrid,
            "serve" => Self::serve,
            "soak" => Self::soak,
            _ => return None,
        };
        Some(self.document(name, || experiment(self)))
    }
}

/// One measured point of the failover comparison
/// ([`Experiments::failover_points`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FailoverPoint {
    /// Row label: `"clean"`, `"reshard"`, or `"degrade"`.
    pub mode: &'static str,
    /// Fleet makespan (slowest shard plus any CPU last resort) in model
    /// seconds.
    pub makespan_s: f64,
    /// Result pairs — identical across the three modes by the exactness
    /// invariant.
    pub pairs: usize,
    /// Failover re-shard rounds the recovery loop ran.
    pub reshard_rounds: u32,
    /// Plan units moved off the lost device onto survivors.
    pub reassigned_units: usize,
    /// Points executed on the exact CPU path (degradation + last resort).
    pub cpu_points: usize,
}

/// One measured point of the hybrid co-execution sweep
/// ([`Experiments::hybrid_points`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HybridPoint {
    /// Row label: `"gpu-only"`, `"f=<fraction>"`, `"cpu-only"`, or
    /// `"auto"`.
    pub mode: &'static str,
    /// Plan units in the workload-sorted list.
    pub units: usize,
    /// Chosen cut: units `[0, cut)` count for the GPU, `[cut, units)` for
    /// the CPU backend.
    pub cut: usize,
    /// Units the GPU side was charged for.
    pub gpu_units: usize,
    /// Units the CPU pool computed and kept.
    pub cpu_units: usize,
    /// GPU-side response time (pipeline of kept units + recovery), model
    /// seconds.
    pub gpu_s: f64,
    /// CPU-side backend model time, model seconds.
    pub cpu_s: f64,
    /// Co-processed makespan, `max(gpu, cpu)`, model seconds.
    pub makespan_s: f64,
    /// Result pairs — identical across every row by the differential check.
    pub pairs: usize,
}

/// The ε each table reports (the paper picks one representative ε per
/// dataset; we use the 4th entry of the sweep).
fn selected_eps(spec: &DatasetSpec) -> f32 {
    spec.epsilons[spec.epsilons.len().min(4) - 1]
}

fn emit(title: &str, body: String) -> String {
    let out = format!("\n## {title}\n\n{body}\n");
    print!("{out}");
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use sj_telemetry::json::{self, JsonValue};

    use super::*;

    fn tiny() -> Experiments {
        Experiments::new(ExperimentScale {
            points_scale: 0.02,
            eps_stride: 6,
        })
    }

    /// Runs experiment `name` on `exp` into a fresh temporary artifact
    /// directory (`tag` keeps concurrent tests apart) and returns its
    /// markdown and each document it wrote, strictly parsed, by file name.
    fn run_documented(
        mut exp: Experiments,
        tag: &str,
        name: &str,
    ) -> (String, BTreeMap<String, JsonValue>) {
        let dir = std::env::temp_dir().join(format!("sj-bench-{tag}-{}", std::process::id()));
        exp.artifact_dir = Some(dir.clone());
        let out = exp.run(name).expect("a known experiment");
        let mut docs = BTreeMap::new();
        // An experiment that runs no join (`table1`) writes no document.
        for entry in std::fs::read_dir(&dir).into_iter().flatten() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = json::parse(&text).expect("a document is strict JSON");
            docs.insert(path.file_name().unwrap().to_string_lossy().into(), doc);
        }
        let _ = std::fs::remove_dir_all(&dir);
        (out, docs)
    }

    /// `doc` with its host-time observations zeroed: they vary run to run,
    /// everything else must not.
    fn masked(v: JsonValue) -> JsonValue {
        match v {
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| match k.starts_with("host_") || k == "sim_wall_s" {
                        true => (k, JsonValue::Num(0.0)),
                        false => (k, masked(v)),
                    })
                    .collect(),
            ),
            JsonValue::Array(items) => JsonValue::Array(items.into_iter().map(masked).collect()),
            v => v,
        }
    }

    fn is(e: &JsonValue, key: &str, value: &str) -> bool {
        e.get(key).and_then(JsonValue::as_str) == Some(value)
    }

    #[test]
    fn table1_lists_all_datasets() {
        let out = tiny().table1();
        for name in ["Unif2D2M", "Expo6D2M", "SW3DB", "Gaia"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn fig9_produces_rows_for_each_dataset() {
        let out = tiny().figure(&FIG9);
        assert!(out.contains("Expo2D2M"));
        assert!(out.contains("Unif6D2M"));
        assert!(out.contains("LID-UNICOMP"));
    }

    #[test]
    fn fig9_artifact_is_the_same_for_any_sweep_worker_count() {
        let doc = |jobs: usize| {
            let mut exp = tiny();
            exp.jobs = jobs;
            let (_, mut docs) = run_documented(exp, &format!("fig9-jobs{jobs}"), "fig9");
            masked(docs.remove("fig9_telemetry.json").unwrap())
        };
        let serial = doc(1);
        let events = serial.get("events").and_then(JsonValue::as_array).unwrap();
        assert!(events.len() > 1, "fig9 records its cells' events");
        assert_eq!(doc(3), serial);
    }

    #[test]
    fn all_equals_each_paper_experiment_run_on_a_fresh_driver() {
        // `all` generates each dataset once and runs each distinct join
        // once, replaying its events into every document that uses it: the
        // tables and documents must not show it.
        let (all, docs) = run_documented(tiny(), "all", "all");
        let mut alone = String::new();
        let paper = FIGURES.map(|fig| fig.name);
        for name in ["table1"].into_iter().chain(paper).chain(["ablations"]) {
            let (out, mut own) = run_documented(tiny(), &format!("alone-{name}"), name);
            alone.push_str(&out);
            let file = format!("{name}_telemetry.json");
            match own.remove(&file) {
                Some(doc) => assert_eq!(masked(docs[&file].clone()), masked(doc), "{name}"),
                None => assert!(!docs.contains_key(&file), "{name}"),
            }
        }
        assert_eq!(docs.len(), 10);
        assert_eq!(all, alone);
    }

    #[test]
    fn the_cell_key_tells_apart_every_config_that_reaches_a_join() {
        let exp = tiny();
        let data = [exp.dataset("Expo2D2M")];
        let runner = exp.runner();
        let key = |config| runner.cell_key(&data, &Cell::Gpu(0, config));
        let base = exp.config(0.1, GCG);
        let mut atomic = base.clone();
        atomic.gpu.cost.atomic += 1;
        let tight = BatchingConfig {
            balanced_queue: true,
            ..batching()
        };
        let keys = [
            key(base.clone()),
            key(base.clone().with_issue_override(IssueOrder::InOrder)),
            key(atomic),
            key(base.clone().with_batching(tight)),
            key(base.clone().with_sort_backend(SortBackend::Device)),
            key(exp.config(0.2, GCG)),
            key(exp.config(0.1, K8)),
            runner.cell_key(&data, &Cell::Cpu(0, 0.1)),
        ];
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:#?}");
        // The thread budget reaches no result or event.
        assert_eq!(key(base.clone().with_host_jobs(7)), keys[0]);
    }

    #[test]
    fn chaos_table_covers_every_profile_and_stays_exact() {
        let out = tiny().chaos();
        for profile in warpsim::FaultProfile::names() {
            assert!(out.contains(profile), "missing profile {profile}");
        }
        assert!(out.contains("clean"));
    }

    #[test]
    fn chaos_runs_on_the_chosen_sort_backend() {
        // Chaos builds its configs like every other experiment, so the
        // device pre-pass runs in its joins and records its sort phase.
        let mut exp = tiny();
        exp.sort_backend = SortBackend::Device;
        let (_, docs) = run_documented(exp, "chaos-device", "chaos");
        let doc = &docs["chaos_telemetry.json"];
        let events = doc.get("events").and_then(JsonValue::as_array).unwrap();
        let sorts = events
            .iter()
            .filter(|e| is(e, "scope", "executor.phase") && is(e, "name", "sort"))
            .count();
        assert!(sorts > 0, "no device sort phase in chaos's document");
    }

    #[test]
    fn chaos_claims_only_the_recoveries_its_columns_show() {
        // Under the device backend seeded faults also land on pre-pass
        // launches, which the planner absorbs without a batch retry.
        let mut exp = tiny();
        exp.sort_backend = SortBackend::Device;
        let out = exp.chaos();
        let rows: Vec<Vec<&str>> = out
            .lines()
            .filter(|l| l.starts_with("| "))
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        for row in &rows {
            if row[2] == "recovered, exact" {
                assert!(row[5] != "0/0/0" || row[6] != "0", "{row:?}");
            }
        }
        assert!(
            rows.iter().any(|row| row[2].starts_with("pre-pass")),
            "{out}"
        );
    }

    /// Runs the quick soak under `exec_mode` into a temp artifact directory
    /// (it panics on a wrong pair set or a broken makespan bound) and
    /// returns the `soak/iteration` events of its strictly parsed document.
    fn soak_iterations(exec_mode: ExecMode) -> Vec<JsonValue> {
        let mut exp = Experiments::new(ExperimentScale::quick());
        exp.exec_mode = exec_mode;
        let (_, docs) = run_documented(exp, &format!("soak-{}", exec_mode.label()), "soak");
        let doc = &docs["soak_telemetry.json"];
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(sj_telemetry::SCHEMA_VERSION)
        );
        let events = doc.get("events").and_then(JsonValue::as_array).unwrap();
        events
            .iter()
            .filter(|e| is(e, "scope", "soak") && is(e, "name", "iteration"))
            .cloned()
            .collect()
    }

    fn devices(iteration: &JsonValue) -> u64 {
        let fields = iteration.get("fields").unwrap();
        fields.get("devices").and_then(|d| d.as_u64()).unwrap()
    }

    #[test]
    fn soak_runs_green_and_writes_strict_telemetry() {
        let iterations = soak_iterations(ExecMode::Gpu);
        assert_eq!(iterations.len(), 8);
        let fleet_sizes: Vec<u64> = iterations.iter().map(devices).collect();
        assert_eq!(fleet_sizes, [1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn soak_hybrid_iteration_holds_the_exactness_invariant() {
        let iterations = soak_iterations(ExecMode::Hybrid);
        assert_eq!(iterations.len(), 8);
        assert!(iterations.iter().all(|i| devices(i) == 1));
    }

    #[test]
    fn scaling_table_covers_every_fleet_size_and_both_partitions() {
        let out = tiny().scaling();
        assert!(out.contains("workload"), "missing workload-aware rows");
        assert!(out.contains("count"), "missing equal-count rows");
        for devices in ["1", "2", "4", "8"] {
            assert!(out.contains(devices), "missing {devices}-device row");
        }
    }

    #[test]
    fn failover_rows_are_exact_and_account_for_the_loss() {
        let exp = tiny();
        let points = exp.failover_points();
        assert_eq!(
            points.iter().map(|p| p.mode).collect::<Vec<_>>(),
            vec!["clean", "reshard", "degrade"]
        );
        let clean = &points[0];
        assert_eq!(clean.reshard_rounds, 0, "clean run must not intervene");
        assert_eq!(clean.cpu_points, 0, "clean run must stay on the fleet");
        for p in &points[1..] {
            assert_eq!(p.pairs, clean.pairs, "{}: exactness broken", p.mode);
        }
        let reshard = &points[1];
        assert!(
            reshard.reshard_rounds >= 1 && reshard.reassigned_units > 0,
            "reshard row must move the lost device's units ({reshard:?})"
        );
        assert_eq!(reshard.cpu_points, 0, "survivors must absorb the loss");
        let degrade = &points[2];
        assert!(
            degrade.cpu_points > 0,
            "degrade row must fall back to the CPU ({degrade:?})"
        );
        assert_eq!(degrade.reshard_rounds, 0, "degrade must not re-shard");
        let table = exp.failover();
        for mode in ["clean", "reshard", "degrade"] {
            assert!(table.contains(mode), "missing {mode} row");
        }
    }

    #[test]
    fn hybrid_auto_cut_beats_both_single_backends_on_skewed_data() {
        let exp = tiny();
        let points = exp.hybrid_points();
        let by_mode = |m: &str| {
            points
                .iter()
                .find(|p| p.mode == m)
                .unwrap_or_else(|| panic!("missing {m} row"))
        };
        let gpu_only = by_mode("gpu-only");
        let cpu_only = by_mode("cpu-only");
        let auto = by_mode("auto");
        for p in &points {
            assert_eq!(p.pairs, gpu_only.pairs, "{}: exactness broken", p.mode);
        }
        assert_eq!(gpu_only.cpu_units, 0);
        assert_eq!(cpu_only.gpu_units, 0);
        // The acceptance row: on the skewed workload the measured cut must
        // land strictly below both single-backend makespans.
        assert!(
            auto.makespan_s < gpu_only.makespan_s && auto.makespan_s < cpu_only.makespan_s,
            "auto {:.6e} must beat gpu-only {:.6e} and cpu-only {:.6e}",
            auto.makespan_s,
            gpu_only.makespan_s,
            cpu_only.makespan_s
        );
        assert!(
            auto.cut > 0 && auto.cut < auto.units,
            "skewed data should split interior ({auto:?})"
        );
        let table = exp.hybrid();
        for mode in ["gpu-only", "cpu-only", "auto", "f=0.50"] {
            assert!(table.contains(mode), "missing {mode} row");
        }
    }

    #[test]
    fn hybrid_driver_reproduces_the_gpu_tables() {
        let exp = tiny();
        let single = exp.figure(&TABLE3);
        let mut hybrid = tiny();
        hybrid.exec_mode = ExecMode::Hybrid;
        assert_eq!(
            single,
            hybrid.figure(&TABLE3),
            "table3 must be exec-mode invariant"
        );
    }

    #[test]
    fn sharded_driver_reproduces_the_single_device_tables() {
        let exp = tiny();
        let single = exp.figure(&TABLE3);
        let mut sharded = tiny();
        sharded.devices = 4;
        assert_eq!(
            single,
            sharded.figure(&TABLE3),
            "table3 must be devices-invariant"
        );
    }

    #[test]
    fn ablations_cover_all_four() {
        let out = tiny().ablations();
        for marker in [
            "Ablation A",
            "Ablation B",
            "Ablation C",
            "Ablation D",
            "Ablation E",
        ] {
            assert!(out.contains(marker), "missing {marker}");
        }
    }
}
