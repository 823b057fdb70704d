//! Regeneration of every table and figure in the paper's evaluation (§IV).
//!
//! Each function prints (and returns) one artifact:
//!
//! | function | paper artifact |
//! |---|---|
//! | [`Experiments::table1`] | Table I — dataset inventory |
//! | [`Experiments::fig9`] | Fig. 9 — response time vs ε: GPUCALCGLOBAL vs UNICOMP vs LID-UNICOMP |
//! | [`Experiments::table3`] | Table III — WEE & time for the three patterns |
//! | [`Experiments::fig10`] | Fig. 10 — k = 1 vs k = 8 |
//! | [`Experiments::table4`] | Table IV — WEE & time, k = 1 vs k = 8 |
//! | [`Experiments::fig11`] | Fig. 11 — baseline vs SORTBYWL vs WORKQUEUE |
//! | [`Experiments::table5`] | Table V — WEE & time, baseline vs WORKQUEUE (k = 8) |
//! | [`Experiments::fig12`] | Fig. 12 — real-world datasets vs SUPER-EGO |
//! | [`Experiments::table6`] | Table VI — WEE & time, all variants, real-world datasets |
//! | [`Experiments::fig13`] | Fig. 13 — speedups of the combined optimization |
//! | [`Experiments::ablations`] | DESIGN.md §5 — scheduler order, k sweep, estimator, atomic cost |
//! | [`Experiments::chaos`] | DESIGN.md §7 — the resilient executor under seeded fault profiles |
//! | [`Experiments::scaling`] | DESIGN.md §8 — multi-device sharding, workload-aware vs equal-count |
//! | [`Experiments::failover`] | DESIGN.md §10 — reshard recovery vs CPU degradation after a device loss |
//! | [`Experiments::hybrid`] | DESIGN.md §11 — CPU/GPU co-execution, forced split fractions vs the measured auto cut |
//! | [`Experiments::serve`] | DESIGN.md §13 — the serve daemon's churn-and-query stream, coalesced vs serial |

use std::cell::RefCell;
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
use warpsim::{CostModel, FaultSchedule, IssueOrder, StepMode};

use crate::cpu_model::CpuModel;
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

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct Experiments {
    /// Scale knobs.
    pub scale: ExperimentScale,
    /// CPU comparator model.
    pub cpu: CpuModel,
    /// Batching parameters shared by all runs (`b_s` scaled down from the
    /// paper's 10⁸ to suit simulator-scale result sets).
    pub batching: BatchingConfig,
    /// Directory receiving one schema-versioned telemetry JSON document per
    /// experiment (`None` disables artifact writing — runs are unaffected
    /// either way; the sink is observation-only).
    pub artifact_dir: Option<PathBuf>,
    /// Host worker threads used for the (dataset, ε, variant) sweep cells of
    /// the figure experiments. Tables and telemetry artifacts are identical
    /// for any value: each cell records into a sink of its own, and the
    /// cells' events join the experiment's document in cell order.
    pub jobs: usize,
    /// Host worker threads used *inside* each join (fleet shards,
    /// within-device batches, warp micro-execution) — the
    /// [`SelfJoinConfig::with_host_jobs`] knob, `0` = auto. Orthogonal to
    /// `jobs`, which parallelizes across sweep cells: canonical reports,
    /// tables, and telemetry artifacts are bit-identical for any value.
    pub host_jobs: usize,
    /// Warp simulator step mode for every GPU run (host-side only; simulated
    /// results are bit-identical across modes — CI diffs both).
    pub step_mode: StepMode,
    /// Simulated devices every GPU run is sharded across (workload-aware
    /// partitioning). The canonical merged report is device-count invariant,
    /// so tables are bit-identical for any value — CI diffs 1 vs 4.
    pub devices: usize,
    /// Where the planner's sorts and prefix sums run (host folds or the
    /// on-device kernel chains). Planning is backend-invariant — the device
    /// pre-pass shows up only in telemetry — so tables are bit-identical
    /// across backends too; CI diffs host vs device.
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
    sink: RefCell<Option<Arc<JsonTelemetry>>>,
}

/// The `Sync` subset of the driver that executes one sweep cell, so cells
/// can run on [`par_map`] worker threads (`Experiments` itself holds a
/// `RefCell` and cannot cross threads).
#[derive(Clone)]
struct CellRunner {
    sink: Option<Arc<JsonTelemetry>>,
    cpu: CpuModel,
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
            record_gpu_run(sink.as_ref(), &r);
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

    fn sego(&self, pts: &DynPoints, eps: f32) -> CpuRunResult {
        run_superego(pts, eps, &self.cpu, &CostModel::default(), self.telemetry())
            .expect("SUPER-EGO runs on every dataset dimensionality")
    }
}

/// Records the canonical summary event of one GPU cell run.
fn record_gpu_run(sink: &JsonTelemetry, r: &GpuRunResult) {
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

/// One sweep cell of a figure experiment: a GPU variant run or the SUPER-EGO
/// CPU comparator, against the dataset at `usize`-indexed position.
// A figure's cell list holds tens of entries for the duration of one sweep,
// so the Gpu variant's inline config outweighing Cpu is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Cell {
    Gpu(usize, SelfJoinConfig),
    Cpu(usize, f32),
}

/// The outcome of a [`Cell`].
enum CellOut {
    Gpu(GpuRunResult),
    Cpu(CpuRunResult),
}

impl CellOut {
    fn gpu(self) -> GpuRunResult {
        match self {
            CellOut::Gpu(r) => r,
            CellOut::Cpu(_) => panic!("expected a GPU cell"),
        }
    }

    fn cpu(self) -> CpuRunResult {
        match self {
            CellOut::Cpu(r) => r,
            CellOut::Gpu(_) => panic!("expected a CPU cell"),
        }
    }
}

// Sweep cells run on `simjoin::pool::par_map` — the one shared pool behind
// the hybrid CPU backend and the executor's intra-join layers. Results come
// back in input order no matter how cells were scheduled, so every table
// built from them is deterministic.
use simjoin::pool::par_map;

impl Experiments {
    /// Creates a driver at the given scale.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            scale,
            artifact_dir: None,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            host_jobs: 0,
            step_mode: StepMode::default(),
            devices: 1,
            sort_backend: SortBackend::default(),
            lose_device: None,
            exec_mode: ExecMode::default(),
            sink: RefCell::new(None),
            cpu: CpuModel::default(),
            batching: BatchingConfig {
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
            },
        }
    }

    fn dataset(&self, name: &str) -> (DatasetSpec, DynPoints) {
        let spec = DatasetSpec::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
        let n = ((spec.default_points as f64 * self.scale.points_scale) as usize).max(500);
        let pts = spec.generate(n);
        (spec, pts)
    }

    fn epsilons(&self, spec: &DatasetSpec) -> Vec<f32> {
        spec.epsilons
            .iter()
            .copied()
            .step_by(self.scale.eps_stride.max(1))
            .collect()
    }

    fn config(&self, eps: f32) -> SelfJoinConfig {
        SelfJoinConfig::new(eps)
            .with_batching(self.batching)
            .with_step_mode(self.step_mode)
            .with_sort_backend(self.sort_backend)
            .with_host_jobs(self.host_jobs)
    }

    /// Snapshot of the state a sweep cell needs, detached from the
    /// non-`Sync` driver so it can cross into [`par_map`] workers.
    fn runner(&self) -> CellRunner {
        CellRunner {
            sink: self.sink.borrow().clone(),
            cpu: self.cpu,
            devices: self.devices,
            lose_device: self.lose_device,
            exec_mode: self.exec_mode,
        }
    }

    /// Opens a fresh telemetry document for `name` (no-op when
    /// `artifact_dir` is unset). Subsequent [`Self::run`] / [`Self::sego`]
    /// calls record into it until [`Self::end_experiment`].
    fn begin_experiment(&self, name: &str) {
        if self.artifact_dir.is_none() {
            return;
        }
        let sink = JsonTelemetry::new(name);
        sink.record(
            Event::new("bench", "experiment")
                .str("name", name)
                .f64("points_scale", self.scale.points_scale)
                .u64("eps_stride", self.scale.eps_stride as u64),
        );
        *self.sink.borrow_mut() = Some(Arc::new(sink));
    }

    /// Writes the open telemetry document to
    /// `<artifact_dir>/<name>_telemetry.json` and closes it.
    fn end_experiment(&self, name: &str) {
        let Some(sink) = self.sink.borrow_mut().take() else {
            return;
        };
        let Some(dir) = self.artifact_dir.as_ref() else {
            return;
        };
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
    }

    fn run(&self, pts: &DynPoints, config: SelfJoinConfig) -> GpuRunResult {
        self.runner().run(pts, config)
    }

    /// The batching of the multi-unit experiments: probe the result size
    /// at the table batching, then shrink the capacity to a 24th of it (at
    /// most 64 batches) so the plan holds enough units to shard, cut, or
    /// spread across threads.
    fn unit_batching(&self, pts: &DynPoints, eps: f32) -> BatchingConfig {
        let probe = self.run(
            pts,
            SelfJoinConfig::optimized(eps).with_batching(self.batching),
        );
        BatchingConfig {
            batch_result_capacity: probe.pairs / 24 + 64,
            max_batches: 64,
            ..self.batching
        }
    }

    /// Executes a flat list of sweep [`Cell`]s on `self.jobs` workers and
    /// returns their outcomes in input order. Each cell records into its
    /// own sink, and the cells' events are appended to the experiment's
    /// document in cell order, so the artifact is the same for any `jobs`.
    fn sweep(&self, data: &[(DatasetSpec, DynPoints)], cells: Vec<Cell>) -> Vec<CellOut> {
        let runner = self.runner();
        let outs = par_map(self.jobs, cells, |cell| {
            let cell_runner = runner.with_own_sink();
            let out = match cell {
                Cell::Gpu(di, config) => CellOut::Gpu(cell_runner.run(&data[di].1, config)),
                Cell::Cpu(di, eps) => CellOut::Cpu(cell_runner.sego(&data[di].1, eps)),
            };
            (out, cell_runner.sink)
        });
        outs.into_iter()
            .map(|(out, cell_sink)| {
                if let (Some(sink), Some(cell_sink)) = (&runner.sink, cell_sink) {
                    cell_sink.events().into_iter().for_each(|e| sink.record(e));
                }
                out
            })
            .collect()
    }

    /// Table I: the dataset inventory (paper size vs scaled size).
    pub fn table1(&self) -> String {
        let mut t = Table::new(vec![
            "Dataset",
            "n",
            "|D| (paper)",
            "|D| (scaled)",
            "family",
        ]);
        for spec in DatasetSpec::table1() {
            let n = ((spec.default_points as f64 * self.scale.points_scale) as usize).max(500);
            t.row(vec![
                spec.name.clone(),
                spec.dims.to_string(),
                spec.paper_points.to_string(),
                n.to_string(),
                format!("{:?}", spec.family),
            ]);
        }
        emit("Table I — datasets", t.render())
    }

    /// Fig. 9: response time vs ε for the three cell access patterns
    /// (k = 1) on Expo2D/Expo6D/Unif2D/Unif6D.
    pub fn fig9(&self) -> String {
        self.begin_experiment("fig9");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "GPUCALCGLOBAL",
            "UNICOMP",
            "LID-UNICOMP",
            "best",
        ]);
        let data: Vec<_> = ["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"]
            .into_iter()
            .map(|n| self.dataset(n))
            .collect();
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (di, (spec, _)) in data.iter().enumerate() {
            for eps in self.epsilons(spec) {
                rows.push((di, eps));
                cells.push(Cell::Gpu(di, self.config(eps)));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps).with_pattern(AccessPattern::Unicomp),
                ));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps).with_pattern(AccessPattern::LidUnicomp),
                ));
            }
        }
        let mut results = self.sweep(&data, cells).into_iter();
        for (di, eps) in rows {
            let full = results.next().unwrap().gpu();
            let uni = results.next().unwrap().gpu();
            let lid = results.next().unwrap().gpu();
            let best = [
                ("GPUCALCGLOBAL", full.response_s),
                ("UNICOMP", uni.response_s),
                ("LID-UNICOMP", lid.response_s),
            ]
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
            t.row(vec![
                data[di].0.name.clone(),
                format!("{eps}"),
                fmt_time(full.response_s),
                fmt_time(uni.response_s),
                fmt_time(lid.response_s),
                best.to_string(),
            ]);
        }
        let out = emit(
            "Fig. 9 — cell access patterns, response time vs eps (k = 1)",
            t.render(),
        );
        self.end_experiment("fig9");
        out
    }

    /// Table III: WEE and response time of the three patterns at one
    /// selected ε per dataset.
    pub fn table3(&self) -> String {
        self.begin_experiment("table3");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "GCG WEE(%)",
            "GCG time",
            "UNI WEE(%)",
            "UNI time",
            "LID WEE(%)",
            "LID time",
        ]);
        for name in ["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"] {
            let (spec, pts) = self.dataset(name);
            let eps = selected_eps(&spec);
            let full = self.run(&pts, self.config(eps));
            let uni = self.run(&pts, self.config(eps).with_pattern(AccessPattern::Unicomp));
            let lid = self.run(
                &pts,
                self.config(eps).with_pattern(AccessPattern::LidUnicomp),
            );
            t.row(vec![
                name.to_string(),
                format!("{eps}"),
                fmt_pct(full.wee),
                fmt_time(full.response_s),
                fmt_pct(uni.wee),
                fmt_time(uni.response_s),
                fmt_pct(lid.wee),
                fmt_time(lid.response_s),
            ]);
        }
        let out = emit(
            "Table III — WEE and time of the cell access patterns",
            t.render(),
        );
        self.end_experiment("table3");
        out
    }

    /// Fig. 10: k = 1 vs k = 8 for GPUCALCGLOBAL.
    pub fn fig10(&self) -> String {
        self.begin_experiment("fig10");
        let mut t = Table::new(vec!["dataset", "eps", "k=1", "k=8", "k=8 speedup"]);
        let data: Vec<_> = ["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"]
            .into_iter()
            .map(|n| self.dataset(n))
            .collect();
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (di, (spec, _)) in data.iter().enumerate() {
            for eps in self.epsilons(spec) {
                rows.push((di, eps));
                cells.push(Cell::Gpu(di, self.config(eps)));
                cells.push(Cell::Gpu(di, self.config(eps).with_k(8)));
            }
        }
        let mut results = self.sweep(&data, cells).into_iter();
        for (di, eps) in rows {
            let k1 = results.next().unwrap().gpu();
            let k8 = results.next().unwrap().gpu();
            t.row(vec![
                data[di].0.name.clone(),
                format!("{eps}"),
                fmt_time(k1.response_s),
                fmt_time(k8.response_s),
                fmt_speedup(k1.response_s / k8.response_s),
            ]);
        }
        let out = emit(
            "Fig. 10 — thread granularity (k = 1 vs k = 8), GPUCALCGLOBAL",
            t.render(),
        );
        self.end_experiment("fig10");
        out
    }

    /// Table IV: WEE and time for k = 1 vs k = 8 at one ε per dataset.
    pub fn table4(&self) -> String {
        self.begin_experiment("table4");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "k=1 WEE(%)",
            "k=1 time",
            "k=8 WEE(%)",
            "k=8 time",
        ]);
        for name in ["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"] {
            let (spec, pts) = self.dataset(name);
            let eps = selected_eps(&spec);
            let k1 = self.run(&pts, self.config(eps));
            let k8 = self.run(&pts, self.config(eps).with_k(8));
            t.row(vec![
                name.to_string(),
                format!("{eps}"),
                fmt_pct(k1.wee),
                fmt_time(k1.response_s),
                fmt_pct(k8.wee),
                fmt_time(k8.response_s),
            ]);
        }
        let out = emit("Table IV — WEE and time, k = 1 vs k = 8", t.render());
        self.end_experiment("table4");
        out
    }

    /// Fig. 11: baseline vs SORTBYWL vs WORKQUEUE (k = 1, FullWindow).
    pub fn fig11(&self) -> String {
        self.begin_experiment("fig11");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "GPUCALCGLOBAL",
            "SORTBYWL",
            "WORKQUEUE",
            "best",
        ]);
        let data: Vec<_> = ["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"]
            .into_iter()
            .map(|n| self.dataset(n))
            .collect();
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (di, (spec, _)) in data.iter().enumerate() {
            for eps in self.epsilons(spec) {
                rows.push((di, eps));
                cells.push(Cell::Gpu(di, self.config(eps)));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps).with_balancing(Balancing::SortByWorkload),
                ));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps).with_balancing(Balancing::WorkQueue),
                ));
            }
        }
        let mut results = self.sweep(&data, cells).into_iter();
        for (di, eps) in rows {
            let base = results.next().unwrap().gpu();
            let sorted = results.next().unwrap().gpu();
            let queued = results.next().unwrap().gpu();
            let best = [
                ("GPUCALCGLOBAL", base.response_s),
                ("SORTBYWL", sorted.response_s),
                ("WORKQUEUE", queued.response_s),
            ]
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
            t.row(vec![
                data[di].0.name.clone(),
                format!("{eps}"),
                fmt_time(base.response_s),
                fmt_time(sorted.response_s),
                fmt_time(queued.response_s),
                best.to_string(),
            ]);
        }
        let out = emit("Fig. 11 — workload sorting and the work queue", t.render());
        self.end_experiment("fig11");
        out
    }

    /// Table V: WEE and time, GPUCALCGLOBAL vs WORKQUEUE with k = 8.
    pub fn table5(&self) -> String {
        self.begin_experiment("table5");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "GCG WEE(%)",
            "GCG time",
            "WQ k=8 WEE(%)",
            "WQ k=8 time",
        ]);
        for name in ["Expo2D2M", "Expo6D2M", "Unif2D2M", "Unif6D2M"] {
            let (spec, pts) = self.dataset(name);
            let eps = selected_eps(&spec);
            let base = self.run(&pts, self.config(eps));
            let wq = self.run(
                &pts,
                self.config(eps)
                    .with_balancing(Balancing::WorkQueue)
                    .with_k(8),
            );
            t.row(vec![
                name.to_string(),
                format!("{eps}"),
                fmt_pct(base.wee),
                fmt_time(base.response_s),
                fmt_pct(wq.wee),
                fmt_time(wq.response_s),
            ]);
        }
        let out = emit(
            "Table V — WEE and time, baseline vs WORKQUEUE (k = 8)",
            t.render(),
        );
        self.end_experiment("table5");
        out
    }

    /// Fig. 12: the real-world datasets, all WORKQUEUE combinations vs the
    /// baseline and vs SUPER-EGO.
    pub fn fig12(&self) -> String {
        self.begin_experiment("fig12");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "GPUCALCGLOBAL",
            "SUPER-EGO",
            "WQ",
            "WQ+LID",
            "WQ+k8",
            "WQ+LID+k8",
        ]);
        let data: Vec<_> = ["SW2DA", "SW2DB", "SW3DA", "SW3DB", "Gaia"]
            .into_iter()
            .map(|n| self.dataset(n))
            .collect();
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (di, (spec, _)) in data.iter().enumerate() {
            for eps in self.epsilons(spec) {
                rows.push((di, eps));
                cells.push(Cell::Gpu(di, self.config(eps)));
                cells.push(Cell::Cpu(di, eps));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps).with_balancing(Balancing::WorkQueue),
                ));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps)
                        .with_balancing(Balancing::WorkQueue)
                        .with_pattern(AccessPattern::LidUnicomp),
                ));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps)
                        .with_balancing(Balancing::WorkQueue)
                        .with_k(8),
                ));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps)
                        .with_balancing(Balancing::WorkQueue)
                        .with_pattern(AccessPattern::LidUnicomp)
                        .with_k(8),
                ));
            }
        }
        let mut results = self.sweep(&data, cells).into_iter();
        for (di, eps) in rows {
            let base = results.next().unwrap().gpu();
            let sego = results.next().unwrap().cpu();
            let wq = results.next().unwrap().gpu();
            let wq_lid = results.next().unwrap().gpu();
            let wq_k8 = results.next().unwrap().gpu();
            let all = results.next().unwrap().gpu();
            t.row(vec![
                data[di].0.name.clone(),
                format!("{eps}"),
                fmt_time(base.response_s),
                fmt_time(sego.model_s),
                fmt_time(wq.response_s),
                fmt_time(wq_lid.response_s),
                fmt_time(wq_k8.response_s),
                fmt_time(all.response_s),
            ]);
        }
        let out = emit(
            "Fig. 12 — real-world datasets, response time vs eps",
            t.render(),
        );
        self.end_experiment("fig12");
        out
    }

    /// Table VI: WEE and time for all variants on the real-world datasets.
    pub fn table6(&self) -> String {
        self.begin_experiment("table6");
        let mut t = Table::new(vec![
            "dataset",
            "eps",
            "GCG WEE(%)",
            "GCG time",
            "WQ WEE(%)",
            "WQ+LID WEE(%)",
            "WQ+k8 WEE(%)",
            "WQ+LID+k8 WEE(%)",
            "WQ+LID+k8 time",
        ]);
        for name in ["SW2DA", "SW2DB", "SW3DA", "SW3DB", "Gaia"] {
            let (spec, pts) = self.dataset(name);
            let eps = selected_eps(&spec);
            let base = self.run(&pts, self.config(eps));
            let wq = self.run(&pts, self.config(eps).with_balancing(Balancing::WorkQueue));
            let wq_lid = self.run(
                &pts,
                self.config(eps)
                    .with_balancing(Balancing::WorkQueue)
                    .with_pattern(AccessPattern::LidUnicomp),
            );
            let wq_k8 = self.run(
                &pts,
                self.config(eps)
                    .with_balancing(Balancing::WorkQueue)
                    .with_k(8),
            );
            let all = self.run(
                &pts,
                self.config(eps)
                    .with_balancing(Balancing::WorkQueue)
                    .with_pattern(AccessPattern::LidUnicomp)
                    .with_k(8),
            );
            t.row(vec![
                name.to_string(),
                format!("{eps}"),
                fmt_pct(base.wee),
                fmt_time(base.response_s),
                fmt_pct(wq.wee),
                fmt_pct(wq_lid.wee),
                fmt_pct(wq_k8.wee),
                fmt_pct(all.wee),
                fmt_time(all.response_s),
            ]);
        }
        let out = emit("Table VI — WEE and time on real-world datasets", t.render());
        self.end_experiment("table6");
        out
    }

    /// Fig. 13: speedups of WORKQUEUE + LID-UNICOMP + k = 8 over SUPER-EGO
    /// (a) and over GPUCALCGLOBAL (b), across every dataset and ε.
    pub fn fig13(&self) -> String {
        self.begin_experiment("fig13");
        let mut t = Table::new(vec!["dataset", "eps", "vs SUPER-EGO", "vs GPUCALCGLOBAL"]);
        let mut vs_cpu: Vec<f64> = Vec::new();
        let mut vs_gpu: Vec<f64> = Vec::new();
        let all_names: Vec<String> = DatasetSpec::table1().into_iter().map(|s| s.name).collect();
        let data: Vec<_> = all_names.iter().map(|n| self.dataset(n)).collect();
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (di, (spec, _)) in data.iter().enumerate() {
            for eps in self.epsilons(spec) {
                rows.push((di, eps));
                cells.push(Cell::Gpu(di, self.config(eps)));
                cells.push(Cell::Cpu(di, eps));
                cells.push(Cell::Gpu(
                    di,
                    self.config(eps)
                        .with_balancing(Balancing::WorkQueue)
                        .with_pattern(AccessPattern::LidUnicomp)
                        .with_k(8),
                ));
            }
        }
        let mut results = self.sweep(&data, cells).into_iter();
        for (di, eps) in rows {
            let base = results.next().unwrap().gpu();
            let sego = results.next().unwrap().cpu();
            let best = results.next().unwrap().gpu();
            let s_cpu = sego.model_s / best.response_s;
            let s_gpu = base.response_s / best.response_s;
            vs_cpu.push(s_cpu);
            vs_gpu.push(s_gpu);
            t.row(vec![
                data[di].0.name.clone(),
                format!("{eps}"),
                fmt_speedup(s_cpu),
                fmt_speedup(s_gpu),
            ]);
        }
        let summary = |v: &[f64]| {
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let avg = v.iter().sum::<f64>() / v.len().max(1) as f64;
            (max, avg)
        };
        let (cpu_max, cpu_avg) = summary(&vs_cpu);
        let (gpu_max, gpu_avg) = summary(&vs_gpu);
        let mut out = t.render();
        out.push_str(&format!(
            "\nSummary: vs SUPER-EGO max {} avg {} (paper: 10.7×, 2.5×); \
             vs GPUCALCGLOBAL max {} avg {} (paper: 9.7×, 1.6×)\n",
            fmt_speedup(cpu_max),
            fmt_speedup(cpu_avg),
            fmt_speedup(gpu_max),
            fmt_speedup(gpu_avg),
        ));
        let out = emit("Fig. 13 — speedup of WORKQUEUE + LID-UNICOMP + k = 8", out);
        self.end_experiment("fig13");
        out
    }

    /// Ablations from DESIGN.md §5.
    pub fn ablations(&self) -> String {
        self.begin_experiment("ablations");
        let mut out = String::new();

        // (a) Warp issue order under SORTBYWL: isolates the WORKQUEUE's
        // forced execution order from its packing.
        let (spec, pts) = self.dataset("Expo2D2M");
        let eps = selected_eps(&spec);
        let mut t = Table::new(vec!["variant", "issue order", "time", "WEE(%)"]);
        let base = self.run(&pts, self.config(eps));
        t.row(vec![
            "baseline".into(),
            "arbitrary".into(),
            fmt_time(base.response_s),
            fmt_pct(base.wee),
        ]);
        for (label, order) in [
            ("arbitrary", IssueOrder::Arbitrary { seed: 0xC0FFEE }),
            ("in-order", IssueOrder::InOrder),
            ("reversed", IssueOrder::Reversed),
        ] {
            let r = self.run(
                &pts,
                self.config(eps)
                    .with_balancing(Balancing::SortByWorkload)
                    .with_issue_override(order),
            );
            t.row(vec![
                "SORTBYWL".into(),
                label.into(),
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
        for k in [1u32, 2, 4, 8, 16, 32] {
            let r = self.run(&pts, self.config(eps).with_k(k));
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
        for (label, balancing) in [
            ("strided (baseline)", Balancing::None),
            ("prefix (workqueue)", Balancing::WorkQueue),
        ] {
            let cfg = self.config(eps).with_balancing(balancing);
            let (estimate, plan) = {
                let fixed = pts.as_fixed::<2>().unwrap();
                let join = simjoin::SelfJoin::new(&fixed, cfg.clone()).unwrap();
                join.plan()
            };
            let r = self.run(&pts, cfg);
            t.row(vec![
                label.to_string(),
                estimate.estimated_total.to_string(),
                plan.num_batches().to_string(),
                r.pairs.to_string(),
            ]);
        }
        out.push_str(&emit(
            "Ablation C — result-size estimator strategies (Expo2D)",
            t.render(),
        ));

        // (d) Atomic-cost sensitivity of the WORKQUEUE.
        let mut t = Table::new(vec!["atomic cost (cycles)", "time", "WEE(%)"]);
        for atomic in [10u32, 40, 160, 640] {
            let mut cfg = self.config(eps).with_balancing(Balancing::WorkQueue);
            cfg.gpu.cost.atomic = atomic;
            let r = self.run(&pts, cfg);
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
        // work): per-batch result spread and total time.
        let mut t = Table::new(vec!["chunking", "batches", "max/mean batch pairs", "time"]);
        let tight = BatchingConfig {
            batch_result_capacity: 500_000,
            ..self.batching
        };
        for (label, balanced) in [("fixed (paper)", false), ("balanced (§V)", true)] {
            let cfg = self
                .config(eps)
                .with_balancing(Balancing::WorkQueue)
                .with_batching(BatchingConfig {
                    balanced_queue: balanced,
                    ..tight
                });
            let fixed_pts = pts.as_fixed::<2>().unwrap();
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
        self.end_experiment("ablations");
        out
    }

    /// Resilience table (not part of the paper; not in `run_all`): the
    /// optimized variant under each named fault profile at a fixed seed,
    /// reporting what recovery cost and whether the result stayed exact.
    pub fn chaos(&self) -> String {
        self.begin_experiment("chaos");
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
        let (spec, pts) = self.dataset("Expo2D2M");
        let eps = selected_eps(&spec);
        // Probe the result size, then tighten the batch capacity so the run
        // spans several launches — otherwise most schedule entries sit past
        // the last launch index and nothing injects.
        let probe = self.run(
            &pts,
            SelfJoinConfig::optimized(eps).with_batching(self.batching),
        );
        let batching = simjoin::BatchingConfig {
            batch_result_capacity: probe.pairs / 6 + 64,
            ..self.batching
        };
        let config = SelfJoinConfig::optimized(eps).with_batching(batching);
        let clean = self.run(&pts, config.clone());
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
        for profile_name in warpsim::FaultProfile::names() {
            let profile = warpsim::FaultProfile::by_name(profile_name).expect("named profile");
            let plane = warpsim::FaultPlane::seeded(0xC4A05, &profile);
            let runner = self.runner();
            let join = DynSelfJoin::new(&pts, config.clone())
                .with_telemetry(runner.telemetry())
                .with_fault_plane(&plane);
            match run_gpu(&join, &ExecTarget::Gpu) {
                Err(error) => t.row(vec![
                    profile_name.to_string(),
                    format!("typed error: {error}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
                Ok((r, outcome)) => {
                    assert_eq!(
                        r.pairs, clean.pairs,
                        "chaos run under `{profile_name}` lost pairs"
                    );
                    let d = outcome.report.degradation.unwrap_or_default();
                    t.row(vec![
                        profile_name.to_string(),
                        if d.points_degraded > 0 {
                            "degraded, exact".into()
                        } else if plane.injected_faults() > 0 {
                            "recovered, exact".into()
                        } else {
                            "clean (no fault landed)".into()
                        },
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
        let out = emit(
            "Chaos — resilient executor under seeded fault profiles",
            t.render(),
        );
        self.end_experiment("chaos");
        out
    }

    /// One measured point of [`Self::scaling`]: the fleet sweep over
    /// `devices × partition strategy`, all from the same global plan.
    pub(crate) fn scaling_points(&self) -> Vec<ScalingPoint> {
        let (spec, pts) = self.dataset("Expo2D2M");
        let eps = selected_eps(&spec);
        // Probe the result size, then tighten the batch capacity so the
        // plan holds enough units for an 8-way partition to be meaningful.
        let batching = self.unit_batching(&pts, eps);
        let config = SelfJoinConfig::optimized(eps).with_batching(batching);
        let runner = self.runner();
        let mut points = Vec::new();
        for devices in [1usize, 2, 4, 8] {
            for strategy in [ShardStrategy::WorkloadAware, ShardStrategy::EqualCount] {
                if devices == 1 && strategy != ShardStrategy::WorkloadAware {
                    continue;
                }
                let (r, fleet) = runner.run_sharded(&pts, config.clone(), devices, strategy);
                if let Some(sink) = self.sink.borrow().as_ref() {
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
                points.push(ScalingPoint {
                    devices,
                    partition: strategy.label(),
                    makespan_s: fleet.makespan_s,
                    imbalance: fleet.workload_imbalance(),
                    jain: fleet.jain_fairness(),
                    canonical_s: r.response_s,
                    batches: r.batches,
                });
            }
        }
        points
    }

    /// Multi-device scaling table (not part of the paper; not in
    /// `run_all`): the optimized variant on the skewed Expo2D dataset,
    /// sharded across 1–8 simulated devices with workload-aware vs
    /// equal-count partitioning. The canonical merged time is device-count
    /// invariant by construction; what scales is the *fleet makespan*, and
    /// on skewed data the workload-aware cut should beat equal-count.
    pub fn scaling(&self) -> String {
        self.begin_experiment("scaling");
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
        let points = self.scaling_points();
        let single = points.first().map_or(0.0, |p| p.makespan_s);
        for p in &points {
            t.row(vec![
                p.devices.to_string(),
                p.partition.to_string(),
                fmt_time(p.makespan_s),
                fmt_speedup(single / p.makespan_s),
                format!("{:.3}", p.imbalance),
                format!("{:.3}", p.jain),
                fmt_time(p.canonical_s),
                p.batches.to_string(),
            ]);
        }
        let out = emit(
            "Scaling — multi-device sharding, workload-aware vs equal-count",
            t.render(),
        );
        self.end_experiment("scaling");
        out
    }

    /// One measured point of [`Self::failover`]: the same 4-device join
    /// under a clean fleet, a mid-join device loss with reshard recovery,
    /// and the same loss with CPU degradation.
    pub(crate) fn failover_points(&self) -> Vec<FailoverPoint> {
        const DEVICES: usize = 4;
        const LOST_DEVICE: usize = 1;
        let (spec, pts) = self.dataset("Unif2D2M");
        let eps = selected_eps(&spec);
        // Tighten the batch capacity (as in the scaling sweep) so the plan
        // holds enough units that the lost device's region is non-trivial.
        let batching = self.unit_batching(&pts, eps);
        let mut points = Vec::new();
        for (mode, recovery, faulted) in [
            ("clean", RecoveryPolicy::Reshard, false),
            ("reshard", RecoveryPolicy::Reshard, true),
            ("degrade", RecoveryPolicy::Degrade, true),
        ] {
            let config = SelfJoinConfig::optimized(eps)
                .with_batching(batching)
                .with_recovery(recovery);
            let mut fleet = warpsim::DeviceFleet::homogeneous(DEVICES, config.gpu);
            if faulted {
                fleet =
                    fleet.with_fault_schedule(LOST_DEVICE, FaultSchedule::new().device_lost_at(0));
            }
            let sink = self.sink.borrow().clone();
            let runner = self.runner();
            let join = DynSelfJoin::new(&pts, config).with_telemetry(runner.telemetry());
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
            if let Some(s) = sink.as_ref() {
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

    /// Failover comparison table (not part of the paper; not in `run_all`):
    /// device 1 of a 4-device fleet latches `DeviceLost` on its first
    /// launch. Re-sharding its unexecuted units onto the three survivors is
    /// compared against degrading them to the exact CPU fallback; the pair
    /// set is identical in all three rows by the exactness invariant.
    pub fn failover(&self) -> String {
        self.begin_experiment("failover");
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
        let out = emit(
            "Failover — one device lost mid-join: reshard vs CPU degradation",
            t.render(),
        );
        self.end_experiment("failover");
        out
    }

    /// One measured point of [`Self::hybrid`]: the co-executor on the
    /// skewed Expo2D workload at one forced split fraction (or the measured
    /// auto cut), against the same plan.
    pub(crate) fn hybrid_points(&self) -> Vec<HybridPoint> {
        let (spec, pts) = self.dataset("Expo2D2M");
        let eps = selected_eps(&spec);
        // WORKQUEUE sorting without balanced chunking leaves a light tail of
        // small units behind the heavy head — exactly the shape where
        // peeling the tail onto host workers shortens the GPU pipeline by
        // more than the tail costs on the CPU. Tighten the capacity (as in
        // the scaling sweep) so the plan holds enough units to cut.
        let batching = self.unit_batching(&pts, eps);
        let config = SelfJoinConfig::optimized(eps).with_batching(batching);
        let sink = self.sink.borrow().clone();
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
            let mut policy = HybridPolicy::default();
            if let Some(f) = fraction {
                policy = policy.with_forced_cpu_fraction(f);
            }
            let join = DynSelfJoin::new(&pts, config.clone()).with_telemetry(runner.telemetry());
            let (r, outcome) = run_gpu(&join, &ExecTarget::Hybrid(policy))
                .expect("hybrid join execution must succeed");
            let h = outcome.hybrid.expect("a hybrid target reports its cut");
            if let Some(s) = sink.as_ref() {
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

    /// Hybrid co-execution table (not part of the paper; not in `run_all`):
    /// the optimized variant on the skewed Expo2D dataset, co-executed
    /// across the simulated GPU and the modeled CPU backend at forced split
    /// fractions plus the measured auto cut. The pair set is identical in
    /// every row (each CPU unit is differentially checked against the GPU
    /// segment); what varies is the co-processed makespan, and the measured
    /// cut should land at or below both single-backend rows.
    pub fn hybrid(&self) -> String {
        self.begin_experiment("hybrid");
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
        let out = emit(
            "Hybrid — CPU/GPU co-execution, forced splits vs the measured cut",
            t.render(),
        );
        self.end_experiment("hybrid");
        out
    }

    /// The serve throughput comparison: the same churn-and-query request
    /// stream through the always-on daemon in coalesced mode (admission
    /// queue merges same-ε requests into one launch, barrier-flushed by
    /// mutations) and in the serial baseline (one launch per request).
    /// Answers are asserted identical across the two modes — coalescing is
    /// a scheduling optimization, never a semantic one — and the coalesced
    /// mode must beat the serial baseline on total launch model seconds.
    pub(crate) fn serve_points(&self) -> Vec<ServePoint> {
        const ROUNDS: usize = 5;
        const BURST: usize = 6;
        let (spec, pts) = self.dataset("Expo2D2M");
        let eps = selected_eps(&spec);
        let fixed: Vec<[f32; 2]> = pts.as_fixed::<2>().expect("Expo2D is 2-D");
        let sink = self.sink.borrow().clone();
        let mut points = Vec::new();
        let mut transcripts: Vec<Vec<String>> = Vec::new();
        let runner = self.runner();
        for (mode, coalesce) in [("coalesced", true), ("serial", false)] {
            let config = SelfJoinConfig::optimized(eps).with_batching(self.batching);
            let serve_cfg = ServeConfig {
                queue_capacity: BURST + 4,
                coalesce,
                ..ServeConfig::default()
            };
            let mut session = ServeSession::new(fixed.clone(), config, serve_cfg)
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
            if let Some(s) = sink.as_ref() {
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
            points.push(ServePoint {
                mode,
                requests: report.requests,
                admitted: report.queries + report.joins,
                launches: report.launches,
                coalesced_requests: report.coalesced_requests,
                cache_hits: report.cache_hits,
                incremental_reindexes: report.incremental_reindexes,
                full_rebuilds: report.full_rebuilds,
                execute_model_s: report.execute_model_s,
                total_p50_s: report.total_p50_s,
                total_p99_s: report.total_p99_s,
            });
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "serve invariant violated: coalesced and serial modes answered differently"
        );
        points
    }

    /// Serve daemon table (not part of the paper; not in `run_all`): the
    /// coalesced admission queue vs the serial one-launch-per-request
    /// baseline on an identical churn-and-query stream (rows from
    /// `serve_points`).
    pub fn serve(&self) -> String {
        self.begin_experiment("serve");
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
        let points = self.serve_points();
        for p in &points {
            t.row(vec![
                p.mode.to_string(),
                p.requests.to_string(),
                p.admitted.to_string(),
                p.launches.to_string(),
                p.coalesced_requests.to_string(),
                p.cache_hits.to_string(),
                format!("{}/{}", p.incremental_reindexes, p.full_rebuilds),
                fmt_time(p.execute_model_s),
                fmt_time(p.total_p50_s),
                fmt_time(p.total_p99_s),
            ]);
        }
        let (coalesced, serial) = (&points[0], &points[1]);
        assert!(
            coalesced.execute_model_s < serial.execute_model_s,
            "serve acceptance violated: coalesced total {} model s is not below serial {}",
            coalesced.execute_model_s,
            serial.execute_model_s
        );
        let out = emit(
            &format!(
                "Serve — coalesced admission vs serial baseline \
                 ({:.2}x less launch time)",
                serial.execute_model_s / coalesced.execute_model_s
            ),
            t.render(),
        );
        self.end_experiment("serve");
        out
    }

    /// Runs everything, in paper order.
    pub fn run_all(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.table1());
        out.push_str(&self.fig9());
        out.push_str(&self.table3());
        out.push_str(&self.fig10());
        out.push_str(&self.table4());
        out.push_str(&self.fig11());
        out.push_str(&self.table5());
        out.push_str(&self.fig12());
        out.push_str(&self.table6());
        out.push_str(&self.fig13());
        out.push_str(&self.ablations());
        out
    }
}

/// One measured point of the multi-device scaling sweep
/// ([`Experiments::scaling_points`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalingPoint {
    /// Simulated devices in the fleet.
    pub devices: usize,
    /// Partition strategy label (`"workload"` or `"count"`).
    pub partition: &'static str,
    /// Fleet makespan (slowest shard) in model seconds.
    pub makespan_s: f64,
    /// Max/mean per-shard workload ratio (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Jain's fairness index of per-shard response times (1.0 = perfectly
    /// fair).
    pub jain: f64,
    /// Canonical merged response time in model seconds (device-count
    /// invariant).
    pub canonical_s: f64,
    /// Batches in the canonical merged report.
    pub batches: usize,
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

/// One measured serve-daemon mode ([`Experiments::serve_points`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServePoint {
    /// Row label: `"coalesced"` or `"serial"`.
    pub mode: &'static str,
    /// Requests admitted or answered, including mutations and control ops.
    pub requests: u64,
    /// Launch-bearing requests (queries + whole joins).
    pub admitted: u64,
    /// Batched kernel launches the session paid for.
    pub launches: u64,
    /// Requests that shared a launch with at least one other request.
    pub coalesced_requests: u64,
    /// Requests answered from the epoch result cache without a launch.
    pub cache_hits: u64,
    /// Mutations absorbed by incremental grid maintenance.
    pub incremental_reindexes: u64,
    /// Mutations that escalated to a full grid rebuild.
    pub full_rebuilds: u64,
    /// Total launch time across the session, model seconds.
    pub execute_model_s: f64,
    /// Median request latency (queue + execute), model seconds.
    pub total_p50_s: f64,
    /// Tail request latency, model seconds.
    pub total_p99_s: f64,
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
    use super::*;

    fn tiny() -> Experiments {
        Experiments::new(ExperimentScale {
            points_scale: 0.02,
            eps_stride: 6,
        })
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
        let out = tiny().fig9();
        assert!(out.contains("Expo2D2M"));
        assert!(out.contains("Unif6D2M"));
        assert!(out.contains("LID-UNICOMP"));
    }

    #[test]
    fn fig9_artifact_is_the_same_for_any_sweep_worker_count() {
        use sj_telemetry::json::{self, JsonValue};
        // Host-time observations vary run to run; everything else must not.
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
                JsonValue::Array(items) => {
                    JsonValue::Array(items.into_iter().map(masked).collect())
                }
                v => v,
            }
        }
        let doc = |jobs: usize| {
            let dir = std::env::temp_dir()
                .join(format!("sj-bench-fig9-jobs{jobs}-{}", std::process::id()));
            let mut exp = tiny();
            exp.jobs = jobs;
            exp.artifact_dir = Some(dir.clone());
            exp.fig9();
            let text = std::fs::read_to_string(dir.join("fig9_telemetry.json")).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            masked(json::parse(&text).unwrap())
        };
        let serial = doc(1);
        let events = serial.get("events").and_then(JsonValue::as_array).unwrap();
        assert!(events.len() > 1, "fig9 records its cells' events");
        assert_eq!(doc(3), serial);
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
        let single = exp.table3();
        let mut hybrid = tiny();
        hybrid.exec_mode = ExecMode::Hybrid;
        assert_eq!(
            single,
            hybrid.table3(),
            "table3 must be exec-mode invariant"
        );
    }

    #[test]
    fn sharded_driver_reproduces_the_single_device_tables() {
        let exp = tiny();
        let single = exp.table3();
        let mut sharded = tiny();
        sharded.devices = 4;
        assert_eq!(single, sharded.table3(), "table3 must be devices-invariant");
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
