//! The experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--quick | --scale <f>] [--eps-stride <n>] [--jobs <n>] \
//!             [--step-mode stepped|runlength] \
//!             [--devices <n>] [--lose-device <d>] [--sort-backend host|device] \
//!             [--exec-mode gpu|cpu|hybrid] [--seed <u64>] [--no-telemetry] \
//!             [all|table1|fig9|table3|fig10|table4|fig11|table5|fig12|table6|fig13|ablations|
//!              chaos|scaling|failover|hybrid|serve|soak]...
//! ```
//!
//! With no experiment names, runs everything in `all`. Output is markdown
//! on stdout; tee it into `EXPERIMENTS.md` material. Each experiment but
//! `table1` also writes a schema-versioned telemetry document to
//! `results/<name>_telemetry.json`; with `--no-telemetry` the run writes no
//! file at all (the sink never changes results). Tables report model
//! seconds; host wall-clock is measured by `perfbench` (see
//! `perfbench/README.md`), not here. Within one run each dataset is
//! generated once and each distinct join runs once, its events replayed
//! into every document that uses it, so naming experiments together
//! prints and writes what naming each alone would.
//!
//! Neither `--jobs`, `--step-mode` nor `--devices` can change any table:
//! sweep cells are reassembled in input order, the intra-join layers merge
//! in plan order, the two step modes are bit-identical and the sharded
//! executor's canonical merged report is device-count invariant. Nor can
//! `--sort-backend`, except chaos's: the device sort/scan pre-pass is
//! differentially tested against the host planner (its cost lands only in
//! telemetry), but its launches go through the join's fault plane, so
//! chaos's seeded faults land on other launches under `device`. CI diffs
//! stdout across the step modes, `--devices 1` vs `--devices 4`, host vs
//! device sorting (chaos left out) and `--jobs 1` vs `--jobs 4`.
//!
//! `--jobs N` (default: one per core) is the one thread budget: the joins
//! of a sweep run N at a time, each on N / joins threads (at least one),
//! and a lone join runs on N threads inside (fleet shards, batches), so
//! the two layers never nest.
//!
//! `soak` replays eight seeded fault schedules from seed base `--seed`
//! (default 0) over fleets, or over the co-executor under `--exec-mode
//! hybrid`; `--exec-mode cpu` has no device to fault and is refused.

use simjoin::SortBackend;
use sj_bench::experiments::{ExperimentScale, Experiments};
use warpsim::StepMode;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--scale <factor>] [--eps-stride <n>] [--jobs <n>] [--step-mode stepped|runlength] [--devices <n>] [--lose-device <d>] [--sort-backend host|device] [--exec-mode gpu|cpu|hybrid] [--seed <u64>] [--no-telemetry] [EXPERIMENT]...\n\
         experiments: all, table1, fig9, table3, fig10, table4, fig11, table5, fig12, table6, fig13, ablations, chaos, scaling, failover, hybrid, serve, soak\n\
         (chaos, scaling, failover, hybrid, serve, and soak are not part of `all`: chaos exercises the fault-injection plane,\n\
          scaling shards the join across a simulated multi-device fleet, failover compares reshard\n\
          recovery against CPU degradation after a mid-join device loss, hybrid sweeps the CPU/GPU\n\
          co-executor's split fraction against the measured auto cut, serve replays a churn-and-query\n\
          request stream through the always-on daemon with and without ε-coalescing, soak replays eight seeded fault\n\
          schedules from seed base --seed and checks each stays exact or ends in a typed error (--exec-mode hybrid soaks\n\
          the co-executor, cpu is refused); --lose-device <d> injects a\n\
          device-lost fault into every fleet run — requires --devices > d; --exec-mode hybrid routes\n\
          every single-device cell through the co-executor — tables still diff clean;\n\
          --sort-backend device changes only the chaos table (its faults land on pre-pass launches);\n\
          --jobs N runs N sweep cells at a time and threads a lone join N ways —\n\
          it leaves every table and telemetry artifact bit-identical)"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = ExperimentScale::full();
    let mut names: Vec<String> = Vec::new();
    let mut telemetry = true;
    let mut jobs: Option<usize> = None;
    let mut step_mode = StepMode::default();
    let mut devices = 1usize;
    let mut lose_device: Option<usize> = None;
    let mut sort_backend = SortBackend::default();
    let mut exec_mode = simjoin::ExecMode::default();
    let mut seed = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = ExperimentScale::quick(),
            "--no-telemetry" => telemetry = false,
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale.points_scale = v.parse().unwrap_or_else(|_| usage());
            }
            "--eps-stride" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale.eps_stride = v.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                jobs = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--step-mode" => {
                let v = args.next().unwrap_or_else(|| usage());
                step_mode = StepMode::parse(&v).unwrap_or_else(|| usage());
            }
            "--devices" => {
                let v = args.next().unwrap_or_else(|| usage());
                devices = v.parse().unwrap_or_else(|_| usage());
                if devices == 0 {
                    usage();
                }
            }
            "--lose-device" => {
                let v = args.next().unwrap_or_else(|| usage());
                lose_device = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--sort-backend" => {
                let v = args.next().unwrap_or_else(|| usage());
                sort_backend = SortBackend::by_name(&v).unwrap_or_else(|| usage());
            }
            "--exec-mode" => {
                let v = args.next().unwrap_or_else(|| usage());
                exec_mode = simjoin::ExecMode::by_name(&v).unwrap_or_else(|| usage());
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        names.push("all".into());
    }
    let mut exp = Experiments::new(scale);
    if telemetry {
        exp.artifact_dir = Some("results".into());
    }
    if let Some(jobs) = jobs {
        exp.jobs = jobs.max(1);
    }
    exp.step_mode = step_mode;
    exp.devices = devices;
    exp.lose_device = lose_device;
    exp.sort_backend = sort_backend;
    exp.exec_mode = exec_mode;
    exp.seed = seed;
    if exec_mode == simjoin::ExecMode::Cpu && names.iter().any(|n| n == "soak") {
        eprintln!("soak faults a simulated device: use --exec-mode gpu or hybrid");
        std::process::exit(2);
    }
    if let Some(lost) = lose_device {
        if lost >= devices || devices < 2 {
            eprintln!("--lose-device {lost} needs --devices > {}", lost.max(1));
            std::process::exit(2);
        }
    }
    println!(
        "# Experiment suite (points_scale = {}, eps_stride = {})",
        scale.points_scale, scale.eps_stride
    );
    for name in names {
        if exp.run(&name).is_none() {
            usage();
        }
    }
}
