//! fleet-hybrid: one Expo2D join through the three execution drivers with
//! host threads — a four-device fleet that loses a device at its first
//! launch and re-shards, the hybrid CPU/GPU co-executor with the measured
//! cut, and a single-device run whose planner sorts on the device.

use std::time::Instant;

use epsgrid::Point;
use simjoin::{
    BatchingConfig, HybridPolicy, JoinError, JoinReport, ResultSet, SelfJoin, SelfJoinConfig,
    ShardStrategy, SortBackend,
};
use superego::super_ego_join;
use warpsim::{DeviceFleet, FaultSchedule};

use crate::batch::{measure, superego_config, table_batching, Pass};
use crate::check::{sample_ids, sample_mismatches, PairPrint, Rng};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{join_call, JoinLayers};
use crate::{generate, Args, SETUP_REPEATS};

const DATASET: &str = "Expo2D2M";
/// Points: few enough that the merged result, 1.9M pairs, stays under
/// glibc's 32 MB mmap ceiling (see `batch::EXPO2D_DENSE`).
const POINTS: usize = 20_000;
const EPS: f32 = 0.2;
const DEVICES: usize = 4;
const LOST_DEVICE: usize = 1;
const SAMPLE_POINTS: usize = 256;

/// Host threads inside each join (fleet shards, batches, warps), and
/// worker threads of the hybrid CPU backend: two, or one on a one-core
/// machine.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Fleet,
    Hybrid,
    DeviceSort,
}

const OPS: [Op; 3] = [Op::Fleet, Op::Hybrid, Op::DeviceSort];

/// The experiments driver's failover and hybrid recipe: a batch capacity
/// of a 24th of the result (at most 64 batches), so the plan holds enough
/// units to shard and to cut.
fn config(pairs: u64) -> SelfJoinConfig {
    let batching = BatchingConfig {
        batch_result_capacity: pairs as usize / 24 + 64,
        max_batches: 64,
        ..table_batching()
    };
    SelfJoinConfig::optimized(EPS)
        .with_batching(batching)
        .with_host_jobs(threads())
}

/// What one driver call returned.
struct Ran {
    result: ResultSet,
    report: JoinReport,
    /// The driver's model seconds: the fleet or hybrid makespan, or the
    /// single-device response time.
    model_s: f64,
    /// Hybrid only: the plan units whose GPU results were kept (the cut).
    gpu_cut: Option<usize>,
}

/// Runs the workload and records its metrics in `out`.
pub fn run(args: &Args, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let pts: Vec<Point<2>> = generate(DATASET, POINTS, args.seed);
        generate_s.push(t.elapsed().as_secs_f64());
        let reference = super_ego_join(&pts, &superego_config(EPS)).pairs;
        let print = PairPrint::of(&reference);
        let base = config(print.count);
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPEATS {
            let sample = sample_ids(&mut Rng::new(args.seed), pts.len(), SAMPLE_POINTS);
            let bad = sample_mismatches(&pts, EPS, &reference, &sample);
            out.check(bad == 0, || {
                format!("SUPER-EGO: {bad} sampled neighbourhoods differ from a linear scan")
            });
        }
        inputs = Some((pts, print, base));
    }
    let (pts, print, base) = inputs.expect("set-up runs at least once");
    out.set("sjdata.generate_s", median(&generate_s));
    println!(
        "# inputs: {} points of {DATASET} at eps {EPS}, batch capacity {} pairs; ops: \
         {DEVICES}-device fleet losing device {LOST_DEVICE}, hybrid, device-sort run; \
         reference pairs {}",
        pts.len(),
        base.batching.batch_result_capacity,
        print.count
    );
    measure(args, out, median(&setup_s), |out, layers| {
        pass(&pts, &base, print, out, layers)
    });
    out.set("peak_heap_mb", crate::heap::peak_mb());
    out.set("host.peak_rss_mb", peak_rss_mb());
}

/// Runs the three drivers once, checking each merged pair set after its
/// timed region. With `layers`, attaches telemetry and records spans and
/// the drivers' own per-layer numbers.
fn pass(
    pts: &[Point<2>],
    base: &SelfJoinConfig,
    expected: PairPrint,
    out: &mut Outcome,
    mut layers: Option<&mut JoinLayers>,
) -> Pass {
    let traced = layers.is_some();
    let mut p = Pass::default();
    for op in OPS {
        let config = match op {
            Op::DeviceSort => base.clone().with_sort_backend(SortBackend::Device),
            Op::Fleet | Op::Hybrid => base.clone(),
        };
        let fleet = DeviceFleet::homogeneous(DEVICES, config.gpu)
            .with_fault_schedule(LOST_DEVICE, FaultSchedule::new().device_lost_at(0));
        let (layer, metric) = match op {
            Op::Fleet => ("fleet", "fleet.run_s"),
            Op::Hybrid => ("hybrid", "hybrid.run_s"),
            Op::DeviceSort => ("executor", "executor.run_s"),
        };
        let t = Instant::now();
        let ran = join_call(pts, config, layers.as_deref_mut(), layer, |join| {
            drive(join, op, &fleet, out, traced)
        });
        let secs = t.elapsed().as_secs_f64();
        let (ran, call_ns, times) = match ran {
            Ok(ran) => ran,
            Err(e) => {
                out.check(false, || format!("{op:?}: {e}"));
                continue;
            }
        };
        if let Some(layers) = layers.as_deref_mut() {
            layers.add_report(&ran.report);
            out.add(metric, call_ns as f64 * 1e-9);
            if let Some(cut) = ran.gpu_cut {
                // Units kept over units the GPU executed: it re-runs the
                // whole plan today, so the CPU's share is computed twice.
                let executed = times.launches.max(1) as f64;
                out.set("hybrid.gpu_kept_frac", cut as f64 / executed);
            }
        }
        p.wall_s += secs;
        p.model_s += ran.model_s;
        let got = PairPrint::of(ran.result.pairs());
        out.check(got == expected, || {
            format!("{op:?}: pair set {got:?} differs from SUPER-EGO's {expected:?}")
        });
    }
    p
}

/// Calls the driver `op` names. With `traced`, records its own report's
/// per-layer numbers.
fn drive(
    join: &SelfJoin<'_, 2>,
    op: Op,
    fleet: &DeviceFleet,
    out: &mut Outcome,
    traced: bool,
) -> Result<Ran, JoinError> {
    Ok(match op {
        Op::Fleet => {
            let o = join.run_on_fleet(fleet, ShardStrategy::WorkloadAware)?;
            if traced {
                let r = &o.fleet.recovery;
                out.set("fleet.makespan_model_s", o.fleet.makespan_s);
                out.set("fleet.reshard_rounds", f64::from(r.reshard_rounds));
                out.set("fleet.reassigned_units", r.reassigned_units as f64);
                out.set("fleet.imbalance", o.fleet.workload_imbalance());
            }
            Ran {
                model_s: o.fleet.makespan_s,
                result: o.result,
                report: o.report,
                gpu_cut: None,
            }
        }
        Op::Hybrid => {
            let policy = HybridPolicy::default().with_jobs(threads());
            let o = join.run_hybrid(&policy)?;
            if traced {
                out.set("hybrid.cpu_model_s", o.hybrid.cpu_model_s);
                out.set("hybrid.makespan_model_s", o.hybrid.makespan_s);
            }
            Ran {
                model_s: o.hybrid.makespan_s,
                gpu_cut: Some(o.hybrid.cut),
                result: o.result,
                report: o.report,
            }
        }
        Op::DeviceSort => {
            let o = join.run()?;
            if traced {
                let pp = o.report.prepass.unwrap_or_default();
                out.set("prepass.model_s", pp.model_s());
                out.set(
                    "prepass.launches",
                    (pp.sort_launches + pp.scan_launches) as f64,
                );
            }
            Ran {
                model_s: o.report.response_time_s(),
                result: o.result,
                report: o.report,
                gpu_cut: None,
            }
        }
    })
}
