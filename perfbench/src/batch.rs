//! The batch workloads: the paper's four kernel variants plus SUPER-EGO over
//! one dataset, one join after another, as a reproducer builds a table.

use std::time::Instant;

use epsgrid::{GridIndex, Point};
use simjoin::kernels::ResolvedPatterns;
use simjoin::{AccessPattern, Balancing, BatchingConfig, SelfJoinConfig};
use superego::{super_ego_join, SuperEgoConfig};

use crate::check::{sample_ids, sample_mismatches, PairPrint, Rng};
use crate::report::{minor_faults, peak_rss_mb, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{join_call, write_pass, JoinLayers, Span};
use crate::{generate, Args, SETUP_REPEATS};

/// A dataset and the ε values its table is built at.
#[derive(Debug)]
pub struct BatchWorkload {
    /// Table I dataset the points are drawn from.
    pub dataset: &'static str,
    /// Points generated.
    pub points: usize,
    /// ε values; every variant and SUPER-EGO runs at each.
    pub epsilons: &'static [f32],
}

/// Skewed Expo2D in the paper's imbalance regime, where warp stepping
/// dominates the host time. At 20k points the largest result, 1.9M pairs
/// at ε 0.2, stays under glibc's 32 MB mmap ceiling, so the allocator
/// reuses its buffers instead of mapping and faulting them in afresh for
/// every join; at 50k (11.8M pairs) those page faults and that buffer
/// traffic made the pass time follow memory contention from other work on
/// the machine.
pub const EXPO2D_DENSE: BatchWorkload = BatchWorkload {
    dataset: "Expo2D2M",
    points: 20_000,
    epsilons: &[0.1, 0.2],
};

/// Unif6D with about one point per non-empty cell: pattern resolution
/// and workload profiling dominate, not warp distance work.
pub const UNIF6D_SPARSE: BatchWorkload = BatchWorkload {
    dataset: "Unif6D2M",
    points: 50_000,
    epsilons: &[0.4],
};

/// Host threads inside each join: one, so the batch workloads measure
/// single-core simulator work whatever the machine.
pub const HOST_JOBS: usize = 1;
/// SUPER-EGO worker threads, as a measured variant and as the reference.
pub const SUPEREGO_THREADS: usize = 1;
/// Points whose neighbourhoods are checked against a linear scan.
const SAMPLE_POINTS: usize = 256;

/// The experiments driver's table batching: `b_s` = 2M pairs, at most 8
/// batches, and transfers fast enough that kernels dominate, as in the
/// paper's regime.
pub fn table_batching() -> BatchingConfig {
    BatchingConfig {
        batch_result_capacity: 2_000_000,
        max_batches: 8,
        transfer_bandwidth: 400.0e9,
        ..BatchingConfig::default()
    }
}

/// GPUCALCGLOBAL k=1, LID-UNICOMP k=1, LID-UNICOMP+SORTBYWL k=8 and
/// WORKQUEUE+LID-UNICOMP k=8 at `eps`.
fn variants(eps: f32) -> [SelfJoinConfig; 4] {
    let lid = SelfJoinConfig::new(eps).with_pattern(AccessPattern::LidUnicomp);
    [
        SelfJoinConfig::new(eps),
        lid.clone(),
        lid.with_balancing(Balancing::SortByWorkload).with_k(8),
        SelfJoinConfig::optimized(eps),
    ]
    .map(|c| c.with_batching(table_batching()).with_host_jobs(HOST_JOBS))
}

#[derive(Debug, Clone)]
enum Op {
    Join(Box<SelfJoinConfig>),
    SuperEgo(f32),
}

impl Op {
    fn eps(&self) -> f32 {
        match self {
            Op::Join(c) => c.epsilon,
            Op::SuperEgo(eps) => *eps,
        }
    }
}

/// SUPER-EGO at `eps` with its thread count pinned.
pub fn superego_config(eps: f32) -> SuperEgoConfig {
    SuperEgoConfig {
        threads: SUPEREGO_THREADS,
        ..SuperEgoConfig::new(eps)
    }
}

/// One pass through a workload's op list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Σ op host times; the answer checks between ops are excluded.
    pub wall_s: f64,
    /// Σ model seconds of the pass's joins.
    pub model_s: f64,
}

/// Runs `workload` and records its metrics in `out`.
pub fn run(workload: &BatchWorkload, args: &Args, out: &mut Outcome) {
    match workload.dataset {
        "Expo2D2M" => run_dims::<2>(workload, args, out),
        "Unif6D2M" => run_dims::<6>(workload, args, out),
        other => unreachable!("no batch workload over {other}"),
    }
}

fn run_dims<const N: usize>(workload: &BatchWorkload, args: &Args, out: &mut Outcome) {
    let ops: Vec<Op> = workload
        .epsilons
        .iter()
        .flat_map(|&eps| {
            let joins = variants(eps).into_iter().map(|c| Op::Join(Box::new(c)));
            joins.chain([Op::SuperEgo(eps)])
        })
        .collect();

    // Set-up: the dataset and SUPER-EGO's reference pair sets, repeated so
    // the set-up time is a median; the last repetition's reference is also
    // checked against a linear scan on a seeded sample.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let pts: Vec<Point<N>> = generate(workload.dataset, workload.points, args.seed);
        generate_s.push(t.elapsed().as_secs_f64());
        let refs: Vec<(f32, Vec<(u32, u32)>)> = workload
            .epsilons
            .iter()
            .map(|&eps| (eps, super_ego_join(&pts, &superego_config(eps)).pairs))
            .collect();
        let prints: Vec<(f32, PairPrint)> = refs
            .iter()
            .map(|(eps, pairs)| (*eps, PairPrint::of(pairs)))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPEATS {
            let sample = sample_ids(&mut Rng::new(args.seed), pts.len(), SAMPLE_POINTS);
            for (eps, pairs) in &refs {
                let bad = sample_mismatches(&pts, *eps, pairs, &sample);
                out.check(bad == 0, || {
                    format!("SUPER-EGO at eps {eps}: {bad} sampled neighbourhoods differ from a linear scan")
                });
            }
        }
        inputs = Some((pts, prints));
    }
    let (pts, refs) = inputs.expect("set-up runs at least once");
    out.set("sjdata.generate_s", median(&generate_s));
    println!(
        "# inputs: {} points of {} at eps {:?}; {} ops per pass ({} joins + SUPER-EGO per eps); \
         reference pairs {:?}",
        pts.len(),
        workload.dataset,
        workload.epsilons,
        ops.len(),
        ops.len() / workload.epsilons.len() - 1,
        refs.iter().map(|(_, p)| p.count).collect::<Vec<_>>()
    );
    measure(args, out, median(&setup_s), |out, layers| {
        pass(&pts, &ops, &refs, out, layers)
    });
    if args.trace {
        probe_hits(&pts, &ops, out);
    }
    out.set("peak_heap_mb", crate::heap::peak_mb());
    out.set("host.peak_rss_mb", peak_rss_mb());
}

/// The measuring part of a run of a workload without a request stream: a
/// warm-up pass, whose wall time is added to the median set-up time
/// `setup_s`, unpaced passes for `args.seconds`, and with `args.trace` one
/// traced pass, timed from start to end. Every pass's model seconds must
/// equal the warm-up pass's bit for bit. `host.minor_faults` is the
/// measured passes' page faults per pass.
///
/// A request here is one pass through the op list, one table's worth of
/// calls: `wall_s` and `p50_ms` are the median pass and `capacity_rps`
/// passes per second. No tail percentile is reported: a run holds too few
/// passes for one with ten passes beyond it.
pub fn measure(
    args: &Args,
    out: &mut Outcome,
    setup_s: f64,
    mut pass: impl FnMut(&mut Outcome, Option<&mut JoinLayers>) -> Pass,
) {
    let warm = pass(out, None);
    let mut walls = Vec::new();
    let faults = minor_faults();
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let p = pass(out, None);
        same_model(out, "measured", warm.model_s, p.model_s);
        walls.push(p.wall_s);
    }
    let faults_per_pass = (minor_faults() - faults) as f64 / walls.len() as f64;
    let wall_s = median(&walls);
    out.set("wall_s", wall_s);
    out.set("model_s", warm.model_s);
    out.set("p50_ms", percentile(&walls, 0.50) * 1e3);
    out.set("capacity_rps", 1.0 / wall_s);
    out.set("setup_s", setup_s + warm.wall_s);
    println!(
        "# passes: warm-up {} s, {} measured {walls:?} s, {faults_per_pass} page faults each",
        warm.wall_s,
        walls.len(),
    );
    println!("# digest: model_s {:#018x}", warm.model_s.to_bits());
    if args.trace {
        let mut layers = JoinLayers::default();
        let t = Instant::now();
        let traced = pass(out, Some(&mut layers));
        let pass_s = t.elapsed().as_secs_f64();
        same_model(out, "traced", warm.model_s, traced.model_s);
        layers.write(out);
        out.set("host.minor_faults", faults_per_pass);
        write_pass(out, &layers.spans, pass_s, wall_s);
    }
}

/// Counts a pass whose model seconds differ from the warm-up pass's by a
/// single bit as a failure: the model clock is deterministic.
pub fn same_model(out: &mut Outcome, which: &str, expected: f64, got: f64) {
    out.check(expected.to_bits() == got.to_bits(), || {
        format!("{which} pass model_s {got:e} differs from the warm-up pass's {expected:e}")
    });
}

/// Runs every op once, checking each answer against the reference after
/// its timed region. With `layers`, attaches telemetry to each join and
/// records the pass's spans and layer counters.
fn pass<const N: usize>(
    pts: &[Point<N>],
    ops: &[Op],
    refs: &[(f32, PairPrint)],
    out: &mut Outcome,
    mut layers: Option<&mut JoinLayers>,
) -> Pass {
    let mut p = Pass::default();
    for op in ops {
        let expected = refs
            .iter()
            .find(|(eps, _)| eps.to_bits() == op.eps().to_bits())
            .map(|(_, print)| *print);
        let (secs, print) = match op {
            Op::Join(config) => {
                let t = Instant::now();
                let joined = join_call(
                    pts,
                    (**config).clone(),
                    layers.as_deref_mut(),
                    "executor",
                    |join| join.run(),
                );
                let secs = t.elapsed().as_secs_f64();
                let (outcome, run_ns, _) = match joined {
                    Ok(joined) => joined,
                    Err(e) => {
                        out.check(false, || format!("{}: {e}", config.label()));
                        continue;
                    }
                };
                if let Some(layers) = layers.as_deref_mut() {
                    layers.add_report(&outcome.report);
                    out.add("executor.run_s", run_ns as f64 * 1e-9);
                }
                p.model_s += outcome.report.response_time_s();
                (secs, PairPrint::of(outcome.result.pairs()))
            }
            Op::SuperEgo(eps) => {
                let t = Instant::now();
                let se = super_ego_join(pts, &superego_config(*eps));
                let secs = t.elapsed().as_secs_f64();
                if let Some(layers) = layers.as_deref_mut() {
                    layers
                        .spans
                        .push(Span::new("superego", (secs * 1e9) as u64));
                    out.add("superego.wall_s", secs);
                }
                (secs, PairPrint::of(&se.pairs))
            }
        };
        p.wall_s += secs;
        out.check(Some(print) == expected, || {
            format!("{op:?}: pair set {print:?} differs from SUPER-EGO's {expected:?}")
        });
    }
    p
}

/// Share of resolved probes that find a non-empty cell, over the pass's
/// joins, from `ResolvedPatterns::compute` run outside the traced pass.
fn probe_hits<const N: usize>(pts: &[Point<N>], ops: &[Op], out: &mut Outcome) {
    let mut resolved: Vec<(f32, AccessPattern, u64, u64)> = Vec::new();
    let (mut hits, mut probes) = (0u64, 0u64);
    for op in ops {
        let Op::Join(c) = op else { continue };
        let known = resolved
            .iter()
            .find(|r| r.0.to_bits() == c.epsilon.to_bits() && r.1 == c.pattern)
            .copied();
        let (h, n) = match known {
            Some(r) => (r.2, r.3),
            None => {
                let Ok(grid) = GridIndex::build(pts, c.epsilon) else {
                    out.check(false, || format!("grid build at eps {}", c.epsilon));
                    continue;
                };
                let r = ResolvedPatterns::compute(&grid, c.pattern);
                let all = r.per_cell.iter().flatten();
                let h = all.clone().filter(|p| p.found.is_some()).count() as u64;
                let n = all.count() as u64;
                resolved.push((c.epsilon, c.pattern, h, n));
                (h, n)
            }
        };
        hits += h;
        probes += n;
    }
    out.set("kernels.probe_hit_frac", hits as f64 / probes.max(1) as f64);
}
