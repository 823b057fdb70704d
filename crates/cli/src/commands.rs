//! CLI subcommands.

use std::io::Write;
use std::path::Path;

use epsgrid::{DynPoints, Point};
use simjoin::{
    AccessPattern, Balancing, DynSelfJoin, ExecMode, ExecOutcome, ExecTarget, HybridPolicy,
    ResultSet, SelfJoinConfig, ShardStrategy, SortBackend, WithPoints,
};
use sj_telemetry::{JsonTelemetry, Telemetry, Value, SCHEMA_VERSION};
use sjdata::{io as dataio, DatasetSpec};
use warpsim::{DeviceFleet, FaultPlane, FaultProfile};

use crate::args::Parsed;

const USAGE: &str = "\
simjoin — GPU-simulated similarity self-join

USAGE:
  simjoin datasets
      List the named datasets of the paper's Table I.
  simjoin generate --dataset <name> --n <count> --output <path>
      Generate a dataset (.csv or binary by extension).
  simjoin join --input <path> --eps <f> [--k <n>|--k auto]
               [--pattern full|unicomp|lid] [--balancing none|sort|queue]
               [--balanced-queue] [--devices <n>] [--shard-strategy workload|count]
               [--recovery reshard|degrade] [--sort-backend host|device]
               [--exec-mode gpu|cpu|hybrid] [--cpu-fraction <f>] [--host-jobs <n>]
               [--output <pairs.csv>] [--verify] [--telemetry <telemetry.json>]
               [--fault-profile transient|device-lost|overflow|counter|stall|mixed]
               [--seed <u64>]
      Run the self-join and print the execution report. --verify checks the
      result against the SUPER-EGO CPU join. --devices N > 1 shards the plan
      across N simulated GPUs (workload-aware by default) and prints each
      device and the fleet makespan; the merged result and canonical report
      equal a single-device run. --recovery: a device failing mid-join has
      its unexecuted work re-sharded onto the survivors (default) or
      degraded to the exact CPU fallback. --exec-mode hybrid co-executes the
      plan on the GPU and host CPU workers, cut by measured per-backend cost
      (or at a forced --cpu-fraction), checking every unit both computed;
      --exec-mode cpu runs every unit on the checked CPU backend. Either way
      the pair set and canonical report equal --exec-mode gpu. --host-jobs N
      threads the join itself (default 0 = one per core); results and
      telemetry are bit-identical for any value.
      --telemetry attaches the observation-only JSON sink, prints the
      host-side phases and writes the sj-telemetry/v1 document.
      --fault-profile and/or --seed (default mixed, 0) replay a seeded fault
      schedule against the join (seed + d on fleet device d) and report the
      recovery. They imply --verify; a typed error is an acceptable outcome.
  simjoin stats --input <path> --eps <f>
      Print workload statistics (mean neighbors, cells, imbalance).
  simjoin serve --input <path> --eps <f> [--script <path>|--listen <addr>]
                [--pattern full|unicomp|lid] [--balancing none|sort|queue]
                [--k <n>] [--exec-mode gpu|cpu|hybrid] [--host-jobs <n>]
                [--queue-capacity <n>] [--no-coalesce] [--rebuild-limit <f>]
                [--output <telemetry.json>]
      Run the always-on serve daemon over the dataset: a line-delimited
      strict-JSON request loop answering exact ε-neighborhood queries
      ({\"op\": \"query\", \"point_id\": i, \"eps\": e}), whole self-joins
      ({\"op\": \"join\", \"eps\": e}), and streaming inserts/removes
      ({\"op\": \"insert\", \"point\": [..]} / {\"op\": \"remove\",
      \"point_id\": i}), plus flush, stats and shutdown. The ε-grid is
      maintained incrementally across churn (bit-identical to a fresh
      build); queued same-ε requests are coalesced into one launch and
      admission is bounded by --queue-capacity (typed rejections, never
      unbounded buffering). --no-coalesce is the serial baseline: one
      launch per request. Requests come from --script, a single --listen
      TCP connection, or stdin; EOF implies shutdown. Latencies are model
      seconds; the sj-telemetry/v1 document (serve.request /
      serve.coalesce / serve.reindex events) lands at --output (default
      serve_telemetry.json).

Every command rejects flags it does not accept. The chaos soak is `experiments soak`.
";

/// The flags shaping one join's configuration (see [`join_config`]).
const CONFIG_FLAGS: &str = "input eps k pattern balancing balanced-queue sort-backend host-jobs";

/// The flags choosing where a join executes (see [`target_flags`] and
/// [`hybrid_policy`]).
const TARGET_FLAGS: &str = "devices shard-strategy recovery exec-mode cpu-fraction";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(argv)?;
    if parsed.switch("help") || parsed.positional().is_empty() {
        println!("{USAGE}");
        return Ok(());
    }
    type Command = fn(&Parsed) -> Result<(), String>;
    let command = parsed.positional()[0].as_str();
    let (accepted, run): (String, Command) = match command {
        "datasets" => (String::new(), |_| datasets()),
        "generate" => ("dataset n output".into(), generate),
        "join" => (
            format!("{CONFIG_FLAGS} {TARGET_FLAGS} output verify telemetry fault-profile seed"),
            |parsed| join(parsed, &mut std::io::stdout()),
        ),
        "stats" => ("input eps".into(), stats),
        "serve" => (
            "input eps k pattern balancing exec-mode host-jobs script listen queue-capacity \
             no-coalesce rebuild-limit output"
                .into(),
            serve,
        ),
        other => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    parsed.only(command, &accepted)?;
    run(&parsed)
}

fn datasets() -> Result<(), String> {
    println!(
        "{:<10} {:>4} {:>12} {:>12}  epsilons",
        "name", "dims", "paper |D|", "scaled |D|"
    );
    for spec in DatasetSpec::table1() {
        println!(
            "{:<10} {:>4} {:>12} {:>12}  {:?}",
            spec.name, spec.dims, spec.paper_points, spec.default_points, spec.epsilons
        );
    }
    Ok(())
}

fn generate(parsed: &Parsed) -> Result<(), String> {
    let name = parsed.required("dataset")?;
    let spec = DatasetSpec::by_name(name)
        .ok_or_else(|| format!("unknown dataset `{name}` (see `simjoin datasets`)"))?;
    let n = parsed.parse_or("n", spec.default_points)?;
    let output = parsed.required("output")?;
    let points = spec.generate(n);
    dataio::write_path(Path::new(output), &points).map_err(|e| e.to_string())?;
    println!(
        "wrote {} points ({} dims) to {output}",
        points.len(),
        points.dims()
    );
    Ok(())
}

fn load(parsed: &Parsed) -> Result<DynPoints, String> {
    let input = parsed.required("input")?;
    dataio::read_path(Path::new(input)).map_err(|e| format!("reading {input}: {e}"))
}

/// `--eps`, required and validated by the same typed check (and with the
/// same message) the serve protocol and the library constructors apply,
/// before any dataset is loaded into a grid.
fn eps_flag(parsed: &Parsed) -> Result<f32, String> {
    simjoin::validate_epsilon(parsed.required_parse("eps")?)
        .map_err(|e| format!("flag --eps is invalid: {e}"))
}

fn pattern_flag(parsed: &Parsed) -> Result<AccessPattern, String> {
    match parsed.optional("pattern").unwrap_or("lid") {
        "full" | "gpucalcglobal" => Ok(AccessPattern::FullWindow),
        "unicomp" => Ok(AccessPattern::Unicomp),
        "lid" | "lid-unicomp" => Ok(AccessPattern::LidUnicomp),
        other => Err(format!("unknown pattern `{other}` (full|unicomp|lid)")),
    }
}

fn balancing_flag(parsed: &Parsed) -> Result<Balancing, String> {
    match parsed.optional("balancing").unwrap_or("queue") {
        "none" | "static" => Ok(Balancing::None),
        "sort" | "sortbywl" => Ok(Balancing::SortByWorkload),
        "queue" | "workqueue" => Ok(Balancing::WorkQueue),
        other => Err(format!("unknown balancing `{other}` (none|sort|queue)")),
    }
}

fn sort_backend_flag(parsed: &Parsed) -> Result<SortBackend, String> {
    match parsed.optional("sort-backend") {
        None => Ok(SortBackend::default()),
        Some(name) => SortBackend::by_name(name)
            .ok_or_else(|| format!("unknown sort backend `{name}` (host|device)")),
    }
}

fn recovery_flag(parsed: &Parsed) -> Result<simjoin::RecoveryPolicy, String> {
    match parsed.optional("recovery") {
        None => Ok(simjoin::RecoveryPolicy::default()),
        Some(name) => simjoin::RecoveryPolicy::by_name(name)
            .ok_or_else(|| format!("unknown recovery mode `{name}` (reshard|degrade)")),
    }
}

/// `--k <n>`, or `--k auto` (reported as `None`: the caller asks the
/// dataset for [`DynSelfJoin::recommended_k`]).
fn k_flag(parsed: &Parsed) -> Result<Option<u32>, String> {
    match parsed.optional("k") {
        Some("auto") => Ok(None),
        _ => parsed.parse_or("k", 1).map(Some),
    }
}

/// The join configuration of [`CONFIG_FLAGS`] at thread granularity `k`.
/// `--host-jobs <n>` sets the worker threads inside the join (`0`, the
/// default, = one per core). Results are bit-identical for any value.
fn join_config(parsed: &Parsed, eps: f32, k: u32) -> Result<SelfJoinConfig, String> {
    let mut config = SelfJoinConfig::new(eps)
        .with_pattern(pattern_flag(parsed)?)
        .with_balancing(balancing_flag(parsed)?)
        .with_k(k);
    config.batching.balanced_queue = parsed.switch("balanced-queue");
    config.sort_backend = sort_backend_flag(parsed)?;
    config.host_jobs = parsed.parse_or("host-jobs", config.host_jobs)?;
    Ok(config)
}

fn exec_mode_flag(parsed: &Parsed) -> Result<ExecMode, String> {
    match parsed.optional("exec-mode") {
        None => Ok(ExecMode::default()),
        Some(name) => ExecMode::by_name(name)
            .ok_or_else(|| format!("unknown exec mode `{name}` (gpu|cpu|hybrid)")),
    }
}

/// `--devices`, `--shard-strategy` and `--exec-mode`. The CPU and hybrid
/// modes co-execute against the host, so they run on one device only.
fn target_flags(parsed: &Parsed) -> Result<(usize, ShardStrategy, ExecMode), String> {
    let devices: usize = parsed.parse_or("devices", 1)?;
    if devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    let strategy_name = parsed.optional("shard-strategy").unwrap_or("workload");
    let strategy = ShardStrategy::by_name(strategy_name)
        .ok_or_else(|| format!("unknown shard strategy `{strategy_name}` (workload|count)"))?;
    let exec_mode = exec_mode_flag(parsed)?;
    if exec_mode != ExecMode::Gpu && devices > 1 {
        return Err("--exec-mode cpu|hybrid co-executes against the host; use --devices 1".into());
    }
    Ok((devices, strategy, exec_mode))
}

/// The hybrid policy for `mode`: `--cpu-fraction` forces the cut, and the
/// CPU pool runs the join's resolved `--host-jobs` workers.
fn hybrid_policy(
    parsed: &Parsed,
    mode: ExecMode,
    config: &SelfJoinConfig,
) -> Result<HybridPolicy, String> {
    let policy = HybridPolicy::default().with_jobs(config.resolved_host_jobs());
    let Some(f) = parsed.optional("cpu-fraction") else {
        return Ok(policy);
    };
    if mode == ExecMode::Cpu {
        return Err("--cpu-fraction conflicts with --exec-mode cpu (always 1.0)".into());
    }
    let f: f64 = f
        .parse()
        .map_err(|_| "flag --cpu-fraction has an invalid value")?;
    if !(0.0..=1.0).contains(&f) {
        return Err("--cpu-fraction must be within [0, 1]".into());
    }
    Ok(policy.with_forced_cpu_fraction(f))
}

/// `--fault-profile` and `--seed`: the profile and seed a faulted join
/// replays (`mixed` and 0 when only the other flag is given) and a label
/// naming both, or `None` when neither flag is.
fn fault_flags(parsed: &Parsed) -> Result<Option<(String, FaultProfile, u64)>, String> {
    if parsed.optional("fault-profile").is_none() && parsed.optional("seed").is_none() {
        return Ok(None);
    }
    let name = parsed.optional("fault-profile").unwrap_or("mixed");
    let profile = FaultProfile::by_name(name).ok_or_else(|| {
        format!(
            "unknown fault profile `{name}` (one of: {})",
            FaultProfile::names().join("|")
        )
    })?;
    let seed = parsed.parse_or("seed", 0)?;
    Ok(Some((format!("{name} (seed {seed})"), profile, seed)))
}

/// SUPER-EGO's pair set: the exact reference `--verify` checks against.
fn superego_pairs(points: &DynPoints, eps: f32) -> Result<ResultSet, String> {
    struct SuperEgo(f32);
    impl WithPoints for SuperEgo {
        type Output = ResultSet;
        fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output {
            let config = superego::SuperEgoConfig::new(self.0);
            ResultSet::from_pairs(superego::super_ego_join(points, &config).pairs)
        }
    }
    simjoin::with_points(points, SuperEgo(eps)).map_err(|e| e.to_string())
}

fn join(parsed: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let k = k_flag(parsed)?;
    let mut config =
        join_config(parsed, eps, k.unwrap_or(1))?.with_recovery(recovery_flag(parsed)?);
    let (devices, strategy, exec_mode) = target_flags(parsed)?;
    let policy = hybrid_policy(parsed, exec_mode, &config)?;
    let faults = fault_flags(parsed)?;
    let points = load(parsed)?;
    if k.is_none() {
        config.k = DynSelfJoin::new(&points, config.clone())
            .recommended_k()
            .map_err(|e| e.to_string())?;
    }

    // On a fleet every device draws its own schedule from the profile,
    // seeded `seed + device` so the fault timings decorrelate; a single
    // device replays one seeded plane.
    let mut fleet = (devices > 1).then(|| DeviceFleet::homogeneous(devices, config.gpu));
    let mut plane = None;
    if let Some((_, profile, seed)) = &faults {
        match fleet.take() {
            Some(f) => {
                fleet = Some((0..devices).fold(f, |f, d| {
                    f.with_seeded_faults(d, seed.wrapping_add(d as u64), profile)
                }))
            }
            None => plane = Some(FaultPlane::seeded(*seed, profile)),
        }
    }
    let sink = parsed.optional("telemetry").map(|_| {
        JsonTelemetry::new(format!(
            "simjoin join eps={eps} variant={} devices={devices} exec={} faults={}",
            config.label(),
            exec_mode.label(),
            faults.as_ref().map_or("none", |(label, ..)| label.as_str())
        ))
    });
    let mut join = DynSelfJoin::new(&points, config.clone());
    if let Some(sink) = &sink {
        join = join.with_telemetry(sink);
    }
    if let Some(plane) = &plane {
        join = join.with_fault_plane(plane);
    }
    let target = match &fleet {
        Some(fleet) => ExecTarget::Fleet(fleet, strategy),
        None => exec_mode.target(policy),
    };
    let outcome = match join.run(&target) {
        Err(e) if faults.is_some() && e.is_execution() => Err(e.to_string()),
        Err(e) => return Err(e.to_string()),
        Ok(outcome) => Ok(outcome),
    };
    let n = outcome.as_ref().map_or(0, |o| o.result.len());
    let verify = outcome.is_ok() && (parsed.switch("verify") || faults.is_some());
    if let (true, Ok(o)) = (verify, &outcome) {
        let reference = superego_pairs(&points, eps)?;
        if !o.result.same_pairs_as(&reference) {
            return Err(format!(
                "verification FAILED: the join found {n} pairs, SUPER-EGO found {}",
                reference.len()
            ));
        }
    }

    // Everything printed or written from here on fails only as I/O.
    let print = |out: &mut dyn Write| -> std::io::Result<()> {
        writeln!(out, "variant               : {}", config.label())?;
        let (mode, recovery) = (exec_mode.label(), config.recovery.label());
        writeln!(out, "exec mode             : {mode} ({recovery} recovery)")?;
        if let Some((label, ..)) = &faults {
            // Read after the run: the planes count the faults as they land.
            let injected = fleet.as_ref().map_or(0, DeviceFleet::injected_faults)
                + plane.as_ref().map_or(0, FaultPlane::injected_faults);
            writeln!(out, "fault profile         : {label}")?;
            writeln!(out, "injected faults       : {injected}")?;
        }
        match &outcome {
            Err(e) => writeln!(
                out,
                "outcome               : typed error, acceptable under faults — {e}"
            )?,
            Ok(outcome) => {
                if verify {
                    writeln!(
                        out,
                        "verification          : SUPER-EGO agrees on all {n} pairs"
                    )?;
                }
                print_report(out, outcome)?;
            }
        }
        if let (Some(path), Ok(outcome)) = (parsed.optional("output"), &outcome) {
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (a, b) in outcome.result.sorted_pairs() {
                writeln!(w, "{a},{b}")?;
            }
            w.flush()?;
            writeln!(out, "wrote {n} pairs to {path}")?;
        }
        if let (Some(sink), Some(path)) = (&sink, parsed.optional("telemetry")) {
            writeln!(out, "\nhost-side phases:")?;
            for event in sink.events().iter().filter(|e| e.scope == "executor.phase") {
                match (event.field("host_ns"), event.field("model_s")) {
                    (Some(Value::U64(ns)), _) => {
                        writeln!(out, "  {:<20} {:>10.3} ms", event.name, *ns as f64 / 1e6)?
                    }
                    // Device pre-pass phases (sort/scan) are model-time only.
                    (None, Some(Value::F64(s))) => {
                        writeln!(out, "  {:<20} {s:>10.6} model s", event.name)?
                    }
                    _ => writeln!(out, "  {:<20} {:>10.3} ms", event.name, 0.0)?,
                }
            }
            sink.write_to_file(Path::new(path))?;
            writeln!(
                out,
                "\nwrote {} events ({SCHEMA_VERSION}) to {path}",
                sink.len()
            )?;
        }
        Ok(())
    };
    print(out).map_err(|e| e.to_string())
}

/// The canonical report of a completed join, then every block its outcome
/// carries: the device pre-pass, the degradation, the fleet and the hybrid
/// accounting.
fn print_report(out: &mut dyn Write, outcome: &ExecOutcome) -> std::io::Result<()> {
    let report = &outcome.report;
    writeln!(out, "pairs found           : {}", outcome.result.len())?;
    writeln!(out, "batches               : {}", report.num_batches)?;
    writeln!(out, "distance calculations : {}", report.distance_calcs())?;
    if report.num_batches == 0 {
        writeln!(out, "warp exec efficiency  : n/a (no GPU batch ran)")?;
    } else {
        writeln!(out, "warp exec efficiency  : {:.1} %", report.wee() * 100.0)?;
    }
    writeln!(
        out,
        "response time (model) : {:.6} s",
        report.response_time_s()
    )?;
    if let Some(pp) = &report.prepass {
        writeln!(
            out,
            "device pre-pass       : {:.6} s (sort {:.6} s / {} launches, scan {:.6} s / {} launches){}",
            pp.model_s(),
            pp.sort_model_s,
            pp.sort_launches,
            pp.scan_model_s,
            pp.scan_launches,
            if pp.degraded_to_host {
                " [degraded to host]"
            } else {
                ""
            }
        )?;
    }
    if let Some(d) = &report.degradation {
        writeln!(out, "batches salvaged      : {}", d.batches_salvaged)?;
        writeln!(out, "points degraded to CPU: {}", d.points_degraded)?;
        writeln!(out, "cpu fallback pairs    : {}", d.cpu_pairs)?;
        writeln!(out, "cpu fallback (model)  : {:.6} s", d.cpu_model_s)?;
        writeln!(
            out,
            "retries               : {} transient, {} overflow splits, {} counter",
            d.transient_retries, d.overflow_splits, d.counter_retries
        )?;
        writeln!(out, "transfer stalls       : {}", d.transfer_stalls)?;
        writeln!(out, "backoff (model)       : {:.6} s", d.backoff_s)?;
        writeln!(out, "device lost           : {}", d.device_lost)?;
    }
    if let Some(fleet) = &outcome.fleet {
        writeln!(
            out,
            "devices               : {} ({} partitioning)",
            fleet.shards.len(),
            fleet.strategy.label()
        )?;
        for s in &fleet.shards {
            writeln!(
                out,
                "  device {}: units {:>4}..{:<4} queries {:>7} workload {:>10} \
                 batches {:>3} pairs {:>8} response {:.6} s{}{}",
                s.device,
                s.units.start,
                s.units.end,
                s.queries,
                s.workload,
                s.batches,
                s.pairs,
                s.response_time_s,
                match &s.degradation {
                    Some(d) if d.device_lost => " [device lost]",
                    Some(_) => " [degraded]",
                    None => "",
                },
                if s.reassigned_in > 0 || s.reassigned_out > 0 {
                    format!(" [+{} / -{} unit(s)]", s.reassigned_in, s.reassigned_out)
                } else {
                    String::new()
                }
            )?;
        }
        writeln!(out, "fleet makespan (model): {:.6} s", fleet.makespan_s)?;
        writeln!(
            out,
            "jain fairness         : {:.3} (per-shard response times)",
            fleet.jain_fairness()
        )?;
        let rec = &fleet.recovery;
        if rec.intervened() {
            writeln!(
                out,
                "fleet recovery        : {} reshard round(s), {} unit(s) reassigned, \
                 {} device(s) lost",
                rec.reshard_rounds, rec.reassigned_units, rec.devices_lost
            )?;
        } else {
            writeln!(out, "fleet recovery        : none (no intervention)")?;
        }
        if rec.cpu_last_resort_points > 0 {
            writeln!(
                out,
                "cpu last resort       : {} point(s), {} pair(s), {:.6} model s",
                rec.cpu_last_resort_points, rec.cpu_last_resort_pairs, rec.cpu_last_resort_model_s
            )?;
        }
        for h in &rec.health {
            writeln!(
                out,
                "  round {}: device {} -> {} ({} unit(s))",
                h.round,
                h.device,
                h.state.label(),
                h.units
            )?;
        }
        if fleet.makespan_s > 0.0 && report.response_time_s() > 0.0 {
            writeln!(
                out,
                "speedup vs 1 device   : {:.2}x",
                report.response_time_s() / fleet.makespan_s
            )?;
        }
    }
    if let Some(h) = &outcome.hybrid {
        writeln!(
            out,
            "hybrid cut            : unit {} of {} ({} chosen) — {} gpu / {} cpu / {} spilled unit(s)",
            h.cut,
            h.units,
            if h.forced { "forced" } else { "measured" },
            h.gpu_units,
            h.cpu_units,
            h.spilled_units
        )?;
        writeln!(
            out,
            "hybrid gpu side       : {:.6} model s ({} unit(s))",
            h.gpu_response_s, h.gpu_units
        )?;
        writeln!(
            out,
            "hybrid cpu side       : {:.6} model s ({} unit(s), {} jobs, {} distance calcs)",
            h.cpu_model_s, h.cpu_units, h.jobs, h.cpu_stats.distance_calcs
        )?;
        writeln!(out, "hybrid makespan       : {:.6} model s", h.makespan_s)?;
        if h.makespan_s > 0.0 && report.response_time_s() > 0.0 {
            writeln!(
                out,
                "speedup vs gpu only   : {:.2}x",
                report.response_time_s() / h.makespan_s
            )?;
        }
    }
    Ok(())
}

/// Feeds request lines through a [`simjoin::ServeSession`] over the
/// dataset, writing each response line to `out`. EOF without an explicit
/// shutdown injects one, so the queue always drains and every admitted
/// request is answered.
struct Serve<'s> {
    config: SelfJoinConfig,
    serve_cfg: simjoin::ServeConfig,
    lines: &'s mut dyn Iterator<Item = std::io::Result<String>>,
    out: &'s mut dyn std::io::Write,
    telemetry: &'s dyn Telemetry,
}

impl WithPoints for Serve<'_> {
    type Output = Result<simjoin::ServeReport, String>;

    fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output {
        let mut session = simjoin::ServeSession::new(points.to_vec(), self.config, self.serve_cfg)
            .map_err(|e| e.to_string())?
            .with_telemetry(self.telemetry);
        let out = self.out;
        let mut emit = |lines: Vec<String>| -> Result<(), String> {
            for line in lines {
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())
        };
        for line in self.lines {
            let line = line.map_err(|e| format!("reading requests: {e}"))?;
            emit(session.handle_line(&line))?;
            if session.is_shut_down() {
                break;
            }
        }
        if !session.is_shut_down() {
            emit(session.handle_line("{\"op\": \"shutdown\"}"))?;
        }
        Ok(session.report())
    }
}

fn serve(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let config = join_config(parsed, eps, parsed.parse_or("k", 1)?)?;
    let exec_mode = exec_mode_flag(parsed)?;
    let queue_capacity: usize =
        parsed.parse_or("queue-capacity", simjoin::serve::DEFAULT_QUEUE_CAPACITY)?;
    if queue_capacity == 0 {
        return Err("--queue-capacity must be at least 1".into());
    }
    let rebuild_limit: f64 =
        parsed.parse_or("rebuild-limit", epsgrid::dynamic::DEFAULT_REBUILD_LIMIT)?;
    if rebuild_limit.is_nan() || rebuild_limit < 0.0 {
        return Err("--rebuild-limit must be non-negative".into());
    }
    let serve_cfg = simjoin::ServeConfig {
        queue_capacity,
        coalesce: !parsed.switch("no-coalesce"),
        rebuild_limit,
        target: exec_mode.target(hybrid_policy(parsed, exec_mode, &config)?),
    };
    if parsed.optional("script").is_some() && parsed.optional("listen").is_some() {
        return Err("--script conflicts with --listen (pick one request source)".into());
    }
    let points = load(parsed)?;

    let sink = JsonTelemetry::new(format!(
        "simjoin serve eps={eps} pattern={:?} balancing={:?} \
         exec={} queue-capacity={queue_capacity} coalesce={}",
        config.pattern,
        config.balancing,
        exec_mode.label(),
        serve_cfg.coalesce
    ));
    type Lines<'t> = Box<dyn Iterator<Item = std::io::Result<String>> + 't>;
    let text: String;
    let (mut lines, mut out): (Lines<'_>, Box<dyn std::io::Write>) =
        if let Some(addr) = parsed.optional("listen") {
            // One connection at a time: the session is a state machine over
            // one dataset, so interleaving clients would interleave their
            // epochs.
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            eprintln!("serve: listening on {addr} (one connection, EOF = shutdown)");
            let (stream, peer) = listener.accept().map_err(|e| e.to_string())?;
            eprintln!("serve: client {peer} connected");
            let reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            (
                Box::new(std::io::BufRead::lines(reader)),
                Box::new(std::io::BufWriter::new(stream)),
            )
        } else if let Some(script) = parsed.optional("script") {
            text = std::fs::read_to_string(script).map_err(|e| format!("reading {script}: {e}"))?;
            (
                Box::new(text.lines().map(|l| Ok(l.to_string()))),
                Box::new(std::io::stdout()),
            )
        } else {
            (
                Box::new(std::io::BufRead::lines(std::io::stdin().lock())),
                Box::new(std::io::stdout()),
            )
        };
    let session = Serve {
        config,
        serve_cfg,
        lines: &mut lines,
        out: &mut out,
        telemetry: &sink,
    };
    let report = simjoin::with_points(&points, session).map_err(|e| e.to_string())??;

    eprintln!(
        "serve summary         : {} request(s) — {} query(ies), {} join(s), \
         {} insert(s), {} remove(s)",
        report.requests, report.queries, report.joins, report.inserts, report.removes
    );
    eprintln!(
        "admission             : {} rejected (queue full), {} error(s)",
        report.rejected, report.errors
    );
    eprintln!(
        "launches              : {} ({} coalesced request(s), {} cache hit(s)), \
         {:.6} model s total",
        report.launches, report.coalesced_requests, report.cache_hits, report.execute_model_s
    );
    eprintln!(
        "reindexing            : {} incremental, {} rebuild(s), {} cell(s) requantified",
        report.incremental_reindexes, report.full_rebuilds, report.requantified_cells
    );
    eprintln!(
        "latency (model)       : total p50 {:.6} s / p99 {:.6} s, queue p50 {:.6} s, \
         execute p50 {:.6} s",
        report.total_p50_s, report.total_p99_s, report.queue_p50_s, report.execute_p50_s
    );
    let output = parsed.optional("output").unwrap_or("serve_telemetry.json");
    sink.write_to_file(Path::new(output))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} events ({}) to {output}",
        sink.len(),
        sj_telemetry::SCHEMA_VERSION
    );
    Ok(())
}

fn stats(parsed: &Parsed) -> Result<(), String> {
    /// Mean candidates per query, non-empty cells, and the coefficient of
    /// variation of per-point candidate counts.
    struct Stats(f32);
    impl WithPoints for Stats {
        type Output = Result<(f64, usize, f64), simjoin::JoinError>;
        fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output {
            let join = simjoin::SelfJoin::new(points, SelfJoinConfig::new(self.0))?;
            let profile = simjoin::WorkloadProfile::compute(join.grid());
            let per_point = profile.per_point();
            let mean = per_point.iter().sum::<u64>() as f64 / per_point.len() as f64;
            let var = per_point
                .iter()
                .map(|&w| {
                    let d = w as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / per_point.len() as f64;
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            Ok((join.mean_candidates(), join.grid().num_cells(), cv))
        }
    }
    let eps = eps_flag(parsed)?;
    let points = load(parsed)?;
    let (mean_candidates, cells, cv) = simjoin::with_points(&points, Stats(eps))
        .and_then(|stats| stats)
        .map_err(|e| e.to_string())?;
    println!("points               : {}", points.len());
    println!("dims                 : {}", points.dims());
    println!("non-empty cells      : {cells}");
    println!("mean candidates/query: {mean_candidates:.1}");
    println!("workload CV          : {cv:.3} (σ/μ of per-point candidate counts)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        // Telemetry and fault replay are `join` flags, and the soak is
        // `experiments soak`: none of them is a subcommand.
        for gone in ["profile", "chaos", "soak"] {
            let err = dispatch(&argv(&[gone, "--input", "x.csv", "--eps", "0.5"])).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown command `{gone}`")),
                "{err}"
            );
        }
    }

    /// Runs `join` with `args` and returns what it printed.
    fn join_output(args: &[&str]) -> String {
        let mut out = Vec::new();
        join(&Parsed::parse(&argv(args)).unwrap(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// Writes an `n`-point Expo2D2M dataset into a fresh temp directory
    /// named after `tag` and returns the directory and the dataset path.
    fn expo2d(tag: &str, n: usize) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("simjoin-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv").to_str().unwrap().to_string();
        let n = n.to_string();
        let generate = [
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            &n,
            "--output",
            &data,
        ];
        dispatch(&argv(&generate)).unwrap();
        (dir, data)
    }

    #[test]
    fn join_counts_the_faults_that_landed() {
        let (dir, data) = expo2d("injected-test", 2_000);
        let out = join_output(&[
            "join",
            "--input",
            &data,
            "--eps",
            "0.05",
            "--fault-profile",
            "mixed",
            "--seed",
            "42",
        ]);
        let injected: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("injected faults       : "))
            .unwrap_or_else(|| panic!("no injected-fault line in\n{out}"))
            .parse()
            .unwrap();
        assert!(injected > 0, "the seeded run injects faults:\n{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn join_report_is_the_same_with_and_without_telemetry() {
        let (dir, data) = expo2d("telemetry-test", 800);
        let telemetry = dir.join("t.json").to_str().unwrap().to_string();
        let args = ["join", "--input", &data, "--eps", "0.3", "--k", "auto"];
        let plain = join_output(&args);
        let traced = join_output(&[&args[..], &["--telemetry", telemetry.as_str()]].concat());
        // The telemetry lines come last; everything before them is the
        // report, which the observation-only sink must not change.
        let rest = traced
            .strip_prefix(&plain)
            .unwrap_or_else(|| panic!("report changed:\n{plain}\nvs\n{traced}"));
        assert!(
            rest.starts_with("\nhost-side phases:\n  index_build "),
            "{rest}"
        );
        assert!(
            rest.trim_end().ends_with(&format!("to {telemetry}")),
            "{rest}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_claims_no_efficiency_or_speedup_when_no_gpu_batch_ran() {
        // The device is lost at its first launch, so the hybrid spills every
        // unit to the CPU: the canonical report holds no batch and 0 model
        // seconds, which make neither an efficiency nor a speed-up.
        let pts = DatasetSpec::by_name("Expo2D2M").unwrap().generate(2_000);
        let plane = FaultPlane::new(warpsim::FaultSchedule::new().device_lost_at(0));
        let join = DynSelfJoin::new(&pts, SelfJoinConfig::optimized(0.3)).with_fault_plane(&plane);
        let outcome = join
            .run(&ExecMode::Hybrid.target(HybridPolicy::default()))
            .unwrap();
        assert_eq!(outcome.report.num_batches, 0);
        assert!(outcome.hybrid.as_ref().unwrap().makespan_s > 0.0);
        let mut out = Vec::new();
        print_report(&mut out, &outcome).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(
            out.contains("warp exec efficiency  : n/a (no GPU batch ran)\n"),
            "{out}"
        );
        assert!(!out.contains("speedup"), "{out}");
    }

    #[test]
    fn help_is_ok() {
        assert!(dispatch(&argv(&["--help"])).is_ok());
        assert!(dispatch(&argv(&[])).is_ok());
    }

    #[test]
    fn datasets_lists() {
        assert!(dispatch(&argv(&["datasets"])).is_ok());
    }

    #[test]
    fn generate_join_stats_roundtrip() {
        let dir = std::env::temp_dir().join(format!("simjoin-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let pairs = dir.join("pairs.csv");
        let data_s = data.to_str().unwrap().to_string();
        let pairs_s = pairs.to_str().unwrap().to_string();

        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "600",
            "--output",
            &data_s,
        ]))
        .unwrap();
        dispatch(&argv(&[
            "join", "--input", &data_s, "--eps", "0.5", "--k", "auto", "--verify", "--output",
            &pairs_s,
        ]))
        .unwrap();
        dispatch(&argv(&["stats", "--input", &data_s, "--eps", "0.5"])).unwrap();

        let written = std::fs::read_to_string(&pairs).unwrap();
        assert!(written.lines().count() > 0);
        assert!(written.lines().all(|l| l.split(',').count() == 2));

        let telemetry = dir.join("telemetry.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--telemetry",
            &telemetry_s,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert!(doc.contains(sj_telemetry::SCHEMA_VERSION));
        assert!(doc.contains("\"scope\": \"warpsim.launch\""));
        assert!(doc.contains("\"scope\": \"executor.phase\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_accepts_any_seed_and_verifies_or_reports_typed_errors() {
        let dir = std::env::temp_dir().join(format!("simjoin-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "400",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // Any outcome must be exact-or-typed-error: dispatch() only fails on
        // a wrong pair set (or bad flags).
        for profile in warpsim::FaultProfile::names() {
            for seed in ["0", "1", "2"] {
                dispatch(&argv(&[
                    "join",
                    "--input",
                    &data_s,
                    "--eps",
                    "0.5",
                    "--fault-profile",
                    profile,
                    "--seed",
                    seed,
                ]))
                .unwrap_or_else(|e| panic!("profile {profile} seed {seed}: {e}"));
            }
        }
        let telemetry = dir.join("chaos.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--fault-profile",
            "stall",
            "--seed",
            "7",
            "--telemetry",
            &telemetry_s,
        ]))
        .unwrap();
        assert!(std::fs::read_to_string(&telemetry)
            .unwrap()
            .contains(sj_telemetry::SCHEMA_VERSION));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_rejects_unknown_profile() {
        let p = argv(&[
            "join",
            "--input",
            "nonexistent.csv",
            "--eps",
            "0.5",
            "--fault-profile",
            "gremlins",
        ]);
        let err = dispatch(&p).unwrap_err();
        assert!(err.contains("unknown fault profile `gremlins`"), "{err}");
    }

    #[test]
    fn join_shards_across_devices_and_stays_exact() {
        let dir = std::env::temp_dir().join(format!("simjoin-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "500",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // --verify checks the merged pair set against SUPER-EGO on every
        // device count and both partitioning strategies.
        for devices in ["1", "2", "4"] {
            for strategy in ["workload", "count"] {
                dispatch(&argv(&[
                    "join",
                    "--input",
                    &data_s,
                    "--eps",
                    "0.5",
                    "--balancing",
                    "queue",
                    "--devices",
                    devices,
                    "--shard-strategy",
                    strategy,
                    "--verify",
                ]))
                .unwrap_or_else(|e| panic!("devices={devices} strategy={strategy}: {e}"));
            }
        }
        assert!(dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--devices",
            "0",
        ]))
        .is_err());
        assert!(dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--devices",
            "2",
            "--shard-strategy",
            "bogus",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_fleet_mode_recovers_and_verifies() {
        let dir =
            std::env::temp_dir().join(format!("simjoin-chaos-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "400",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // Fleet chaos: every completed outcome is verified against
        // SUPER-EGO inside dispatch(); both recovery modes must hold it.
        for recovery in ["reshard", "degrade"] {
            for seed in ["0", "3"] {
                dispatch(&argv(&[
                    "join",
                    "--input",
                    &data_s,
                    "--eps",
                    "0.5",
                    "--devices",
                    "3",
                    "--fault-profile",
                    "device-lost",
                    "--recovery",
                    recovery,
                    "--seed",
                    seed,
                ]))
                .unwrap_or_else(|e| panic!("recovery {recovery} seed {seed}: {e}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn join_exec_modes_are_exact_and_validated() {
        let dir = std::env::temp_dir().join(format!("simjoin-hybrid-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "400",
            "--output",
            &data_s,
        ]))
        .unwrap();
        // Every exec mode must pass --verify against SUPER-EGO, including a
        // forced split and a parallel CPU pool (the --host-jobs workers).
        for mode in ["gpu", "cpu", "hybrid"] {
            dispatch(&argv(&[
                "join",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--exec-mode",
                mode,
                "--host-jobs",
                "2",
                "--verify",
            ]))
            .unwrap_or_else(|e| panic!("exec mode {mode}: {e}"));
        }
        dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--cpu-fraction",
            "0.5",
            "--verify",
        ]))
        .unwrap();
        // Chaos replays go through the co-executor too; exactness (or a
        // typed error) is checked inside dispatch().
        dispatch(&argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--fault-profile",
            "device-lost",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Flag validation.
        let bad_mode = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "tpu",
        ]);
        assert!(dispatch(&bad_mode).is_err());
        let fleet_conflict = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--devices",
            "2",
        ]);
        assert!(dispatch(&fleet_conflict).is_err());
        let bad_fraction = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "hybrid",
            "--cpu-fraction",
            "1.5",
        ]);
        assert!(dispatch(&bad_fraction).is_err());
        let cpu_fraction_conflict = argv(&[
            "join",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--exec-mode",
            "cpu",
            "--cpu-fraction",
            "0.5",
        ]);
        assert!(dispatch(&cpu_fraction_conflict).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_flag_is_validated() {
        let p = Parsed::parse(&argv(&["--recovery", "reshard"])).unwrap();
        assert_eq!(recovery_flag(&p).unwrap(), simjoin::RecoveryPolicy::Reshard);
        let p = Parsed::parse(&argv(&["--recovery", "degrade"])).unwrap();
        assert_eq!(recovery_flag(&p).unwrap(), simjoin::RecoveryPolicy::Degrade);
        let p = Parsed::parse(&argv(&["--recovery", "bogus"])).unwrap();
        assert!(recovery_flag(&p).unwrap_err().contains("reshard|degrade"));
        // Through the join command, mirroring the --shard-strategy error.
        assert!(dispatch(&argv(&[
            "join",
            "--input",
            "nonexistent.csv",
            "--eps",
            "0.5",
            "--recovery",
            "bogus",
        ]))
        .is_err());
    }

    #[test]
    fn serve_runs_a_scripted_session_and_writes_telemetry() {
        let dir = std::env::temp_dir().join(format!("simjoin-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        let data_s = data.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "generate",
            "--dataset",
            "Expo2D2M",
            "--n",
            "300",
            "--output",
            &data_s,
        ]))
        .unwrap();
        let script = dir.join("session.jsonl");
        let script_s = script.to_str().unwrap().to_string();
        std::fs::write(
            &script,
            "{\"op\": \"query\", \"point_id\": 0, \"eps\": 0.5}\n\
             {\"op\": \"query\", \"point_id\": 1, \"eps\": 0.5}\n\
             {\"op\": \"insert\", \"point\": [0.1, 0.1]}\n\
             {\"op\": \"remove\", \"point_id\": 5}\n\
             {\"op\": \"join\", \"eps\": 0.5}\n\
             {\"op\": \"stats\"}\n\
             {\"op\": \"shutdown\"}\n",
        )
        .unwrap();
        let telemetry = dir.join("serve.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "serve",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--script",
            &script_s,
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert!(doc.contains(sj_telemetry::SCHEMA_VERSION));
        assert!(doc.contains("\"scope\": \"serve\""));
        assert!(doc.contains("\"name\": \"reindex\""));
        assert!(doc.contains("\"name\": \"coalesce\""));
        sj_telemetry::json::parse(&doc).expect("the serve telemetry document is strict JSON");
        // The serial baseline accepts the same script.
        dispatch(&argv(&[
            "serve",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--script",
            &script_s,
            "--no-coalesce",
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        // Flag validation at the serve boundary.
        for bad in [
            vec!["serve", "--input", &data_s, "--eps", "nan"],
            vec!["serve", "--input", &data_s, "--eps", "-0.5"],
            vec![
                "serve",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--queue-capacity",
                "0",
            ],
            vec![
                "serve",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--rebuild-limit",
                "-1",
            ],
            vec![
                "serve",
                "--input",
                &data_s,
                "--eps",
                "0.5",
                "--script",
                &script_s,
                "--listen",
                "127.0.0.1:0",
            ],
        ] {
            assert!(dispatch(&argv(&bad)).is_err(), "{bad:?} should fail");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epsilon_is_validated_uniformly_across_commands() {
        // No command should get as far as touching the dataset with a bad ε
        // — the unified check fires first, with the same message everywhere.
        // `join` is checked with the telemetry sink and the fault plane
        // attached too.
        let commands: [&[&str]; 5] = [
            &["join"],
            &["join", "--telemetry", "t.json"],
            &["join", "--fault-profile", "mixed", "--seed", "3"],
            &["stats"],
            &["serve"],
        ];
        for cmd in commands {
            for bad_eps in ["nan", "inf", "0", "-1"] {
                let args = ["--input", "nonexistent.csv", "--eps", bad_eps];
                let err = dispatch(&argv(&[cmd, &args[..]].concat())).unwrap_err();
                assert!(
                    err.contains("flag --eps is invalid"),
                    "{cmd:?} --eps {bad_eps}: {err}"
                );
                assert!(
                    err.contains("finite, strictly positive"),
                    "{cmd:?} --eps {bad_eps}: {err}"
                );
            }
        }
    }

    #[test]
    fn unknown_flags_are_rejected_before_the_dataset_loads() {
        // A misspelled flag must fail, not run the join on one device.
        let err = dispatch(&argv(&[
            "join",
            "--input",
            "nonexistent.csv",
            "--eps",
            "0.05",
            "--devcies",
            "4",
            "--verify",
        ]))
        .unwrap_err();
        assert!(err.contains("--devcies"), "{err}");
        assert!(!err.contains("reading"), "{err}");
        let stray: [(&[&str], &str); 8] = [
            (&["datasets", "--n", "3"], "--n"),
            (
                &[
                    "generate",
                    "--dataset",
                    "Expo2D2M",
                    "--output",
                    "x.csv",
                    "--eps",
                    "1",
                ],
                "--eps",
            ),
            (
                &[
                    "join",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--jobs",
                    "2",
                ],
                "--jobs",
            ),
            (
                &[
                    "stats",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--k",
                    "8",
                ],
                "--k",
            ),
            (
                &[
                    "join",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--iterations",
                    "8",
                ],
                "--iterations",
            ),
            (
                &[
                    "stats",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--seed",
                    "1",
                ],
                "--seed",
            ),
            (
                &[
                    "serve",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--fault-profile",
                    "mixed",
                ],
                "--fault-profile",
            ),
            (
                &[
                    "serve",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--sort-backend",
                    "host",
                ],
                "--sort-backend",
            ),
        ];
        for (cmd, flag) in stray {
            let err = dispatch(&argv(cmd)).unwrap_err();
            assert!(
                err.contains(&format!("does not accept {flag}")),
                "{cmd:?}: {err}"
            );
        }
    }

    #[test]
    fn bad_pattern_is_reported() {
        let p = Parsed::parse(&argv(&["--pattern", "bogus"])).unwrap();
        assert!(pattern_flag(&p).is_err());
        let p = Parsed::parse(&argv(&["--balancing", "bogus"])).unwrap();
        assert!(balancing_flag(&p).is_err());
    }
}
