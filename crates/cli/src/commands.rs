//! CLI subcommands.

use std::path::Path;

use epsgrid::{DynPoints, Point};
use simjoin::{
    AccessPattern, Balancing, DynSelfJoin, ExecMode, ExecTarget, HybridPolicy, SelfJoinConfig,
    ShardStrategy, SortBackend, WithPoints,
};
use sj_telemetry::{JsonTelemetry, Telemetry, Value};
use sjdata::{io as dataio, DatasetSpec};
use warpsim::DeviceFleet;

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
               [--exec-mode gpu|cpu|hybrid] [--cpu-fraction <f>]
               [--host-jobs <n>] [--output <pairs.csv>] [--verify]
      Run the self-join and print the execution report. --verify checks the
      result against the SUPER-EGO CPU join. With --devices N > 1 the batch
      plan is sharded across N simulated GPUs (workload-aware by default)
      and the per-device breakdown plus the fleet makespan are printed; the
      merged result and the canonical report are identical to a
      single-device run. --recovery picks what happens when a device fails
      persistently mid-join: re-shard its unexecuted work onto the
      survivors (default) or degrade that shard to the exact CPU fallback.
      --exec-mode hybrid co-executes the plan across the simulated GPU and
      host CPU workers, cutting the workload-sorted unit list by measured
      per-backend cost (or at a forced --cpu-fraction) and differentially
      checking every unit both backends computed; the pair set and
      canonical report stay identical to --exec-mode gpu. --exec-mode cpu
      routes every unit through the checked CPU backend.
      --host-jobs N threads the inside of the join itself (fleet shards,
      batches, warp stepping, hybrid CPU workers; 0 = one per core, default
      from the HOST_JOBS env var): the pair set, report, and telemetry are
      bit-identical for any value — only wall-clock changes. Also accepted
      by profile, chaos, soak, and serve.
  simjoin stats --input <path> --eps <f>
      Print workload statistics (mean neighbors, cells, imbalance).
  simjoin profile --input <path> --eps <f> [--k <n>|--k auto]
                  [--pattern full|unicomp|lid] [--balancing none|sort|queue]
                  [--balanced-queue] [--sort-backend host|device]
                  [--host-jobs <n>] [--output <telemetry.json>]
      Run the self-join with the JSON telemetry sink attached, print a
      per-phase breakdown, and write the sj-telemetry/v1 document
      (default: telemetry.json). The sink is observation-only: pair sets,
      cycle counts and model seconds are identical with or without it.
  simjoin chaos --input <path> --eps <f> [--k <n>]
                [--pattern full|unicomp|lid] [--balancing none|sort|queue]
                [--balanced-queue] [--sort-backend host|device] [--host-jobs <n>]
                [--fault-profile transient|device-lost|overflow|counter|stall|mixed]
                [--seed <u64>] [--devices <n>] [--shard-strategy workload|count]
                [--recovery reshard|degrade] [--exec-mode gpu|cpu|hybrid]
                [--cpu-fraction <f>] [--output <telemetry.json>]
      Replay a seeded fault schedule against the join and report how the
      resilient executor recovered (retries, splits, re-sharding, CPU
      degradation). With --devices N > 1 every device gets its own seeded
      schedule and the fleet failover path is exercised. The result is
      verified against the SUPER-EGO CPU join; a typed error is also an
      acceptable outcome under injected faults.
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
  simjoin soak [--iterations <n>] [--seed <base>] [--dataset <name>]
               [--n <count>] [--eps <f>] [--recovery reshard|degrade]
               [--exec-mode gpu|hybrid] [--cpu-fraction <f>] [--host-jobs <n>]
               [--quick] [--output <telemetry.json>]
      Chaos soak harness: run N seeded chaos iterations cycling fault
      profile x device count x access pattern, asserting on every round
      that the fleet result is exactly the clean run's pair set and that
      the recovered makespan stays within the serial response-time bound.
      --exec-mode hybrid soaks the CPU/GPU co-executor instead: each
      iteration replays its fault schedule through the hybrid path and
      asserts the co-processed pair set is exactly the clean run's.
      --quick shrinks the dataset for CI.

Every command rejects flags it does not accept.
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
        "join" => (format!("{CONFIG_FLAGS} {TARGET_FLAGS} output verify"), join),
        "stats" => ("input eps".into(), stats),
        "profile" => (format!("{CONFIG_FLAGS} output"), profile),
        "chaos" => (
            format!("{CONFIG_FLAGS} {TARGET_FLAGS} fault-profile seed output"),
            chaos,
        ),
        "soak" => (
            "iterations seed dataset n quick eps recovery exec-mode cpu-fraction host-jobs output"
                .into(),
            soak,
        ),
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

/// Unified ε validation for every CLI entry point: the same typed check
/// (and the same message) the serve protocol and the library constructors
/// apply, surfaced before any dataset is loaded into a grid.
fn check_eps(eps: f32) -> Result<f32, String> {
    simjoin::validate_epsilon(eps).map_err(|e| format!("flag --eps is invalid: {e}"))
}

/// `--eps`, required and validated.
fn eps_flag(parsed: &Parsed) -> Result<f32, String> {
    check_eps(parsed.required_parse("eps")?)
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

/// `--host-jobs <n>`: worker threads inside each join (fleet shards,
/// batches, warps, hybrid CPU workers); `0` = one per core. When absent
/// the config keeps its default (the `HOST_JOBS` env var, else auto).
/// Results are bit-identical for any value — the knob changes wall-clock
/// only.
fn host_jobs_flag(parsed: &Parsed, config: &mut SelfJoinConfig) -> Result<(), String> {
    if let Some(v) = parsed.optional("host-jobs") {
        config.host_jobs = v
            .parse()
            .map_err(|_| "flag --host-jobs has an invalid value")?;
    }
    Ok(())
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
fn join_config(parsed: &Parsed, eps: f32, k: u32) -> Result<SelfJoinConfig, String> {
    let mut config = SelfJoinConfig::new(eps)
        .with_pattern(pattern_flag(parsed)?)
        .with_balancing(balancing_flag(parsed)?)
        .with_k(k);
    config.batching.balanced_queue = parsed.switch("balanced-queue");
    config.sort_backend = sort_backend_flag(parsed)?;
    host_jobs_flag(parsed, &mut config)?;
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

/// SUPER-EGO's sorted pair set: the exact reference `--verify` and
/// `chaos` check against.
fn superego_pairs(points: &DynPoints, eps: f32) -> Result<Vec<(u32, u32)>, String> {
    struct SuperEgo(f32);
    impl WithPoints for SuperEgo {
        type Output = Vec<(u32, u32)>;
        fn call<const N: usize>(self, points: &[Point<N>]) -> Self::Output {
            let config = superego::SuperEgoConfig::new(self.0);
            let mut pairs = superego::super_ego_join(points, &config).pairs;
            pairs.sort_unstable();
            pairs
        }
    }
    simjoin::with_points(points, SuperEgo(eps)).map_err(|e| e.to_string())
}

/// The hybrid accounting line(s) shared by `join` and `chaos` output.
fn print_hybrid(h: &simjoin::HybridReport) {
    println!(
        "hybrid cut            : unit {} of {} ({} chosen) — {} gpu / {} cpu / {} spilled unit(s)",
        h.cut,
        h.units,
        if h.forced { "forced" } else { "measured" },
        h.gpu_units,
        h.cpu_units,
        h.spilled_units
    );
    println!(
        "hybrid gpu side       : {:.6} model s ({} unit(s))",
        h.gpu_response_s, h.gpu_units
    );
    println!(
        "hybrid cpu side       : {:.6} model s ({} unit(s), {} jobs, {} distance calcs)",
        h.cpu_model_s, h.cpu_units, h.jobs, h.cpu_stats.distance_calcs
    );
    println!("hybrid makespan       : {:.6} model s", h.makespan_s);
}

/// The fleet recovery accounting line(s) shared by `join`, `chaos` and
/// `soak` output.
fn print_recovery(rec: &simjoin::FleetRecoveryReport) {
    if !rec.intervened() {
        println!("fleet recovery        : none (no intervention)");
        return;
    }
    println!(
        "fleet recovery        : {} reshard round(s), {} unit(s) reassigned, \
         {} device(s) lost",
        rec.reshard_rounds, rec.reassigned_units, rec.devices_lost
    );
    if rec.cpu_last_resort_points > 0 {
        println!(
            "cpu last resort       : {} point(s), {} pair(s), {:.6} model s",
            rec.cpu_last_resort_points, rec.cpu_last_resort_pairs, rec.cpu_last_resort_model_s
        );
    }
    for h in &rec.health {
        println!(
            "  round {}: device {} -> {} ({} unit(s))",
            h.round,
            h.device,
            h.state.label(),
            h.units
        );
    }
}

fn join(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let k = k_flag(parsed)?;
    let mut config =
        join_config(parsed, eps, k.unwrap_or(1))?.with_recovery(recovery_flag(parsed)?);
    let (devices, strategy, exec_mode) = target_flags(parsed)?;
    let policy = hybrid_policy(parsed, exec_mode, &config)?;
    let points = load(parsed)?;
    if k.is_none() {
        config.k = DynSelfJoin::new(&points, config.clone())
            .recommended_k()
            .map_err(|e| e.to_string())?;
    }

    let sim_fleet = (devices > 1).then(|| DeviceFleet::homogeneous(devices, config.gpu));
    let target = match &sim_fleet {
        Some(fleet) => ExecTarget::Fleet(fleet, strategy),
        None => exec_mode.target(policy),
    };
    let outcome = DynSelfJoin::new(&points, config.clone())
        .run(&target)
        .map_err(|e| e.to_string())?;
    let (pairs, report) = (outcome.result.sorted_pairs(), &outcome.report);
    if parsed.switch("verify") {
        let reference = superego_pairs(&points, eps)?;
        if pairs != reference {
            return Err(format!(
                "verification FAILED: GPU join found {} pairs, SUPER-EGO found {}",
                pairs.len(),
                reference.len()
            ));
        }
        println!(
            "verification: SUPER-EGO agrees on all {} pairs",
            pairs.len()
        );
    }

    println!(
        "variant               : {} (k = {})",
        config.label(),
        config.k
    );
    println!("exec mode             : {}", exec_mode.label());
    println!("pairs found           : {}", pairs.len());
    println!("batches               : {}", report.num_batches);
    println!("distance calculations : {}", report.distance_calcs());
    println!("warp exec efficiency  : {:.1} %", report.wee() * 100.0);
    println!("response time (model) : {:.6} s", report.response_time_s());
    if let Some(pp) = &report.prepass {
        println!(
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
        );
    }
    if let Some(fleet) = &outcome.fleet {
        println!(
            "devices               : {} ({} partitioning)",
            fleet.shards.len(),
            fleet.strategy.label()
        );
        for s in &fleet.shards {
            println!(
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
            );
        }
        println!("fleet makespan (model): {:.6} s", fleet.makespan_s);
        println!(
            "jain fairness         : {:.3} (per-shard response times)",
            fleet.jain_fairness()
        );
        print_recovery(&fleet.recovery);
        if fleet.makespan_s > 0.0 {
            println!(
                "speedup vs 1 device   : {:.2}x",
                report.response_time_s() / fleet.makespan_s
            );
        }
    }
    if let Some(h) = &outcome.hybrid {
        print_hybrid(h);
        if h.makespan_s > 0.0 {
            println!(
                "speedup vs gpu only   : {:.2}x",
                report.response_time_s() / h.makespan_s
            );
        }
    }

    if let Some(output) = parsed.optional("output") {
        use std::io::Write;
        let f = std::fs::File::create(output).map_err(|e| e.to_string())?;
        let mut w = std::io::BufWriter::new(f);
        for (a, b) in &pairs {
            writeln!(w, "{a},{b}").map_err(|e| e.to_string())?;
        }
        println!("wrote {} pairs to {output}", pairs.len());
    }
    Ok(())
}

fn profile(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let k = k_flag(parsed)?;
    let mut config = join_config(parsed, eps, k.unwrap_or(1))?;
    let points = load(parsed)?;
    if k.is_none() {
        config.k = DynSelfJoin::new(&points, config.clone())
            .recommended_k()
            .map_err(|e| e.to_string())?;
    }

    let sink = JsonTelemetry::new(format!(
        "simjoin profile eps={eps} pattern={:?} balancing={:?}",
        config.pattern, config.balancing
    ));
    let outcome = DynSelfJoin::new(&points, config.clone())
        .with_telemetry(&sink)
        .run(&ExecTarget::Gpu)
        .map_err(|e| e.to_string())?;
    let report = &outcome.report;

    println!(
        "variant               : {} (k = {})",
        config.label(),
        config.k
    );
    println!("pairs found           : {}", outcome.result.len());
    println!("batches               : {}", report.num_batches);
    println!("warp exec efficiency  : {:.1} %", report.wee() * 100.0);
    println!("response time (model) : {:.6} s", report.response_time_s());

    let events = sink.events();
    println!("\nhost-side phases:");
    for event in &events {
        if event.scope == "executor.phase" {
            match (event.field("host_ns"), event.field("model_s")) {
                (Some(Value::U64(n)), _) => {
                    println!("  {:<20} {:>10.3} ms", event.name, *n as f64 / 1e6);
                }
                // Device pre-pass phases (sort/scan) are model-time only.
                (None, Some(Value::F64(s))) => {
                    println!("  {:<20} {:>10.6} model s", event.name, s);
                }
                _ => println!("  {:<20} {:>10.3} ms", event.name, 0.0),
            }
        }
    }
    let mut counts: Vec<(String, usize)> = Vec::new();
    for event in &events {
        let key = format!("{}/{}", event.scope, event.name);
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += 1,
            None => counts.push((key, 1)),
        }
    }
    println!("\nevents recorded:");
    for (key, count) in &counts {
        println!("  {key:<32} x{count}");
    }

    let output = parsed.optional("output").unwrap_or("telemetry.json");
    sink.write_to_file(Path::new(output))
        .map_err(|e| e.to_string())?;
    println!(
        "\nwrote {} events ({}) to {output}",
        sink.len(),
        sj_telemetry::SCHEMA_VERSION
    );
    Ok(())
}

fn chaos(parsed: &Parsed) -> Result<(), String> {
    let eps = eps_flag(parsed)?;
    let k: u32 = parsed.parse_or("k", 1)?;
    let config = join_config(parsed, eps, k)?.with_recovery(recovery_flag(parsed)?);
    let profile_name = parsed.optional("fault-profile").unwrap_or("mixed");
    let profile = warpsim::FaultProfile::by_name(profile_name).ok_or_else(|| {
        format!(
            "unknown fault profile `{profile_name}` (one of: {})",
            warpsim::FaultProfile::names().join("|")
        )
    })?;
    let seed: u64 = parsed.parse_or("seed", 0)?;
    let (devices, strategy, exec_mode) = target_flags(parsed)?;
    let policy = hybrid_policy(parsed, exec_mode, &config)?;
    let points = load(parsed)?;

    let sink = JsonTelemetry::new(format!(
        "simjoin chaos profile={profile_name} seed={seed} eps={eps} devices={devices}"
    ));
    // On a fleet every device draws its own schedule from the profile,
    // with a seed offset per device so the fault timings decorrelate; a
    // single device replays one seeded plane.
    let fleet = (devices > 1).then(|| {
        (0..devices).fold(DeviceFleet::homogeneous(devices, config.gpu), |fleet, d| {
            fleet.with_fault_schedule(d, warpsim::FaultSchedule::seeded(seed + d as u64, &profile))
        })
    });
    let plane = warpsim::FaultPlane::seeded(seed, &profile);
    let mut join = DynSelfJoin::new(&points, config.clone()).with_telemetry(&sink);
    let target = match &fleet {
        Some(fleet) => ExecTarget::Fleet(fleet, strategy),
        None => {
            println!("injected faults       : {}", plane.injected_faults());
            join = join.with_fault_plane(&plane);
            exec_mode.target(policy)
        }
    };
    let outcome = join.run(&target);

    println!("variant               : {}", config.label());
    println!("exec mode             : {}", exec_mode.label());
    println!("fault profile         : {profile_name} (seed {seed})");
    if devices > 1 {
        println!(
            "devices               : {devices} ({} partitioning, {} recovery)",
            strategy.label(),
            config.recovery.label()
        );
    }
    match outcome {
        Err(e) if e.is_execution() => {
            println!("outcome               : typed error — {e}");
            println!("(a typed error is an acceptable chaos outcome; a wrong result is not)");
        }
        Err(e) => return Err(e.to_string()),
        Ok(outcome) => {
            let pairs = outcome.result.sorted_pairs();
            let reference = superego_pairs(&points, eps)?;
            if pairs != reference {
                return Err(format!(
                    "chaos verification FAILED: join found {} pairs, SUPER-EGO found {}",
                    pairs.len(),
                    reference.len()
                ));
            }
            println!(
                "outcome               : completed, exact ({} pairs verified)",
                pairs.len()
            );
            let report = &outcome.report;
            println!("response time (model) : {:.6} s", report.response_time_s());
            match &report.degradation {
                None => println!("recovery              : none (clean run)"),
                Some(d) => {
                    println!("batches salvaged      : {}", d.batches_salvaged);
                    println!("points degraded to CPU: {}", d.points_degraded);
                    println!("cpu fallback pairs    : {}", d.cpu_pairs);
                    println!("cpu fallback (model)  : {:.6} s", d.cpu_model_s);
                    println!(
                        "retries               : {} transient, {} overflow splits, {} counter",
                        d.transient_retries, d.overflow_splits, d.counter_retries
                    );
                    println!("transfer stalls       : {}", d.transfer_stalls);
                    println!("backoff (model)       : {:.6} s", d.backoff_s);
                    println!("device lost           : {}", d.device_lost);
                }
            }
            if let Some(fleet) = &outcome.fleet {
                println!("fleet makespan (model): {:.6} s", fleet.makespan_s);
                print_recovery(&fleet.recovery);
            }
            if let Some(h) = &outcome.hybrid {
                print_hybrid(h);
            }
        }
    }

    let fault_events = sink
        .events()
        .iter()
        .filter(|e| {
            e.name == "fault_injected"
                || e.name == "fault_retry"
                || e.name == "overflow_recovery"
                || e.name == "degradation"
                || e.scope == "warpsim.fault"
        })
        .count();
    println!("fault/recovery events : {fault_events}");
    if let Some(output) = parsed.optional("output") {
        sink.write_to_file(Path::new(output))
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {} events ({}) to {output}",
            sink.len(),
            sj_telemetry::SCHEMA_VERSION
        );
    }
    Ok(())
}

/// One soak iteration's observable outcome.
struct SoakRound {
    /// Typed error string when the faulted run failed (acceptable under
    /// injected faults); `None` means it completed and was verified exact.
    error: Option<String>,
    pairs: usize,
    makespan_s: f64,
    clean_makespan_s: f64,
    intervened: bool,
}

/// Replays one soak iteration: a clean run and a faulted run of the same
/// join on the same target shape, which must find exactly the same pairs.
/// `faults` is the schedule and the device it lands on: a fleet soak
/// attaches it to that device of a `devices`-wide fleet, a hybrid soak
/// (`hybrid` set) replays it on the join's own fault plane.
fn soak_round(
    points: &DynPoints,
    config: &SelfJoinConfig,
    hybrid: Option<HybridPolicy>,
    devices: usize,
    faults: (usize, warpsim::FaultSchedule),
    sink: &dyn Telemetry,
) -> Result<SoakRound, String> {
    let strategy = ShardStrategy::WorkloadAware;
    let clean_fleet = DeviceFleet::homogeneous(devices, config.gpu);
    let faulted_fleet = DeviceFleet::homogeneous(devices, config.gpu)
        .with_fault_schedule(faults.0, faults.1.clone());
    let plane = warpsim::FaultPlane::new(faults.1);
    let (clean_target, faulted_target) = match hybrid {
        Some(policy) => (ExecTarget::Hybrid(policy), ExecTarget::Hybrid(policy)),
        None => (
            ExecTarget::Fleet(&clean_fleet, strategy),
            ExecTarget::Fleet(&faulted_fleet, strategy),
        ),
    };
    // Clean reference on the same target: the invariant is that any fault
    // schedule yields exactly this pair set.
    let clean = DynSelfJoin::new(points, config.clone())
        .run(&clean_target)
        .map_err(|e| format!("clean run failed: {e}"))?;
    let clean_pairs = clean.result.sorted_pairs();
    let mut join = DynSelfJoin::new(points, config.clone()).with_telemetry(sink);
    if hybrid.is_some() {
        join = join.with_fault_plane(&plane);
    }
    let outcome = match join.run(&faulted_target) {
        Err(e) if e.is_execution() => {
            return Ok(SoakRound {
                error: Some(e.to_string()),
                pairs: 0,
                makespan_s: 0.0,
                clean_makespan_s: clean.model_s(),
                intervened: false,
            })
        }
        Err(e) => return Err(e.to_string()),
        Ok(outcome) => outcome,
    };
    let pairs = outcome.result.sorted_pairs();
    if pairs != clean_pairs {
        return Err(format!(
            "exact-result invariant VIOLATED: faulted run found {} pairs, clean run found {}",
            pairs.len(),
            clean_pairs.len()
        ));
    }
    let intervened = match (&outcome.fleet, &outcome.hybrid) {
        (Some(fleet), _) => {
            // Structural bound: the parallel makespan can never exceed the
            // serialized response time of the same recovered run (plus the
            // host last-resort tail).
            let serial_bound =
                outcome.report.response_time_s() + fleet.recovery.cpu_last_resort_model_s;
            if fleet.makespan_s > serial_bound * 1.05 + 1e-12 {
                return Err(format!(
                    "makespan bound VIOLATED: {:.6e} model s exceeds the serial \
                     response bound {serial_bound:.6e}",
                    fleet.makespan_s
                ));
            }
            fleet.recovery.intervened()
        }
        (_, Some(h)) => h.spilled_units > 0,
        _ => false,
    };
    Ok(SoakRound {
        error: None,
        pairs: pairs.len(),
        makespan_s: outcome.model_s(),
        clean_makespan_s: clean.model_s(),
        intervened,
    })
}

fn soak(parsed: &Parsed) -> Result<(), String> {
    let iterations: u64 = parsed.parse_or("iterations", 12)?;
    if iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }
    let seed_base: u64 = parsed.parse_or("seed", 0)?;
    let dataset = parsed.optional("dataset").unwrap_or("Expo2D2M");
    let spec = DatasetSpec::by_name(dataset)
        .ok_or_else(|| format!("unknown dataset `{dataset}` (see `simjoin datasets`)"))?;
    let n: usize = parsed.parse_or("n", if parsed.switch("quick") { 400 } else { 800 })?;
    // Tuned for the default dataset at soak scale; override per dataset.
    let eps = check_eps(parsed.parse_or("eps", 0.5)?)?;
    let recovery = recovery_flag(parsed)?;
    let exec_mode = exec_mode_flag(parsed)?;
    if exec_mode == ExecMode::Cpu {
        return Err("soak --exec-mode supports gpu|hybrid (cpu has no device to fault)".into());
    }
    let mut base = SelfJoinConfig::new(eps).with_recovery(recovery);
    host_jobs_flag(parsed, &mut base)?;
    let policy = hybrid_policy(parsed, exec_mode, &base)?;
    let hybrid = (exec_mode == ExecMode::Hybrid).then_some(policy);
    let points = spec.generate(n);

    // Probe the clean pair count once, then tighten the batch capacity so
    // the plan holds enough units that seeded fault schedules actually land
    // inside each device's launch window — a soak over one-launch plans
    // would exercise nothing.
    let probe_pairs = DynSelfJoin::new(&points, SelfJoinConfig::new(eps))
        .run(&ExecTarget::Gpu)
        .map_err(|e| format!("soak probe failed: {e}"))?
        .result
        .len();
    let batching = simjoin::BatchingConfig {
        batch_result_capacity: probe_pairs / 16 + 8,
        max_batches: 64,
        ..simjoin::BatchingConfig::default()
    };

    let sink = JsonTelemetry::new(format!(
        "simjoin soak dataset={dataset} n={n} eps={eps} seed-base={seed_base} \
         iterations={iterations} recovery={}",
        recovery.label()
    ));
    let profiles = warpsim::FaultProfile::names();
    let patterns = [
        AccessPattern::LidUnicomp,
        AccessPattern::Unicomp,
        AccessPattern::FullWindow,
    ];

    println!(
        "soak: {iterations} iteration(s) on {dataset} n={n} eps={eps} ({} recovery, {} exec)",
        recovery.label(),
        exec_mode.label()
    );
    let mut typed_errors = 0u64;
    let mut interventions = 0u64;
    let mut worst_inflation = 1.0f64;
    for i in 0..iterations {
        let seed = seed_base + i;
        let profile_name = profiles[i as usize % profiles.len()];
        let profile = warpsim::FaultProfile::by_name(profile_name).expect("known profile");
        let devices = if hybrid.is_some() {
            1
        } else {
            1 + i as usize % 4
        };
        let pattern = patterns[i as usize % patterns.len()];
        let config = base.clone().with_pattern(pattern).with_batching(batching);
        let faults = (
            i as usize % devices,
            warpsim::FaultSchedule::seeded(seed, &profile),
        );
        let round = soak_round(&points, &config, hybrid, devices, faults, &sink).map_err(|e| {
            format!(
                "soak iteration {i} (profile={profile_name} devices={devices} seed={seed}): {e}"
            )
        })?;

        let inflation = if round.error.is_none() && round.clean_makespan_s > 0.0 {
            round.makespan_s / round.clean_makespan_s
        } else {
            1.0
        };
        worst_inflation = worst_inflation.max(inflation);
        interventions += u64::from(round.intervened);
        let mut event = sj_telemetry::Event::new("soak", "iteration")
            .u64("iteration", i)
            .str("profile", profile_name)
            .u64("devices", devices as u64)
            .str("pattern", format!("{pattern:?}"))
            .u64("seed", seed)
            .bool("intervened", round.intervened);
        match &round.error {
            Some(e) => {
                typed_errors += 1;
                event = event.bool("typed_error", true).str("error", e.clone());
                println!(
                    "  [{i:>3}] {profile_name:<11} devices={devices} {pattern:?}: \
                     typed error — {e}"
                );
            }
            None => {
                event = event
                    .bool("typed_error", false)
                    .u64("pairs", round.pairs as u64)
                    .f64("makespan_model_s", round.makespan_s)
                    .f64("clean_makespan_model_s", round.clean_makespan_s)
                    .f64("inflation", inflation);
                println!(
                    "  [{i:>3}] {profile_name:<11} devices={devices} {pattern:?}: exact \
                     ({} pairs), makespan {:.6} s ({inflation:.2}x clean){}",
                    round.pairs,
                    round.makespan_s,
                    if round.intervened { " [recovered]" } else { "" }
                );
            }
        }
        sink.record(event);
    }

    println!(
        "soak summary          : {iterations} iteration(s), {typed_errors} typed error(s), \
         {interventions} recovery intervention(s), worst makespan inflation {worst_inflation:.2}x"
    );
    println!("exact-result invariant: held on every completed iteration");
    if let Some(output) = parsed.optional("output") {
        sink.write_to_file(Path::new(output))
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {} events ({}) to {output}",
            sink.len(),
            sj_telemetry::SCHEMA_VERSION
        );
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
            "profile",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--output",
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
                    "chaos",
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
            "chaos",
            "--input",
            &data_s,
            "--eps",
            "0.5",
            "--fault-profile",
            "stall",
            "--seed",
            "7",
            "--output",
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
            "chaos",
            "--input",
            "nonexistent.csv",
            "--eps",
            "0.5",
            "--fault-profile",
            "gremlins",
        ]);
        assert!(dispatch(&p).is_err());
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
                    "chaos",
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
            "chaos",
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
    fn soak_hybrid_iteration_holds_the_exactness_invariant() {
        dispatch(&argv(&[
            "soak",
            "--iterations",
            "2",
            "--quick",
            "--exec-mode",
            "hybrid",
        ]))
        .unwrap();
        assert!(dispatch(&argv(&["soak", "--iterations", "1", "--exec-mode", "cpu"])).is_err());
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
    fn soak_runs_green_and_writes_strict_telemetry() {
        let dir = std::env::temp_dir().join(format!("simjoin-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let telemetry = dir.join("soak.json");
        let telemetry_s = telemetry.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "soak",
            "--iterations",
            "6",
            "--quick",
            "--output",
            &telemetry_s,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&telemetry).unwrap();
        assert!(doc.contains(sj_telemetry::SCHEMA_VERSION));
        assert!(doc.contains("\"scope\": \"soak\""));
        assert!(doc.contains("\"name\": \"iteration\""));
        // Unknown iteration counts / datasets are flag errors.
        assert!(dispatch(&argv(&["soak", "--iterations", "0"])).is_err());
        assert!(dispatch(&argv(&["soak", "--dataset", "bogus"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
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
        for cmd in ["join", "stats", "profile", "chaos", "serve"] {
            for bad_eps in ["nan", "inf", "0", "-1"] {
                let err = dispatch(&argv(&[
                    cmd,
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    bad_eps,
                ]))
                .unwrap_err();
                assert!(
                    err.contains("flag --eps is invalid"),
                    "{cmd} --eps {bad_eps}: {err}"
                );
                assert!(
                    err.contains("finite, strictly positive"),
                    "{cmd} --eps {bad_eps}: {err}"
                );
            }
        }
        let err = dispatch(&argv(&["soak", "--eps", "-1"])).unwrap_err();
        assert!(err.contains("flag --eps is invalid"));
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
                    "profile",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--devices",
                    "2",
                ],
                "--devices",
            ),
            (
                &[
                    "chaos",
                    "--input",
                    "nonexistent.csv",
                    "--eps",
                    "0.5",
                    "--verify",
                ],
                "--verify",
            ),
            (
                &["soak", "--iterations", "1", "--devices", "2"],
                "--devices",
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
