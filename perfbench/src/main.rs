//! End-to-end and per-layer benchmark of the simjoin workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The seed makes the inputs; the same seed
//! gives the same datasets, request streams, model seconds, pair counts
//! and serve transcripts. A run sets up (dataset, reference answers, serve
//! sessions, one warm-up pass), then measures unpaced passes through the
//! workload's fixed op list for the given seconds with telemetry off. With
//! `--trace 1` it then makes one more pass with `sj_telemetry` attached and
//! every call timed, and prints the per-layer metrics instead of the
//! end-to-end ones. Every answer is checked outside the timed regions;
//! failures count in `failed`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod batch;
mod check;
mod fleet;
mod heap;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use epsgrid::Point;
use sjdata::DatasetSpec;

use report::Outcome;

const USAGE: &str =
    "usage: perfbench --workload <expo2d-dense|unif6d-sparse|serve-churn|fleet-hybrid> \
                     --seed <u64> --seconds <s> --trace <0|1>";

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Times each run's set-up is repeated; `setup_s` reports the median.
pub const SETUP_REPEATS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Expo2dDense,
    Unif6dSparse,
    ServeChurn,
    FleetHybrid,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("expo2d-dense", Workload::Expo2dDense),
    ("unif6d-sparse", Workload::Unif6dSparse),
    ("serve-churn", Workload::ServeChurn),
    ("fleet-hybrid", Workload::FleetHybrid),
];

impl Workload {
    fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.1)
    }

    fn name(self) -> &'static str {
        WORKLOADS.iter().find(|w| w.1 == self).map_or("", |w| w.0)
    }

    /// Every thread count the workload pins, for the output header.
    fn threads(self) -> String {
        match self {
            Self::Expo2dDense | Self::Unif6dSparse => format!(
                "host_jobs={} superego_threads={}",
                batch::HOST_JOBS,
                batch::SUPEREGO_THREADS
            ),
            Self::ServeChurn => format!(
                "host_jobs={} superego_threads={} (answer check only)",
                serve::HOST_JOBS,
                batch::SUPEREGO_THREADS
            ),
            Self::FleetHybrid => format!(
                "host_jobs={} hybrid_jobs={} superego_threads={} (reference only)",
                fleet::threads(),
                fleet::threads(),
                batch::SUPEREGO_THREADS
            ),
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::by_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// `n` points of the Table I dataset `name`, with the generator seed
/// replaced by `seed`.
pub fn generate<const N: usize>(name: &str, n: usize, seed: u64) -> Vec<Point<N>> {
    let mut spec = DatasetSpec::by_name(name).expect("a Table I dataset name");
    spec.seed = seed;
    spec.generate(n)
        .as_fixed::<N>()
        .expect("the dataset's dimensionality")
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# nproc={nproc} commit={} threads: {}",
        commit(),
        args.workload.threads()
    );
    let mut out = Outcome::default();
    match args.workload {
        Workload::Expo2dDense => batch::run(&batch::EXPO2D_DENSE, &args, &mut out),
        Workload::Unif6dSparse => batch::run(&batch::UNIF6D_SPARSE, &args, &mut out),
        Workload::ServeChurn => serve::run(&args, &mut out),
        Workload::FleetHybrid => fleet::run(&args, &mut out),
    }
    // Failures are the result line's `failed` of `attempted`; their ratio
    // is printed here by name, as it is 0 whenever the program is correct.
    println!(
        "# fail_frac {} ratio ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", out.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload serve-churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload serve-churn --seed 7 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload serve-churn --seed 7 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload serve-churn --seed 7 --seconds 10").is_err());
    }
}
