//! `simjoin` — command-line similarity self-join.
//!
//! ```text
//! simjoin datasets
//! simjoin generate --dataset Expo2D2M --n 60000 --output pts.csv
//! simjoin join --input pts.csv --eps 0.2 [--k 8|auto] [--pattern lid]
//!              [--balancing queue] [--balanced-queue] [--output pairs.csv] [--verify]
//! simjoin join --input pts.csv --eps 0.2 --telemetry telemetry.json
//! simjoin join --input pts.csv --eps 0.2 --fault-profile mixed --seed 42
//! simjoin stats --input pts.csv --eps 0.2
//! simjoin serve --input pts.csv --eps 0.2 --script requests.jsonl
//! ```
//!
//! `--telemetry` attaches the JSON sink to a join; `--fault-profile` and
//! `--seed` replay a seeded fault schedule against it and verify the
//! result. The chaos soak harness is `experiments soak` (`sj-bench`).

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
