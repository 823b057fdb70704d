//! Quickstart: run the optimized GPU self-join on a small clustered dataset
//! and inspect both the result and the execution report.
//!
//! ```text
//! cargo run --release -p sj-examples --bin quickstart -- [--n 20000] [--eps 1.0]
//! ```

use simjoin::{SelfJoin, SelfJoinConfig};
use sj_examples::{fmt_time, parse_n_eps};
use sjdata::sw::{sw_points_2d, SwParams};

fn main() {
    let (n, eps) = parse_n_eps(20_000, 1.0);
    println!("Generating {n} clustered 2-D points…");
    let points = sw_points_2d(n, &SwParams::default(), 42);

    // The paper's best combination: WORKQUEUE + LID-UNICOMP + k = 8.
    let config = SelfJoinConfig::optimized(eps);
    println!("Running self-join: ε = {eps}, variant = {}", config.label());
    let join = SelfJoin::new(&points, config).expect("valid configuration");
    let outcome = join.run().expect("join succeeds");

    let report = &outcome.report;
    println!();
    println!("pairs found           : {}", outcome.result.len());
    println!("batches executed      : {}", report.num_batches);
    println!(
        "estimated total pairs : {}",
        report.estimate.estimated_total
    );
    println!("distance calculations : {}", report.distance_calcs());
    println!("warp exec efficiency  : {:.1} %", report.wee() * 100.0);
    println!(
        "response time (model) : {}",
        fmt_time(report.response_time_s())
    );

    // Neighbor lists are easy to derive from the ordered-pair result.
    let index = outcome.result.neighbor_index(points.len());
    let counts: Vec<usize> = (0..points.len() as u32)
        .map(|p| index.neighbors(p).len())
        .collect();
    let (densest, &max) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .expect("non-empty dataset");
    println!();
    println!(
        "densest point: #{densest} at ({:.2}, {:.2}) with {max} neighbors within ε",
        points[densest][0], points[densest][1]
    );
    let isolated = counts.iter().filter(|&&c| c == 0).count();
    println!("isolated points (no neighbor within ε): {isolated}");
}
