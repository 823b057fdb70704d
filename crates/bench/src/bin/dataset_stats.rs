//! Dataset calibration tool: reports neighbor-count statistics per dataset
//! and ε, used to keep the scaled sweeps in the paper's
//! neighbors-per-point regimes.
//!
//! ```text
//! dataset-stats [--scale <f>] [DATASET]...
//! ```

use epsgrid::Point;
use simjoin::WithPoints;
use sj_bench::table::Table;
use sjdata::DatasetSpec;

/// Sampled mean neighbors per point, the extrapolated pair count, and the
/// non-empty cell count at one ε.
struct NeighborStats(f32);

impl WithPoints for NeighborStats {
    type Output = (f64, u64, usize);

    fn call<const N: usize>(self, pts: &[Point<N>]) -> Self::Output {
        let eps = self.0;
        let grid = epsgrid::GridIndex::build(pts, eps).expect("grid build");
        let stride = (pts.len() / 2000).max(1);
        let mut total = 0u64;
        let mut sampled = 0usize;
        for pid in (0..pts.len()).step_by(stride) {
            grid.for_each_candidate_of(pid, |cand| {
                if cand != pid && epsgrid::within_epsilon(&pts[pid], &pts[cand], eps) {
                    total += 1;
                }
            });
            sampled += 1;
        }
        let mean = total as f64 / sampled as f64;
        let est_pairs = (mean * pts.len() as f64) as u64;
        (mean, est_pairs, grid.num_cells())
    }
}

fn main() {
    let mut scale = 1.0f64;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale <f>")
            }
            other => names.push(other.to_string()),
        }
    }
    let specs: Vec<DatasetSpec> = if names.is_empty() {
        DatasetSpec::table1()
    } else {
        names
            .iter()
            .map(|n| DatasetSpec::by_name(n).unwrap_or_else(|| panic!("unknown dataset {n}")))
            .collect()
    };
    let mut t = Table::new(vec![
        "dataset",
        "|D|",
        "eps",
        "mean neighbors",
        "est. pairs",
        "non-empty cells",
    ]);
    for spec in specs {
        let n = ((spec.default_points as f64 * scale) as usize).max(500);
        let pts = spec.generate(n);
        for &eps in &spec.epsilons {
            let (mean, pairs, cells) =
                simjoin::with_points(&pts, NeighborStats(eps)).expect("Table I dimensionality");
            t.row(vec![
                spec.name.clone(),
                n.to_string(),
                format!("{eps}"),
                format!("{mean:.1}"),
                pairs.to_string(),
                cells.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
}
