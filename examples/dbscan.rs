//! DBSCAN clustering built on the self-join — the paper's introduction
//! motivates the self-join as the building block of clustering algorithms;
//! this example closes that loop.
//!
//! The ε-neighborhood lists come from one GPU self-join; the clustering
//! itself is the standard density-based expansion: points with at least
//! `min_pts` neighbors are core points, clusters are the connected
//! components of core points plus their border points.
//!
//! ```text
//! cargo run --release -p sj-examples --bin dbscan -- [--n 15000] [--eps 0.8]
//! ```

use std::collections::VecDeque;

use simjoin::{NeighborIndex, SelfJoin, SelfJoinConfig};
use sj_examples::{fmt_time, parse_n_eps};
use sjdata::uniform::uniform_points;

const NOISE: i32 = -1;
const UNVISITED: i32 = -2;

/// DBSCAN over the join's pairs grouped by point.
fn dbscan(neighbors: &NeighborIndex, min_pts: usize) -> (Vec<i32>, usize) {
    let n = neighbors.num_points();
    let mut labels = vec![UNVISITED; n];
    let mut cluster = 0i32;
    for start in 0..n {
        if labels[start] != UNVISITED {
            continue;
        }
        if neighbors.neighbors(start as u32).len() < min_pts {
            labels[start] = NOISE;
            continue;
        }
        // Expand a new cluster from this core point.
        labels[start] = cluster;
        let mut queue: VecDeque<u32> = neighbors.neighbors(start as u32).iter().copied().collect();
        while let Some(p) = queue.pop_front() {
            let p = p as usize;
            if labels[p] == NOISE {
                labels[p] = cluster; // border point
            }
            if labels[p] != UNVISITED {
                continue;
            }
            labels[p] = cluster;
            let row = neighbors.neighbors(p as u32);
            if row.len() >= min_pts {
                queue.extend(row.iter().copied());
            }
        }
        cluster += 1;
    }
    (labels, cluster as usize)
}

fn main() {
    let (n, eps) = parse_n_eps(15_000, 0.8);
    let min_pts = 8usize;

    // Three dense Gaussian-ish blobs over uniform background noise.
    let mut points = uniform_points::<2>(n / 2, 60.0, 7);
    for (cx, cy, seed) in [(15.0f32, 15.0f32, 8u64), (40.0, 20.0, 9), (25.0, 45.0, 10)] {
        let blob = uniform_points::<2>(n / 6, 4.0, seed);
        points.extend(blob.into_iter().map(|p| [p[0] + cx, p[1] + cy]));
    }
    println!(
        "DBSCAN over {} points, eps = {eps}, min_pts = {min_pts}",
        points.len()
    );

    let config = SelfJoinConfig::optimized(eps);
    let outcome = SelfJoin::new(&points, config)
        .expect("config")
        .run()
        .expect("join");
    println!(
        "self-join: {} pairs in {} model time ({} batches, WEE {:.1} %)",
        outcome.result.len(),
        fmt_time(outcome.report.response_time_s()),
        outcome.report.num_batches,
        outcome.report.wee() * 100.0,
    );

    let neighbors = outcome.result.neighbor_index(points.len());
    let (labels, clusters) = dbscan(&neighbors, min_pts);
    let noise = labels.iter().filter(|&&l| l == NOISE).count();
    let mut sizes = vec![0usize; clusters];
    for &l in &labels {
        if l >= 0 {
            sizes[l as usize] += 1;
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!();
    println!("clusters found : {clusters}");
    println!("noise points   : {noise}");
    println!("largest clusters: {:?}", &sizes[..sizes.len().min(5)]);
    assert!(clusters >= 3, "the three planted blobs should be recovered");
}
