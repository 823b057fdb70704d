//! Sky-catalog neighbor search — the Gaia-style workload of the paper's
//! evaluation, plus a head-to-head against the SUPER-EGO CPU join.
//!
//! Finds all pairs of sources within an angular radius (close-pair /
//! cross-identification candidates), reports how the skewed sky density
//! translates into load imbalance, and checks that the CPU comparator finds
//! exactly the same pairs.
//!
//! ```text
//! cargo run --release -p sj-examples --bin astro_neighbors -- [--n 60000] [--eps 0.5]
//! ```

use simjoin::{SelfJoin, SelfJoinConfig};
use sj_examples::{fmt_time, parse_n_eps};
use sjdata::gaia::gaia_points;
use superego::{super_ego_join, SuperEgoConfig};

fn main() {
    let (n, eps) = parse_n_eps(60_000, 2.0);
    println!("Generating {n} sky positions (density ∝ exp(-|b|/12°))…");
    let points = gaia_points(n, 12.0, 2026);

    // Baseline vs fully optimized, to show what the skew costs.
    let base = SelfJoin::new(&points, SelfJoinConfig::new(eps))
        .expect("config")
        .run()
        .expect("join");
    let best = SelfJoin::new(&points, SelfJoinConfig::optimized(eps))
        .expect("config")
        .run()
        .expect("join");
    println!();
    println!(
        "GPU baseline  : {} (WEE {:.1} %)",
        fmt_time(base.report.response_time_s()),
        base.report.wee() * 100.0
    );
    println!(
        "GPU optimized : {} (WEE {:.1} %, {})",
        fmt_time(best.report.response_time_s()),
        best.report.wee() * 100.0,
        SelfJoinConfig::optimized(eps).label()
    );
    println!(
        "speedup       : {:.2}×",
        base.report.response_time_s() / best.report.response_time_s()
    );
    assert!(base.result.same_pairs_as(&best.result));

    // CPU comparator must agree pair-for-pair.
    let cpu = super_ego_join(&points, &SuperEgoConfig::new(eps));
    assert_eq!(
        cpu.pairs.len(),
        best.result.len(),
        "SUPER-EGO must agree with the GPU join"
    );
    println!(
        "SUPER-EGO     : agrees on all {} pairs ({} distance calcs, wall {:.0} ms)",
        cpu.pairs.len(),
        cpu.stats.distance_calcs,
        cpu.wall.as_secs_f64() * 1e3
    );

    // Where do the pairs live on the sky? The galactic plane dominates.
    let index = best.result.neighbor_index(points.len());
    let mut band_pairs = [0u64; 6]; // |b| in 15° bands
    let mut band_points = [0u64; 6];
    for (i, p) in points.iter().enumerate() {
        let band = ((p[1].abs() / 15.0) as usize).min(5);
        band_pairs[band] += index.neighbors(i as u32).len() as u64;
        band_points[band] += 1;
    }
    println!();
    println!("pairs per latitude band (skew → warp imbalance):");
    for (b, (pairs, pts)) in band_pairs.iter().zip(&band_points).enumerate() {
        let mean = *pairs as f64 / (*pts).max(1) as f64;
        println!(
            "  |b| ∈ [{:>2}°, {:>2}°): {:>9} pairs over {:>6} sources (mean {:>6.2})",
            b * 15,
            (b + 1) * 15,
            pairs,
            pts,
            mean
        );
    }
}
