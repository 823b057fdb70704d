//! Sky-survey datasets — the Gaia catalog analogue.
//!
//! The paper samples 50 M 2-D points (sky positions) from the Gaia DR
//! catalog \[32\]. Stellar density on the sky is strongly anisotropic:
//! it peaks along the galactic plane and decays roughly exponentially with
//! galactic latitude. The analogue samples longitude uniformly on
//! `[0, 360)` and latitude from a truncated Laplace with configurable scale
//! height, reproducing the band-shaped density skew that drives warp
//! imbalance on this dataset.

use epsgrid::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dists::truncated_laplace_latitude;

/// Generates `n` (longitude, latitude) sky positions with density
/// `∝ exp(-|b| / scale_height_deg)` in latitude.
pub fn gaia_points(n: usize, scale_height_deg: f64, seed: u64) -> Vec<Point<2>> {
    assert!(scale_height_deg > 0.0, "scale height must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lon = rng.gen_range(0.0..360.0f64);
            let lat = truncated_laplace_latitude(&mut rng, scale_height_deg);
            [lon as f32, lat as f32]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gaia_points(200, 12.0, 9), gaia_points(200, 12.0, 9));
        assert_ne!(gaia_points(200, 12.0, 9), gaia_points(200, 12.0, 10));
    }

    #[test]
    fn within_sky_bounds() {
        let pts = gaia_points(10_000, 12.0, 1);
        assert!(pts
            .iter()
            .all(|p| (0.0..360.0).contains(&p[0]) && (-90.0..=90.0).contains(&p[1])));
    }

    #[test]
    fn galactic_plane_dominates() {
        let pts = gaia_points(30_000, 12.0, 2);
        let plane = pts.iter().filter(|p| p[1].abs() < 12.0).count();
        let poles = pts.iter().filter(|p| p[1].abs() > 60.0).count();
        assert!(
            plane > 8 * poles.max(1),
            "plane {plane} must dominate poles {poles}"
        );
    }

    #[test]
    fn longitude_is_uniform() {
        let pts = gaia_points(30_000, 12.0, 3);
        let half = pts.iter().filter(|p| p[0] < 180.0).count();
        assert!((13_000..17_000).contains(&half), "half-sky count {half}");
    }
}
