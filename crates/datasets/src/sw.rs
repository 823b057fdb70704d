//! Clustered geospatial datasets — the SW ionosphere analogue.
//!
//! The paper's SW datasets \[31\] hold lat/lon observations (plus total
//! electron content in 3-D) of ionospheric monitoring objects: spatially
//! clustered around observation hotspots with diffuse background coverage.
//! This generator reproduces that shape as a mixture model:
//!
//! - `hotspot_fraction` of the points fall in Gaussian clusters whose
//!   centers, spreads and weights are drawn from the seed;
//! - the rest are uniform background over the lat/lon box;
//! - the 3-D variant appends a TEC-like value correlated with latitude
//!   (ionization increases toward the geomagnetic equator) plus noise.

use epsgrid::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dists::normal_sample;

/// Mixture parameters for the SW analogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwParams {
    /// Number of Gaussian hotspots.
    pub hotspots: usize,
    /// Fraction of points assigned to hotspots (the rest is background).
    pub hotspot_fraction: f64,
    /// Longitude range `[0, lon_extent]` in degrees.
    pub lon_extent: f32,
    /// Latitude range `[-lat_extent/2, lat_extent/2]` in degrees.
    pub lat_extent: f32,
}

impl Default for SwParams {
    fn default() -> Self {
        Self {
            hotspots: 24,
            hotspot_fraction: 0.75,
            lon_extent: 360.0,
            lat_extent: 180.0,
        }
    }
}

struct Hotspot {
    lon: f64,
    lat: f64,
    sigma: f64,
    weight: f64,
}

fn make_hotspots(params: &SwParams, rng: &mut StdRng) -> Vec<Hotspot> {
    let mut spots: Vec<Hotspot> = (0..params.hotspots.max(1))
        .map(|_| Hotspot {
            lon: rng.gen_range(0.0..params.lon_extent as f64),
            lat: rng.gen_range(-(params.lat_extent as f64) / 2.0..params.lat_extent as f64 / 2.0),
            sigma: rng.gen_range(0.5..4.0),
            weight: rng.gen_range(0.2..1.0f64).powi(2),
        })
        .collect();
    let total: f64 = spots.iter().map(|h| h.weight).sum();
    for h in &mut spots {
        h.weight /= total;
    }
    spots
}

fn sample_lonlat(params: &SwParams, spots: &[Hotspot], rng: &mut StdRng) -> (f64, f64) {
    if rng.gen_bool(params.hotspot_fraction) {
        // Pick a hotspot by weight.
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let mut chosen = &spots[0];
        for h in spots {
            if u < h.weight {
                chosen = h;
                break;
            }
            u -= h.weight;
        }
        let lon =
            (chosen.lon + normal_sample(rng) * chosen.sigma).rem_euclid(params.lon_extent as f64);
        let half = params.lat_extent as f64 / 2.0;
        let lat = (chosen.lat + normal_sample(rng) * chosen.sigma).clamp(-half, half);
        (lon, lat)
    } else {
        let half = params.lat_extent as f64 / 2.0;
        (
            rng.gen_range(0.0..params.lon_extent as f64),
            rng.gen_range(-half..half),
        )
    }
}

/// Generates `n` 2-D (lon, lat) points from the SW mixture.
pub fn sw_points_2d(n: usize, params: &SwParams, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spots = make_hotspots(params, &mut rng);
    (0..n)
        .map(|_| {
            let (lon, lat) = sample_lonlat(params, &spots, &mut rng);
            [lon as f32, lat as f32]
        })
        .collect()
}

/// Generates `n` 3-D (lon, lat, TEC) points: the third dimension is a
/// total-electron-content analogue, higher near the equator, with noise.
pub fn sw_points_3d(n: usize, params: &SwParams, seed: u64) -> Vec<Point<3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spots = make_hotspots(params, &mut rng);
    (0..n)
        .map(|_| {
            let (lon, lat) = sample_lonlat(params, &spots, &mut rng);
            let half = (params.lat_extent as f64 / 2.0).max(1.0);
            let tec = 60.0 * (1.0 - (lat.abs() / half)) + 8.0 * normal_sample(&mut rng);
            [lon as f32, lat as f32, tec as f32]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = SwParams::default();
        assert_eq!(sw_points_2d(100, &p, 5), sw_points_2d(100, &p, 5));
        assert_ne!(sw_points_2d(100, &p, 5), sw_points_2d(100, &p, 6));
    }

    #[test]
    fn within_geographic_bounds() {
        let p = SwParams::default();
        let pts = sw_points_2d(5_000, &p, 1);
        assert!(pts
            .iter()
            .all(|q| (0.0..360.0).contains(&q[0]) && (-90.0..=90.0).contains(&q[1])));
    }

    #[test]
    fn data_is_clustered() {
        // A clustered dataset packs far more points into its densest 1°
        // cell than a uniform one would on average.
        let p = SwParams::default();
        let pts = sw_points_2d(20_000, &p, 2);
        let grid = epsgrid::GridIndex::build(&pts, 1.0).unwrap();
        let max_cell = (0..grid.num_cells())
            .map(|c| grid.cell_points(c).len())
            .max()
            .unwrap();
        let uniform_expectation = 20_000.0 / (360.0 * 180.0);
        assert!(
            max_cell as f64 > 30.0 * uniform_expectation,
            "densest cell {max_cell} should dwarf the uniform expectation {uniform_expectation}"
        );
    }

    #[test]
    fn tec_correlates_with_latitude() {
        let p = SwParams::default();
        let pts = sw_points_3d(20_000, &p, 3);
        let equatorial: Vec<f32> = pts
            .iter()
            .filter(|q| q[1].abs() < 15.0)
            .map(|q| q[2])
            .collect();
        let polar: Vec<f32> = pts
            .iter()
            .filter(|q| q[1].abs() > 70.0)
            .map(|q| q[2])
            .collect();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            mean(&equatorial) > mean(&polar) + 10.0,
            "TEC must be higher near the equator ({} vs {})",
            mean(&equatorial),
            mean(&polar)
        );
    }
}
