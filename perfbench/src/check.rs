//! Answer checks, run outside every timed region.

use epsgrid::{within_epsilon, Point};

/// An order-independent fingerprint of a multiset of ordered pairs: the
/// count plus two wrapping sums of independent 64-bit mixes of each pair.
/// Two pair sets with equal fingerprints are equal except with
/// probability about 2⁻¹²⁸, and computing one costs a single pass with no
/// sort, so every result of every pass can be compared to the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairPrint {
    /// Number of pairs.
    pub count: u64,
    sum_a: u64,
    sum_b: u64,
}

impl PairPrint {
    /// Fingerprints `pairs`.
    pub fn of(pairs: &[(u32, u32)]) -> Self {
        let mut p = Self {
            count: pairs.len() as u64,
            sum_a: 0,
            sum_b: 0,
        };
        for &(a, b) in pairs {
            let key = (u64::from(a) << 32) | u64::from(b);
            p.sum_a = p.sum_a.wrapping_add(mix(key ^ 0x243F_6A88_85A3_08D3));
            p.sum_b = p
                .sum_b
                .wrapping_add(mix(key.rotate_left(17) ^ 0x1319_8A2E_0370_7344));
        }
        p
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 stream: the benchmark's only source of randomness
/// besides the dataset generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Exact ε-neighbours of `points[query]` by a linear scan, ascending,
/// without the query itself — the same predicate the library uses.
pub fn brute_neighbors<const N: usize>(points: &[Point<N>], query: usize, eps: f32) -> Vec<u32> {
    let q = &points[query];
    (0..points.len())
        .filter(|&j| j != query && within_epsilon(q, &points[j], eps))
        .map(|j| j as u32)
        .collect()
}

/// `count` distinct point ids drawn from `[0, n)` with `rng`, ascending.
pub fn sample_ids(rng: &mut Rng, n: usize, count: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..count.min(n) * 4).map(|_| rng.below(n) as u32).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.truncate(count);
    ids
}

/// Checks that `pairs` holds exactly the brute-force ε-neighbourhood of
/// every sampled point. Returns the number of sampled points whose
/// neighbourhood differs.
pub fn sample_mismatches<const N: usize>(
    points: &[Point<N>],
    eps: f32,
    pairs: &[(u32, u32)],
    sample: &[u32],
) -> usize {
    let mut found: Vec<Vec<u32>> = vec![Vec::new(); sample.len()];
    for &(a, b) in pairs {
        if let Ok(i) = sample.binary_search(&a) {
            found[i].push(b);
        }
    }
    sample
        .iter()
        .zip(found)
        .filter(|(&q, got)| {
            let mut got = got.clone();
            got.sort_unstable();
            got != brute_neighbors(points, q as usize, eps)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_order_and_sees_one_changed_pair() {
        let a = [(0, 1), (1, 0), (2, 3), (3, 2)];
        let b = [(3, 2), (0, 1), (2, 3), (1, 0)];
        assert_eq!(PairPrint::of(&a), PairPrint::of(&b));
        assert_ne!(
            PairPrint::of(&a),
            PairPrint::of(&[(0, 1), (1, 0), (2, 3), (3, 1)])
        );
        // A duplicate in place of a missing pair keeps the count but not
        // the sums.
        assert_ne!(
            PairPrint::of(&a),
            PairPrint::of(&[(0, 1), (0, 1), (2, 3), (3, 2)])
        );
    }

    #[test]
    fn sample_check_catches_a_missing_neighbor() {
        let pts: Vec<[f32; 2]> = vec![[0.0, 0.0], [0.05, 0.0], [0.5, 0.5], [0.52, 0.5]];
        let exact = simjoin::brute_force_join(&pts, 0.1);
        assert_eq!(sample_mismatches(&pts, 0.1, &exact, &[0, 2, 3]), 0);
        let missing: Vec<(u32, u32)> = exact.iter().copied().filter(|&p| p != (2, 3)).collect();
        assert_eq!(sample_mismatches(&pts, 0.1, &missing, &[0, 2, 3]), 1);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |s| {
            let mut r = Rng::new(s);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert!((0..1000).all(|_| r.below(3) < 3));
    }
}
