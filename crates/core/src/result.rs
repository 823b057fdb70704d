//! Self-join result sets, and the one grouping of a pair list by first id.
//!
//! [`NeighborIndex`] groups pairs into compressed rows with a counting sort:
//! a `starts` offset per point, then every row's neighbour ids in
//! production order. Consumers that want per-point neighbourhoods (the
//! serve answer cache, clustering) read its rows, and the exact multiset
//! comparison of two pair lists is built on it: the per-id counts must
//! match, then each row's neighbours are counted up from one side and down
//! by the other. Both are linear in pairs plus points; no comparison sort
//! runs.

/// The (ordered-pair) result set of a self-join.
///
/// Contains every pair `(a, b)` with `a ≠ b` and `dist(a, b) ≤ ε`, in both
/// orientations. Pair order is implementation-defined; comparisons should go
/// through [`ResultSet::same_pairs_as`] or [`ResultSet::sorted_pairs`].
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    pairs: Vec<(u32, u32)>,
}

impl ResultSet {
    /// Wraps a pair list.
    pub fn from_pairs(pairs: Vec<(u32, u32)>) -> Self {
        Self { pairs }
    }

    /// Number of ordered pairs (twice the number of matching point pairs).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the join found no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs in their production order.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Appends pairs from a batch.
    pub fn extend(&mut self, pairs: &[(u32, u32)]) {
        self.pairs.extend_from_slice(pairs);
    }

    /// The pairs sorted lexicographically (for display and output files).
    pub fn sorted_pairs(&self) -> Vec<(u32, u32)> {
        let mut p = self.pairs.clone();
        p.sort_unstable();
        p
    }

    /// Whether two result sets contain the same pairs (as multisets), in
    /// time linear in pairs plus points: both are grouped into a
    /// [`NeighborIndex`] and compared row by row, with no sort.
    pub fn same_pairs_as(&self, other: &ResultSet) -> bool {
        same_pair_multiset(&[self.pairs()], &[other.pairs()])
    }

    /// The pairs grouped by first id, for per-point neighbourhoods. Every
    /// id in the result must be below `num_points`.
    pub fn neighbor_index(&self, num_points: usize) -> NeighborIndex {
        NeighborIndex::from_slices(&[self.pairs()], num_points)
    }

    /// Checks internal consistency: no self-pairs, every pair present in
    /// both orientations, no duplicates. Returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let sorted = self.sorted_pairs();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(format!("duplicate pair {:?}", w[0]));
            }
        }
        for &(a, b) in &sorted {
            if a == b {
                return Err(format!("self-pair ({a}, {a})"));
            }
            if sorted.binary_search(&(b, a)).is_err() {
                return Err(format!("pair ({a}, {b}) missing its mirror ({b}, {a})"));
            }
        }
        Ok(())
    }

    /// The average number of neighbors per point.
    pub fn mean_neighbors(&self, num_points: usize) -> f64 {
        if num_points == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / num_points as f64
        }
    }
}

/// A pair list grouped by first id (compressed rows): row `a` holds the
/// second id of every pair `(a, b)`, in the order the pairs were given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborIndex {
    /// `starts[a]..starts[a + 1]` is row `a`'s range in `neighbors`.
    starts: Vec<usize>,
    neighbors: Vec<u32>,
}

impl NeighborIndex {
    /// Groups the pairs of every slice, in slice order, by a counting sort
    /// into `num_points` rows.
    ///
    /// # Panics
    ///
    /// If a pair's first id is not below `num_points`.
    pub(crate) fn from_slices(slices: &[&[(u32, u32)]], num_points: usize) -> Self {
        // Row lengths at `a + 1`, then their running sum: `starts[a]` is
        // where row `a` begins.
        let mut starts = vec![0usize; num_points + 1];
        for &(a, _) in slices.iter().copied().flatten() {
            starts[a as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        // Scatter with `starts[a]` as row `a`'s cursor; afterwards it holds
        // row `a`'s end, the start of row `a + 1`, so one shift restores
        // the offsets.
        let mut neighbors = vec![0u32; starts[num_points]];
        for &(a, b) in slices.iter().copied().flatten() {
            let at = &mut starts[a as usize];
            neighbors[*at] = b;
            *at += 1;
        }
        starts.copy_within(0..num_points, 1);
        starts[0] = 0;
        Self { starts, neighbors }
    }

    /// Number of rows (points).
    pub fn num_points(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of pairs grouped.
    pub fn num_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// The second ids of point `a`'s pairs, in production order (empty for
    /// a point with no pairs).
    pub fn neighbors(&self, a: u32) -> &[u32] {
        let a = a as usize;
        &self.neighbors[self.starts[a]..self.starts[a + 1]]
    }
}

/// Whether two pair lists, each given as slices that together hold it,
/// contain the same pairs as multisets.
///
/// Both sides are grouped into a [`NeighborIndex`] over the largest id
/// either side names; equal offsets mean equal per-id counts. Then, per
/// row, one counter per second id is counted up over the left row and down
/// over the right row, and a count that would go negative fails. A row
/// that passes leaves every counter at zero again (the rows are equally
/// long and no count went negative), so the one counter array is reset
/// exactly where it was touched. Linear in pairs plus points.
pub(crate) fn same_pair_multiset(left: &[&[(u32, u32)]], right: &[&[(u32, u32)]]) -> bool {
    let len = |side: &[&[(u32, u32)]]| side.iter().map(|s| s.len()).sum::<usize>();
    if len(left) != len(right) {
        return false;
    }
    let num_points = left
        .iter()
        .chain(right)
        .copied()
        .flatten()
        .map(|&(a, b)| a.max(b) as usize + 1)
        .max()
        .unwrap_or(0);
    let (l, r) = (
        NeighborIndex::from_slices(left, num_points),
        NeighborIndex::from_slices(right, num_points),
    );
    if l.starts != r.starts {
        return false;
    }
    let mut counts = vec![0u32; num_points];
    for a in 0..num_points as u32 {
        for &b in l.neighbors(a) {
            counts[b as usize] += 1;
        }
        for &b in r.neighbors(a) {
            let count = &mut counts[b as usize];
            if *count == 0 {
                return false;
            }
            *count -= 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_equality() {
        let a = ResultSet::from_pairs(vec![(1, 0), (0, 1)]);
        let b = ResultSet::from_pairs(vec![(0, 1), (1, 0)]);
        assert!(a.same_pairs_as(&b));
        assert_eq!(a.sorted_pairs(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn validate_accepts_well_formed_sets() {
        let r = ResultSet::from_pairs(vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(r.validate().is_ok());
        assert!(ResultSet::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_self_pair() {
        let r = ResultSet::from_pairs(vec![(3, 3)]);
        assert!(r.validate().unwrap_err().contains("self-pair"));
    }

    #[test]
    fn validate_rejects_missing_mirror() {
        let r = ResultSet::from_pairs(vec![(0, 1)]);
        assert!(r.validate().unwrap_err().contains("mirror"));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let r = ResultSet::from_pairs(vec![(0, 1), (0, 1), (1, 0), (1, 0)]);
        assert!(r.validate().unwrap_err().contains("duplicate"));
    }

    /// A symmetric pair list over 6 points in a scrambled production order.
    fn scrambled() -> Vec<(u32, u32)> {
        vec![
            (2, 0),
            (5, 1),
            (0, 2),
            (1, 5),
            (0, 1),
            (4, 2),
            (1, 0),
            (2, 4),
            (0, 4),
            (4, 0),
        ]
    }

    #[test]
    fn neighbor_index_keeps_production_order_and_empty_rows() {
        let pairs = scrambled();
        let index = ResultSet::from_pairs(pairs.clone()).neighbor_index(6);
        assert_eq!(index.num_points(), 6);
        assert_eq!(index.num_pairs(), pairs.len());
        // Production order within a row, not sorted order.
        assert_eq!(index.neighbors(0), &[2, 1, 4]);
        assert_eq!(index.neighbors(1), &[5, 0]);
        assert_eq!(index.neighbors(2), &[0, 4]);
        // Point 3 has no pairs: an empty row between two full ones.
        assert!(index.neighbors(3).is_empty());
        assert_eq!(index.neighbors(4), &[2, 0]);
        // The highest id's row ends at the last pair.
        assert_eq!(index.neighbors(5), &[1]);
        assert!((ResultSet::from_pairs(pairs).mean_neighbors(6) - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_index_reads_slices_in_order() {
        let pairs = scrambled();
        let whole = NeighborIndex::from_slices(&[&pairs], 7);
        let split = NeighborIndex::from_slices(&[&pairs[..3], &[], &pairs[3..7], &pairs[7..]], 7);
        assert_eq!(whole, split);
        // A trailing point with no pairs still gets its (empty) row.
        assert!(whole.neighbors(6).is_empty());
        let empty = NeighborIndex::from_slices(&[], 3);
        assert_eq!((empty.num_points(), empty.num_pairs()), (3, 0));
        assert!(empty.neighbors(2).is_empty());
    }

    #[test]
    fn multiset_comparison_accepts_any_permutation_across_slices() {
        let pairs = scrambled();
        let mut reversed = pairs.clone();
        reversed.reverse();
        assert!(same_pair_multiset(&[&pairs], &[&reversed]));
        // One unit's pairs spread over several batch slices, on either side.
        assert!(same_pair_multiset(
            &[&reversed[..4], &reversed[4..5], &[], &reversed[5..]],
            &[&pairs]
        ));
        assert!(same_pair_multiset(&[&pairs], &[&pairs[6..], &pairs[..6]]));
        // Duplicates are counted, not collapsed.
        let doubled = [(0, 1), (0, 1), (1, 0)];
        assert!(same_pair_multiset(
            &[&doubled],
            &[&[(1, 0), (0, 1)], &[(0, 1)]]
        ));
        assert!(same_pair_multiset(&[], &[]));
        assert!(same_pair_multiset(&[&[]], &[&[], &[]]));
        assert!(ResultSet::default().same_pairs_as(&ResultSet::default()));
    }

    #[test]
    fn multiset_comparison_rejects_every_difference() {
        let pairs = scrambled();
        let changed = |at: usize, pair: (u32, u32)| {
            let mut p = pairs.clone();
            p[at] = pair;
            p
        };
        // One changed neighbour: same first id, so every per-id count
        // still matches.
        assert!(!same_pair_multiset(&[&pairs], &[&changed(4, (0, 3))]));
        // One dropped pair.
        assert!(!same_pair_multiset(&[&pairs], &[&pairs[1..]]));
        assert!(!same_pair_multiset(&[&pairs[1..]], &[&pairs]));
        // A duplicate standing in for another pair of the same row: equal
        // lengths and equal per-id counts.
        assert!(!same_pair_multiset(&[&pairs], &[&changed(8, (0, 2))]));
        assert!(!same_pair_multiset(&[&changed(8, (0, 2))], &[&pairs]));
        // A reversed pair moves a count between rows.
        assert!(!same_pair_multiset(&[&pairs], &[&changed(1, (1, 5))]));
        // Unequal lengths, including against empty.
        assert!(!same_pair_multiset(&[&pairs], &[&pairs, &[(3, 4)]]));
        assert!(!same_pair_multiset(&[&pairs], &[]));
        assert!(!same_pair_multiset(&[], &[&[(0, 1)]]));
        assert!(!ResultSet::from_pairs(pairs).same_pairs_as(&ResultSet::default()));
    }
}
