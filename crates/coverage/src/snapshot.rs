//! Immutable coverage snapshots with set algebra.

use crate::BranchId;

/// Immutable bitset of branches covered at some instant.
///
/// Snapshots are what the scheduler and metrics layers reason about: startup
/// coverage of a configuration pair, the union coverage of a parallel
/// campaign, or the "did this input reach anything new" feedback signal.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::{BranchId, CoverageMap};
///
/// let map = CoverageMap::new(8);
/// let probe = map.probe();
/// probe.hit(BranchId::from_index(1));
/// let before = map.snapshot();
///
/// probe.hit(BranchId::from_index(5));
/// let after = map.snapshot();
///
/// assert_eq!(after.newly_covered(&before), 1);
/// assert!(before.is_subset_of(&after));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct CoverageSnapshot {
    capacity: usize,
    words: Vec<u64>,
}

/// `clone_from` reuses the destination's word buffer, so refilling a
/// scratch snapshot of the same capacity does not touch the heap.
impl Clone for CoverageSnapshot {
    fn clone(&self) -> Self {
        CoverageSnapshot {
            capacity: self.capacity,
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.words.clone_from(&source.words);
    }
}

impl CoverageSnapshot {
    /// Creates an empty snapshot for a target with `capacity` branches.
    #[must_use]
    pub fn empty(capacity: usize) -> Self {
        CoverageSnapshot {
            capacity,
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Builds a snapshot from the indices of covered branches.
    ///
    /// Out-of-range indices are ignored.
    pub fn from_hits<I: IntoIterator<Item = usize>>(capacity: usize, hits: I) -> Self {
        let mut snap = CoverageSnapshot::empty(capacity);
        for index in hits {
            if index < capacity {
                snap.words[index / 64] |= 1u64 << (index % 64);
            }
        }
        snap
    }

    /// Number of branch slots this snapshot covers.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears every bit and re-sizes the snapshot for `capacity` branches.
    ///
    /// Reuses the existing word buffer, so repeated calls with the same
    /// capacity never touch the heap — this is what makes scratch
    /// snapshots ([`crate::CoverageMap::snapshot_into`]) allocation-free.
    pub fn clear_to_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
    }

    /// Mutable view of the raw coverage bitset, 64 branches per word.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Whether branch `id` was covered.
    #[must_use]
    pub fn is_covered(&self, id: BranchId) -> bool {
        let index = id.index() as usize;
        index < self.capacity && self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Number of covered branches.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no branch is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of branches covered here but not in `baseline`.
    ///
    /// This is the fuzzing feedback signal: "how many new branches did this
    /// execution reach".
    ///
    /// # Panics
    ///
    /// Panics if the snapshots come from targets of different capacity;
    /// comparing coverage across ID spaces is always a bug.
    #[must_use]
    pub fn newly_covered(&self, baseline: &CoverageSnapshot) -> usize {
        assert_eq!(
            self.capacity, baseline.capacity,
            "snapshots from different branch ID spaces"
        );
        self.words
            .iter()
            .zip(&baseline.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Whether every branch covered here is also covered in `other`.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch, as for [`CoverageSnapshot::newly_covered`].
    #[must_use]
    pub fn is_subset_of(&self, other: &CoverageSnapshot) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "snapshots from different branch ID spaces"
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Unions `other` into `self`, growing the covered set in place.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch, as for [`CoverageSnapshot::newly_covered`].
    pub fn union_with(&mut self, other: &CoverageSnapshot) {
        assert_eq!(
            self.capacity, other.capacity,
            "snapshots from different branch ID spaces"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns the union of two snapshots.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch, as for [`CoverageSnapshot::newly_covered`].
    #[must_use]
    pub fn union(&self, other: &CoverageSnapshot) -> CoverageSnapshot {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Unions any number of snapshots into one. Returns `None` for an
    /// empty iterator (there is no capacity to build an empty set from).
    ///
    /// # Panics
    ///
    /// Panics if the snapshots have differing capacities, as for
    /// [`CoverageSnapshot::union_with`].
    pub fn merge<'a, I>(snapshots: I) -> Option<CoverageSnapshot>
    where
        I: IntoIterator<Item = &'a CoverageSnapshot>,
    {
        let mut iter = snapshots.into_iter();
        let mut merged = iter.next()?.clone();
        for snapshot in iter {
            merged.union_with(snapshot);
        }
        Some(merged)
    }

    /// Iterates over the covered branch IDs in ascending order.
    pub fn covered_ids(&self) -> impl Iterator<Item = BranchId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            (0..64).filter_map(move |bit| {
                let index = wi * 64 + bit;
                (word & (1u64 << bit) != 0 && index < self.capacity)
                    .then(|| BranchId::from_index(index as u32))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(capacity: usize, hits: &[usize]) -> CoverageSnapshot {
        CoverageSnapshot::from_hits(capacity, hits.iter().copied())
    }

    #[test]
    fn empty_snapshot_has_no_coverage() {
        let s = CoverageSnapshot::empty(100);
        assert_eq!(s.covered_count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn from_hits_sets_exact_bits() {
        let s = snap(70, &[0, 63, 64, 69]);
        assert_eq!(s.covered_count(), 4);
        for &i in &[0usize, 63, 64, 69] {
            assert!(s.is_covered(BranchId::from_index(i as u32)));
        }
        assert!(!s.is_covered(BranchId::from_index(1)));
    }

    #[test]
    fn out_of_range_hits_ignored() {
        let s = snap(10, &[3, 100]);
        assert_eq!(s.covered_count(), 1);
    }

    #[test]
    fn newly_covered_counts_difference() {
        let base = snap(128, &[1, 2, 3]);
        let now = snap(128, &[2, 3, 4, 5]);
        assert_eq!(now.newly_covered(&base), 2);
        assert_eq!(base.newly_covered(&now), 1);
    }

    #[test]
    fn subset_relation() {
        let small = snap(64, &[1, 2]);
        let big = snap(64, &[1, 2, 3]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
    }

    #[test]
    fn union_combines_coverage() {
        let a = snap(64, &[1, 2]);
        let b = snap(64, &[2, 3]);
        let u = a.union(&b);
        assert_eq!(u.covered_count(), 3);
        let mut a2 = a.clone();
        a2.union_with(&b);
        assert_eq!(a2, u);
    }

    #[test]
    fn covered_ids_ascending() {
        let s = snap(130, &[129, 5, 64]);
        let ids: Vec<u32> = s.covered_ids().map(BranchId::index).collect();
        assert_eq!(ids, vec![5, 64, 129]);
    }

    #[test]
    fn merge_folds_many_snapshots() {
        let parts = vec![snap(130, &[1, 64]), snap(130, &[64, 129]), snap(130, &[2])];
        let merged = CoverageSnapshot::merge(&parts).expect("non-empty");
        assert_eq!(merged, snap(130, &[1, 2, 64, 129]));
        assert_eq!(CoverageSnapshot::merge([]), None);
        assert_eq!(
            CoverageSnapshot::merge(std::iter::once(&parts[2])),
            Some(parts[2].clone())
        );
    }

    #[test]
    #[should_panic(expected = "different branch ID spaces")]
    fn merge_rejects_capacity_mismatch() {
        let parts = vec![snap(64, &[1]), snap(65, &[1])];
        let _ = CoverageSnapshot::merge(&parts);
    }

    #[test]
    #[should_panic(expected = "different branch ID spaces")]
    fn capacity_mismatch_panics() {
        let a = snap(64, &[1]);
        let b = snap(65, &[1]);
        let _ = a.newly_covered(&b);
    }

    #[test]
    fn is_covered_out_of_range_is_false() {
        let s = snap(10, &[9]);
        assert!(!s.is_covered(BranchId::from_index(10)));
        assert!(!s.is_covered(BranchId::from_index(1000)));
    }
}
