//! The live coverage map and the probe handle targets hit it through.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::snapshot::CoverageSnapshot;
use crate::BranchId;

/// State shared between a [`CoverageMap`] and its [`CoverageProbe`]s.
struct MapShared {
    /// Per-branch hit counters (the guard array).
    cells: Vec<AtomicU32>,
    /// Branches hit at least once; bumped exactly once per cell, on its
    /// first hit, so [`CoverageMap::covered_count`] is a single load.
    covered: AtomicUsize,
    /// One bit per cell, set on the cell's first hit ever. The covered
    /// *set* as a wide bitset: snapshots and the feedback diff read 64
    /// branches per atomic load instead of walking 64 hit counters.
    covered_bits: Vec<AtomicU64>,
    /// One bit per 64-cell word of the map, set when a cell in that word
    /// records its *first* hit and cleared when
    /// [`CoverageMap::absorb_new`] rescans the word. Lets the fuzzing
    /// feedback loop skip every word untouched since the last session.
    dirty: Vec<AtomicU64>,
    /// Skip list over `dirty`: the index of every dirty-bitmap word that
    /// went empty → non-empty since the last drain, pushed in transition
    /// order. Bounds the drain to O(words actually dirtied) — a large map
    /// that found three new branches rescans three entries, not the whole
    /// bitmap.
    dirty_queue: Vec<AtomicU32>,
    /// Number of `dirty_queue` entries pushed since the last drain. A
    /// value beyond the queue's length means the queue overflowed and the
    /// drain must fall back to scanning the whole dirty bitmap.
    dirty_pending: AtomicUsize,
}

/// Renders the map's contents: every hit count and every coverage word
/// holding a first hit not yet absorbed. The skip list is left out: its
/// stale slots depend on when earlier drains ran, not on what was hit.
impl fmt::Debug for MapShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hits: Vec<u32> = self
            .cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let mut pending = Vec::new();
        for (d, dirty) in self.dirty.iter().enumerate() {
            let mut bits = dirty.load(Ordering::Acquire);
            while bits != 0 {
                pending.push(d * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        f.debug_struct("MapShared")
            .field("hits", &hits)
            .field("pending", &pending)
            .finish()
    }
}

impl MapShared {
    /// Recomputes the coverage bitset word holding cells
    /// `[word * 64, word * 64 + 64)` from the live counters — the slow
    /// reference for what `covered_bits[word]` maintains incrementally.
    #[cfg(test)]
    fn recount_word(&self, word: usize) -> u64 {
        let start = word * 64;
        let end = (start + 64).min(self.cells.len());
        let mut bits = 0u64;
        for (offset, cell) in self.cells[start..end].iter().enumerate() {
            if cell.load(Ordering::Relaxed) > 0 {
                bits |= 1u64 << offset;
            }
        }
        bits
    }

    /// The covered bitset word for cells `[word * 64, word * 64 + 64)`,
    /// one atomic load.
    fn coverage_word(&self, word: usize) -> u64 {
        self.covered_bits[word].load(Ordering::Acquire)
    }

    /// Drains one dirty-bitmap word: merges every coverage word it flags
    /// into `words` and returns how many covered branches were new to
    /// `words`.
    fn absorb_bitmap_word(&self, d: usize, words: &mut [u64]) -> usize {
        // Acquire pairs with the Release in `CoverageProbe::hit`: a dirty
        // bit observed here implies the first-hit `covered_bits` store
        // that preceded it is visible to the loads below.
        let mut bits = self.dirty[d].swap(0, Ordering::Acquire);
        let mut new = 0usize;
        while bits != 0 {
            let w = d * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // A set dirty bit can only come from a first hit on an
            // in-range cell, so the word index it decodes to must lie
            // inside the snapshot's word buffer.
            debug_assert!(
                w < words.len(),
                "dirty bit decodes to word {w} beyond the {} snapshot words",
                words.len()
            );
            let word = self.coverage_word(w);
            new += (word & !words[w]).count_ones() as usize;
            words[w] |= word;
        }
        new
    }
}

/// Shared per-target hit-count map, the analogue of the SanitizerCoverage
/// guard array.
///
/// The map is created once per fuzzing instance with the target's branch
/// count and shared with the target through [`CoverageProbe`] handles.
/// Recording a hit is a single relaxed atomic increment on the hot path
/// (plus two more atomics the first time a branch is ever hit), so
/// instrumentation stays cheap even on hot parsing paths.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::{BranchId, CoverageMap};
///
/// let map = CoverageMap::new(4);
/// let probe = map.probe();
/// probe.hit(BranchId::from_index(2));
/// assert_eq!(map.hit_count(BranchId::from_index(2)), 1);
/// assert_eq!(map.covered_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageMap {
    shared: Arc<MapShared>,
}

impl CoverageMap {
    /// Creates a map with `capacity` branch slots, all unhit.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        let dirty_words = words.div_ceil(64);
        CoverageMap {
            shared: Arc::new(MapShared {
                cells: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
                covered: AtomicUsize::new(0),
                covered_bits: (0..words).map(|_| AtomicU64::new(0)).collect(),
                dirty: (0..dirty_words).map(|_| AtomicU64::new(0)).collect(),
                // One slot per dirty-bitmap word: each word pushes at most
                // once per drain cycle, so the queue cannot overflow while
                // the map is quiescent during drains (the `absorb_new`
                // contract).
                dirty_queue: (0..dirty_words).map(|_| AtomicU32::new(0)).collect(),
                dirty_pending: AtomicUsize::new(0),
            }),
        }
    }

    /// Returns a cheap cloneable handle targets use to record hits.
    #[must_use]
    pub fn probe(&self) -> CoverageProbe {
        CoverageProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of branch slots in this map.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.cells.len()
    }

    /// Hit count recorded for `id`; zero for out-of-range IDs.
    #[must_use]
    pub fn hit_count(&self, id: BranchId) -> u32 {
        self.shared
            .cells
            .get(id.index() as usize)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Number of branches hit at least once.
    ///
    /// The map maintains this count as branches record their first hit, so
    /// the call is a single atomic load however large the map — safe to
    /// poll every round from the saturation loop.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.shared.covered.load(Ordering::Relaxed)
    }

    /// Captures an immutable snapshot of which branches are covered.
    #[must_use]
    pub fn snapshot(&self) -> CoverageSnapshot {
        let mut snap = CoverageSnapshot::empty(self.capacity());
        self.snapshot_into(&mut snap);
        snap
    }

    /// Refreshes `out` to the current covered set, reusing its buffer.
    ///
    /// Equivalent to `*out = self.snapshot()` but heap-allocation-free
    /// once `out` has ever held a snapshot of this capacity, which is what
    /// the fuzzing hot loop needs.
    pub fn snapshot_into(&self, out: &mut CoverageSnapshot) {
        out.clear_to_capacity(self.capacity());
        let words = out.words_mut();
        debug_assert_eq!(
            words.len(),
            self.capacity().div_ceil(64),
            "resized snapshot word buffer does not cover the map's cells"
        );
        for (w, bits) in words.iter_mut().enumerate() {
            *bits = self.shared.coverage_word(w);
        }
    }

    /// Merges every branch covered since the last call into `accumulated`
    /// and returns how many of them `accumulated` had not seen before.
    ///
    /// This is the allocation-free fuzzing feedback signal: the dirty
    /// bitmap flags every coverage word with a first-hit since the last
    /// drain, and a skip list over that bitmap records which of *its*
    /// words went non-empty — so a drain touches O(words actually
    /// dirtied), not O(map), and a session (or a whole batch) that reached
    /// nothing new costs a single atomic swap. Equivalent to
    /// `snapshot().newly_covered(&accumulated)` followed by
    /// `accumulated.union_with(&snapshot)` when the map is quiescent; the
    /// caller must not race this drain against live probes (every in-tree
    /// engine absorbs between sessions, on the thread that ran them).
    ///
    /// # Panics
    ///
    /// Panics if `accumulated` has a different capacity than the map.
    pub fn absorb_new(&self, accumulated: &mut CoverageSnapshot) -> usize {
        assert_eq!(
            accumulated.capacity(),
            self.capacity(),
            "snapshots from different branch ID spaces"
        );
        let pending = self.shared.dirty_pending.swap(0, Ordering::AcqRel);
        if pending == 0 {
            return 0;
        }
        let words = accumulated.words_mut();
        let queue = &self.shared.dirty_queue;
        if pending > queue.len() {
            // Overflowed skip list (possible only if probes raced a
            // drain): scan the whole dirty bitmap instead. Same result,
            // just not O(dirty words).
            let mut new = 0usize;
            for d in 0..self.shared.dirty.len() {
                if self.shared.dirty[d].load(Ordering::Relaxed) != 0 {
                    new += self.shared.absorb_bitmap_word(d, words);
                }
            }
            return new;
        }
        let mut new = 0usize;
        for entry in &queue[..pending] {
            let d = entry.load(Ordering::Acquire) as usize;
            new += self.shared.absorb_bitmap_word(d, words);
        }
        new
    }

    /// Clears all hit counts back to zero.
    pub fn reset(&self) {
        for cell in &self.shared.cells {
            cell.store(0, Ordering::Relaxed);
        }
        for bits in &self.shared.covered_bits {
            bits.store(0, Ordering::Relaxed);
        }
        for dirty in &self.shared.dirty {
            dirty.store(0, Ordering::Relaxed);
        }
        // Pushed-but-undrained queue entries die with the pending count;
        // slots themselves need no clearing (only `[0..pending)` is read).
        self.shared.dirty_pending.store(0, Ordering::Relaxed);
        self.shared.covered.store(0, Ordering::Relaxed);
    }
}

/// Cloneable handle through which instrumented code records branch hits.
///
/// This is the value handed to a protocol target when it starts; the target
/// calls [`CoverageProbe::hit`] at every instrumented branch, mirroring the
/// `trace-pc-guard` callback the paper inserts with Clang.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::{BranchId, CoverageMap};
///
/// let map = CoverageMap::new(2);
/// let probe = map.probe();
/// let clone = probe.clone(); // handles share the same map
/// clone.hit(BranchId::from_index(0));
/// assert_eq!(map.covered_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageProbe {
    shared: Arc<MapShared>,
}

impl CoverageProbe {
    /// Creates a probe backed by a throwaway map of `capacity` slots.
    ///
    /// Useful in tests and in targets run outside a campaign; hits are
    /// recorded but observable only through probes cloned from this one.
    #[must_use]
    pub fn detached(capacity: usize) -> Self {
        CoverageMap::new(capacity).probe()
    }

    /// Records one execution of branch `id`.
    ///
    /// Out-of-range IDs are ignored rather than panicking: a mis-sized map
    /// should degrade to lost coverage, not a crashed campaign.
    pub fn hit(&self, id: BranchId) {
        let index = id.index() as usize;
        if let Some(cell) = self.shared.cells.get(index) {
            if cell.fetch_add(1, Ordering::Relaxed) == 0 {
                // First hit ever for this branch: bump the covered count,
                // set the branch's covered bit, and mark its bitset word
                // dirty so the next `absorb_new` rescans it. Release on
                // the dirty bit so the drain that observes it also
                // observes the covered-bit store.
                self.shared.covered.fetch_add(1, Ordering::Relaxed);
                let word = index / 64;
                self.shared.covered_bits[word].fetch_or(1u64 << (index % 64), Ordering::Relaxed);
                let d = word / 64;
                if self.shared.dirty[d].fetch_or(1u64 << (word % 64), Ordering::Release) == 0 {
                    // The dirty-bitmap word just went empty → non-empty:
                    // record it on the skip list so the drain can jump
                    // straight to it.
                    let slot = self.shared.dirty_pending.fetch_add(1, Ordering::AcqRel);
                    if let Some(entry) = self.shared.dirty_queue.get(slot) {
                        entry.store(d as u32, Ordering::Release);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_empty() {
        let map = CoverageMap::new(8);
        assert_eq!(map.capacity(), 8);
        assert_eq!(map.covered_count(), 0);
        assert_eq!(map.snapshot().covered_count(), 0);
    }

    #[test]
    fn hits_accumulate_per_branch() {
        let map = CoverageMap::new(3);
        let probe = map.probe();
        probe.hit(BranchId::from_index(1));
        probe.hit(BranchId::from_index(1));
        probe.hit(BranchId::from_index(2));
        assert_eq!(map.hit_count(BranchId::from_index(0)), 0);
        assert_eq!(map.hit_count(BranchId::from_index(1)), 2);
        assert_eq!(map.hit_count(BranchId::from_index(2)), 1);
        assert_eq!(map.covered_count(), 2);
    }

    #[test]
    fn out_of_range_hits_are_ignored() {
        let map = CoverageMap::new(1);
        let probe = map.probe();
        probe.hit(BranchId::from_index(5));
        assert_eq!(map.covered_count(), 0);
        assert_eq!(map.hit_count(BranchId::from_index(5)), 0);
    }

    #[test]
    fn probes_share_one_map() {
        let map = CoverageMap::new(2);
        let p1 = map.probe();
        let p2 = p1.clone();
        p1.hit(BranchId::from_index(0));
        p2.hit(BranchId::from_index(0));
        assert_eq!(map.hit_count(BranchId::from_index(0)), 2);
    }

    #[test]
    fn reset_clears_counts() {
        let map = CoverageMap::new(2);
        map.probe().hit(BranchId::from_index(0));
        assert_eq!(map.covered_count(), 1);
        map.reset();
        assert_eq!(map.covered_count(), 0);
        assert_eq!(map.hit_count(BranchId::from_index(0)), 0);
        // First-hit accounting restarts cleanly after a reset.
        map.probe().hit(BranchId::from_index(1));
        assert_eq!(map.covered_count(), 1);
        let mut acc = CoverageSnapshot::empty(2);
        assert_eq!(map.absorb_new(&mut acc), 1);
    }

    #[test]
    fn snapshot_reflects_covered_set() {
        let map = CoverageMap::new(4);
        let probe = map.probe();
        probe.hit(BranchId::from_index(0));
        probe.hit(BranchId::from_index(3));
        let snap = map.snapshot();
        assert!(snap.is_covered(BranchId::from_index(0)));
        assert!(!snap.is_covered(BranchId::from_index(1)));
        assert!(snap.is_covered(BranchId::from_index(3)));
        assert_eq!(snap.covered_count(), 2);
    }

    #[test]
    fn snapshot_into_matches_snapshot_and_reuses_buffer() {
        let map = CoverageMap::new(200);
        let probe = map.probe();
        for i in [0usize, 63, 64, 130, 199] {
            probe.hit(BranchId::from_index(i as u32));
        }
        let mut scratch = CoverageSnapshot::empty(1); // wrong capacity on purpose
        map.snapshot_into(&mut scratch);
        assert_eq!(scratch, map.snapshot());
        // A later refresh sees later hits and stale bits gone after reset.
        map.reset();
        probe.hit(BranchId::from_index(7));
        map.snapshot_into(&mut scratch);
        assert_eq!(scratch, map.snapshot());
        assert_eq!(scratch.covered_count(), 1);
    }

    #[test]
    fn absorb_new_equals_snapshot_based_feedback() {
        let map = CoverageMap::new(300);
        let probe = map.probe();
        let mut acc = CoverageSnapshot::empty(300);
        probe.hit(BranchId::from_index(5));
        probe.hit(BranchId::from_index(290));
        assert_eq!(map.absorb_new(&mut acc), 2);
        assert_eq!(acc, map.snapshot());
        // Re-hitting covered branches is not new and sets no dirty bits.
        probe.hit(BranchId::from_index(5));
        assert_eq!(map.absorb_new(&mut acc), 0);
        // A mix of old and new branches counts only the new ones.
        probe.hit(BranchId::from_index(6));
        probe.hit(BranchId::from_index(290));
        assert_eq!(map.absorb_new(&mut acc), 1);
        assert_eq!(acc, map.snapshot());
    }

    #[test]
    #[should_panic(expected = "different branch ID spaces")]
    fn absorb_new_rejects_capacity_mismatch() {
        let map = CoverageMap::new(10);
        let mut acc = CoverageSnapshot::empty(11);
        let _ = map.absorb_new(&mut acc);
    }

    #[test]
    fn covered_bits_track_recounted_cells() {
        let map = CoverageMap::new(200);
        let probe = map.probe();
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            probe.hit(BranchId::from_index(i as u32));
            probe.hit(BranchId::from_index(i as u32));
        }
        for w in 0..200usize.div_ceil(64) {
            assert_eq!(
                map.shared.coverage_word(w),
                map.shared.recount_word(w),
                "word {w}"
            );
        }
        map.reset();
        probe.hit(BranchId::from_index(70));
        assert_eq!(map.shared.coverage_word(1), map.shared.recount_word(1));
    }

    #[test]
    fn hits_from_threads_are_all_counted() {
        let map = CoverageMap::new(1);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let probe = map.probe();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        probe.hit(BranchId::from_index(0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
        assert_eq!(map.hit_count(BranchId::from_index(0)), 4000);
        assert_eq!(map.covered_count(), 1);
    }

    #[test]
    fn snapshot_into_agrees_with_snapshot_under_concurrent_hits() {
        let map = CoverageMap::new(4096);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let probe = map.probe();
                scope.spawn(move || {
                    for i in 0..4096u32 {
                        if (i + t) % 3 == 0 {
                            probe.hit(BranchId::from_index(i));
                        }
                    }
                });
            }
        });
        let mut scratch = CoverageSnapshot::empty(4096);
        map.snapshot_into(&mut scratch);
        let direct = map.snapshot();
        assert_eq!(scratch, direct);
        assert_eq!(scratch.covered_count(), map.covered_count());
        // absorb_new starting from empty reconstructs the same set.
        let mut acc = CoverageSnapshot::empty(4096);
        assert_eq!(map.absorb_new(&mut acc), direct.covered_count());
        assert_eq!(acc, direct);
    }
}
