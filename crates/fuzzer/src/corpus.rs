//! Coverage-guided seed corpus.
//!
//! A bounded FIFO pool with per-model pick indexes. Exact byte-for-byte
//! duplicates are dropped: storing the same input twice only skews
//! picks, never adds coverage. Picks are uniform — one `random_range`
//! draw each — and eviction is oldest-first; the engine-determinism
//! digests pin exactly that RNG stream.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::ModelId;

/// What [`Corpus::add`] did with the offered seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// Seed was retained; `evicted` reports whether another seed was
    /// evicted to make room.
    Added {
        /// Whether retention evicted a resident seed.
        evicted: bool,
    },
    /// Dropped: a byte-identical seed of the same model is already
    /// retained.
    DuplicateExact,
}

impl AddOutcome {
    /// Whether the seed was retained.
    #[must_use]
    pub fn retained(self) -> bool {
        matches!(self, AddOutcome::Added { .. })
    }
}

/// One retained input: the bytes and the data model that produced them.
///
/// Bytes are reference-counted (`Arc<[u8]>`), so retaining a seed in a
/// corpus, exporting it through an engine outbox and importing it into a
/// sibling instance all share one buffer — seed synchronization is
/// refcount bumps, not byte copies. The model is a dense [`ModelId`];
/// every engine of a campaign interns the shared Pit in the same order,
/// so ids agree across the instances that exchange seeds.
///
/// Each seed also carries its content hash, computed once at
/// construction, for the exact-duplicate check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// Wire bytes of the retained input.
    pub bytes: Arc<[u8]>,
    /// Id of the data model the input was generated from.
    pub model: ModelId,
    hash: u64,
}

impl Seed {
    /// Creates a seed; accepts a `Vec<u8>`, boxed slice or `&[u8]`.
    #[must_use]
    pub fn new(bytes: impl Into<Arc<[u8]>>, model: ModelId) -> Self {
        let bytes = bytes.into();
        let hash = content_hash(&bytes, model.index());
        Seed { bytes, model, hash }
    }

    /// Fast identity hash over bytes and model (exact-duplicate check).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a content hash over a seed's bytes and model id — the fast
/// exact-duplicate check. Two seeds with equal hashes are byte-compared
/// before being declared duplicates, so collisions cost a compare, never
/// a wrong drop.
fn content_hash(bytes: &[u8], model_index: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in (model_index as u64).to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounded seed pool with coverage-guided retention: inputs that reached new
/// branches are kept and later re-mutated, the feedback loop shared by every
/// fuzzer in the experiment.
///
/// Storage is a `VecDeque` (O(1) oldest-first eviction where the previous
/// `Vec::remove(0)` shifted every element) plus a per-model index of
/// insertion-ordered sequence numbers, so [`Corpus::pick_for_model`] is an
/// allocation-free O(1) lookup instead of a filter pass that built a
/// temporary `Vec` per call. A hash index makes the exact-duplicate check
/// O(1).
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{Corpus, ModelId, Seed};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let m = ModelId::from_raw(0);
/// let mut corpus = Corpus::new(2);
/// corpus.add(Seed::new(vec![1], m));
/// corpus.add(Seed::new(vec![2], m));
/// corpus.add(Seed::new(vec![3], m)); // evicts the oldest
/// corpus.add(Seed::new(vec![3], m)); // exact duplicate: dropped
/// assert_eq!(corpus.len(), 2);
///
/// let mut rng = StdRng::seed_from_u64(0);
/// assert!(corpus.pick(&mut rng).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    seeds: VecDeque<Seed>,
    /// Per-model insertion-ordered sequence numbers; indexed by
    /// [`ModelId::index`]. A seed's position in `seeds` is its sequence
    /// number minus `first_seq`.
    by_model: Vec<VecDeque<u64>>,
    /// Sequence number of the oldest retained seed.
    first_seq: u64,
    capacity: usize,
    /// `(content hash, sequence number)` of every live seed; a range
    /// over one hash finds the seeds sharing it.
    by_hash: BTreeSet<(u64, u64)>,
    /// Sum of `bytes.len()` over retained seeds (occupancy reporting).
    bytes_total: usize,
}

impl Corpus {
    /// Creates a corpus bounded at `capacity` seeds (0 means unbounded).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Corpus {
            capacity,
            ..Corpus::default()
        }
    }

    /// Adds a seed, reporting whether it was retained, dropped as an
    /// exact duplicate (same bytes, same model), or displaced the oldest
    /// resident seed.
    pub fn add(&mut self, seed: Seed) -> AddOutcome {
        if self.contains_exact(&seed) {
            return AddOutcome::DuplicateExact;
        }
        let evicted = self.capacity > 0 && self.seeds.len() >= self.capacity;
        if evicted {
            self.evict_oldest();
        }
        let model = seed.model.index();
        if self.by_model.len() <= model {
            self.by_model.resize_with(model + 1, VecDeque::new);
        }
        let seq = self.first_seq + self.seeds.len() as u64;
        self.by_model[model].push_back(seq);
        self.by_hash.insert((seed.hash, seq));
        self.bytes_total += seed.bytes.len();
        self.seeds.push_back(seed);
        AddOutcome::Added { evicted }
    }

    /// Whether a byte-identical seed of the same model is retained.
    #[must_use]
    pub fn contains_exact(&self, seed: &Seed) -> bool {
        let mut seqs = self.by_hash.range((seed.hash, 0)..=(seed.hash, u64::MAX));
        seqs.any(|&(_, seq)| {
            let existing = &self.seeds[(seq - self.first_seq) as usize];
            existing.model == seed.model && existing.bytes == seed.bytes
        })
    }

    /// Removes the oldest seed. Its sequence number is `first_seq` and
    /// the front of its model's index, so every index pops in O(1) or
    /// O(log n).
    fn evict_oldest(&mut self) {
        let seq = self.first_seq;
        let seed = self.seeds.pop_front().expect("evicting from a full corpus");
        self.bytes_total -= seed.bytes.len();
        let front = self.by_model[seed.model.index()].pop_front();
        assert_eq!(front, Some(seq), "oldest seed heads its model index");
        assert!(self.by_hash.remove(&(seed.hash, seq)), "hash indexed");
        self.first_seq += 1;
    }

    /// Picks a uniformly random seed, if any, with exactly one RNG draw.
    pub fn pick(&self, rng: &mut StdRng) -> Option<&Seed> {
        if self.seeds.is_empty() {
            return None;
        }
        Some(&self.seeds[rng.random_range(0..self.seeds.len())])
    }

    /// Picks a random seed generated from the given data model, if any.
    ///
    /// O(1) via the per-model index; draws from the RNG only when at
    /// least one matching seed exists (the same contract the filtering
    /// implementation had, so RNG streams are unchanged).
    pub fn pick_for_model(&self, rng: &mut StdRng, model: ModelId) -> Option<&Seed> {
        let index = self.by_model.get(model.index())?;
        if index.is_empty() {
            return None;
        }
        let seq = index[rng.random_range(0..index.len())];
        Some(&self.seeds[(seq - self.first_seq) as usize])
    }

    /// Number of retained seeds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the corpus holds no seeds.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Approximate resident payload size: the sum of `bytes.len()` over
    /// retained seeds. Approximate because `Arc`-shared buffers are
    /// counted once per referencing seed.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.bytes_total
    }

    /// Iterates over retained seeds, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Seed> {
        self.seeds.iter()
    }

    /// Panics unless every internal index is consistent with `seeds`.
    ///
    /// Test support for the eviction × rebuild property tests; not
    /// intended for production call sites.
    pub fn assert_consistent(&self) {
        if self.capacity > 0 {
            assert!(self.seeds.len() <= self.capacity, "capacity respected");
        }
        assert_eq!(
            self.bytes_total,
            self.seeds.iter().map(|s| s.bytes.len()).sum::<usize>(),
            "bytes_total tracks payload size"
        );
        let mut indexed = 0usize;
        for (m, dq) in self.by_model.iter().enumerate() {
            let mut prev = None;
            for &seq in dq {
                if let Some(p) = prev {
                    assert!(p < seq, "model index strictly ascending");
                }
                prev = Some(seq);
                let pos = seq
                    .checked_sub(self.first_seq)
                    .expect("indexed seq >= first_seq") as usize;
                let seed = self.seeds.get(pos).expect("indexed seq is live");
                assert_eq!(seed.model.index(), m, "seed filed under its model");
                indexed += 1;
            }
        }
        assert_eq!(indexed, self.seeds.len(), "every seed is model-indexed");
        let mut hashed = 0usize;
        for &(hash, seq) in &self.by_hash {
            let pos = (seq - self.first_seq) as usize;
            let seed = self.seeds.get(pos).expect("hash-indexed seq is live");
            assert_eq!(seed.hash, hash, "seed filed under its hash");
            hashed += 1;
        }
        assert_eq!(hashed, self.seeds.len(), "every seed is hash-indexed");
        for (i, seed) in self.seeds.iter().enumerate() {
            assert_eq!(
                seed.hash,
                content_hash(&seed.bytes, seed.model.index()),
                "stored hash matches bytes"
            );
            for other in self.seeds.iter().skip(i + 1) {
                assert!(
                    !(other.model == seed.model && other.bytes == seed.bytes),
                    "no exact duplicates retained"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn m(raw: u32) -> ModelId {
        ModelId::from_raw(raw)
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut c = Corpus::new(2);
        c.add(Seed::new(vec![1], m(0)));
        c.add(Seed::new(vec![2], m(0)));
        c.add(Seed::new(vec![3], m(0)));
        let bytes: Vec<_> = c.iter().map(|s| s.bytes.to_vec()).collect();
        assert_eq!(bytes, vec![vec![2], vec![3]]);
        c.assert_consistent();
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let mut c = Corpus::new(0);
        for i in 0..100u8 {
            c.add(Seed::new(vec![i], m(0)));
        }
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn pick_from_empty_is_none() {
        let c = Corpus::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(c.pick(&mut rng).is_none());
        assert!(c.pick_for_model(&mut rng, m(0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn pick_for_model_filters() {
        let mut c = Corpus::new(10);
        c.add(Seed::new(vec![1], m(0)));
        c.add(Seed::new(vec![2], m(1)));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let s = c.pick_for_model(&mut rng, m(1)).unwrap();
            assert_eq!(s.model, m(1));
        }
        assert!(c.pick_for_model(&mut rng, m(2)).is_none());
    }

    #[test]
    fn per_model_index_survives_eviction() {
        // Interleave two models through several evictions; the index must
        // keep pointing at live seeds with the right bytes.
        let mut c = Corpus::new(3);
        for i in 0..20u8 {
            c.add(Seed::new(vec![i], m(u32::from(i % 2))));
        }
        assert_eq!(c.len(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            for model in 0..2u32 {
                if let Some(seed) = c.pick_for_model(&mut rng, m(model)) {
                    assert_eq!(u32::from(seed.bytes[0] % 2), model);
                    assert!(seed.bytes[0] >= 17, "only the 3 newest survive");
                }
            }
        }
    }

    #[test]
    fn eviction_can_empty_a_model_index() {
        let mut c = Corpus::new(1);
        c.add(Seed::new(vec![1], m(0)));
        c.add(Seed::new(vec![2], m(1))); // evicts model 0's only seed
        let mut rng = StdRng::seed_from_u64(0);
        assert!(c.pick_for_model(&mut rng, m(0)).is_none());
        assert_eq!(c.pick_for_model(&mut rng, m(1)).unwrap().bytes[0], 2);
    }

    #[test]
    fn shared_bytes_are_refcounted_not_copied() {
        let seed = Seed::new(vec![7u8; 64], m(0));
        let export = seed.clone();
        assert!(
            Arc::ptr_eq(&seed.bytes, &export.bytes),
            "clone shares the buffer"
        );
    }

    #[test]
    fn exact_duplicates_dropped() {
        let mut c = Corpus::new(8);
        assert_eq!(
            c.add(Seed::new(vec![1, 2, 3], m(0))),
            AddOutcome::Added { evicted: false }
        );
        assert_eq!(
            c.add(Seed::new(vec![1, 2, 3], m(0))),
            AddOutcome::DuplicateExact
        );
        // Same bytes, different model: not a duplicate.
        assert_eq!(
            c.add(Seed::new(vec![1, 2, 3], m(1))),
            AddOutcome::Added { evicted: false }
        );
        assert_eq!(c.len(), 2);
        c.assert_consistent();
    }

    #[test]
    fn picks_match_legacy_uniform_rng_stream() {
        // The corpus must consume the RNG exactly like the historical
        // implementation: one random_range per non-empty pick.
        let mut c = Corpus::new(4);
        for i in 0..4u8 {
            c.add(Seed::new(vec![i], m(0)));
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let picked = c.pick(&mut rng).unwrap().bytes[0];
            let expected = reference.random_range(0..4usize) as u8;
            assert_eq!(picked, expected);
        }
    }

    #[test]
    fn content_hash_separates_models_and_bytes() {
        assert_eq!(content_hash(b"abc", 0), content_hash(b"abc", 0));
        assert_ne!(content_hash(b"abc", 0), content_hash(b"abc", 1));
        assert_ne!(content_hash(b"abc", 0), content_hash(b"abd", 0));
    }

    #[test]
    fn approx_bytes_tracks_payload() {
        let mut c = Corpus::new(2);
        c.add(Seed::new(vec![0u8; 10], m(0)));
        c.add(Seed::new(vec![1u8; 20], m(0)));
        assert_eq!(c.approx_bytes(), 30);
        c.add(Seed::new(vec![2u8; 5], m(0))); // evicts the 10-byte seed
        assert_eq!(c.approx_bytes(), 25);
    }
}
