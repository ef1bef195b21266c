//! Coverage-guided seed corpus with optional corpus intelligence.
//!
//! The base corpus is a bounded FIFO pool with per-model pick indexes.
//! On top of that, [`CorpusConfig`] gates three opt-in behaviors —
//! MinHash near-duplicate dropping, rarity-weighted seed picking, and
//! rarity-based eviction — that change which seeds survive and how often
//! they are re-mutated. Exact byte-for-byte duplicates are always
//! dropped regardless of configuration: storing the same input twice
//! only skews picks, never adds coverage.
//!
//! With a default `CorpusConfig` every RNG draw matches the historical
//! FIFO corpus bit-for-bit: `pick`/`pick_for_model` draw uniformly with
//! the same single `random_range` call, and eviction stays oldest-first.
//! The engine-determinism digests pin exactly that.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::sketch::{content_hash, SeedSketch, SKETCH_BANDS};
use crate::ModelId;

/// Opt-in corpus intelligence switches.
///
/// All default to `false`, which preserves the historical corpus
/// behavior byte-for-byte (uniform picks, FIFO eviction, no
/// near-duplicate filtering). Campaigns and benches that want the
/// intelligence enable it explicitly — see [`CorpusConfig::intelligent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusConfig {
    /// Drop seeds whose MinHash sketch near-matches a retained seed of
    /// the same model (exact duplicates are always dropped).
    pub near_dedup: bool,
    /// Weight `pick`/`pick_for_model` by coverage rarity instead of
    /// drawing uniformly.
    pub rarity_weighted_pick: bool,
    /// At capacity, evict the seed with the most common coverage
    /// (highest rarity score) instead of the oldest.
    pub rarity_eviction: bool,
}

impl CorpusConfig {
    /// All intelligence enabled.
    #[must_use]
    pub fn intelligent() -> Self {
        CorpusConfig {
            near_dedup: true,
            rarity_weighted_pick: true,
            rarity_eviction: true,
        }
    }

    /// Whether retention should stamp seeds with coverage-rarity scores
    /// (only weighted picks and rarity eviction consume them).
    #[must_use]
    pub fn scores_rarity(&self) -> bool {
        self.rarity_weighted_pick || self.rarity_eviction
    }
}

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
    /// Dropped: a near-identical seed (by MinHash sketch) of the same
    /// model is already retained. Only returned when
    /// [`CorpusConfig::near_dedup`] is set.
    DuplicateNear,
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
/// Each seed also carries its identity hash, MinHash sketch and a
/// coverage-rarity score. Hash and sketch are pure functions of
/// bytes/model, computed once at construction; the rarity score is
/// stamped by the engine at retention time (0 when intelligence is off
/// or the score is unknown) and frozen thereafter — coverage hit counts
/// are not reconstructible after a checkpoint restore, so the score
/// must travel with the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// Wire bytes of the retained input.
    pub bytes: Arc<[u8]>,
    /// Id of the data model the input was generated from.
    pub model: ModelId,
    /// Coverage-rarity score: the hit-count mass of the rarest branch
    /// word this seed newly touched, measured at retention. Lower is
    /// rarer; 0 means unscored.
    pub rarity: u32,
    hash: u64,
    sketch: SeedSketch,
}

impl Seed {
    /// Creates an unscored seed; accepts a `Vec<u8>`, boxed slice or
    /// `&[u8]`.
    #[must_use]
    pub fn new(bytes: impl Into<Arc<[u8]>>, model: ModelId) -> Self {
        Seed::with_rarity(bytes, model, 0)
    }

    /// Creates a seed carrying a coverage-rarity score.
    #[must_use]
    pub fn with_rarity(bytes: impl Into<Arc<[u8]>>, model: ModelId, rarity: u32) -> Self {
        let bytes = bytes.into();
        let hash = content_hash(&bytes, model.index());
        let sketch = SeedSketch::compute(&bytes);
        Seed {
            bytes,
            model,
            rarity,
            hash,
            sketch,
        }
    }

    /// Fast identity hash over bytes and model (exact-duplicate check).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// MinHash similarity sketch of the seed bytes.
    #[must_use]
    pub fn sketch(&self) -> &SeedSketch {
        &self.sketch
    }
}

/// Weight of a seed in rarity-weighted sampling. Lower rarity scores
/// (rarer coverage) get larger weights; the `+ 1` keeps every retained
/// seed reachable.
fn rarity_weight(rarity: u32) -> u64 {
    (1u64 << 16) / (u64::from(rarity) + 1) + 1
}

/// Vose alias table for O(1) weighted sampling with integer-only math.
///
/// `prob[i]` is a threshold in `[0, 2^32]`; a sample splits one RNG
/// draw into a column (high 32 bits) and a coin (low 32 bits) and takes
/// `i` when the coin is under the threshold, `alias[i]` otherwise. All
/// buffers are reused across rebuilds, so rebuilding at steady state
/// allocates nothing once the corpus reaches its high-water size.
#[derive(Debug, Clone, Default)]
struct AliasTable {
    prob: Vec<u64>,
    alias: Vec<u32>,
    scaled: Vec<u64>,
    small: Vec<u32>,
    large: Vec<u32>,
}

const ALIAS_ONE: u64 = 1 << 32;

impl AliasTable {
    /// Rebuilds the table from scratch for the given weights. The
    /// result depends only on the weight sequence — not on the edit
    /// history — so a checkpoint-restored corpus samples identically.
    fn rebuild(&mut self, weights: impl Iterator<Item = u64>) {
        self.prob.clear();
        self.alias.clear();
        self.scaled.clear();
        self.small.clear();
        self.large.clear();
        self.scaled.extend(weights);
        let n = self.scaled.len();
        if n == 0 {
            return;
        }
        let total: u128 = self.scaled.iter().map(|&w| u128::from(w)).sum();
        debug_assert!(total > 0, "weights are positive");
        for w in &mut self.scaled {
            *w = ((u128::from(*w) * n as u128 * u128::from(ALIAS_ONE)) / total) as u64;
        }
        self.prob.resize(n, ALIAS_ONE);
        self.alias.resize(n, 0);
        for (i, &s) in self.scaled.iter().enumerate() {
            if s < ALIAS_ONE {
                self.small.push(i as u32);
            } else {
                self.large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
            self.small.pop();
            let s = s as usize;
            let l = l as usize;
            self.prob[s] = self.scaled[s];
            self.alias[s] = l as u32;
            self.scaled[l] -= ALIAS_ONE - self.scaled[s];
            if self.scaled[l] < ALIAS_ONE {
                self.large.pop();
                self.small.push(l as u32);
            }
        }
        // Leftovers (rounding): their share is ~1.0; take them always.
        for &i in self.small.iter().chain(self.large.iter()) {
            self.prob[i as usize] = ALIAS_ONE;
        }
        self.small.clear();
        self.large.clear();
    }

    /// Samples a column from one 64-bit RNG draw.
    fn sample(&self, draw: u64) -> usize {
        let n = self.prob.len();
        debug_assert!(n > 0, "sampling an empty table");
        let col = ((draw >> 32) as usize) % n;
        let coin = draw & 0xffff_ffff;
        if coin < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// Bounded seed pool with coverage-guided retention: inputs that reached new
/// branches are kept and later re-mutated, the feedback loop shared by every
/// fuzzer in the experiment.
///
/// Storage is a `VecDeque` (O(1) oldest-first eviction where the previous
/// `Vec::remove(0)` shifted every element) plus a per-model index of
/// insertion-ordered sequence numbers, so [`Corpus::pick_for_model`] is an
/// allocation-free O(1) lookup instead of a filter pass that built a
/// temporary `Vec` per call. A hash index makes the always-on
/// exact-duplicate check O(1), and — when [`CorpusConfig::near_dedup`] is
/// set — an LSH band index over seed sketches bounds the near-duplicate
/// check to a handful of candidates.
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
    config: CorpusConfig,
    /// `(content hash, sequence number)` of every live seed; a range
    /// over one hash finds the seeds sharing it.
    by_hash: BTreeSet<(u64, u64)>,
    /// LSH band key (band index, band hash) → sequence numbers.
    /// Maintained only when `config.near_dedup` is set.
    bands: BTreeMap<(u8, u64), Vec<u64>>,
    /// Sum of `bytes.len()` over retained seeds (occupancy reporting).
    bytes_total: usize,
    /// Global and per-model alias tables for rarity-weighted picks.
    /// Rebuilt eagerly on mutation (only when `rarity_weighted_pick`),
    /// so picks stay `&self` and allocation-free.
    table: AliasTable,
    model_tables: Vec<AliasTable>,
}

impl Corpus {
    /// Creates a corpus bounded at `capacity` seeds (0 means unbounded)
    /// with default (all-off) intelligence.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Corpus::with_config(capacity, CorpusConfig::default())
    }

    /// Creates a corpus with explicit intelligence configuration.
    #[must_use]
    pub fn with_config(capacity: usize, config: CorpusConfig) -> Self {
        Corpus {
            capacity,
            config,
            ..Corpus::default()
        }
    }

    /// The corpus intelligence configuration.
    #[must_use]
    pub fn config(&self) -> CorpusConfig {
        self.config
    }

    /// Adds a seed, reporting whether it was retained, dropped as a
    /// duplicate, or displaced a resident seed.
    ///
    /// Exact duplicates (same bytes, same model) are always dropped.
    /// With [`CorpusConfig::near_dedup`], near-identical seeds of the
    /// same model are dropped too. At capacity the evicted seed is the
    /// oldest, or — with [`CorpusConfig::rarity_eviction`] — the one
    /// with the most common coverage (ties break oldest).
    pub fn add(&mut self, seed: Seed) -> AddOutcome {
        if self.contains_exact(&seed) {
            return AddOutcome::DuplicateExact;
        }
        if self.config.near_dedup && self.has_near_duplicate(&seed) {
            return AddOutcome::DuplicateNear;
        }
        let mut evicted = false;
        if self.capacity > 0 && self.seeds.len() >= self.capacity {
            self.evict_one();
            evicted = true;
        }
        let model = seed.model.index();
        if self.by_model.len() <= model {
            self.by_model.resize_with(model + 1, VecDeque::new);
            self.model_tables
                .resize_with(model + 1, AliasTable::default);
        }
        let seq = self.first_seq + self.seeds.len() as u64;
        self.by_model[model].push_back(seq);
        self.by_hash.insert((seed.hash, seq));
        if self.config.near_dedup {
            for b in 0..SKETCH_BANDS {
                self.bands
                    .entry((b as u8, seed.sketch.band(b)))
                    .or_default()
                    .push(seq);
            }
        }
        self.bytes_total += seed.bytes.len();
        self.seeds.push_back(seed);
        if self.config.rarity_weighted_pick {
            self.rebuild_global_table();
            self.rebuild_model_table(model);
        }
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

    /// Whether a near-identical seed (by sketch) of the same model is
    /// retained. Candidates come from the LSH band index, so only seeds
    /// sharing at least one band key are sketch-compared.
    fn has_near_duplicate(&self, seed: &Seed) -> bool {
        for b in 0..SKETCH_BANDS {
            let Some(seqs) = self.bands.get(&(b as u8, seed.sketch.band(b))) else {
                continue;
            };
            for &seq in seqs {
                let existing = &self.seeds[(seq - self.first_seq) as usize];
                if existing.model == seed.model && existing.sketch.is_near(&seed.sketch) {
                    return true;
                }
            }
        }
        false
    }

    /// Evicts one seed to make room: the oldest, or with rarity
    /// eviction the seed with the highest rarity score (most common
    /// coverage), ties broken oldest.
    fn evict_one(&mut self) {
        let pos = if self.config.rarity_eviction {
            let mut best = 0usize;
            let mut best_rarity = self.seeds[0].rarity;
            for (i, s) in self.seeds.iter().enumerate().skip(1) {
                if s.rarity > best_rarity {
                    best = i;
                    best_rarity = s.rarity;
                }
            }
            best
        } else {
            0
        };
        self.remove_at(pos);
    }

    /// Removes the seed at `pos`, keeping every index and the
    /// `first_seq` arithmetic consistent. Front removal is O(1) in the
    /// sequence bookkeeping (bump `first_seq`); middle removal
    /// renumbers every sequence number above the hole.
    fn remove_at(&mut self, pos: usize) {
        let seq = self.first_seq + pos as u64;
        let seed = self.seeds.remove(pos).expect("victim position in range");
        self.bytes_total -= seed.bytes.len();
        let index = &mut self.by_model[seed.model.index()];
        let at = index.binary_search(&seq).expect("evicted seq is indexed");
        index.remove(at);
        assert!(self.by_hash.remove(&(seed.hash, seq)), "hash indexed");
        if self.config.near_dedup {
            for b in 0..SKETCH_BANDS {
                let key = (b as u8, seed.sketch.band(b));
                let banded = self.bands.get_mut(&key).expect("band indexed");
                banded.retain(|&s| s != seq);
                if banded.is_empty() {
                    self.bands.remove(&key);
                }
            }
        }
        if pos == 0 {
            self.first_seq += 1;
        } else {
            for dq in &mut self.by_model {
                for s in dq.iter_mut() {
                    if *s > seq {
                        *s -= 1;
                    }
                }
            }
            self.by_hash = std::mem::take(&mut self.by_hash)
                .into_iter()
                .map(|(hash, s)| (hash, if s > seq { s - 1 } else { s }))
                .collect();
            for v in self.bands.values_mut() {
                for s in v.iter_mut() {
                    if *s > seq {
                        *s -= 1;
                    }
                }
            }
        }
        if self.config.rarity_weighted_pick {
            self.rebuild_global_table();
            self.rebuild_model_table(seed.model.index());
        }
    }

    fn rebuild_global_table(&mut self) {
        let mut table = std::mem::take(&mut self.table);
        table.rebuild(self.seeds.iter().map(|s| rarity_weight(s.rarity)));
        self.table = table;
    }

    fn rebuild_model_table(&mut self, model: usize) {
        let mut table = std::mem::take(&mut self.model_tables[model]);
        let first_seq = self.first_seq;
        let seeds = &self.seeds;
        table.rebuild(
            self.by_model[model]
                .iter()
                .map(|&seq| rarity_weight(seeds[(seq - first_seq) as usize].rarity)),
        );
        self.model_tables[model] = table;
    }

    /// Picks a random seed, if any: uniform by default, rarity-weighted
    /// with [`CorpusConfig::rarity_weighted_pick`]. Either way exactly
    /// one RNG draw is consumed per successful pick.
    pub fn pick(&self, rng: &mut StdRng) -> Option<&Seed> {
        if self.seeds.is_empty() {
            return None;
        }
        let at = if self.config.rarity_weighted_pick {
            self.table.sample(rng.next_u64())
        } else {
            rng.random_range(0..self.seeds.len())
        };
        Some(&self.seeds[at])
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
        let pos = if self.config.rarity_weighted_pick {
            self.model_tables[model.index()].sample(rng.next_u64())
        } else {
            rng.random_range(0..index.len())
        };
        let seq = index[pos];
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
    /// Test support for the eviction × checkpoint property tests; not
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
            assert_eq!(
                seed.sketch,
                SeedSketch::compute(&seed.bytes),
                "stored sketch matches bytes"
            );
            for other in self.seeds.iter().skip(i + 1) {
                assert!(
                    !(other.model == seed.model && other.bytes == seed.bytes),
                    "no exact duplicates retained"
                );
            }
        }
        if self.config.near_dedup {
            let mut banded = 0usize;
            for ((b, key), seqs) in &self.bands {
                for &seq in seqs {
                    let pos = (seq - self.first_seq) as usize;
                    let seed = self.seeds.get(pos).expect("band-indexed seq is live");
                    assert_eq!(
                        seed.sketch.band(usize::from(*b)),
                        *key,
                        "seed filed under its band key"
                    );
                    banded += 1;
                }
            }
            assert_eq!(
                banded,
                self.seeds.len() * SKETCH_BANDS,
                "every seed is band-indexed once per band"
            );
        }
        if self.config.rarity_weighted_pick {
            assert_eq!(self.table.prob.len(), self.seeds.len(), "global table size");
            for (m, dq) in self.by_model.iter().enumerate() {
                assert_eq!(
                    self.model_tables[m].prob.len(),
                    dq.len(),
                    "model table size"
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
    fn exact_duplicates_dropped_even_with_defaults() {
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
    fn near_duplicates_dropped_only_when_enabled() {
        let base: Vec<u8> = (0..=255u8).collect();
        let mut edited = base.clone();
        edited[40] ^= 0xff;

        let mut plain = Corpus::new(8);
        plain.add(Seed::new(base.clone(), m(0)));
        assert_eq!(
            plain.add(Seed::new(edited.clone(), m(0))),
            AddOutcome::Added { evicted: false },
            "defaults keep near-duplicates"
        );

        let mut smart = Corpus::with_config(8, CorpusConfig::intelligent());
        smart.add(Seed::new(base, m(0)));
        assert_eq!(
            smart.add(Seed::new(edited.clone(), m(0))),
            AddOutcome::DuplicateNear
        );
        // Same bytes under another model survive near-dedup too.
        assert_eq!(
            smart.add(Seed::new(edited, m(1))),
            AddOutcome::Added { evicted: false }
        );
        smart.assert_consistent();
    }

    #[test]
    fn rarity_eviction_removes_most_common_seed() {
        let cfg = CorpusConfig {
            rarity_eviction: true,
            ..CorpusConfig::default()
        };
        let mut c = Corpus::with_config(3, cfg);
        c.add(Seed::with_rarity(vec![1], m(0), 5));
        c.add(Seed::with_rarity(vec![2], m(1), 90)); // most common coverage
        c.add(Seed::with_rarity(vec![3], m(0), 7));
        c.add(Seed::with_rarity(vec![4], m(1), 2)); // forces an eviction
        let bytes: Vec<_> = c.iter().map(|s| s.bytes[0]).collect();
        assert_eq!(bytes, vec![1, 3, 4], "the rarity-90 seed is evicted");
        c.assert_consistent();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(c.pick_for_model(&mut rng, m(1)).unwrap().bytes[0], 4);
    }

    #[test]
    fn rarity_eviction_ties_break_oldest() {
        let cfg = CorpusConfig {
            rarity_eviction: true,
            ..CorpusConfig::default()
        };
        let mut c = Corpus::with_config(2, cfg);
        c.add(Seed::with_rarity(vec![1], m(0), 3));
        c.add(Seed::with_rarity(vec![2], m(0), 3));
        c.add(Seed::with_rarity(vec![3], m(0), 1));
        let bytes: Vec<_> = c.iter().map(|s| s.bytes[0]).collect();
        assert_eq!(bytes, vec![2, 3], "oldest of the tied seeds goes first");
        c.assert_consistent();
    }

    #[test]
    fn weighted_pick_prefers_rare_seeds() {
        let cfg = CorpusConfig {
            rarity_weighted_pick: true,
            ..CorpusConfig::default()
        };
        let mut c = Corpus::with_config(0, cfg);
        c.add(Seed::with_rarity(vec![0], m(0), 1)); // rare
        for i in 1..10u8 {
            c.add(Seed::with_rarity(vec![i], m(0), 10_000)); // common
        }
        let mut rng = StdRng::seed_from_u64(42);
        let mut rare_hits = 0u32;
        for _ in 0..1000 {
            if c.pick(&mut rng).unwrap().bytes[0] == 0 {
                rare_hits += 1;
            }
        }
        // Weight ratio is ~32768:7 per seed; uniform would give ~100 hits.
        assert!(rare_hits > 900, "rare seed picked {rare_hits}/1000");
        let mut model_rare = 0u32;
        for _ in 0..1000 {
            if c.pick_for_model(&mut rng, m(0)).unwrap().bytes[0] == 0 {
                model_rare += 1;
            }
        }
        assert!(model_rare > 900, "rare seed model-picked {model_rare}/1000");
    }

    #[test]
    fn weighted_pick_is_deterministic_and_rebuild_invariant() {
        // A table rebuilt from a restored corpus must sample identically:
        // build the same contents via different edit histories and check
        // pick-for-pick equality.
        let cfg = CorpusConfig::intelligent();
        let mut a = Corpus::with_config(4, cfg);
        for i in 0..12u8 {
            a.add(Seed::with_rarity(
                vec![i, 0xa0, i ^ 0x55],
                m(0),
                u32::from(i) + 1,
            ));
        }
        let mut b = Corpus::with_config(4, cfg);
        for seed in a.iter().cloned().collect::<Vec<_>>() {
            b.add(seed);
        }
        assert_eq!(a.len(), b.len());
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            assert_eq!(a.pick(&mut ra), b.pick(&mut rb));
            assert_eq!(
                a.pick_for_model(&mut ra, m(0)),
                b.pick_for_model(&mut rb, m(0))
            );
        }
        b.assert_consistent();
    }

    #[test]
    fn default_config_rng_stream_matches_legacy_uniform() {
        // The default corpus must consume the RNG exactly like the
        // historical implementation: one random_range per non-empty pick.
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
    fn approx_bytes_tracks_payload() {
        let mut c = Corpus::new(2);
        c.add(Seed::new(vec![0u8; 10], m(0)));
        c.add(Seed::new(vec![1u8; 20], m(0)));
        assert_eq!(c.approx_bytes(), 30);
        c.add(Seed::new(vec![2u8; 5], m(0))); // evicts the 10-byte seed
        assert_eq!(c.approx_bytes(), 25);
    }
}
