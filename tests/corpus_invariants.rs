//! Property-style corpus invariants: any interleaving of adds (fresh,
//! exact-duplicate, near-duplicate), capacity evictions and rebuilds
//! (the retained seeds replayed in order into a fresh corpus) keeps the
//! corpus's secondary indexes (`by_model`, the hash index, the LSH bands,
//! the sequence numbering) consistent with the seed deque — under every
//! combination of [`CorpusConfig`] flags — and a rebuilt corpus picks
//! identically to the original, so the indexes depend on the deque alone.

use cmfuzz_fuzzer::{Corpus, CorpusConfig, ModelId, Seed};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small capacity so the op stream forces constant evictions (front and
/// middle removals both, once rarity eviction is on).
const CAPACITY: usize = 6;

/// Deterministic op-stream generator (the corpus's own RNG type stays
/// out of the test so pick determinism can be asserted separately).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// All eight flag combinations.
fn configs() -> Vec<CorpusConfig> {
    (0..8u8)
        .map(|bits| CorpusConfig {
            near_dedup: bits & 1 != 0,
            rarity_weighted_pick: bits & 2 != 0,
            rarity_eviction: bits & 4 != 0,
        })
        .collect()
}

/// Next seed in the op stream: mostly fresh payloads, with deliberate
/// exact duplicates and one-byte-flip near duplicates of earlier seeds
/// mixed in so every dedup path fires.
fn next_seed(lcg: &mut Lcg, history: &[Seed]) -> Seed {
    match lcg.below(4) {
        0 if !history.is_empty() => {
            let i = lcg.below(history.len() as u64) as usize;
            history[i].clone()
        }
        1 if !history.is_empty() => {
            let i = lcg.below(history.len() as u64) as usize;
            let mut bytes = history[i].bytes.to_vec();
            if !bytes.is_empty() {
                let at = lcg.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1;
            }
            Seed::with_rarity(bytes, history[i].model, lcg.below(9) as u32)
        }
        _ => {
            let len = lcg.below(40) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| lcg.below(256) as u8).collect();
            Seed::with_rarity(
                bytes,
                ModelId::from_raw(lcg.below(3) as u32),
                lcg.below(9) as u32,
            )
        }
    }
}

/// Rebuilds the corpus from its retained seeds, oldest first, replayed
/// into a fresh corpus.
fn checkpoint_restore(corpus: &Corpus) -> Corpus {
    let checkpoint: Vec<Seed> = corpus.iter().cloned().collect();
    let mut restored = Corpus::with_config(CAPACITY, corpus.config());
    for seed in checkpoint {
        let outcome = restored.add(seed);
        assert!(
            outcome.retained(),
            "survivors are pairwise non-duplicate and within capacity, \
             so a checkpoint replay never drops one"
        );
    }
    restored
}

#[test]
fn interleaved_ops_keep_indexes_consistent_under_every_config() {
    for (case, config) in configs().into_iter().enumerate() {
        let mut lcg = Lcg(0x5EED ^ (case as u64).wrapping_mul(0x9E37));
        let mut corpus = Corpus::with_config(CAPACITY, config);
        let mut history: Vec<Seed> = Vec::new();
        for step in 0..400u64 {
            if lcg.below(10) == 0 {
                let restored = checkpoint_restore(&corpus);
                assert_eq!(restored.len(), corpus.len(), "restore keeps every seed");
                for (a, b) in corpus.iter().zip(restored.iter()) {
                    assert_eq!(a.bytes, b.bytes);
                    assert_eq!(a.model, b.model);
                    assert_eq!(a.rarity, b.rarity);
                    assert_eq!(a.content_hash(), b.content_hash());
                }
                // The restored corpus must pick exactly like the
                // original from the same RNG stream position.
                let mut original_rng = StdRng::seed_from_u64(step);
                let mut restored_rng = StdRng::seed_from_u64(step);
                for _ in 0..8 {
                    assert_eq!(
                        corpus.pick(&mut original_rng).map(Seed::content_hash),
                        restored.pick(&mut restored_rng).map(Seed::content_hash),
                    );
                    for model in 0..3 {
                        let id = ModelId::from_raw(model);
                        assert_eq!(
                            corpus
                                .pick_for_model(&mut original_rng, id)
                                .map(Seed::content_hash),
                            restored
                                .pick_for_model(&mut restored_rng, id)
                                .map(Seed::content_hash),
                        );
                    }
                }
                corpus = restored;
            } else {
                let seed = next_seed(&mut lcg, &history);
                history.push(seed.clone());
                corpus.add(seed);
            }
            corpus.assert_consistent();
        }
        assert!(
            !corpus.is_empty(),
            "config {config:?}: the op stream retains seeds"
        );
    }
}
