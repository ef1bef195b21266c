//! Byte-level and field-aware mutation strategies.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::{DataModel, FieldKind, FieldValue};

/// The byte-level mutation operators, the standard repertoire of
/// mutation-based fuzzers (paper §II-B: "bit flipping, field truncation,
/// or inserting unexpected values").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationOp {
    /// Flip one random bit.
    BitFlip,
    /// Replace one byte with a random value.
    ByteReplace,
    /// Write an "interesting" 8-bit value (0, 1, 0x7f, 0x80, 0xff).
    Interesting8,
    /// Write an "interesting" 16-bit value at a random offset.
    Interesting16,
    /// Write an "interesting" 32-bit value at a random offset.
    Interesting32,
    /// Add or subtract a small delta from one byte.
    Arith,
    /// Truncate the buffer at a random point.
    Truncate,
    /// Append random bytes.
    Extend,
    /// Duplicate a random chunk in place.
    DuplicateChunk,
    /// Remove a random chunk.
    RemoveChunk,
}

impl MutationOp {
    /// All operators, for uniform selection.
    pub const ALL: [MutationOp; 10] = [
        MutationOp::BitFlip,
        MutationOp::ByteReplace,
        MutationOp::Interesting8,
        MutationOp::Interesting16,
        MutationOp::Interesting32,
        MutationOp::Arith,
        MutationOp::Truncate,
        MutationOp::Extend,
        MutationOp::DuplicateChunk,
        MutationOp::RemoveChunk,
    ];
}

const INTERESTING8: [u8; 5] = [0x00, 0x01, 0x7f, 0x80, 0xff];
const INTERESTING16: [u16; 6] = [0x0000, 0x0001, 0x7fff, 0x8000, 0xffff, 0x0100];
const INTERESTING32: [u32; 5] = [
    0x0000_0000,
    0x0000_0001,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
];

/// Seeded mutation engine: havoc-style byte mutation plus field-aware data
/// model mutation, with an optional token dictionary.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Mutator;
///
/// let mut mutator = Mutator::new(42);
/// let mut data = b"CONNECT".to_vec();
/// mutator.mutate(&mut data, 4);
/// // Deterministic for a given seed; almost always differs from the input.
/// assert!(!data.is_empty() || data.is_empty());
/// ```
#[derive(Debug)]
pub struct Mutator {
    rng: StdRng,
    dictionary: Vec<Vec<u8>>,
}

impl Mutator {
    /// Creates a mutator with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
            dictionary: Vec::new(),
        }
    }

    /// Attaches a token dictionary (AFL-style): when non-empty, havoc
    /// stacks occasionally overwrite or insert a whole token — the standard
    /// aid for multi-byte magic values. Empty tokens are dropped.
    #[must_use]
    pub fn with_dictionary<I, T>(mut self, tokens: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Vec<u8>>,
    {
        self.dictionary = tokens
            .into_iter()
            .map(Into::into)
            .filter(|t| !t.is_empty())
            .collect();
        self
    }

    /// The mutator's RNG stream position, for state comparisons.
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Applies between 1 and `max_stack` randomly chosen byte-level
    /// operators to `data` (AFL-style havoc stacking). With a dictionary
    /// attached, each slot has a 1-in-8 chance of splicing a token instead.
    pub fn mutate(&mut self, data: &mut Vec<u8>, max_stack: u32) {
        self.mutate_tail(data, 0, max_stack);
    }

    /// As [`Mutator::mutate`], but confined to `data[from..]`: the tail is
    /// mutated exactly as if it were a standalone buffer — same RNG draws,
    /// same resulting bytes — while `data[..from]` stays untouched. This
    /// is the arena entry point for batched execution, where the message
    /// under mutation is the final segment of a shared byte arena.
    ///
    /// # Panics
    ///
    /// Panics if `from > data.len()`.
    pub fn mutate_tail(&mut self, data: &mut Vec<u8>, from: usize, max_stack: u32) {
        assert!(
            from <= data.len(),
            "mutation tail starts at {from}, buffer holds {}",
            data.len()
        );
        let stack = self.rng.random_range(1..=max_stack.max(1));
        for _ in 0..stack {
            if !self.dictionary.is_empty() && self.rng.random_range(0..8u8) == 0 {
                self.splice_token(data, from);
                continue;
            }
            let op = *MutationOp::ALL.choose(&mut self.rng).expect("non-empty");
            self.apply_tail(op, data, from);
        }
    }

    /// Overwrites (or, at the end, appends) a random dictionary token at a
    /// random position in `data[from..]`. Splices by slice — overwrite the
    /// overlap, append the tail — instead of cloning the token into a
    /// temporary `Vec`; RNG draws and resulting bytes are identical to the
    /// cloning implementation.
    fn splice_token(&mut self, data: &mut Vec<u8>, from: usize) {
        let Mutator { rng, dictionary } = self;
        let len = data.len() - from;
        let token = &dictionary[rng.random_range(0..dictionary.len())];
        let at = from + rng.random_range(0..=len);
        let overlap = token.len().min(data.len() - at);
        data[at..at + overlap].copy_from_slice(&token[..overlap]);
        data.extend_from_slice(&token[overlap..]);
    }

    /// Applies one specific operator to `data`.
    pub fn apply(&mut self, op: MutationOp, data: &mut Vec<u8>) {
        self.apply_tail(op, data, 0);
    }

    /// Applies one specific operator to `data[from..]`, as if the tail
    /// were a standalone buffer. Growth and shrink happen at the `Vec`'s
    /// end or inside the tail, so bytes before `from` never move.
    fn apply_tail(&mut self, op: MutationOp, data: &mut Vec<u8>, from: usize) {
        let len = data.len() - from;
        match op {
            MutationOp::BitFlip => {
                if let Some(i) = self.offset(len) {
                    data[from + i] ^= 1u8 << self.rng.random_range(0..8u32);
                }
            }
            MutationOp::ByteReplace => {
                if let Some(i) = self.offset(len) {
                    data[from + i] = self.rng.random();
                }
            }
            MutationOp::Interesting8 => {
                if let Some(i) = self.offset(len) {
                    data[from + i] = *INTERESTING8.choose(&mut self.rng).expect("non-empty");
                }
            }
            MutationOp::Interesting16 => {
                if len >= 2 {
                    let i = from + self.rng.random_range(0..=len - 2);
                    let v = *INTERESTING16.choose(&mut self.rng).expect("non-empty");
                    data[i..i + 2].copy_from_slice(&v.to_be_bytes());
                }
            }
            MutationOp::Interesting32 => {
                if len >= 4 {
                    let i = from + self.rng.random_range(0..=len - 4);
                    let v = *INTERESTING32.choose(&mut self.rng).expect("non-empty");
                    data[i..i + 4].copy_from_slice(&v.to_be_bytes());
                }
            }
            MutationOp::Arith => {
                if let Some(i) = self.offset(len) {
                    let delta = self.rng.random_range(1..=16u8);
                    data[from + i] = if self.rng.random() {
                        data[from + i].wrapping_add(delta)
                    } else {
                        data[from + i].wrapping_sub(delta)
                    };
                }
            }
            MutationOp::Truncate => {
                if len > 1 {
                    let keep = self.rng.random_range(1..len);
                    data.truncate(from + keep);
                }
            }
            MutationOp::Extend => {
                let extra = self.rng.random_range(1..=16usize);
                for _ in 0..extra {
                    data.push(self.rng.random());
                }
            }
            MutationOp::DuplicateChunk => {
                if len > 0 {
                    let start = from + self.rng.random_range(0..len);
                    let chunk = self.rng.random_range(1..=(data.len() - start).min(8));
                    let at = from + self.rng.random_range(0..=len);
                    // Insert without a temporary chunk Vec: append the
                    // chunk in place, then rotate it back to `at`. Byte
                    // result identical to `splice(at..at, chunk)`.
                    data.extend_from_within(start..start + chunk);
                    data[at..].rotate_right(chunk);
                }
            }
            MutationOp::RemoveChunk => {
                if len > 1 {
                    let start = self.rng.random_range(0..len - 1);
                    let chunk = self.rng.random_range(1..=(len - 1 - start).clamp(1, 8));
                    let at = from + start;
                    data.drain(at..at + chunk);
                }
            }
        }
    }

    /// Field-aware mutation: perturbs one mutable field of `model` in a
    /// type-directed way (integers get boundary values, length fields get
    /// lying adjustments, choices flip alternatives, strings and blobs get
    /// byte-level havoc). Returns the name of the mutated field, or `None`
    /// if the model has no mutable fields.
    ///
    /// Selects the site by counted walk (`DataModel::count_mutable` +
    /// `nth_mutable`) rather than collecting `&mut Field` pointers into a
    /// temporary `Vec`, and snapshots only the scalars it needs from the
    /// field kind instead of cloning it (a `Choice` kind owns whole
    /// sub-models). RNG draw order matches the collecting implementation
    /// exactly, so mutation streams are unchanged.
    pub fn mutate_model<'m>(&mut self, model: &'m mut DataModel) -> Option<&'m str> {
        /// Copy-only snapshot of the facts the mutation arms need.
        enum Site {
            UInt { bits: u8 },
            LengthOf,
            Choice { options: usize },
            Bytes,
            Str,
            Block,
        }

        let sites = model.count_mutable();
        if sites == 0 {
            return None;
        }
        let index = self.rng.random_range(0..sites);
        let field = model.nth_mutable(index).expect("index < count_mutable");
        let site = match field.kind() {
            FieldKind::UInt { bits, .. } => Site::UInt { bits: *bits },
            FieldKind::LengthOf { .. } => Site::LengthOf,
            FieldKind::Choice { options, .. } => Site::Choice {
                options: options.len(),
            },
            FieldKind::Bytes => Site::Bytes,
            FieldKind::Str => Site::Str,
            FieldKind::Block(_) => Site::Block,
        };
        match site {
            Site::UInt { bits } => {
                let max = if bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                let new = match self.rng.random_range(0..4u8) {
                    0 => 0,
                    1 => max,
                    2 => max / 2,
                    _ => self.rng.random::<u64>() & max,
                };
                *field.value_mut() = FieldValue::Int(new);
            }
            Site::LengthOf => {
                if let FieldKind::LengthOf { adjust, .. } = field.kind_mut() {
                    *adjust = self.rng.random_range(-64..=64);
                }
            }
            Site::Choice { options } => {
                if let FieldKind::Choice { selected, .. } = field.kind_mut() {
                    *selected = self.rng.random_range(0..options);
                }
            }
            Site::Bytes => {
                if let FieldValue::Bytes(b) = field.value_mut() {
                    let mut copy = std::mem::take(b);
                    self.mutate(&mut copy, 4);
                    *b = copy;
                }
            }
            Site::Str => {
                if let FieldValue::Str(s) = field.value_mut() {
                    let mut bytes = std::mem::take(s).into_bytes();
                    self.mutate(&mut bytes, 4);
                    // `from_utf8_lossy` of valid UTF-8 is the identity, so
                    // round-tripping through `from_utf8` first gives the
                    // same string while only allocating on invalid input.
                    *s = match String::from_utf8(bytes) {
                        Ok(valid) => valid,
                        Err(err) => String::from_utf8_lossy(err.as_bytes()).into_owned(),
                    };
                }
            }
            Site::Block => {}
        }
        Some(field.name())
    }

    fn offset(&mut self, len: usize) -> Option<usize> {
        (len > 0).then(|| self.rng.random_range(0..len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataModel, Endian, Field, Generator};

    #[test]
    fn same_seed_same_mutations() {
        let run = |seed: u64| {
            let mut m = Mutator::new(seed);
            let mut data = b"The quick brown fox".to_vec();
            for _ in 0..32 {
                m.mutate(&mut data, 6);
            }
            data
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn every_op_handles_empty_and_tiny_buffers() {
        let mut m = Mutator::new(3);
        for op in MutationOp::ALL {
            let mut empty: Vec<u8> = Vec::new();
            m.apply(op, &mut empty);
            let mut one = vec![0u8];
            m.apply(op, &mut one);
            let mut two = vec![0u8, 1];
            m.apply(op, &mut two);
        }
    }

    #[test]
    fn truncate_shrinks_extend_grows() {
        let mut m = Mutator::new(9);
        let mut data = vec![0u8; 64];
        m.apply(MutationOp::Truncate, &mut data);
        assert!(data.len() < 64);
        let before = data.len();
        m.apply(MutationOp::Extend, &mut data);
        assert!(data.len() > before);
    }

    #[test]
    fn mutate_usually_changes_data() {
        let mut m = Mutator::new(7);
        let original = vec![0x55u8; 32];
        let mut changed = 0;
        for _ in 0..20 {
            let mut data = original.clone();
            m.mutate(&mut data, 4);
            if data != original {
                changed += 1;
            }
        }
        assert!(changed >= 18, "only {changed}/20 runs changed the buffer");
    }

    #[test]
    fn mutate_model_touches_exactly_one_field() {
        let mut m = Mutator::new(11);
        let mut model = DataModel::new("t")
            .field(Field::uint("a", 16, 100))
            .field(Field::length_of("len", "p", 8, Endian::Big))
            .field(Field::bytes("p", b"xyz"));
        let name = m.mutate_model(&mut model).expect("mutable fields exist");
        assert!(["a", "len", "p"].contains(&name));
    }

    #[test]
    fn mutate_model_none_when_all_immutable() {
        let mut m = Mutator::new(13);
        let mut model = DataModel::new("t").field(Field::uint("a", 8, 1).immutable());
        assert_eq!(m.mutate_model(&mut model), None);
    }

    #[test]
    fn mutated_model_still_renders() {
        let mut m = Mutator::new(17);
        let mut model = DataModel::new("t")
            .field(Field::length_of("len", "body", 16, Endian::Big))
            .field(Field::block(
                "body",
                vec![Field::str("s", "hello"), Field::uint("n", 32, 5)],
            ))
            .field(Field::choice(
                "tail",
                vec![Field::uint("t0", 8, 0), Field::uint("t1", 8, 1)],
            ));
        for _ in 0..100 {
            m.mutate_model(&mut model);
            let _ = Generator::render(&model); // must not panic
        }
    }

    #[test]
    fn dictionary_tokens_get_spliced_in() {
        let mut m = Mutator::new(21).with_dictionary([b"$SYS".to_vec()]);
        let mut seen_token = false;
        for _ in 0..200 {
            let mut data = vec![b'x'; 16];
            m.mutate(&mut data, 4);
            if data.windows(4).any(|w| w == b"$SYS") {
                seen_token = true;
                break;
            }
        }
        assert!(seen_token, "token never spliced in 200 runs");
    }

    #[test]
    fn empty_dictionary_changes_nothing() {
        let run = |dict: bool| {
            let mut m = if dict {
                Mutator::new(5).with_dictionary(Vec::<Vec<u8>>::new())
            } else {
                Mutator::new(5)
            };
            let mut data = vec![7u8; 32];
            for _ in 0..16 {
                m.mutate(&mut data, 4);
            }
            data
        };
        assert_eq!(run(false), run(true), "empty dictionary must be inert");
    }

    #[test]
    fn dictionary_splice_handles_empty_buffer() {
        let mut m = Mutator::new(9).with_dictionary([b"tok".to_vec(), Vec::new()]);
        let mut data: Vec<u8> = Vec::new();
        for _ in 0..64 {
            m.mutate(&mut data, 2);
        }
        // Must not panic; empty tokens were filtered.
    }

    #[test]
    fn mutate_tail_matches_standalone_mutate() {
        // The arena path must be invisible to determinism: mutating the
        // tail of a prefixed buffer draws the same RNG sequence and
        // produces the same bytes as mutating the tail alone, and never
        // disturbs the prefix.
        for seed in 0..32u64 {
            let prefix: Vec<u8> = (0..(seed as usize % 9) * 7).map(|i| i as u8).collect();
            let message: Vec<u8> = (0..16 + seed as usize % 40)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed as u8))
                .collect();

            let mut standalone = Mutator::new(seed).with_dictionary([b"$SYS".to_vec()]);
            let mut expected = message.clone();
            for _ in 0..8 {
                standalone.mutate(&mut expected, 6);
            }

            let mut tailed = Mutator::new(seed).with_dictionary([b"$SYS".to_vec()]);
            let mut arena = prefix.clone();
            arena.extend_from_slice(&message);
            for _ in 0..8 {
                tailed.mutate_tail(&mut arena, prefix.len(), 6);
            }

            assert_eq!(&arena[..prefix.len()], &prefix[..], "prefix disturbed");
            assert_eq!(&arena[prefix.len()..], &expected[..], "tail bytes diverge");
            assert_eq!(
                tailed.rng_state(),
                standalone.rng_state(),
                "RNG draw sequences diverge"
            );
        }
    }

    #[test]
    fn uint_mutation_respects_width() {
        let mut m = Mutator::new(19);
        let mut model = DataModel::new("t").field(Field::uint("a", 8, 1));
        for _ in 0..50 {
            m.mutate_model(&mut model);
            let rendered = Generator::render(&model);
            assert_eq!(rendered.len(), 1);
        }
    }
}
