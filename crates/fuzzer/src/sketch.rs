//! Allocation-free n-gram MinHash sketches for seed similarity.
//!
//! Every [`Seed`](crate::Seed) carries a fixed-width signature computed
//! once over its rendered wire bytes. Two seeds whose payloads share most
//! of their 4-byte shingles agree on most signature lanes, so the corpus
//! can detect near-duplicates with a handful of integer compares instead
//! of byte diffing — and group candidates through LSH bands instead of
//! comparing against every retained seed.
//!
//! Everything here lives on the stack: the signature is a `[u64; 16]`,
//! shingles are folded from a sliding window without materializing them,
//! and the per-lane permutations are fixed multiply-xor constants. No
//! allocation, no floating point, no external ML dependencies.

/// Number of independent MinHash lanes in a signature.
pub const SKETCH_LANES: usize = 16;

/// Number of LSH bands a signature splits into (4 lanes per band).
pub const SKETCH_BANDS: usize = 4;

const LANES_PER_BAND: usize = SKETCH_LANES / SKETCH_BANDS;

/// Minimum number of agreeing lanes (out of [`SKETCH_LANES`]) for two
/// sketches to count as near-duplicates: 14/16 ≈ 87% estimated Jaccard
/// similarity.
pub const NEAR_DUP_LANES: u32 = 14;

/// Per-lane odd multipliers: splitmix64-style constants so each lane is
/// an independent permutation of the shingle space.
const LANE_MUL: [u64; SKETCH_LANES] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0x2545_f491_4f6c_dd1d,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
    0x8764_0e7d_21f1_56c9,
    0xd6e8_feb8_6659_fd93,
    0xa076_1d64_95b9_fb21,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x1d8e_4e27_c47d_124f,
    0xeb44_acca_b455_d165,
    0x9c6e_6877_736c_46e3,
    0xcb9e_59b7_4591_5ab9,
];

/// Per-lane xor salts applied before the multiply.
const LANE_XOR: [u64; SKETCH_LANES] = [
    0x0000_0000_0000_0000,
    0x5851_f42d_4c95_7f2d,
    0x1405_7b7e_f767_814f,
    0x8141_14af_a1f1_29cf,
    0x6c62_272e_07bb_0142,
    0x27d4_eb2f_1656_67c5,
    0x9e6c_63d0_a409_e5c3,
    0x3c79_ac49_2ba7_b653,
    0x1b87_3595_45f9_41b5,
    0x2f5a_94ce_12f4_c3e1,
    0x4cf5_ad43_2745_937f,
    0x6a09_e667_f3bc_c909,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
];

/// Width of the byte shingle the sketch is computed over.
const SHINGLE: usize = 4;

#[inline]
fn mix(x: u64) -> u64 {
    // xorshift-multiply finalizer (splitmix64 tail): spreads the shingle
    // bits so lane minima behave like independent uniform hashes.
    let mut x = x;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fixed-width MinHash signature over a seed's rendered bytes.
///
/// Computed with [`SeedSketch::compute`]; compared with
/// [`SeedSketch::matching_lanes`] / [`SeedSketch::is_near`]; indexed for
/// LSH lookup through [`SeedSketch::band`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSketch {
    lanes: [u64; SKETCH_LANES],
}

impl SeedSketch {
    /// Computes the signature of `bytes`.
    ///
    /// Shingles are overlapping 4-byte windows folded to a `u64`; each
    /// lane keeps the minimum of its permutation over all shingles.
    /// Inputs shorter than one shingle (including empty) hash the
    /// zero-padded bytes plus the length as a single synthetic shingle,
    /// so short payloads still get distinct, deterministic signatures.
    #[must_use]
    pub fn compute(bytes: &[u8]) -> Self {
        let mut lanes = [u64::MAX; SKETCH_LANES];
        if bytes.len() >= SHINGLE {
            for window in bytes.windows(SHINGLE) {
                let gram = u64::from(u32::from_le_bytes(
                    window.try_into().expect("window is SHINGLE bytes"),
                ));
                Self::fold(&mut lanes, gram);
            }
        } else {
            let mut padded = [0u8; SHINGLE];
            padded[..bytes.len()].copy_from_slice(bytes);
            let gram = u64::from(u32::from_le_bytes(padded)) | ((bytes.len() as u64 + 1) << 32);
            Self::fold(&mut lanes, gram);
        }
        SeedSketch { lanes }
    }

    #[inline]
    fn fold(lanes: &mut [u64; SKETCH_LANES], gram: u64) {
        for k in 0..SKETCH_LANES {
            let h = mix((gram ^ LANE_XOR[k]).wrapping_mul(LANE_MUL[k]));
            if h < lanes[k] {
                lanes[k] = h;
            }
        }
    }

    /// Number of lanes on which `self` and `other` agree — an estimator
    /// of Jaccard similarity between the two shingle sets, scaled to
    /// [`SKETCH_LANES`].
    #[must_use]
    pub fn matching_lanes(&self, other: &SeedSketch) -> u32 {
        let mut matches = 0;
        for k in 0..SKETCH_LANES {
            matches += u32::from(self.lanes[k] == other.lanes[k]);
        }
        matches
    }

    /// Whether the two sketches agree on at least [`NEAR_DUP_LANES`]
    /// lanes — the corpus near-duplicate criterion.
    #[must_use]
    pub fn is_near(&self, other: &SeedSketch) -> bool {
        self.matching_lanes(other) >= NEAR_DUP_LANES
    }

    /// LSH key of band `band` (0..[`SKETCH_BANDS`]): an FNV-1a fold of
    /// that band's lanes. Two near-identical sketches collide on at
    /// least one band key with high probability, so the corpus only
    /// byte-checks seeds sharing a band.
    #[must_use]
    pub fn band(&self, band: usize) -> u64 {
        debug_assert!(band < SKETCH_BANDS);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for lane in &self.lanes[band * LANES_PER_BAND..(band + 1) * LANES_PER_BAND] {
            for byte in lane.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

/// FNV-1a content hash over a seed's bytes and model id — the fast
/// exact-duplicate check. Two seeds with equal hashes are byte-compared
/// before being declared duplicates, so collisions cost a compare, never
/// a wrong drop.
#[must_use]
pub fn content_hash(bytes: &[u8], model_index: usize) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_bytes_identical_sketch() {
        let a = SeedSketch::compute(b"CONNECT mqtt payload with options");
        let b = SeedSketch::compute(b"CONNECT mqtt payload with options");
        assert_eq!(a, b);
        assert_eq!(a.matching_lanes(&b), SKETCH_LANES as u32);
        assert!(a.is_near(&b));
    }

    #[test]
    fn disjoint_bytes_disagree() {
        let a = SeedSketch::compute(b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
        let b = SeedSketch::compute(b"0123456789abcdefghijklmnopqrstuv");
        assert!(a.matching_lanes(&b) < NEAR_DUP_LANES);
        assert!(!a.is_near(&b));
    }

    #[test]
    fn single_byte_edit_on_long_payload_stays_near() {
        // One flipped byte in a 256-byte payload perturbs at most 4 of
        // ~253 shingles; nearly all lane minima survive.
        let base: Vec<u8> = (0..=255u8).collect();
        let mut edited = base.clone();
        edited[128] ^= 0xff;
        let a = SeedSketch::compute(&base);
        let b = SeedSketch::compute(&edited);
        assert!(
            a.is_near(&b),
            "one-byte edit should stay near: {} lanes agree",
            a.matching_lanes(&b)
        );
        // ...and at least one LSH band still collides.
        assert!(
            (0..SKETCH_BANDS).any(|i| a.band(i) == b.band(i)),
            "near-duplicates should share a band"
        );
    }

    #[test]
    fn short_and_empty_inputs_are_distinct_and_deterministic() {
        let empty = SeedSketch::compute(b"");
        let one = SeedSketch::compute(b"a");
        let two = SeedSketch::compute(b"ab");
        let zero = SeedSketch::compute(&[0u8]);
        assert_eq!(empty, SeedSketch::compute(b""));
        assert_ne!(empty, one);
        assert_ne!(one, two);
        assert_ne!(empty, zero, "zero padding must not alias the empty input");
    }

    #[test]
    fn content_hash_separates_models_and_bytes() {
        assert_eq!(content_hash(b"abc", 0), content_hash(b"abc", 0));
        assert_ne!(content_hash(b"abc", 0), content_hash(b"abc", 1));
        assert_ne!(content_hash(b"abc", 0), content_hash(b"abd", 0));
    }
}
