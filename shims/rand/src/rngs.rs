//! Named generators; only `StdRng` is provided.

use crate::{RngCore, SeedableRng};

/// The workspace's standard deterministic generator: xoshiro256++ seeded
/// through splitmix64. Small, fast, and identical on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 expansion of the 64-bit seed into the full state, the
        // initialization the xoshiro authors recommend.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        StdRng { s }
    }
}

impl StdRng {
    /// The raw xoshiro256++ state: two generators with equal states
    /// produce the same stream from here on.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}
