//! Startup pin: what every simulated server does at boot, over its whole
//! small configuration neighbourhood.
//!
//! For each of the six subjects, the empty configuration, every
//! configuration that binds one or two mutable entities of its extracted
//! model to any of their candidate values, and
//! `ResolvedConfig::defaults_of` the model are booted on a fresh coverage
//! map. Each outcome is folded into one FNV-1a digest: the
//! refusal reason of a configuration that does not boot, or the sorted
//! `(branch, hit count)` list of one that does. Startup coverage over
//! configuration pairs is exactly what the relation model quantifies, so
//! any change to a refusal, its text, a startup branch or its hit count
//! moves the digest.

use cmfuzz_config_model::{extract_model, ConfigModel, ResolvedConfig};
use cmfuzz_coverage::{BranchId, CoverageMap};
use cmfuzz_protocols::all_specs;

/// FNV-1a 64-bit, so the digest does not depend on `std`'s hasher keys.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The empty configuration, every one- and two-entity assignment over
/// every candidate value of the mutable entities, then the all-defaults
/// configuration.
fn neighbourhood(model: &ConfigModel) -> Vec<ResolvedConfig> {
    let entities: Vec<_> = model.mutable_entities().collect();
    let mut configs = vec![ResolvedConfig::new()];
    for (i, first) in entities.iter().enumerate() {
        for v1 in first.values() {
            let mut solo = ResolvedConfig::new();
            solo.set(first.name(), v1.clone());
            configs.push(solo.clone());
            for second in &entities[i + 1..] {
                for v2 in second.values() {
                    let mut pair = solo.clone();
                    pair.set(second.name(), v2.clone());
                    configs.push(pair);
                }
            }
        }
    }
    configs.push(ResolvedConfig::defaults_of(model));
    configs
}

/// (subject, configurations booted, refusals, FNV-1a of every outcome).
const EXPECTED: [(&str, usize, usize, u64); 6] = [
    ("mosquitto", 1_882, 116, 0xef5b_602d_cd01_ad34),
    ("libcoap", 1_622, 110, 0xc3e1_badc_f3c4_ddd0),
    ("cyclonedds", 1_269, 345, 0x2ddd_3bb2_f427_7c2e),
    ("openssl", 982, 121, 0x71e4_5b9c_7bb0_c463),
    ("qpid", 1_058, 203, 0x5711_50c3_6b4c_ed27),
    ("dnsmasq", 1_127, 89, 0x30b0_58fe_7174_4d21),
];

fn startup_digest(build: fn() -> cmfuzz_protocols::ProtocolTarget) -> (usize, usize, u64) {
    let mut target = build();
    let model = extract_model(&target.config_space());
    let configs = neighbourhood(&model);
    let mut fnv = Fnv::new();
    let mut refusals = 0;
    for config in &configs {
        let map = CoverageMap::new(target.branch_count());
        match target.start(config, map.probe()) {
            Err(e) => {
                refusals += 1;
                fnv.write(b"R");
                fnv.write(e.reason().as_bytes());
                fnv.write(b"\n");
            }
            Ok(()) => {
                fnv.write(b"B");
                for branch in 0..target.branch_count() as u32 {
                    let hits = map.hit_count(BranchId::from_index(branch));
                    if hits > 0 {
                        fnv.write(&branch.to_le_bytes());
                        fnv.write(&hits.to_le_bytes());
                    }
                }
                fnv.write(b"\n");
            }
        }
    }
    (configs.len(), refusals, fnv.0)
}

#[test]
fn startup_outcomes_match_pinned_digests() {
    let mut actual = Vec::new();
    for spec in all_specs() {
        let (configs, refusals, digest) = startup_digest(spec.build);
        actual.push((spec.name, configs, refusals, digest));
    }
    let total: usize = actual.iter().map(|row| row.1).sum();
    assert_eq!(
        total, 7_940,
        "configurations walked across the six subjects"
    );
    assert_eq!(actual, EXPECTED, "startup outcomes drifted");
}
