//! Determinism gate for the session hot-path optimization.
//!
//! The expected digests below were captured from the pre-optimization
//! engine (PR 2 state: per-message `String` plans, fresh `Vec` renders,
//! cloned seed bytes, `Vec`-backed corpus). The optimized engine must
//! reproduce every campaign byte-for-byte: same fault set, same coverage
//! curve, same `Debug` digest. Any divergence in RNG call order, seed
//! pick order, render output, or mutation results shows up here as a
//! digest mismatch on at least one of the six protocol subjects.

use cmfuzz::campaign::{run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz_coverage::Ticks;
use cmfuzz_fuzzer::pit;
use cmfuzz_protocols::spec_by_name;

/// FNV-1a 64-bit, so the digest does not depend on `std`'s hasher keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// (subject, final branches, unique faults, FNV-1a of the result Debug).
///
/// Captured from the pre-optimization reference implementation; see module
/// docs. Regenerate only when a change is *supposed* to alter campaign
/// results, and say so in the changelog.
///
/// Digests regenerated three times since capture:
///
/// 1. `CampaignResult` gained the `coverage` bitset field (the mergeable
///    final union coverage), which is Debug-visible. Branches,
///    faults, curves, and all pre-existing fields were unchanged —
///    `batch_size_does_not_change_campaign_results` pins the full Debug
///    render across batch sizes, and the batch-1 render equals the
///    pre-batching per-iteration loop's by construction.
/// 2. The corpus-intelligence change: the corpus now drops exact
///    duplicate seeds unconditionally (previously a duplicate displaced
///    the oldest seed at capacity and shifted every later pick), which
///    legitimately changes retained corpora and therefore downstream
///    pick sequences and branch totals by a branch or two per subject.
///    `CampaignResult` also gained Debug-visible corpus occupancy and
///    per-corpus statistics fields. The RNG *call pattern* is pinned
///    unchanged by `picks_match_legacy_uniform_rng_stream` (then named
///    `default_config_rng_stream_matches_legacy_uniform`)
///    and the legacy-vs-optimized trajectory test in `cmfuzz-bench`,
///    which replays the same dedup rule through the pre-optimization
///    loop shape.
/// 3. The opt-in corpus flags (near-dedup, rarity-weighted picks, rarity
///    eviction) were deleted, and with them `CampaignStats`'s count of
///    near-duplicate drops, which read 0 in every campaign here. Each
///    digest is the previous render without that field; branches,
///    faults and every other field are unchanged.
const EXPECTED: [(&str, usize, usize, u64); 6] = [
    ("mosquitto", 46, 0, 0xd131_9067_d6ed_71ca),
    ("libcoap", 57, 0, 0x1b43_55e4_73e7_8436),
    ("cyclonedds", 27, 0, 0x2528_59f4_35c8_7e02),
    ("openssl", 37, 0, 0x905a_a869_2c97_3fcf),
    ("qpid", 29, 0, 0x27e1_0d72_4584_99ec),
    ("dnsmasq", 38, 1, 0x8c7b_7007_8780_0494),
];

fn campaign_digest(subject: &str) -> (usize, usize, u64) {
    let spec = spec_by_name(subject).expect("subject exists");
    // Instance 1 runs a fixed two-message session plan built from the
    // Pit's first data model, so both the random-walk and the pinned-plan
    // code paths are under the digest.
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let first_model = parsed.data_models()[0].name().to_owned();
    let setups = vec![
        InstanceSetup::default(),
        InstanceSetup {
            session_plans: vec![vec![first_model.clone(), first_model]],
            ..InstanceSetup::default()
        },
    ];
    let options = CampaignOptions {
        instances: 2,
        budget: Ticks::new(600),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(200),
        seed: 7,
        seed_sync_every_rounds: Some(2),
        ..CampaignOptions::default()
    };
    let result = run_campaign(&spec, "gate", &setups, &options);
    let debug = format!("{result:?}");
    (
        result.final_branches(),
        result.faults.unique_count(),
        fnv1a(debug.as_bytes()),
    )
}

#[test]
fn optimized_engine_matches_preoptimization_reference() {
    let mut failures = Vec::new();
    for (subject, branches, faults, digest) in EXPECTED {
        let (got_branches, got_faults, got_digest) = campaign_digest(subject);
        if (got_branches, got_faults, got_digest) != (branches, faults, digest) {
            failures.push(format!(
                "{subject}: expected (branches {branches}, faults {faults}, digest {digest:#018x}), \
                 got (branches {got_branches}, faults {got_faults}, digest {got_digest:#018x})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "campaign results diverged from the pre-optimization reference:\n{}",
        failures.join("\n")
    );
}
