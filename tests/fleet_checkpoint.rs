//! Slicing determinism gate for campaigns and the fleet scheduler.
//!
//! The fleet's core guarantee: slicing is invisible. However a campaign's
//! budget is partitioned into slices — any count, any sizes, any pause
//! points — continuing each paused run (a `CampaignCheckpoint` is the
//! parked `CampaignRun`) reproduces the uninterrupted `run_campaign`
//! result byte-for-byte, including under an impaired network link (whose
//! in-flight datagrams and RNG position stay with the parked run) and
//! under the intelligent corpus (whose rarity scores read coverage hit
//! counts). The slicings here are drawn from a seeded LCG so the test is
//! deterministic without touching wall-clock or OS entropy.

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::{run_campaign_slice, try_run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::metrics::CampaignResult;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{run_fleet, CoverageGradient, FleetCampaign, FleetOptions, FleetResult};
use cmfuzz_fuzzer::CorpusConfig;
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{spec_by_name, ProtocolSpec};

/// Deterministic pseudo-random stream (Knuth LCG, high bits).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn campaign_options(seed: u64, link: LinkConditions) -> CampaignOptions {
    CampaignOptions {
        instances: 2,
        budget: Ticks::new(600),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(200),
        seed,
        seed_sync_every_rounds: Some(2),
        worker_pool: false,
        link,
        ..CampaignOptions::default()
    }
}

/// Runs the campaign through the given slice budgets (then drains any
/// remaining budget in one final slice) and assembles the result.
fn run_sliced(
    spec: &ProtocolSpec,
    setups: &[InstanceSetup],
    options: &CampaignOptions,
    slices: &[u64],
) -> CampaignResult {
    let mut checkpoint = None;
    for &slice in slices {
        let (next, report) = run_campaign_slice(
            spec,
            "cmfuzz",
            setups,
            options,
            checkpoint.take(),
            Ticks::new(slice),
        )
        .expect("slice runs");
        checkpoint = Some(next);
        if report.done {
            break;
        }
    }
    loop {
        let resumed = checkpoint.take().expect("checkpoint exists");
        if resumed.is_complete() {
            return resumed.into_result();
        }
        let (next, _) = run_campaign_slice(
            spec,
            "cmfuzz",
            setups,
            options,
            Some(resumed),
            options.budget,
        )
        .expect("final slice runs");
        checkpoint = Some(next);
    }
}

/// The three reference configurations: two plain subjects (dnsmasq has a
/// reachable fault, so the fault log spans slices too) and one under a
/// heavily impaired link.
fn subjects() -> Vec<(&'static str, u64, LinkConditions)> {
    vec![
        ("mosquitto", 0x5EED_0001, LinkConditions::perfect()),
        ("dnsmasq", 0x5EED_0002, LinkConditions::perfect()),
        ("libcoap", 0x5EED_0003, LinkConditions::new(0.3, 0.1, 0.1)),
    ]
}

/// Checks four random slicings of a campaign against the uninterrupted
/// one.
fn assert_random_slicings_match(
    spec: &ProtocolSpec,
    setups: &[InstanceSetup],
    seed: u64,
    options: &CampaignOptions,
) {
    let name = spec.name;
    let reference =
        try_run_campaign(spec, "cmfuzz", setups, options).expect("uninterrupted campaign runs");
    let expected = format!("{reference:?}");

    let mut rng = seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    for trial in 0..4 {
        let count = 1 + (lcg(&mut rng) % 8) as usize;
        // Random slice budgets, deliberately including non-multiples
        // of the round length (the runner floors to round boundaries).
        let slices: Vec<u64> = (0..count)
            .map(|_| 100 * (1 + lcg(&mut rng) % 6) + 50 * (lcg(&mut rng) % 2))
            .collect();
        let sliced = run_sliced(spec, setups, options, &slices);
        assert_eq!(
            format!("{sliced:?}"),
            expected,
            "{name} trial {trial}: slicing {slices:?} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn random_slicings_reproduce_the_uninterrupted_campaign() {
    for (name, seed, link) in subjects() {
        let spec = spec_by_name(name).expect("subject exists");
        let setups = vec![InstanceSetup::default(); 2];
        assert_random_slicings_match(&spec, &setups, seed, &campaign_options(seed, link));
    }
}

#[test]
fn random_slicings_reproduce_intelligent_corpus_campaigns() {
    // Rarity-weighted picks and rarity eviction read the coverage map's
    // hit counts, so a resume must restore the counts exactly. The
    // relation-aware setups add adaptive restarts, whose first hits are
    // still pending when a slice ends.
    for name in ["mosquitto", "dnsmasq", "libcoap", "cyclonedds", "qpid"] {
        let spec = spec_by_name(name).expect("subject exists");
        let seed = 11;
        let mut options = campaign_options(seed, LinkConditions::perfect());
        options.budget = Ticks::new(2000);
        options.engine.corpus = CorpusConfig::intelligent();
        assert_random_slicings_match(&spec, &vec![InstanceSetup::default(); 2], seed, &options);
        let mut scratch = (spec.build)();
        let schedule = build_schedule(&mut scratch, 2, &ScheduleOptions::default());
        let setups = cmfuzz_setups(&schedule, 2);
        assert_random_slicings_match(&spec, &setups, seed, &options);
    }
}

#[test]
fn one_full_budget_slice_is_the_uninterrupted_campaign() {
    for (name, seed, link) in subjects() {
        let spec = spec_by_name(name).expect("subject exists");
        let setups = vec![InstanceSetup::default(); 2];
        let options = campaign_options(seed, link);
        let reference = try_run_campaign(&spec, "cmfuzz", &setups, &options)
            .expect("uninterrupted campaign runs");
        let (checkpoint, report) =
            run_campaign_slice(&spec, "cmfuzz", &setups, &options, None, options.budget)
                .expect("full-budget slice runs");
        assert!(report.done);
        assert_eq!(
            format!("{:?}", checkpoint.into_result()),
            format!("{reference:?}"),
        );
    }
}

#[test]
fn same_seed_fleet_runs_are_bit_identical() {
    let fleet: Vec<FleetCampaign> = subjects()
        .into_iter()
        .map(|(name, seed, link)| FleetCampaign {
            id: format!("{name}/fleet-e2e"),
            spec: spec_by_name(name).expect("subject exists"),
            fuzzer: "cmfuzz".into(),
            setups: vec![InstanceSetup::default(); 2],
            options: campaign_options(seed, link),
            share_group: None,
        })
        .collect();
    let run = || {
        run_fleet(
            &fleet,
            &mut CoverageGradient::new(),
            &FleetOptions {
                slots: 2,
                slice: Ticks::new(150),
                total_budget: Some(Ticks::new(1200)),
                ..FleetOptions::default()
            },
        )
        .expect("fleet runs")
    };
    let first = run();
    let second = run();
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(first.spent, Ticks::new(1200));
    assert!(
        !first.all_complete(),
        "1800 ticks of work under a 1200 allowance"
    );
}

/// FNV-1a over a string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over what a fleet run reports: its scalars and each outcome's
/// `(id, leases, consumed, completed, result())`. Unlike the whole
/// `Debug` render, it does not depend on how an outcome stores its run.
fn result_digest(result: &FleetResult) -> u64 {
    let mut text = format!(
        "{} {} {} {:?} {} {}",
        result.policy,
        result.waves,
        result.leases,
        result.spent,
        result.seeds_shared,
        result.seeds_share_rejected
    );
    for c in &result.campaigns {
        text += &format!(
            "{:?}",
            (&c.id, c.leases, c.consumed, c.completed, c.result())
        );
    }
    fnv1a(&text)
}

#[test]
fn rare_seed_sharing_fleet_matches_its_pinned_digest() {
    // The benchmark's fleet shape in small: single-instance relation-aware
    // partitions, one share group per subject, four seeds per donor. A
    // small corpus capacity makes imports evict, and finished campaigns
    // keep receiving seeds they never settle, so the digest pins which
    // seeds the exchange picks and in what order recipients take them.
    let mut fleet = Vec::new();
    for name in ["mosquitto", "libcoap"] {
        let spec = spec_by_name(name).expect("subject exists");
        let mut scratch = (spec.build)();
        let schedule = build_schedule(&mut scratch, 3, &ScheduleOptions::default());
        for (part, setup) in cmfuzz_setups(&schedule, 3).into_iter().enumerate() {
            let seed = 0x5EED_0100 + fleet.len() as u64;
            let mut options = campaign_options(seed, LinkConditions::perfect());
            options.instances = 1;
            options.budget = Ticks::new(1500);
            options.seed_sync_every_rounds = None;
            options.engine.corpus_capacity = 24;
            fleet.push(FleetCampaign {
                id: format!("{name}/part-{part}"),
                spec,
                fuzzer: "cmfuzz".into(),
                setups: vec![setup],
                options,
                share_group: Some(name.to_owned()),
            });
        }
    }
    let result = run_fleet(
        &fleet,
        &mut CoverageGradient::new(),
        &FleetOptions {
            slots: 2,
            slice: Ticks::new(100),
            share_rare_seeds: 4,
            ..FleetOptions::default()
        },
    )
    .expect("fleet runs");
    assert!(result.all_complete());
    assert_eq!(result.seeds_shared, 481);
    // Re-pinned when outcomes began storing their `CampaignResult` in
    // place of an exported checkpoint, which changed the render;
    // `result_digest` below was pinned before that change and held.
    assert_eq!(
        fnv1a(&format!("{result:?}")),
        0xb25e_bf58_cf40_679d,
        "the sharing fleet drifted from its pinned digest"
    );
    assert_eq!(
        result_digest(&result),
        0xe4f6_6bf3_15d4_d4d6,
        "the sharing fleet's results drifted from their pinned digest"
    );
}
