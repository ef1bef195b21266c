//! Gates: the corpus-intelligence layer at smoke scale (DESIGN.md §13).
//! Same-seed campaigns with [`CorpusConfig::intelligent`] must match or
//! beat the uniform corpus on at least four of the six subjects, and a
//! share-group fleet must exchange seeds and repeat identically. The
//! sketch and pick allocation gate is in `zero_alloc.rs`.

use cmfuzz::campaign::{try_run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{run_fleet, FleetCampaign, FleetOptions, RoundRobin};
use cmfuzz_fuzzer::{CorpusConfig, EngineConfig};
use cmfuzz_protocols::{all_specs, ProtocolSpec};

const SEED: u64 = 0xC0095;
/// Per-campaign budget in virtual ticks for the uplift comparison.
const BUDGET: u64 = 400;
/// Instances per uplift campaign.
const INSTANCES: usize = 1;
/// Subjects the intelligent corpus must match or beat, out of six.
const UPLIFT_GATE: usize = 4;

fn final_branches(spec: &ProtocolSpec, corpus: CorpusConfig) -> usize {
    let options = CampaignOptions {
        instances: INSTANCES,
        budget: Ticks::new(BUDGET),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(200),
        seed: SEED,
        worker_pool: false,
        engine: EngineConfig {
            corpus,
            ..EngineConfig::default()
        },
        ..CampaignOptions::default()
    };
    let setups = vec![InstanceSetup::default(); INSTANCES];
    try_run_campaign(spec, "cmfuzz", &setups, &options)
        .unwrap_or_else(|error| panic!("campaign over {} failed: {error}", spec.name))
        .final_branches()
}

#[test]
fn intelligent_corpus_matches_or_beats_uniform_on_most_subjects() {
    let outcomes: Vec<(&str, usize, usize)> = all_specs()
        .iter()
        .map(|spec| {
            (
                spec.name,
                final_branches(spec, CorpusConfig::default()),
                final_branches(spec, CorpusConfig::intelligent()),
            )
        })
        .collect();
    let wins = outcomes
        .iter()
        .filter(|(_, uniform, intelligent)| intelligent >= uniform)
        .count();
    assert!(
        wins >= UPLIFT_GATE,
        "intelligent corpus matched or beat uniform on only {wins}/6 subjects \
         (gate: {UPLIFT_GATE}); (subject, uniform, intelligent): {outcomes:?}"
    );
}

#[test]
fn share_group_fleet_exchanges_seeds_and_repeats_identically() {
    let spec = all_specs()[0];
    let fleet: Vec<FleetCampaign> = (0..2)
        .map(|i| FleetCampaign {
            id: format!("{}/share-{i}", spec.name),
            spec,
            fuzzer: "cmfuzz".into(),
            setups: vec![InstanceSetup::default(); 2],
            options: CampaignOptions {
                instances: 2,
                budget: Ticks::new(400),
                sample_interval: Ticks::new(100),
                saturation_window: Ticks::new(200),
                seed: SEED.wrapping_add(i),
                worker_pool: false,
                ..CampaignOptions::default()
            },
            share_group: Some("bench".into()),
        })
        .collect();
    let options = FleetOptions {
        slots: 2,
        slice: Ticks::new(100),
        share_rare_seeds: 4,
        ..FleetOptions::default()
    };
    let run = || {
        run_fleet(&fleet, &mut RoundRobin::new(), &options)
            .unwrap_or_else(|error| panic!("sharing fleet failed: {error}"))
    };
    let first = run();
    assert!(first.seeds_shared > 0, "fleet sharing exchanged no seeds");
    assert_eq!(
        format!("{first:?}"),
        format!("{:?}", run()),
        "same-seed sharing fleets diverged"
    );
}
