//! Gates: scheduling policies on the partition fleet (six subjects ×
//! three partitions) at smoke scale, with a total budget below the sum of
//! the campaign budgets. Coverage-gradient must cover at least as many
//! branches as round-robin, a same-seed repeat must reproduce the run, no
//! campaign may cover a branch the reachability analyzer proved dead in
//! its partition, and two re-executions of this test binary must produce
//! the same results as this process. A share-group fleet must exchange
//! seeds and repeat identically.

use std::process::Command;

use cmfuzz::campaign::{CampaignOptions, InstanceSetup};
use cmfuzz::preflight::analyze_reachability_for;
use cmfuzz_bench::partition_fleet;
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::{
    run_fleet, CoverageGradient, FleetCampaign, FleetOptions, FleetResult, RoundRobin,
    SchedulingPolicy, UcbBandit,
};
use cmfuzz_protocols::all_specs;

const SEED: u64 = 0xF1EE7;
const PARTITIONS: usize = 3;
const CAMPAIGN_BUDGET: u64 = 300;
const TOTAL_BUDGET: u64 = 3_000;
const SLICE: u64 = 100;
const SLOTS: usize = 4;

/// Set in the environment of a re-executed copy of this test, which then
/// prints its digest line and skips the gates.
const CHILD_ENV: &str = "CMFUZZ_FLEET_POLICIES_CHILD";
const DIGEST_PREFIX: &str = "fleet-policies-digest=";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_policy(fleet: &[FleetCampaign], policy: &mut dyn SchedulingPolicy) -> FleetResult {
    let options = FleetOptions {
        slots: SLOTS,
        slice: Ticks::new(SLICE),
        total_budget: Some(Ticks::new(TOTAL_BUDGET)),
        skip_preflight: false,
        share_rare_seeds: 0,
    };
    run_fleet(fleet, policy, &options)
        .unwrap_or_else(|error| panic!("fleet failed under {}: {error}", policy.name()))
}

/// Branches a campaign covered that the analyzer proved dead under its
/// partition, summed over the fleet.
fn dead_covered(fleet: &[FleetCampaign], result: &FleetResult) -> usize {
    fleet
        .iter()
        .zip(&result.campaigns)
        .map(|(campaign, outcome)| {
            let covered: Vec<u32> = outcome
                .result()
                .coverage
                .covered_ids()
                .map(|id| id.index())
                .collect();
            analyze_reachability_for(&campaign.spec, &campaign.setups)
                .dead_covered(&covered)
                .len()
        })
        .sum()
}

#[test]
fn policies_hold_their_gates_and_reproduce_across_processes() {
    let fleet = partition_fleet(&all_specs(), PARTITIONS, Ticks::new(CAMPAIGN_BUDGET), SEED);
    let runs = [
        run_policy(&fleet, &mut RoundRobin::new()),
        run_policy(&fleet, &mut CoverageGradient::new()),
        run_policy(&fleet, &mut UcbBandit::new()),
    ];
    let digest = fnv1a(&format!("{runs:?}"));
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("{DIGEST_PREFIX}{digest:016x}");
        return;
    }

    let round_robin = runs[0].total_branches();
    let gradient = runs[1].total_branches();
    assert!(
        gradient >= round_robin,
        "coverage-gradient covered {gradient} branches, round-robin {round_robin} \
         at the same budget"
    );

    let repeat = run_policy(&fleet, &mut CoverageGradient::new());
    assert_eq!(
        format!("{repeat:?}"),
        format!("{:?}", runs[1]),
        "same-seed coverage-gradient runs diverged"
    );

    let dead: usize = runs.iter().map(|run| dead_covered(&fleet, run)).sum();
    assert_eq!(
        dead, 0,
        "campaigns covered {dead} branches the reachability analyzer proved \
         statically dead"
    );

    let exe = std::env::current_exe().expect("test binary path");
    for child in 0..2 {
        let output = Command::new(&exe)
            .args([
                "--exact",
                "policies_hold_their_gates_and_reproduce_across_processes",
                "--nocapture",
            ])
            .env(CHILD_ENV, "1")
            .output()
            .expect("re-executes the test binary");
        assert!(output.status.success(), "child {child} failed: {output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .find_map(|line| line.strip_prefix(DIGEST_PREFIX))
            .unwrap_or_else(|| panic!("child {child} printed no digest:\n{stdout}"));
        assert_eq!(
            line,
            format!("{digest:016x}"),
            "child process {child} produced different fleet results"
        );
    }
}

#[test]
fn share_group_fleet_exchanges_seeds_and_repeats_identically() {
    const SHARE_SEED: u64 = 0xC0095;
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
                seed: SHARE_SEED.wrapping_add(i),
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
