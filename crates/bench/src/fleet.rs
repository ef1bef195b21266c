//! The partition fleet: every subject split into its relation-aware
//! configuration partitions, one single-instance campaign per partition.
//!
//! `cmfuzz-lint --fleet` lints this schedule, and the fleet policy tests
//! (`crates/bench/tests/fleet_policies.rs`) schedule it, so both see the
//! same campaigns in the same order.

use cmfuzz::baseline::cmfuzz_setups;
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_coverage::Ticks;
use cmfuzz_fleet::FleetCampaign;
use cmfuzz_protocols::ProtocolSpec;

/// `subjects` × `partitions` relation-aware partitions (from
/// `build_schedule` + `cmfuzz_setups`), one single-instance campaign per
/// partition with `campaign_budget` ticks. Campaign `i` runs at seed
/// `seed + i * 7919`; ids read `<subject>/part-<n>`.
#[must_use]
pub fn partition_fleet(
    subjects: &[ProtocolSpec],
    partitions: usize,
    campaign_budget: Ticks,
    seed: u64,
) -> Vec<FleetCampaign> {
    let mut fleet = Vec::new();
    for spec in subjects {
        let mut scratch = (spec.build)();
        let schedule = build_schedule(&mut scratch, partitions, &ScheduleOptions::default());
        let setups = cmfuzz_setups(&schedule, partitions);
        for (part, setup) in setups.into_iter().enumerate() {
            let options = CampaignOptions {
                instances: 1,
                budget: campaign_budget,
                sample_interval: Ticks::new(100),
                saturation_window: Ticks::new(200),
                seed: seed.wrapping_add(fleet.len() as u64 * 7919),
                worker_pool: false,
                ..CampaignOptions::default()
            };
            fleet.push(FleetCampaign {
                id: format!("{}/part-{part}", spec.name),
                spec: *spec,
                fuzzer: "cmfuzz".into(),
                setups: vec![setup],
                options,
                share_group: None,
            });
        }
    }
    fleet
}
