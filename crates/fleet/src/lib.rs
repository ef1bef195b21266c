//! `cmfuzz-fleet`: multiplexing hundreds of campaigns over one CPU budget.
//!
//! The paper's evaluation runs one campaign at a time, each owning the
//! whole machine for its budget. Real audits look different: a fleet of
//! subjects — six protocols × relation-aware configuration partitions,
//! easily hundreds of campaigns — competes for a fixed CPU allowance, and
//! giving every campaign an equal share wastes most of it on subjects
//! whose coverage saturated hours ago.
//!
//! This crate schedules that fleet. It builds on two core primitives:
//!
//! - **Live, sliceable campaigns** ([`cmfuzz::campaign::CampaignRun`]):
//!   a campaign boots once and then runs in bounded *slices*, parked
//!   between rounds in memory, so the scheduler can preempt any campaign
//!   at a round boundary without changing what it would eventually find.
//!   A parked run is the whole checkpoint: nothing is exported, and the
//!   fleet's final report keeps each campaign's result.
//! - **The cell pool** ([`cmfuzz::exec::Pool`]): each wave of leased
//!   slices runs as independent cells on one persistent pool that the
//!   fleet keeps for its lifetime, with results returned in lease order
//!   regardless of thread timing.
//!
//! A pluggable [`SchedulingPolicy`] decides which campaigns lease the
//! next wave of worker slots: [`RoundRobin`] (the fair baseline),
//! [`CoverageGradient`] (EWMA of new branches per executed session —
//! slots chase the coverage gradient), and [`UcbBandit`] (UCB1 over the
//! same reward, hedging against late coverage bursts). Everything is
//! deterministic: same fleet, same seeds, same policy → the same
//! [`FleetResult`], bit for bit.
//!
//! # Examples
//!
//! ```
//! use cmfuzz::campaign::{CampaignOptions, InstanceSetup};
//! use cmfuzz_coverage::Ticks;
//! use cmfuzz_fleet::{run_fleet, CoverageGradient, FleetCampaign, FleetOptions};
//! use cmfuzz_protocols::spec_by_name;
//!
//! let mut options = CampaignOptions::default();
//! options.budget = Ticks::new(300);
//! options.sample_interval = Ticks::new(100);
//! let fleet = vec![FleetCampaign {
//!     id: "mosquitto/part-0".into(),
//!     spec: spec_by_name("mosquitto").expect("subject exists"),
//!     fuzzer: "cmfuzz".into(),
//!     setups: vec![InstanceSetup::default()],
//!     options,
//!     share_group: None,
//! }];
//! let result = run_fleet(
//!     &fleet,
//!     &mut CoverageGradient::new(),
//!     &FleetOptions {
//!         slice: Ticks::new(100),
//!         ..FleetOptions::default()
//!     },
//! )
//! .expect("fleet runs");
//! assert!(result.all_complete());
//! assert!(result.total_branches() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;
pub mod policy;

pub use manager::{CampaignState, CampaignStatus, FleetManager, IdleReason, Wave, WaveOutcome};
pub use policy::{CoverageGradient, RoundRobin, SchedulingPolicy, UcbBandit};

use cmfuzz::campaign::{CampaignOptions, InstanceSetup};
use cmfuzz::metrics::CampaignResult;
use cmfuzz::CampaignError;
use cmfuzz_coverage::Ticks;
use cmfuzz_protocols::ProtocolSpec;
use cmfuzz_telemetry::Telemetry;

/// One campaign in the fleet: a subject, its instance setups, and the
/// campaign options (whose `budget` is this campaign's own total).
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    /// Unique label within the fleet; doubles as the telemetry `campaign`
    /// field on every event the campaign emits.
    pub id: String,
    /// Subject to fuzz.
    pub spec: ProtocolSpec,
    /// Fuzzer to run (`"cmfuzz"`, `"peach"`, `"spfuzz"` semantics come
    /// from the setups; the runner treats this as a label).
    pub fuzzer: String,
    /// Per-instance setups (partition configurations, session plans).
    pub setups: Vec<InstanceSetup>,
    /// Campaign options; `options.budget` caps this campaign's total
    /// virtual-tick consumption across all its slices.
    pub options: CampaignOptions,
    /// Seed-sharing group (typically the relation-aware partition
    /// family, e.g. `"mqtt"`). At every wave boundary, campaigns in the
    /// same group exchange retained seeds when
    /// [`FleetOptions::share_rare_seeds`] is non-zero. `None` keeps the
    /// campaign out of every exchange.
    pub share_group: Option<String>,
}

/// Knobs for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker slots leased per wave (also the wave's thread count).
    pub slots: usize,
    /// Virtual-tick budget per lease; slices pause at the next round
    /// boundary at or below this.
    pub slice: Ticks,
    /// Fleet-wide virtual-tick allowance summed over every executed
    /// slice; `None` runs every campaign to its own budget.
    pub total_budget: Option<Ticks>,
    /// Skip the fleet-level static preflight
    /// ([`cmfuzz::preflight::analyze_fleet_schedule`]).
    pub skip_preflight: bool,
    /// Seeds each campaign donates per wave boundary to the other members
    /// of its [`FleetCampaign::share_group`]
    /// ([`CampaignRun::seeds_to_share`](cmfuzz::campaign::CampaignRun::seeds_to_share) picks them); `0` (the default)
    /// disables sharing entirely and reproduces the historical fleet
    /// results bit-for-bit.
    pub share_rare_seeds: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            slots: 4,
            slice: Ticks::new(200),
            total_budget: None,
            skip_preflight: false,
            share_rare_seeds: 0,
        }
    }
}

/// Final state of one fleet campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign's fleet id.
    pub id: String,
    /// Slices this campaign leased.
    pub leases: u64,
    /// Virtual ticks the campaign consumed across its slices.
    pub consumed: Ticks,
    /// Whether the campaign exhausted its own budget.
    pub completed: bool,
    /// Branches the reachability analyzer certified this campaign's
    /// partition can ever cover; `None` when admission skipped preflight.
    pub reachable_branches: Option<usize>,
    /// The campaign's result when the fleet finished (partial when the
    /// fleet budget ran out first).
    result: CampaignResult,
}

impl CampaignOutcome {
    /// Union branch coverage the campaign reached so far.
    #[must_use]
    pub fn branches(&self) -> usize {
        self.result.final_branches()
    }

    /// Fraction of the certified-reachable branch ceiling the campaign
    /// covered; 0.0 when the ceiling is unknown (preflight skipped).
    #[must_use]
    pub fn coverage_of_reachable(&self) -> f64 {
        match self.reachable_branches {
            #[allow(clippy::cast_precision_loss)]
            Some(reachable) if reachable > 0 => self.branches() as f64 / reachable as f64,
            _ => 0.0,
        }
    }

    /// The campaign's result when the fleet finished (partial when the
    /// fleet budget ran out first).
    #[must_use]
    pub fn result(&self) -> &CampaignResult {
        &self.result
    }
}

/// What a fleet run produced: scheduling totals plus per-campaign
/// outcomes in fleet order.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Name of the scheduling policy that ran the fleet.
    pub policy: String,
    /// Scheduling waves executed.
    pub waves: u64,
    /// Slices leased in total.
    pub leases: u64,
    /// Virtual ticks consumed across every slice.
    pub spent: Ticks,
    /// Seeds accepted across all wave-boundary seed exchanges (0
    /// when [`FleetOptions::share_rare_seeds`] is 0).
    pub seeds_shared: u64,
    /// Seed transfers rejected during exchanges: subject mismatches and
    /// recipient instances whose running configuration violates the
    /// subject's declared startup constraints.
    pub seeds_share_rejected: u64,
    /// Per-campaign outcomes, in the order the fleet was given.
    pub campaigns: Vec<CampaignOutcome>,
}

impl FleetResult {
    /// Sum of final union branch counts across the fleet — the number a
    /// scheduling policy is trying to maximize under a fixed budget.
    #[must_use]
    pub fn total_branches(&self) -> usize {
        self.campaigns.iter().map(CampaignOutcome::branches).sum()
    }

    /// Whether every campaign exhausted its own budget.
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.campaigns.iter().all(|c| c.completed)
    }
}

/// Runs the fleet to completion (or until `options.total_budget` runs
/// out) under `policy`, without observability.
///
/// # Errors
///
/// Returns [`CampaignError::Preflight`] when the fleet schedule fails
/// static verification, and propagates the first [`CampaignError`] any
/// slice reports.
pub fn run_fleet(
    fleet: &[FleetCampaign],
    policy: &mut dyn SchedulingPolicy,
    options: &FleetOptions,
) -> Result<FleetResult, CampaignError> {
    run_fleet_with_telemetry(fleet, policy, options, &Telemetry::disabled())
}

/// [`run_fleet`] with an observability pipeline attached.
///
/// Each leased slice runs inside its own telemetry scope (committed in
/// lease order), every event it emits carries the campaign's id as its
/// `campaign` label, and the fleet maintains `fleet.waves`,
/// `fleet.leases`, and `fleet.ticks` counters. Instrumentation never
/// perturbs scheduling: a disabled pipeline produces the identical
/// [`FleetResult`].
///
/// This is a thin driver over [`FleetManager`]: the whole fleet is
/// admitted up front and waves are stepped until the fleet is done. A
/// control plane wanting live admission, pause/resume, or kill uses the
/// manager directly.
///
/// # Errors
///
/// As [`run_fleet`].
pub fn run_fleet_with_telemetry(
    fleet: &[FleetCampaign],
    policy: &mut dyn SchedulingPolicy,
    options: &FleetOptions,
    telemetry: &Telemetry,
) -> Result<FleetResult, CampaignError> {
    let mut manager = FleetManager::new(options.clone(), telemetry);
    manager.admit_batch(fleet.to_vec())?;
    // An unproductive wave (every lease too small to execute a round,
    // nothing completed) or an idle fleet ends a batch run.
    while let WaveOutcome::Ran { progress: true, .. } = manager.step_wave(policy)? {}
    manager.finish(policy.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz::campaign::try_run_campaign;
    use cmfuzz_coverage::VirtualClock;
    use cmfuzz_protocols::spec_by_name;
    use cmfuzz_telemetry::RingBufferSink;

    fn small_options(seed: u64, budget: u64) -> CampaignOptions {
        CampaignOptions {
            instances: 2,
            budget: Ticks::new(budget),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(200),
            seed,
            worker_pool: false,
            ..CampaignOptions::default()
        }
    }

    fn small_fleet() -> Vec<FleetCampaign> {
        [("mosquitto", 3_u64), ("dnsmasq", 7)]
            .iter()
            .map(|&(name, seed)| FleetCampaign {
                id: format!("{name}/part-0"),
                spec: spec_by_name(name).expect("subject exists"),
                fuzzer: "cmfuzz".into(),
                setups: vec![InstanceSetup::default(); 2],
                options: small_options(seed, 400),
                share_group: None,
            })
            .collect()
    }

    /// Checks every campaign of a 100-tick-slice fleet against its
    /// uninterrupted run.
    fn assert_fleet_reproduces_campaigns(fleet: &[FleetCampaign]) {
        let result = run_fleet(
            fleet,
            &mut RoundRobin::new(),
            &FleetOptions {
                slots: 2,
                slice: Ticks::new(100),
                ..FleetOptions::default()
            },
        )
        .expect("fleet runs");
        assert!(result.all_complete());
        assert_eq!(result.leases, 8, "4 rounds per campaign, 100-tick leases");
        for (campaign, outcome) in fleet.iter().zip(&result.campaigns) {
            let mut reference_options = campaign.options.clone();
            reference_options.campaign_id = Some(campaign.id.clone());
            let reference = try_run_campaign(
                &campaign.spec,
                &campaign.fuzzer,
                &campaign.setups,
                &reference_options,
            )
            .expect("reference runs");
            assert_eq!(
                format!("{:?}", outcome.result()),
                format!("{reference:?}"),
                "{} sliced run must equal the uninterrupted run",
                campaign.id
            );
        }
    }

    #[test]
    fn fleet_reproduces_each_campaign_exactly() {
        assert_fleet_reproduces_campaigns(&small_fleet());
    }

    #[test]
    fn fleet_budget_caps_total_consumption() {
        let fleet = small_fleet();
        let result = run_fleet(
            &fleet,
            &mut RoundRobin::new(),
            &FleetOptions {
                slots: 1,
                slice: Ticks::new(100),
                total_budget: Some(Ticks::new(300)),
                ..FleetOptions::default()
            },
        )
        .expect("fleet runs");
        assert_eq!(result.spent, Ticks::new(300));
        assert!(!result.all_complete(), "800 ticks of work, 300 allowed");
        // Unfinished campaigns come back with their partial results.
        let unfinished = result.campaigns.iter().find(|c| !c.completed).unwrap();
        assert!(unfinished.consumed < Ticks::new(400));
        assert!(unfinished.result().stats.sessions > 0);
    }

    #[test]
    fn same_seed_fleets_are_identical() {
        let run = || {
            run_fleet(
                &small_fleet(),
                &mut CoverageGradient::new(),
                &FleetOptions {
                    slots: 2,
                    slice: Ticks::new(100),
                    total_budget: Some(Ticks::new(600)),
                    ..FleetOptions::default()
                },
            )
            .expect("fleet runs")
        };
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }

    #[test]
    fn rare_seed_sharing_exchanges_within_groups_and_rejects_cross_subject() {
        // Two mosquitto campaigns and one dnsmasq campaign all share one
        // group: the mosquitto pair exchanges seeds, while every donation
        // between mosquitto and dnsmasq is rejected (their Pit model
        // tables differ) and counted.
        let fleet: Vec<FleetCampaign> = [("mosquitto", 3_u64), ("mosquitto", 5), ("dnsmasq", 7)]
            .iter()
            .enumerate()
            .map(|(i, &(name, seed))| FleetCampaign {
                id: format!("{name}/share-{i}"),
                spec: spec_by_name(name).expect("subject exists"),
                fuzzer: "cmfuzz".into(),
                setups: vec![InstanceSetup::default(); 2],
                options: small_options(seed, 400),
                share_group: Some("iot".into()),
            })
            .collect();
        let run = || {
            run_fleet(
                &fleet,
                &mut RoundRobin::new(),
                &FleetOptions {
                    slots: 3,
                    slice: Ticks::new(100),
                    share_rare_seeds: 4,
                    ..FleetOptions::default()
                },
            )
            .expect("fleet runs")
        };
        let result = run();
        assert!(result.seeds_shared > 0, "same-subject transfers happen");
        assert!(
            result.seeds_share_rejected > 0,
            "cross-subject donations are rejected and counted"
        );
        let imported: u64 = result
            .campaigns
            .iter()
            .map(|c| c.result().stats.seeds_imported)
            .sum();
        assert!(
            imported >= result.seeds_shared,
            "accepted transfers surface in campaign stats"
        );
        assert_eq!(
            format!("{:?}", run()),
            format!("{result:?}"),
            "sharing fleets stay deterministic"
        );
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// FNV-1a over what a fleet run reports: its scalars and each
    /// outcome's `(id, leases, consumed, completed, result())`.
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
    fn mixed_share_groups_on_few_slots_keep_their_pinned_exchange_totals() {
        // Five campaigns on two slots, so most waves leave most campaigns
        // parked while the exchange still runs over them. The "iot" group
        // mixes subjects: every mosquitto-dnsmasq donation is rejected, so
        // the group keeps reaching exchanges that accept nothing yet
        // reject seeds. The "coap" pair's small corpora keep evicting, so
        // an exchange that missed a changed member would move the totals.
        let members = [
            ("mosquitto", 3_u64, "iot"),
            ("mosquitto", 5, "iot"),
            ("dnsmasq", 7, "iot"),
            ("libcoap", 11, "coap"),
            ("libcoap", 13, "coap"),
        ];
        let fleet: Vec<FleetCampaign> = members
            .iter()
            .enumerate()
            .map(|(i, &(name, seed, group))| FleetCampaign {
                id: format!("{name}/settle-{i}"),
                spec: spec_by_name(name).expect("subject exists"),
                fuzzer: "cmfuzz".into(),
                setups: vec![InstanceSetup::default(); 2],
                options: {
                    let mut options = small_options(seed, 800);
                    if group == "coap" {
                        options.engine.corpus_capacity = 24;
                    }
                    options
                },
                share_group: Some(group.into()),
            })
            .collect();
        let result = run_fleet(
            &fleet,
            &mut RoundRobin::new(),
            &FleetOptions {
                slots: 2,
                slice: Ticks::new(100),
                share_rare_seeds: 4,
                ..FleetOptions::default()
            },
        )
        .expect("fleet runs");
        assert!(result.all_complete());
        assert_eq!(result.seeds_shared, 90);
        assert_eq!(result.seeds_share_rejected, 304);
        // Re-pinned when outcomes began storing their `CampaignResult`
        // in place of an exported checkpoint, which changed the render;
        // `result_digest` below was pinned before that change and held.
        // Both re-pinned again when `CampaignStats` lost its always-zero
        // count of near-duplicate drops: each new value is the old render
        // without that field, and both counts held.
        assert_eq!(
            fnv1a(&format!("{result:?}")),
            0x0d58_0614_432d_88b3,
            "the exchange moved"
        );
        assert_eq!(
            result_digest(&result),
            0xce21_fa16_a5e5_1b51,
            "the exchange's results moved"
        );
    }

    #[test]
    fn sharing_disabled_leaves_campaigns_untouched() {
        // share_rare_seeds: 0 must reproduce the no-sharing fleet even
        // when groups are declared — the historical digests depend on it.
        let mut grouped = small_fleet();
        for campaign in &mut grouped {
            campaign.share_group = Some("iot".into());
        }
        let opts = FleetOptions {
            slots: 2,
            slice: Ticks::new(100),
            ..FleetOptions::default()
        };
        let with_groups = run_fleet(&grouped, &mut RoundRobin::new(), &opts).expect("fleet runs");
        let without = run_fleet(&small_fleet(), &mut RoundRobin::new(), &opts).expect("fleet runs");
        assert_eq!(with_groups.seeds_shared, 0);
        for (a, b) in with_groups.campaigns.iter().zip(&without.campaigns) {
            assert_eq!(
                format!("{:?}", a.result()),
                format!("{:?}", b.result()),
                "campaign outcomes identical with sharing off"
            );
        }
    }

    #[test]
    fn duplicate_ids_fail_fleet_preflight() {
        let mut fleet = small_fleet();
        let clash = fleet[0].id.clone();
        fleet[1].id = clash;
        let err = run_fleet(&fleet, &mut RoundRobin::new(), &FleetOptions::default())
            .expect_err("duplicate ids rejected");
        let CampaignError::Preflight(diagnostics) = err else {
            panic!("expected preflight error, got {err:?}");
        };
        assert!(diagnostics.iter().any(|d| d.code() == "CM050"));
    }

    #[test]
    fn fleet_telemetry_labels_events_per_campaign() {
        let ring = RingBufferSink::new(4096);
        let telemetry = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(ring.clone()))
            .build();
        let fleet = small_fleet();
        let result = run_fleet_with_telemetry(
            &fleet,
            &mut RoundRobin::new(),
            &FleetOptions {
                slots: 2,
                slice: Ticks::new(200),
                ..FleetOptions::default()
            },
            &telemetry,
        )
        .expect("fleet runs");
        telemetry.flush();
        let records = ring.records();
        assert!(!records.is_empty());
        let labels: std::collections::BTreeSet<String> = records
            .iter()
            .filter_map(|r| r.campaign.as_deref().map(str::to_owned))
            .collect();
        assert_eq!(
            labels.into_iter().collect::<Vec<_>>(),
            vec!["dnsmasq/part-0".to_owned(), "mosquitto/part-0".to_owned()],
            "every campaign labelled its own event stream"
        );
        let snapshot = telemetry.metrics_snapshot();
        assert_eq!(snapshot.counter("fleet.waves"), Some(2));
        assert_eq!(snapshot.counter("fleet.leases"), Some(4));
        assert_eq!(snapshot.counter("fleet.ticks"), Some(800));
        // Live engines report each slice into that slice's scope, so the
        // engine counters add up to the campaigns' own statistics.
        let stats: Vec<_> = result.campaigns.iter().map(|c| c.result().stats).collect();
        assert_eq!(
            snapshot.counter("engine.sessions"),
            Some(stats.iter().map(|s| s.sessions).sum())
        );
        assert_eq!(
            snapshot.counter("corpus.retained"),
            Some(stats.iter().map(|s| s.seeds_retained).sum())
        );
    }
}
