//! The three fuzzers of the evaluation: CMFuzz and the two baselines.

use cmfuzz_config_model::ConfigValue;
use cmfuzz_fuzzer::pit;
use cmfuzz_protocols::ProtocolSpec;
use cmfuzz_telemetry::Telemetry;

use crate::campaign::{try_run_campaign_with_telemetry, CampaignOptions, InstanceSetup};
use crate::error::CampaignError;
use crate::metrics::CampaignResult;
use crate::schedule::{build_schedule_with_telemetry, Schedule, ScheduleOptions};

/// Converts a CMFuzz [`Schedule`] into instance setups: each instance gets
/// its group's startup configuration and may adaptively mutate exactly its
/// own entities.
#[must_use]
pub fn cmfuzz_setups(schedule: &Schedule, instances: usize) -> Vec<InstanceSetup> {
    let mut setups: Vec<InstanceSetup> = schedule
        .plans
        .iter()
        .map(|plan| {
            let adaptive: Vec<(String, Vec<ConfigValue>)> = plan
                .entities
                .iter()
                .filter_map(|name| schedule.model.entity(name))
                .filter(|e| e.is_mutable())
                .map(|e| (e.name().to_owned(), e.values().to_vec()))
                .collect();
            InstanceSetup {
                initial_config: plan.initial_config.clone(),
                adaptive_entities: adaptive,
                session_plans: Vec::new(),
            }
        })
        .collect();
    // A tiny configuration model can yield fewer groups than instances;
    // surplus instances run under defaults, like the baselines.
    while setups.len() < instances {
        setups.push(InstanceSetup::default());
    }
    setups.truncate(instances);
    setups
}

/// Peach parallel mode: N identical instances under the default
/// configuration, distinguished only by their RNG seeds (which the
/// campaign runner derives per instance). No configuration awareness, no
/// seed synchronization.
#[must_use]
pub fn peach_setups(instances: usize) -> Vec<InstanceSetup> {
    vec![InstanceSetup::default(); instances]
}

/// SPFuzz: state-aware path-based parallelization. The state model's
/// simple paths are enumerated and partitioned round-robin across
/// instances, so each instance systematically exercises its own slice of
/// the state space; retained seeds are synchronized by the campaign
/// runner. Still default-configuration only — that is the gap CMFuzz
/// exploits.
///
/// # Errors
///
/// Returns [`CampaignError::PitParse`] when the subject's Pit document is
/// broken.
pub fn try_spfuzz_setups(
    spec: &ProtocolSpec,
    instances: usize,
) -> Result<Vec<InstanceSetup>, CampaignError> {
    const PLAN_LEN: usize = 6;
    let parsed = pit::parse(spec.pit_document).map_err(|error| CampaignError::PitParse {
        target: spec.name.to_owned(),
        error,
    })?;
    let mut plans_per_instance: Vec<Vec<Vec<String>>> = vec![Vec::new(); instances];
    if let Some(state_model) = parsed.state_model() {
        // Simple paths stop at the first state revisit; extend each to a
        // full session by walking onward deterministically, with one
        // rotation per outgoing transition so loop bodies get distinct
        // interleavings (this is the "path" inventory SPFuzz schedules).
        let mut plans: Vec<Vec<String>> = Vec::new();
        for path in state_model.enumerate_paths(PLAN_LEN) {
            let mut plan: Vec<String> = path.iter().map(|t| t.input_model.clone()).collect();
            let state = path.last().map(|t| t.next_state.clone());
            let rotations = state
                .as_deref()
                .and_then(|s| state_model.state_by_name(s))
                .map_or(1, |s| s.transitions.len().max(1));
            for rotation in 0..rotations {
                let mut extended = plan.clone();
                let mut at = state.clone();
                let mut step = rotation;
                while extended.len() < PLAN_LEN {
                    let Some(current) = at.as_deref().and_then(|s| state_model.state_by_name(s))
                    else {
                        break;
                    };
                    if current.transitions.is_empty() {
                        break;
                    }
                    let t = &current.transitions[step % current.transitions.len()];
                    extended.push(t.input_model.clone());
                    at = Some(t.next_state.clone());
                    step += 1;
                }
                if !plans.contains(&extended) {
                    plans.push(extended);
                }
            }
            // Also keep the bare path if it is already full length.
            if plan.len() >= PLAN_LEN && !plans.contains(&plan) {
                plans.push(std::mem::take(&mut plan));
            }
        }
        // Keep only maximal plans: a strict prefix of another plan wastes a
        // whole session on states a longer plan reaches anyway.
        let maximal: Vec<&Vec<String>> = plans
            .iter()
            .filter(|p| {
                !plans
                    .iter()
                    .any(|q| q.len() > p.len() && q[..p.len()] == p[..])
            })
            .collect();
        for (i, plan) in maximal.into_iter().enumerate() {
            plans_per_instance[i % instances].push(plan.clone());
        }
    }
    Ok(plans_per_instance
        .into_iter()
        .map(|session_plans| InstanceSetup {
            session_plans,
            ..InstanceSetup::default()
        })
        .collect())
}

/// Runs the full CMFuzz pipeline on one subject: schedule (extract →
/// quantify → allocate → reassemble), then the parallel campaign with
/// adaptive configuration mutation.
#[must_use]
pub fn run_cmfuzz(
    spec: &ProtocolSpec,
    schedule_options: &ScheduleOptions,
    options: &CampaignOptions,
) -> CampaignResult {
    try_run_cmfuzz_with(spec, schedule_options, options, &Telemetry::disabled())
        .unwrap_or_else(|error| panic!("campaign failed: {error}"))
}

/// [`run_cmfuzz`] with an observability pipeline attached to both the
/// scheduling phase and the campaign, and typed campaign failures.
///
/// # Errors
///
/// As [`crate::campaign::try_run_campaign`].
pub fn try_run_cmfuzz_with(
    spec: &ProtocolSpec,
    schedule_options: &ScheduleOptions,
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> Result<CampaignResult, CampaignError> {
    let mut scratch = (spec.build)();
    let schedule =
        build_schedule_with_telemetry(&mut scratch, options.instances, schedule_options, telemetry);
    let setups = cmfuzz_setups(&schedule, options.instances);
    try_run_campaign_with_telemetry(spec, "cmfuzz", &setups, options, telemetry)
}

/// Runs the Peach-parallel baseline on one subject.
///
/// Peach is a pure generation-based fuzzer: it carries no coverage
/// feedback loop, so its engines run with seed retention disabled
/// (instrumentation still *measures* coverage — it just never guides
/// generation, exactly as with the community edition the paper builds on).
#[must_use]
pub fn run_peach(spec: &ProtocolSpec, options: &CampaignOptions) -> CampaignResult {
    try_run_peach_with(spec, options, &Telemetry::disabled())
        .unwrap_or_else(|error| panic!("campaign failed: {error}"))
}

/// [`run_peach`] with an observability pipeline attached and typed
/// campaign failures.
///
/// # Errors
///
/// As [`crate::campaign::try_run_campaign`].
pub fn try_run_peach_with(
    spec: &ProtocolSpec,
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> Result<CampaignResult, CampaignError> {
    let setups = peach_setups(options.instances);
    let mut options = options.clone();
    options.engine.seed_reuse_rate = 0.0;
    try_run_campaign_with_telemetry(spec, "peach", &setups, &options, telemetry)
}

/// Runs the SPFuzz baseline on one subject (enables seed synchronization
/// every 4 rounds unless the caller configured it).
#[must_use]
pub fn run_spfuzz(spec: &ProtocolSpec, options: &CampaignOptions) -> CampaignResult {
    try_run_spfuzz_with(spec, options, &Telemetry::disabled())
        .unwrap_or_else(|error| panic!("campaign failed: {error}"))
}

/// [`run_spfuzz`] with an observability pipeline attached and typed
/// campaign failures.
///
/// # Errors
///
/// As [`crate::campaign::try_run_campaign`].
pub fn try_run_spfuzz_with(
    spec: &ProtocolSpec,
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> Result<CampaignResult, CampaignError> {
    let setups = try_spfuzz_setups(spec, options.instances)?;
    let mut options = options.clone();
    if options.seed_sync_every_rounds.is_none() {
        options.seed_sync_every_rounds = Some(4);
    }
    try_run_campaign_with_telemetry(spec, "spfuzz", &setups, &options, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_coverage::Ticks;
    use cmfuzz_protocols::spec_by_name;

    fn options(seed: u64, budget: u64) -> CampaignOptions {
        CampaignOptions {
            instances: 2,
            budget: Ticks::new(budget),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(300),
            seed,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn spfuzz_setups_partition_paths() {
        let spec = spec_by_name("mosquitto").unwrap();
        let setups = try_spfuzz_setups(&spec, 3).expect("pit parses");
        assert_eq!(setups.len(), 3);
        let total_paths: usize = setups.iter().map(|s| s.session_plans.len()).sum();
        assert!(total_paths > 3, "MQTT state model has many simple paths");
        // Disjoint partitions.
        for (i, a) in setups.iter().enumerate() {
            for b in setups.iter().skip(i + 1) {
                for plan in &a.session_plans {
                    assert!(!b.session_plans.contains(plan));
                }
            }
        }
    }

    #[test]
    fn peach_setups_are_identical_defaults() {
        let setups = peach_setups(4);
        assert_eq!(setups.len(), 4);
        for setup in &setups {
            assert!(setup.initial_config.is_empty());
            assert!(setup.adaptive_entities.is_empty());
            assert!(setup.session_plans.is_empty());
        }
    }

    #[test]
    fn cmfuzz_beats_peach_on_coap_in_a_short_run() {
        // The canonical end-to-end check: same budget, same subject, CMFuzz
        // reaches configuration-gated branches Peach cannot.
        let spec = spec_by_name("libcoap").unwrap();
        let opts = options(11, 2000);
        let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &opts);
        let peach = run_peach(&spec, &opts);
        assert!(
            cm.final_branches() > peach.final_branches(),
            "cmfuzz {} <= peach {}",
            cm.final_branches(),
            peach.final_branches()
        );
        // And its curve leads early (startup configurations).
        let cm_first = cm.curve.points()[0].1;
        let peach_first = peach.curve.points()[0].1;
        assert!(
            cm_first > peach_first,
            "early lead missing: {cm_first} <= {peach_first}"
        );
    }

    #[test]
    fn cmfuzz_finds_config_gated_bugs_baselines_miss() {
        let spec = spec_by_name("libcoap").unwrap();
        let opts = CampaignOptions {
            instances: 4,
            budget: Ticks::new(4000),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(400),
            seed: 21,
            ..CampaignOptions::default()
        };
        let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &opts);
        let peach = run_peach(&spec, &opts);
        assert!(
            cm.faults.unique_count() >= peach.faults.unique_count(),
            "cmfuzz found fewer bugs than peach"
        );
    }
}
