//! End-to-end configuration scheduling: extract → quantify → allocate →
//! reassemble per-instance configurations.

use cmfuzz_config_model::{extract_model, ConfigModel, ResolvedConfig};
use cmfuzz_coverage::{CoverageMap, CoverageSnapshot, Ticks};
use cmfuzz_fuzzer::Target;
use cmfuzz_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::allocation::{allocate, AllocationOptions};
use crate::graph::RelationGraph;
use crate::relation::{boot_into, quantify_target, RelationOptions};

/// How entities are grouped across instances; `RelationAware` is CMFuzz,
/// `Random` is the ablation control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingStrategy {
    /// Relation-aware cohesive grouping (Algorithm 2).
    #[default]
    RelationAware,
    /// Uniform random partition with the given shuffle seed (ablation).
    Random(u64),
}

/// Options for [`build_schedule`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleOptions {
    /// Relation-quantification options.
    pub relation: RelationOptions,
    /// Allocation options (Algorithm 2 knobs).
    pub allocation: AllocationOptions,
    /// Grouping strategy.
    pub grouping: GroupingStrategy,
}

/// One parallel instance's configuration assignment.
#[derive(Debug, Clone)]
pub struct InstancePlan {
    /// Instance index.
    pub index: usize,
    /// Names of the configuration entities this instance owns.
    pub entities: Vec<String>,
    /// The startup configuration: group entities bound to the values that
    /// maximized joint startup coverage (greedy per-entity search over
    /// each entity's typical values, keeping only combinations that boot).
    pub initial_config: ResolvedConfig,
}

/// The complete output of CMFuzz's scheduling phase.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The extracted generalized configuration model.
    pub model: ConfigModel,
    /// The relation-aware graph (empty under random grouping).
    pub graph: RelationGraph,
    /// Per-instance assignments, one per parallel fuzzing instance.
    pub plans: Vec<InstancePlan>,
}

/// Builds the full CMFuzz schedule for `target` with `instances` parallel
/// fuzzing instances: extracts the configuration model (Algorithm 1),
/// quantifies pairwise relation weights by startup coverage (§III-B1),
/// allocates cohesive groups (Algorithm 2), and reassembles each group into
/// a runtime-ready startup configuration (§III-B2).
///
/// # Panics
///
/// Panics if `instances` is zero.
///
/// # Examples
///
/// ```
/// use cmfuzz::schedule::{build_schedule, ScheduleOptions};
/// use cmfuzz_protocols::spec_by_name;
///
/// let spec = spec_by_name("dnsmasq").expect("subject exists");
/// let mut target = (spec.build)();
/// let schedule = build_schedule(&mut target, 4, &ScheduleOptions::default());
/// assert_eq!(schedule.plans.len(), 4);
/// ```
pub fn build_schedule<T: Target + ?Sized>(
    target: &mut T,
    instances: usize,
    options: &ScheduleOptions,
) -> Schedule {
    build_schedule_with_telemetry(target, instances, options, &Telemetry::disabled())
}

/// [`build_schedule`] with an observability pipeline attached: counts the
/// startup probes spent selecting each group's values (the
/// `schedule.startup_probes` counter) and attributes them to the owning
/// instance as a `"startup"` phase span (one virtual tick per target boot,
/// the same cost model the campaign's fuzzing spans use).
///
/// # Panics
///
/// As [`build_schedule`].
pub fn build_schedule_with_telemetry<T: Target + ?Sized>(
    target: &mut T,
    instances: usize,
    options: &ScheduleOptions,
    telemetry: &Telemetry,
) -> Schedule {
    assert!(instances > 0, "need at least one fuzzing instance");
    let model = extract_model(&target.config_space());

    let (graph, groups) = match options.grouping {
        GroupingStrategy::RelationAware => {
            let graph = quantify_target(target, &model, &options.relation);
            let groups = allocate(&graph, instances, &options.allocation);
            (graph, groups)
        }
        GroupingStrategy::Random(seed) => {
            let mut names: Vec<String> = model
                .mutable_entities()
                .map(|e| e.name().to_owned())
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            names.shuffle(&mut rng);
            let mut groups: Vec<Vec<String>> = vec![Vec::new(); instances.min(names.len()).max(1)];
            for (i, name) in names.into_iter().enumerate() {
                let slot = i % groups.len();
                groups[slot].push(name);
            }
            groups.retain(|g| !g.is_empty());
            (RelationGraph::new(), groups)
        }
    };

    let probes_counter = telemetry.counter("schedule.startup_probes");
    let plans = groups
        .into_iter()
        .enumerate()
        .map(|(index, entities)| {
            let (initial_config, probes) = choose_group_values(target, &model, &entities);
            probes_counter.add(probes);
            telemetry.span_record(index, "startup", Ticks::new(probes));
            InstancePlan {
                index,
                entities,
                initial_config,
            }
        })
        .collect();

    Schedule {
        model,
        graph,
        plans,
    }
}

/// Greedy per-group value selection: starting from the group's defaults,
/// each entity in turn tries its typical values and keeps whichever
/// maximizes startup coverage among configurations that actually boot.
/// This is the "reassembles the configuration entities ... back into
/// runtime-ready forms" step, instantiated so that each instance starts at
/// its group's strongest known configuration (the same signal the relation
/// weights were computed from).
fn choose_group_values<T: Target + ?Sized>(
    target: &mut T,
    model: &ConfigModel,
    entities: &[String],
) -> (ResolvedConfig, u64) {
    let mut probes: u64 = 0;
    let map = CoverageMap::new(target.branch_count());
    let mut snapshot = CoverageSnapshot::empty(target.branch_count());
    let mut probe = |target: &mut T, config: &ResolvedConfig, out: &mut CoverageSnapshot| {
        probes += 1;
        boot_into(target, &map, config, out)
    };

    // Score candidates by the startup branches they reach BEYOND the stock
    // default boot — set difference, not raw counts, so a value that
    // replaces a default branch with a new one still registers as
    // progress.
    let mut default_baseline = CoverageSnapshot::empty(target.branch_count());
    if !probe(target, &ResolvedConfig::new(), &mut default_baseline) {
        default_baseline.clear_to_capacity(target.branch_count());
    }

    // Start from defaults for every group member.
    let mut config = ResolvedConfig::new();
    for name in entities {
        if let Some(entity) = model.entity(name) {
            config.set(name, entity.default_value().clone());
        }
    }
    let mut best = if probe(target, &config, &mut snapshot) {
        snapshot.newly_covered(&default_baseline)
    } else {
        0
    };

    // Each entity in turn: rebind it in place to every other typical value,
    // then bind the best one (or restore the current one).
    for name in entities {
        let Some(entity) = model.entity(name) else {
            continue;
        };
        if !entity.is_mutable() {
            continue;
        }
        let current = config.get(name).cloned();
        let mut best_value = current.clone();
        for value in entity.values() {
            if Some(value) == current.as_ref() {
                continue;
            }
            config.set(name, value.clone());
            if probe(target, &config, &mut snapshot) {
                let novelty = snapshot.newly_covered(&default_baseline);
                if novelty > best {
                    best = novelty;
                    best_value = Some(value.clone());
                }
            }
        }
        match best_value {
            Some(value) => config.set(name, value),
            None => {
                config.unset(name);
            }
        }
    }

    // Guarantee the chosen configuration boots; fall back to defaults-only
    // if greedy search somehow landed on a conflict.
    if !probe(target, &config, &mut snapshot) {
        let mut fallback = ResolvedConfig::new();
        for name in entities {
            if let Some(entity) = model.entity(name) {
                fallback.set(name, entity.default_value().clone());
            }
        }
        return (fallback, probes);
    }
    (config, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_protocols::spec_by_name;

    #[test]
    fn schedule_covers_all_mutable_entities_once() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 4, &ScheduleOptions::default());
        assert_eq!(schedule.plans.len(), 4);

        let mut assigned: Vec<&String> = schedule.plans.iter().flat_map(|p| &p.entities).collect();
        assigned.sort();
        assigned.dedup();
        let mutable_count = schedule.model.mutable_entities().count();
        assert_eq!(
            assigned.len(),
            mutable_count,
            "each mutable entity placed once"
        );
    }

    #[test]
    fn every_plan_boots_its_target() {
        let spec = spec_by_name("libcoap").unwrap();
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 4, &ScheduleOptions::default());
        for plan in &schedule.plans {
            let map = CoverageMap::new(target.branch_count());
            target
                .start(&plan.initial_config, map.probe())
                .unwrap_or_else(|e| panic!("plan {} fails to boot: {e}", plan.index));
        }
    }

    #[test]
    fn chosen_configs_beat_plain_defaults_in_union() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 4, &ScheduleOptions::default());

        let startup_union = |configs: &[ResolvedConfig], target: &mut dyn Target| -> usize {
            let map = CoverageMap::new(target.branch_count());
            for config in configs {
                let _ = target.start(config, map.probe());
            }
            map.covered_count()
        };
        let scheduled: Vec<ResolvedConfig> = schedule
            .plans
            .iter()
            .map(|p| p.initial_config.clone())
            .collect();
        let defaults = vec![ResolvedConfig::new(); 4];
        let ours = startup_union(&scheduled, &mut target);
        let stock = startup_union(&defaults, &mut target);
        assert!(
            ours > stock,
            "scheduled configs ({ours}) must beat defaults ({stock}) at startup"
        );
    }

    #[test]
    fn random_grouping_still_partitions_everything() {
        let spec = spec_by_name("dnsmasq").unwrap();
        let mut target = (spec.build)();
        let options = ScheduleOptions {
            grouping: GroupingStrategy::Random(7),
            ..ScheduleOptions::default()
        };
        let schedule = build_schedule(&mut target, 4, &options);
        assert_eq!(schedule.graph.node_count(), 0, "no graph built");
        let total: usize = schedule.plans.iter().map(|p| p.entities.len()).sum();
        assert_eq!(total, schedule.model.mutable_entities().count());
    }

    #[test]
    fn scheduling_reports_startup_probe_spans() {
        use cmfuzz_coverage::VirtualClock;

        let spec = spec_by_name("mosquitto").unwrap();
        let mut target = (spec.build)();
        let telemetry = Telemetry::builder(VirtualClock::new()).build();
        let schedule =
            build_schedule_with_telemetry(&mut target, 4, &ScheduleOptions::default(), &telemetry);

        let probes = telemetry
            .metrics_snapshot()
            .counter("schedule.startup_probes")
            .unwrap();
        assert!(probes > 0, "value selection must probe the target");
        let span_total: u64 = schedule
            .plans
            .iter()
            .map(|p| {
                telemetry
                    .phase_breakdown(p.index)
                    .iter()
                    .filter(|(phase, _)| phase == "startup")
                    .map(|(_, total)| total.get())
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(span_total, probes, "every probe attributed to a span");
    }

    #[test]
    fn single_instance_schedule() {
        let spec = spec_by_name("qpid").unwrap();
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 1, &ScheduleOptions::default());
        assert_eq!(schedule.plans.len(), 1);
    }

    #[test]
    fn groups_differ_across_instances() {
        let spec = spec_by_name("mosquitto").unwrap();
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 4, &ScheduleOptions::default());
        // No two plans share an entity.
        for (i, a) in schedule.plans.iter().enumerate() {
            for b in schedule.plans.iter().skip(i + 1) {
                for entity in &a.entities {
                    assert!(!b.entities.contains(entity), "{entity} in two groups");
                }
            }
        }
    }
}
