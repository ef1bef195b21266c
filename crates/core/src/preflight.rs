//! Campaign preflight: static model verification before any instance
//! starts.
//!
//! A malformed pit, a contradictory configuration, or a bad partition
//! used to surface *mid-campaign* — as a wasted session, a boot-time
//! `ConfigConflict`, or an instance silently burning its whole budget.
//! [`preflight_campaign`] runs the `cmfuzz-analyze` checks over
//! everything a campaign is about to execute and
//! `try_run_campaign` aborts with `CampaignError::Preflight` when any
//! finding is error-severity (opt out via
//! `CampaignOptions::skip_preflight`).
//!
//! The pass is entirely RNG-free — it parses, extracts, and evaluates
//! constraints but never draws from any campaign stream — so enabling it
//! cannot perturb campaign determinism.

use std::collections::{BTreeMap, BTreeSet};

use cmfuzz_analyze::{
    analyze_graph, analyze_models, analyze_partitions, analyze_reachability_over, analyze_resolved,
    analyze_session_plans, Diagnostic, GraphView, PartitionView, ReachAnalysis, ReachSpace, Report,
    Severity,
};
use cmfuzz_config_model::{extract_model, ConfigModel, ConfigValue, ConstraintSet};
use cmfuzz_coverage::Ticks;
use cmfuzz_fuzzer::pit::{self, PitDefinition};
use cmfuzz_fuzzer::Target;
use cmfuzz_protocols::{ProtocolSpec, ProtocolTarget};
use cmfuzz_telemetry::Telemetry;

use crate::campaign::InstanceSetup;
use crate::graph::RelationGraph;
use crate::schedule::Schedule;

/// Statically verifies everything a campaign over `spec` with `setups`
/// is about to execute: the parsed pit, the extracted configuration
/// model against the target's declared startup constraints, each
/// instance's initial configuration (`CM014`), session plans (`CM040`),
/// and the adaptive-entity partitions (`CM03x`).
///
/// Instances with no adaptive entities are intentionally-fixed baselines
/// (Peach/SPFuzz run this way), so they are not flagged as empty
/// partitions; [`analyze_schedule`] applies the stricter rule to
/// scheduler output, which should always assign work.
///
/// Every diagnostic increments a telemetry counter `analyze.<code>`,
/// plus severity totals (`analyze.errors` / `analyze.warnings` /
/// `analyze.lints`), so warnings stay observable even when the campaign
/// proceeds.
#[must_use]
pub fn preflight_campaign(
    spec: &ProtocolSpec,
    pit: &PitDefinition,
    setups: &[InstanceSetup],
    telemetry: &Telemetry,
) -> Report {
    let target = (spec.build)();
    let model = extract_model(&target.config_space());
    let constraints = target.config_constraints();

    let mut report = analyze_models(spec.name, pit, &model, &constraints);
    for (i, setup) in setups.iter().enumerate() {
        report.merge(analyze_resolved(
            spec.name,
            &format!("instance:{i}:initial-config"),
            &setup.initial_config,
            &constraints,
        ));
        report.merge(analyze_session_plans(spec.name, pit, &setup.session_plans));
    }
    let partitions: Vec<PartitionView> = setups
        .iter()
        .enumerate()
        .filter(|(_, setup)| !setup.adaptive_entities.is_empty())
        .map(|(index, setup)| PartitionView {
            index,
            entities: setup
                .adaptive_entities
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
        })
        .collect();
    report.merge(analyze_partitions(spec.name, &partitions, &model));
    report.merge(reach_for(spec, &target, &model, &constraints, setups).into_report());
    report.sort();
    record(&report, telemetry);
    report
}

/// A campaign's reachability verdicts: one partition-space analysis per
/// instance setup, plus the campaign-level dead set.
///
/// A branch is dead *for the campaign* only when it is proven dead in
/// **every** instance's partition — any single instance able to reach it
/// keeps it in play for the union coverage the campaign reports.
#[derive(Debug, Clone)]
pub struct CampaignReach {
    subject: String,
    branch_count: usize,
    instances: Vec<ReachAnalysis>,
}

impl CampaignReach {
    /// The subject analyzed.
    #[must_use]
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The subject's total branch count.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.branch_count
    }

    /// Per-instance analyses, indexed like the campaign's setups.
    #[must_use]
    pub fn instances(&self) -> &[ReachAnalysis] {
        &self.instances
    }

    /// Branches proven dead in every instance partition (sorted). Empty
    /// when the campaign has no setups — nothing can be claimed.
    #[must_use]
    pub fn dead_branches(&self) -> Vec<u32> {
        let mut iter = self.instances.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let mut dead: BTreeSet<u32> = first.dead_branches().into_iter().collect();
        for analysis in iter {
            let these: BTreeSet<u32> = analysis.dead_branches().into_iter().collect();
            dead = dead.intersection(&these).copied().collect();
        }
        dead.into_iter().collect()
    }

    /// Upper bound on the branches this campaign can ever cover.
    #[must_use]
    pub fn reachable_branch_count(&self) -> usize {
        self.branch_count - self.dead_branches().len()
    }

    /// Of `covered`, the branches this analysis proved dead — any entry
    /// here is a reachability-soundness violation (a guard or the solver
    /// claimed something false).
    #[must_use]
    pub fn dead_covered(&self, covered: &[u32]) -> Vec<u32> {
        let dead: BTreeSet<u32> = self.dead_branches().into_iter().collect();
        let hits: BTreeSet<u32> = covered
            .iter()
            .copied()
            .filter(|b| dead.contains(b))
            .collect();
        hits.into_iter().collect()
    }

    /// All per-instance diagnostics, merged and sorted.
    #[must_use]
    pub fn into_report(self) -> Report {
        let mut report = Report::new();
        for analysis in self.instances {
            report.merge(analysis.into_report());
        }
        report.sort();
        report
    }
}

/// Proves, per instance setup, which guarded branches the campaign's
/// partitions can ever reach.
///
/// Each instance's space is its `initial_config` plus, for every adaptive
/// entity, the set of values `mutate_instance_config` can ever set (the
/// scheduler's typical values, plus the initial binding — or unbound when
/// the initial configuration leaves the key unset). Like the rest of the
/// preflight the pass is RNG-free.
#[must_use]
pub fn analyze_reachability_for(spec: &ProtocolSpec, setups: &[InstanceSetup]) -> CampaignReach {
    let target = (spec.build)();
    let model = extract_model(&target.config_space());
    reach_for(spec, &target, &model, &target.config_constraints(), setups)
}

/// [`analyze_reachability_for`] over a target already built, with its
/// extracted model and declared constraints.
fn reach_for(
    spec: &ProtocolSpec,
    target: &ProtocolTarget,
    model: &ConfigModel,
    constraints: &ConstraintSet,
    setups: &[InstanceSetup],
) -> CampaignReach {
    let branch_count = target.branch_count();
    let spaces: Vec<ReachSpace> = setups.iter().map(partition_space).collect();
    let instances = analyze_reachability_over(
        spec.name,
        &target.branch_guards(),
        constraints,
        model,
        branch_count,
        &spaces,
    );
    CampaignReach {
        subject: spec.name.to_owned(),
        branch_count,
        instances,
    }
}

/// The reachable configuration space of one instance setup.
fn partition_space(setup: &InstanceSetup) -> ReachSpace {
    let mut domains: BTreeMap<String, Vec<Option<ConfigValue>>> = BTreeMap::new();
    for (name, values) in &setup.adaptive_entities {
        let mut candidates: Vec<Option<ConfigValue>> = Vec::new();
        candidates.push(setup.initial_config.get(name).cloned());
        for value in values {
            let candidate = Some(value.clone());
            if !candidates.contains(&candidate) {
                candidates.push(candidate);
            }
        }
        domains.insert(name.clone(), candidates);
    }
    ReachSpace::Partition {
        base: setup.initial_config.clone(),
        domains,
    }
}

/// Statically verifies a scheduler's output: the relation graph against
/// the schedule's configuration model (`CM02x`) and every instance plan
/// as a partition (`CM03x` — here an empty plan *is* flagged, because a
/// scheduler that assigns an instance nothing wastes its whole budget).
#[must_use]
pub fn analyze_schedule(subject: &str, schedule: &Schedule) -> Report {
    let mut report = analyze_graph(subject, &graph_view(&schedule.graph), &schedule.model);
    let partitions: Vec<PartitionView> = schedule
        .plans
        .iter()
        .map(|plan| PartitionView {
            index: plan.index,
            entities: plan.entities.clone(),
        })
        .collect();
    report.merge(analyze_partitions(subject, &partitions, &schedule.model));
    report.sort();
    report
}

/// One planned fleet campaign as [`analyze_fleet_schedule`] sees it.
#[derive(Debug)]
pub struct FleetEntryView<'a> {
    /// Campaign label, unique within the fleet (also the telemetry
    /// `campaign` label and the checkpoint key).
    pub id: &'a str,
    /// Subject the campaign fuzzes.
    pub spec: &'a ProtocolSpec,
    /// The campaign's total virtual-tick budget.
    pub budget: Ticks,
    /// Instance setups; session plans are checked against the subject's
    /// pit.
    pub setups: &'a [InstanceSetup],
}

/// Statically verifies a fleet schedule before any campaign boots:
/// duplicate campaign ids (`CM050`), zero-budget entries (`CM051`),
/// subjects whose pit does not parse (`CM052`), and session plans
/// referencing data models absent from their subject's pit (`CM040`).
///
/// `run_fleet` and `FleetManager` admission run this as their preflight,
/// and `cmfuzz-lint --fleet` runs it on the partition fleet; like
/// [`preflight_campaign`] the pass is RNG-free, so it cannot perturb
/// fleet determinism.
#[must_use]
pub fn analyze_fleet_schedule(entries: &[FleetEntryView<'_>]) -> Report {
    let mut report = Report::new();
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    // Each distinct pit document is parsed once. The key is the document
    // text, not the subject name: two entries may share a name over
    // different documents.
    let mut parsed: BTreeMap<&str, Result<PitDefinition, pit::ParsePitError>> = BTreeMap::new();
    for (index, entry) in entries.iter().enumerate() {
        let path = format!("fleet:{index}:{}", entry.id);
        if let Some(first) = seen.insert(entry.id, index) {
            report.push(Diagnostic::new(
                "CM050",
                Severity::Error,
                entry.spec.name,
                &path,
                &format!(
                    "duplicate campaign id `{}` (first used by entry {first})",
                    entry.id
                ),
                "give every fleet campaign a unique id so checkpoints and telemetry labels stay attributable",
            ));
        }
        if entry.budget == Ticks::ZERO {
            report.push(Diagnostic::new(
                "CM051",
                Severity::Warn,
                entry.spec.name,
                &path,
                "campaign budget is zero: the scheduler will never lease it a slot",
                "drop the entry or give it a positive budget",
            ));
        }
        let document = entry.spec.pit_document;
        match parsed
            .entry(document)
            .or_insert_with(|| pit::parse(document))
        {
            Err(error) => report.push(Diagnostic::new(
                "CM052",
                Severity::Error,
                entry.spec.name,
                &path,
                &format!("subject pit does not parse: {error}"),
                "fix the registry pit document before scheduling the campaign",
            )),
            Ok(pit) => {
                for setup in entry.setups {
                    report.merge(analyze_session_plans(
                        entry.spec.name,
                        pit,
                        &setup.session_plans,
                    ));
                }
            }
        }
    }
    report.sort();
    report
}

/// Reduces a [`RelationGraph`] to the name-only view the analyzer
/// consumes (the analyzer must not depend on this crate).
#[must_use]
pub fn graph_view(graph: &RelationGraph) -> GraphView {
    GraphView {
        nodes: graph.node_names().to_vec(),
        edges: graph
            .edges()
            .iter()
            .map(|e| (graph.name_of(e.a).to_owned(), graph.name_of(e.b).to_owned()))
            .collect(),
    }
}

fn record(report: &Report, telemetry: &Telemetry) {
    for diagnostic in report.diagnostics() {
        telemetry
            .counter(&format!("analyze.{}", diagnostic.code()))
            .incr();
    }
    for (severity, name) in [
        (Severity::Error, "analyze.errors"),
        (Severity::Warn, "analyze.warnings"),
        (Severity::Lint, "analyze.lints"),
    ] {
        let count = report.count_of(severity) as u64;
        if count > 0 {
            telemetry.counter(name).add(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{build_schedule, ScheduleOptions};
    use cmfuzz_config_model::{ConfigValue, ResolvedConfig};
    use cmfuzz_coverage::VirtualClock;
    use cmfuzz_fuzzer::pit;
    use cmfuzz_protocols::{all_specs, spec_by_name};

    #[test]
    fn builtin_specs_preflight_clean_of_errors() {
        for spec in all_specs() {
            let parsed = pit::parse(spec.pit_document).expect("registry pit parses");
            let report = preflight_campaign(
                &spec,
                &parsed,
                &vec![InstanceSetup::default(); 2],
                &Telemetry::disabled(),
            );
            assert!(
                !report.has_errors(),
                "{} has preflight errors:\n{}",
                spec.name,
                report.render_text()
            );
        }
    }

    #[test]
    fn conflicting_initial_config_is_cm014() {
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let mut conflicting = ResolvedConfig::new();
        conflicting.set("auth-method", ConfigValue::Str("tls".into()));
        conflicting.set("tls_enabled", ConfigValue::Bool(false));
        let setup = InstanceSetup {
            initial_config: conflicting,
            ..InstanceSetup::default()
        };
        let report = preflight_campaign(&spec, &parsed, &[setup], &Telemetry::disabled());
        assert!(report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code() == "CM014" && d.path() == "instance:0:initial-config"));
    }

    #[test]
    fn unknown_adaptive_entity_is_cm032() {
        let spec = spec_by_name("dnsmasq").expect("subject exists");
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let setup = InstanceSetup {
            adaptive_entities: vec![("no-such-item".to_owned(), vec![ConfigValue::Bool(true)])],
            ..InstanceSetup::default()
        };
        let report = preflight_campaign(&spec, &parsed, &[setup], &Telemetry::disabled());
        assert!(report.diagnostics().iter().any(|d| d.code() == "CM032"));
    }

    #[test]
    fn bad_session_plan_is_cm040() {
        let spec = spec_by_name("libcoap").expect("subject exists");
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let setup = InstanceSetup {
            session_plans: vec![vec!["NoSuchModel".to_owned()]],
            ..InstanceSetup::default()
        };
        let report = preflight_campaign(&spec, &parsed, &[setup], &Telemetry::disabled());
        assert!(report.diagnostics().iter().any(|d| d.code() == "CM040"));
    }

    #[test]
    fn preflight_counts_into_telemetry() {
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let mut conflicting = ResolvedConfig::new();
        conflicting.set("port", ConfigValue::Int(0));
        let setup = InstanceSetup {
            initial_config: conflicting,
            ..InstanceSetup::default()
        };
        let telemetry = Telemetry::builder(VirtualClock::new()).build();
        let report = preflight_campaign(&spec, &parsed, &[setup], &telemetry);
        assert!(report.has_errors());
        let snapshot = telemetry.metrics_snapshot();
        assert_eq!(snapshot.counter("analyze.CM014"), Some(1));
        assert!(snapshot.counter("analyze.errors").unwrap_or(0) >= 1);
    }

    #[test]
    fn scheduler_output_analyzes_clean() {
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 2, &ScheduleOptions::default());
        let report = analyze_schedule(spec.name, &schedule);
        assert!(
            !report.has_errors(),
            "schedule errors:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn fleet_schedule_diagnostics_cover_the_cm05x_catalogue() {
        let mqtt = spec_by_name("mosquitto").expect("subject exists");
        let dns = spec_by_name("dnsmasq").expect("subject exists");
        let default_setups = vec![InstanceSetup::default(); 2];
        let bad_plan = vec![InstanceSetup {
            session_plans: vec![vec!["NoSuchModel".to_owned()]],
            ..InstanceSetup::default()
        }];
        let broken = ProtocolSpec {
            pit_document: "<Peach><DataModel></Peach>",
            ..mqtt
        };
        let entries = vec![
            FleetEntryView {
                id: "mqtt/a",
                spec: &mqtt,
                budget: cmfuzz_coverage::Ticks::new(600),
                setups: &default_setups,
            },
            FleetEntryView {
                id: "mqtt/a", // CM050: duplicate id
                spec: &mqtt,
                budget: cmfuzz_coverage::Ticks::new(600),
                setups: &default_setups,
            },
            FleetEntryView {
                id: "dns/idle", // CM051: zero budget
                spec: &dns,
                budget: cmfuzz_coverage::Ticks::ZERO,
                setups: &default_setups,
            },
            FleetEntryView {
                id: "mqtt/broken", // CM052: unparseable pit
                spec: &broken,
                budget: cmfuzz_coverage::Ticks::new(600),
                setups: &default_setups,
            },
            FleetEntryView {
                id: "dns/plan", // CM040: plan references an absent model
                spec: &dns,
                budget: cmfuzz_coverage::Ticks::new(600),
                setups: &bad_plan,
            },
        ];
        let report = analyze_fleet_schedule(&entries);
        assert!(report.has_errors());
        for code in ["CM050", "CM051", "CM052", "CM040"] {
            assert!(
                report.diagnostics().iter().any(|d| d.code() == code),
                "missing {code}:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn clean_fleet_schedule_has_no_diagnostics() {
        let setups = vec![InstanceSetup::default(); 2];
        let specs: Vec<_> = all_specs().to_vec();
        let ids: Vec<String> = specs.iter().map(|s| format!("{}/part-0", s.name)).collect();
        let entries: Vec<FleetEntryView<'_>> = specs
            .iter()
            .zip(&ids)
            .map(|(spec, id)| FleetEntryView {
                id,
                spec,
                budget: cmfuzz_coverage::Ticks::new(600),
                setups: &setups,
            })
            .collect();
        let report = analyze_fleet_schedule(&entries);
        assert!(report.is_empty(), "{}", report.render_text());
    }

    /// The paper-facing reachability claim, over *real* scheduler
    /// partitions: on at least two subjects, some instance's partition
    /// provably cannot open at least one guarded branch, and every dead
    /// verdict carries a machine-checkable refutation chain ending in an
    /// unsatisfiability witness.
    #[test]
    fn schedule_partitions_prove_dead_branches_on_multiple_subjects() {
        use cmfuzz_analyze::ReachStatus;
        let mut subjects_with_dead = 0;
        for name in ["mosquitto", "cyclonedds", "qpid"] {
            let spec = spec_by_name(name).expect("subject exists");
            let mut target = (spec.build)();
            let schedule = build_schedule(&mut target, 2, &ScheduleOptions::default());
            let setups = crate::baseline::cmfuzz_setups(&schedule, 2);
            let reach = analyze_reachability_for(&spec, &setups);
            let dead_total: usize = reach
                .instances()
                .iter()
                .map(|a| a.dead_branches().len())
                .sum();
            if dead_total > 0 {
                subjects_with_dead += 1;
            }
            for analysis in reach.instances() {
                for row in analysis.branches() {
                    if let ReachStatus::Dead { chain } = row.status() {
                        let last = chain.last().expect("chain is never empty");
                        assert!(
                            last.contains("unsatisfiable") || last.contains("none satisfies"),
                            "{name}: `{}` dead verdict lacks a terminal refutation: {chain:?}",
                            row.region()
                        );
                    }
                }
            }
            assert_eq!(
                reach.reachable_branch_count(),
                reach.branch_count() - reach.dead_branches().len()
            );
        }
        assert!(
            subjects_with_dead >= 2,
            "expected partitions with dead branches on >=2 subjects, got {subjects_with_dead}"
        );
    }

    /// Soundness gate at the core level: a real campaign over scheduler
    /// partitions never covers a branch the analyzer called dead for the
    /// campaign (dead in every instance partition).
    #[test]
    fn campaigns_never_cover_campaign_dead_branches() {
        use crate::campaign::{run_campaign, CampaignOptions};
        use cmfuzz_coverage::BranchId;
        let spec = spec_by_name("mosquitto").expect("subject exists");
        let mut target = (spec.build)();
        let schedule = build_schedule(&mut target, 2, &ScheduleOptions::default());
        let setups = crate::baseline::cmfuzz_setups(&schedule, 2);
        let reach = analyze_reachability_for(&spec, &setups);
        let options = CampaignOptions {
            instances: 2,
            budget: cmfuzz_coverage::Ticks::new(600),
            sample_interval: cmfuzz_coverage::Ticks::new(100),
            saturation_window: cmfuzz_coverage::Ticks::new(200),
            seed: 7,
            ..CampaignOptions::default()
        };
        let result = run_campaign(&spec, "cmfuzz", &setups, &options);
        let violations: Vec<u32> = reach
            .dead_branches()
            .into_iter()
            .filter(|&b| result.coverage.is_covered(BranchId::from_index(b)))
            .collect();
        assert!(
            violations.is_empty(),
            "campaign covered statically-dead branches {violations:?}"
        );
    }

    /// Partition spaces out of instance setups: an adaptive entity with no
    /// initial binding keeps `unbound` in its domain; a bound one pins the
    /// initial value alongside the typical values.
    #[test]
    fn reachability_uses_partition_spaces_from_setups() {
        use cmfuzz_analyze::ReachStatus;
        let spec = spec_by_name("mosquitto").expect("subject exists");
        // tls_enabled is adaptive and can reach `true`: start::tls must be
        // reachable with a witness binding it true.
        let adaptive = InstanceSetup {
            adaptive_entities: vec![(
                "tls_enabled".to_owned(),
                vec![ConfigValue::Bool(false), ConfigValue::Bool(true)],
            )],
            ..InstanceSetup::default()
        };
        // A fixed baseline instance can never open it: proven dead.
        let fixed = InstanceSetup::default();
        let reach = analyze_reachability_for(&spec, &[adaptive, fixed]);
        let status_of = |i: usize| {
            reach.instances()[i]
                .branches()
                .iter()
                .find(|row| row.region() == "start::tls")
                .expect("start::tls is guarded")
                .status()
                .clone()
        };
        match status_of(0) {
            ReachStatus::Reachable { witness } => {
                assert_eq!(witness.get("tls_enabled"), Some(&ConfigValue::Bool(true)));
            }
            other => panic!("adaptive instance should reach start::tls: {other:?}"),
        }
        assert!(
            matches!(status_of(1), ReachStatus::Dead { .. }),
            "fixed instance should prove start::tls dead"
        );
        // Campaign-level dead set is the intersection: instance 0 keeps the
        // branch alive.
        let tls_branch = reach.instances()[1]
            .branches()
            .iter()
            .find(|row| row.region() == "start::tls")
            .unwrap()
            .branch();
        assert!(!reach.dead_branches().contains(&tls_branch));
        assert!(reach.instances()[1].dead_branches().contains(&tls_branch));
        // And the soundness helper flags exactly the dead ∩ covered set.
        let fake_covered = reach.dead_branches();
        assert_eq!(reach.dead_covered(&fake_covered), reach.dead_branches());
    }

    #[test]
    fn graph_view_preserves_names_and_edges() {
        let mut graph = RelationGraph::new();
        graph.add_edge("a", "b", 1.0);
        graph.add_node("c");
        let view = graph_view(&graph);
        assert_eq!(view.nodes, vec!["a", "b", "c"]);
        assert_eq!(view.edges, vec![("a".to_owned(), "b".to_owned())]);
    }
}
