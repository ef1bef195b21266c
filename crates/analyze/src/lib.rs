//! Static verification of CMFuzz models (`cmfuzz-analyze`).
//!
//! CMFuzz's contribution rides on three hand-authored models — the data
//! model and state model (the pit) and the extracted configuration model
//! — plus a relation graph derived from startup-coverage probes. A
//! mistake in any of them historically surfaced *mid-campaign*: a
//! dangling model reference as a wasted session, a contradictory
//! configuration as a boot-time `ConfigConflict`, a bad partition as an
//! instance silently burning its whole budget on a fixed configuration.
//!
//! This crate walks those models *statically* and emits structured
//! [`Diagnostic`]s: a stable `CM0xx` code, a [`Severity`], a source
//! location (model name plus item path), and a one-line fix hint. It is
//! surfaced three ways:
//!
//! - the `cmfuzz-lint` binary (text or `--format json`, exit code = max
//!   severity),
//! - the campaign preflight in the core crate (`CampaignError::Preflight`
//!   aborts on errors before any instance starts),
//! - per-diagnostic telemetry counters.
//!
//! # Check catalogue
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | CM001 | Error | transition references an undefined data model |
//! | CM002 | Error | missing initial state / dangling next-state |
//! | CM003 | Warn  | state unreachable from the initial state |
//! | CM004 | Warn  | data model never rendered by any transition |
//! | CM005 | Lint  | `LengthOf` measures an unknown field |
//! | CM006 | Warn  | duplicate data-model or state names |
//! | CM010 | Error | config item with an empty value domain |
//! | CM011 | Warn  | default value type mismatches the item type |
//! | CM012 | Error | model defaults violate a startup constraint |
//! | CM013 | Error | value domain statically unsatisfiable under a constraint |
//! | CM014 | Error | concrete configuration violates a startup constraint |
//! | CM020 | Error | relation node/edge references a non-mutable or unknown item |
//! | CM021 | Lint  | relation edge closes a cycle |
//! | CM030 | Warn  | partition leaves an instance with zero mutable items |
//! | CM031 | Error | config item assigned to multiple instances |
//! | CM032 | Error | partition references an unknown config item |
//! | CM040 | Error | session plan references an undefined data model |
//! | CM050 | Error | fleet schedule reuses a campaign id |
//! | CM051 | Warn  | fleet campaign has a zero budget |
//! | CM052 | Error | fleet subject's pit does not parse |
//! | CM060 | Warn  | branch statically dead in a campaign partition |
//! | CM061 | Error | branch statically dead under every configuration |
//! | CM062 | Error | branch guard references an unknown config item |
//! | CM063 | Error | branch guard index outside the branch space |
//! | CM064 | Warn  | branch reachability not certified (solver limit) |
//!
//! The `CM05x` fleet-schedule checks are emitted by the core crate's
//! `preflight::analyze_fleet_schedule` (the fleet schedule types live
//! above this crate in the dependency graph). The `CM06x` reachability
//! checks come from [`analyze_reachability`] in this crate; the core
//! crate's preflight runs them per campaign partition.
//!
//! The machine-readable twin of this table is [`CATALOGUE`]; a golden
//! test keeps the `DESIGN.md` catalogue, this doc table, and the
//! constant in lockstep.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_analyze::analyze_pit;
//! use cmfuzz_fuzzer::pit::PitDefinition;
//! use cmfuzz_fuzzer::{DataModel, Field, State, StateModel, Transition};
//!
//! let pit = PitDefinition::new(
//!     vec![DataModel::new("Connect").field(Field::uint("op", 8, 1))],
//!     Some(
//!         StateModel::new("demo", "Init")
//!             .state(State::new("Init").transition(Transition::new("Ghost", "Init"))),
//!     ),
//! );
//! let report = analyze_pit("demo", &pit);
//! assert!(report.diagnostics().iter().any(|d| d.code() == "CM001"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config_checks;
mod diag;
mod graph_checks;
mod pit_checks;
mod reach;
mod solve;

pub use config_checks::{analyze_config, analyze_resolved, single_entity_model};
pub use diag::{Diagnostic, Report, Severity, DIAGNOSTICS_SCHEMA};
pub use graph_checks::{analyze_graph, analyze_partitions, GraphView, PartitionView};
pub use pit_checks::{analyze_pit, analyze_session_plans};
pub use reach::{
    analyze_reachability, analyze_reachability_over, BranchReach, ReachAnalysis, ReachSpace,
    ReachStatus,
};

use cmfuzz_config_model::{ConfigModel, ConstraintSet};
use cmfuzz_fuzzer::pit::PitDefinition;

/// The authoritative check catalogue: every stable code the analysis
/// subsystem (this crate plus the core crate's fleet preflight) can
/// emit, with its severity and a one-line meaning. The `DESIGN.md`
/// catalogue table is validated against this constant by a golden test.
pub const CATALOGUE: &[(&str, Severity, &str)] = &[
    (
        "CM001",
        Severity::Error,
        "transition references an undefined data model",
    ),
    (
        "CM002",
        Severity::Error,
        "missing initial state / dangling next-state",
    ),
    (
        "CM003",
        Severity::Warn,
        "state unreachable from the initial state",
    ),
    (
        "CM004",
        Severity::Warn,
        "data model never rendered by any transition",
    ),
    (
        "CM005",
        Severity::Lint,
        "`LengthOf` measures an unknown field",
    ),
    (
        "CM006",
        Severity::Warn,
        "duplicate data-model or state names",
    ),
    (
        "CM010",
        Severity::Error,
        "config item with an empty value domain",
    ),
    (
        "CM011",
        Severity::Warn,
        "default value type mismatches the item type",
    ),
    (
        "CM012",
        Severity::Error,
        "model defaults violate a startup constraint",
    ),
    (
        "CM013",
        Severity::Error,
        "value domain statically unsatisfiable under a constraint",
    ),
    (
        "CM014",
        Severity::Error,
        "concrete configuration violates a startup constraint",
    ),
    (
        "CM020",
        Severity::Error,
        "relation node/edge references a non-mutable or unknown item",
    ),
    ("CM021", Severity::Lint, "relation edge closes a cycle"),
    (
        "CM030",
        Severity::Warn,
        "partition leaves an instance with zero mutable items",
    ),
    (
        "CM031",
        Severity::Error,
        "config item assigned to multiple instances",
    ),
    (
        "CM032",
        Severity::Error,
        "partition references an unknown config item",
    ),
    (
        "CM040",
        Severity::Error,
        "session plan references an undefined data model",
    ),
    (
        "CM050",
        Severity::Error,
        "fleet schedule reuses a campaign id",
    ),
    ("CM051", Severity::Warn, "fleet campaign has a zero budget"),
    (
        "CM052",
        Severity::Error,
        "fleet subject's pit does not parse",
    ),
    (
        "CM060",
        Severity::Warn,
        "branch statically dead in a campaign partition",
    ),
    (
        "CM061",
        Severity::Error,
        "branch statically dead under every configuration",
    ),
    (
        "CM062",
        Severity::Error,
        "branch guard references an unknown config item",
    ),
    (
        "CM063",
        Severity::Error,
        "branch guard index outside the branch space",
    ),
    (
        "CM064",
        Severity::Warn,
        "branch reachability not certified (solver limit)",
    ),
];

/// Runs the pit- and configuration-level checks for one subject and
/// returns a canonically-sorted report (graph and partition checks need
/// scheduler state and run separately via [`analyze_graph`] /
/// [`analyze_partitions`]).
#[must_use]
pub fn analyze_models(
    subject: &str,
    pit: &PitDefinition,
    model: &ConfigModel,
    constraints: &ConstraintSet,
) -> Report {
    let mut report = analyze_pit(subject, pit);
    report.merge(analyze_config(subject, model, constraints));
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::{
        Condition, ConfigConstraint, ConfigEntity, ConfigValue, Mutability, ValueType,
    };
    use cmfuzz_fuzzer::{DataModel, Field, State, StateModel, Transition};

    #[test]
    fn analyze_models_merges_and_sorts() {
        let pit = PitDefinition::new(
            vec![DataModel::new("Connect").field(Field::uint("op", 8, 1))],
            Some(
                StateModel::new("demo", "Init")
                    .state(State::new("Init").transition(Transition::new("Ghost", "Init"))),
            ),
        );
        let model = single_entity_model(ConfigEntity::new(
            "port",
            ValueType::Number,
            Mutability::Mutable,
            vec![ConfigValue::Int(0)],
        ));
        let constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "invalid listen port",
            vec![Condition::int_outside("port", 1, 65535, 0)],
        ));
        let report = analyze_models("demo", &pit, &model, &constraints);
        let codes: Vec<&str> = report.diagnostics().iter().map(Diagnostic::code).collect();
        assert!(codes.contains(&"CM001"), "pit checks ran: {codes:?}");
        assert!(codes.contains(&"CM012"), "config checks ran: {codes:?}");
        let mut sorted = report.clone();
        sorted.sort();
        assert_eq!(sorted, report, "analyze_models returns sorted output");
    }

    #[test]
    fn catalogue_is_sorted_unique_and_complete() {
        let codes: Vec<&str> = CATALOGUE.iter().map(|(code, _, _)| *code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "catalogue codes are sorted and unique");
        for family in ["CM060", "CM061", "CM062", "CM063", "CM064"] {
            assert!(
                codes.contains(&family),
                "missing reachability code {family}"
            );
        }
    }
}
