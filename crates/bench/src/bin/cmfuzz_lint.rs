//! `cmfuzz-lint`: static verification of the registry subjects' models.
//!
//! Runs every `cmfuzz-analyze` check — data/state model structure,
//! configuration model domains, declared startup constraints, and
//! configuration-space branch reachability — over the named subjects
//! (default: all of them) and prints the findings.
//!
//! ```text
//! usage: cmfuzz-lint [--format text|json] [--fleet [--partitions n]] [subject...]
//! ```
//!
//! Per-subject mode proves reachability over the *whole* configuration
//! space: a `CM061` error means a declared branch guard is unsatisfiable
//! under any configuration the server accepts — dead code or a wrong
//! guard. `--fleet` additionally builds the partition fleet schedule
//! (relation-aware partitions via `cmfuzz_bench::partition_fleet`),
//! validates it with the fleet preflight, and re-proves reachability
//! inside each partition — `CM060` warnings there enumerate the branches
//! a partition can never cover, which is expected (that is what makes
//! partitions disjoint) and informative rather than fatal.
//!
//! The exit code is the worst severity found: `0` clean, `1` lint,
//! `2` warning, `3` error — so CI can gate merges on `cmfuzz-lint`
//! without parsing its output. Fleet lints gate on `< 3`: partition-dead
//! warnings are part of a healthy schedule.

use std::process::exit;

use cmfuzz::preflight::{analyze_fleet_schedule, analyze_reachability_for, FleetEntryView};
use cmfuzz_analyze::{analyze_models, analyze_reachability, ReachSpace, Report};
use cmfuzz_bench::partition_fleet;
use cmfuzz_coverage::Ticks;
use cmfuzz_fuzzer::pit;
use cmfuzz_fuzzer::Target;
use cmfuzz_protocols::{all_specs, spec_by_name, ProtocolSpec};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() {
    let options = parse_args();
    let mut report = Report::new();
    for spec in &options.subjects {
        report.merge(lint_subject(spec));
    }
    if options.fleet {
        report.merge(lint_fleet(&options.subjects, options.partitions));
    }
    report.sort();
    match options.format {
        Format::Text => print!("{}", report.render_text()),
        Format::Json => println!("{}", report.render_json()),
    }
    exit(report.max_severity().map_or(0, |s| s.exit_code()));
}

fn lint_subject(spec: &ProtocolSpec) -> Report {
    let parsed = match pit::parse(spec.pit_document) {
        Ok(parsed) => parsed,
        Err(error) => {
            // A registry pit that does not even parse is beyond structured
            // diagnostics; fail as hard as an error-severity finding.
            eprintln!(
                "cmfuzz-lint: pit document for {} does not parse: {error}",
                spec.name
            );
            exit(3);
        }
    };
    let target = (spec.build)();
    let model = cmfuzz_config_model::extract_model(&target.config_space());
    let constraints = target.config_constraints();
    let mut report = analyze_models(spec.name, &parsed, &model, &constraints);
    // Whole-space reachability: every declared branch guard must be
    // satisfiable by *some* accepted configuration, or the guard (or the
    // branch behind it) is statically dead across the entire registry.
    report.merge(
        analyze_reachability(
            spec.name,
            &target.branch_guards(),
            &constraints,
            &model,
            target.branch_count(),
            &ReachSpace::Global,
        )
        .into_report(),
    );
    report
}

/// Lints the partition fleet ([`partition_fleet`], the fleet the policy
/// tests schedule): the fleet preflight over all partitions together, then
/// partition-space reachability for each campaign.
fn lint_fleet(subjects: &[ProtocolSpec], partitions: usize) -> Report {
    let mut report = Report::new();
    let fleet = partition_fleet(subjects, partitions, Ticks::new(600), 0);
    let views: Vec<FleetEntryView<'_>> = fleet
        .iter()
        .map(|campaign| FleetEntryView {
            id: &campaign.id,
            spec: &campaign.spec,
            budget: campaign.options.budget,
            setups: &campaign.setups,
        })
        .collect();
    report.merge(analyze_fleet_schedule(&views));
    for campaign in &fleet {
        report.merge(analyze_reachability_for(&campaign.spec, &campaign.setups).into_report());
    }
    report
}

struct Options {
    format: Format,
    fleet: bool,
    partitions: usize,
    subjects: Vec<ProtocolSpec>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    let mut fleet = false;
    let mut partitions = 3;
    let mut subjects: Vec<ProtocolSpec> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => usage_error(&format!("--format expects text|json, got {other:?}")),
            },
            "--fleet" => fleet = true,
            "--partitions" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => partitions = n,
                _ => usage_error("--partitions expects a positive count"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            name if !name.starts_with('-') => match spec_by_name(name) {
                Some(spec) => subjects.push(spec),
                None => {
                    let known: Vec<&str> = all_specs().iter().map(|s| s.name).collect();
                    usage_error(&format!(
                        "unknown subject {name:?}; known subjects: {}",
                        known.join(", ")
                    ));
                }
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    if subjects.is_empty() {
        subjects = all_specs();
    }
    Options {
        format,
        fleet,
        partitions,
        subjects,
    }
}

const USAGE: &str =
    "usage: cmfuzz-lint [--format text|json] [--fleet] [--partitions <n>] [subject...]\n\
\n\
  --format      output format (default: text)\n\
  --fleet       also lint the partition fleet schedule: fleet preflight plus\n\
                partition-space reachability for every campaign (CM060\n\
                warnings enumerate partition-dead branches)\n\
  --partitions  relation-aware partitions per subject in --fleet mode (default: 3)\n\
  subject       registry subject names to verify (default: all)\n\
\n\
exit code: 0 clean, 1 lint, 2 warning, 3 error";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}
