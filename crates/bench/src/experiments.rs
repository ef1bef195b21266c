//! Experiment definitions: one function per table/figure.
//!
//! Every experiment is a grid of independent (subject, fuzzer, repetition)
//! cells; each experiment function runs that grid on the
//! [`cmfuzz::exec`] cell pool while collecting results in deterministic
//! cell order, so the rendered output is byte-identical for every worker
//! count.

use std::collections::HashMap;

use cmfuzz::baseline::{try_run_cmfuzz_with, try_run_peach_with, try_run_spfuzz_with};
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::exec::Pool;
use cmfuzz::metrics::{improvement_pct, speedup, CampaignResult, CoverageCurve};
use cmfuzz::relation::{RelationOptions, WeightMode};
use cmfuzz::schedule::{GroupingStrategy, ScheduleOptions};
use cmfuzz::CampaignError;
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_fuzzer::FaultKind;
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{all_specs, ProtocolSpec};
use cmfuzz_telemetry::Telemetry;

/// Experiment scale: budget, repetitions and instance count.
///
/// The paper runs 4 instances for 24 hours, 5 repetitions. Virtual-time
/// budgets stand in for the wall clock; `paper()` keeps the 4×5 structure,
/// `quick()` shrinks everything for CI.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Virtual-time budget per instance (ticks = fuzzing sessions).
    pub budget: u64,
    /// Repetitions per cell ("repeated each 24-hour experiment five
    /// times").
    pub repetitions: u64,
    /// Parallel instances per fuzzer ("four instances per project").
    pub instances: usize,
    /// Coverage sampling interval.
    pub sample_interval: u64,
    /// Saturation window before adaptive configuration mutation.
    pub saturation_window: u64,
    /// Link impairment applied to every campaign in the experiment
    /// (perfect by default; the `--link` bench flag sets it).
    pub link: LinkConditions,
}

impl ExperimentScale {
    /// CI-friendly scale: seconds per subject.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentScale {
            budget: 3_000,
            repetitions: 2,
            instances: 4,
            sample_interval: 100,
            saturation_window: 300,
            link: LinkConditions::perfect(),
        }
    }

    /// The recorded-experiment scale (minutes for the full grid).
    #[must_use]
    pub fn paper() -> Self {
        ExperimentScale {
            budget: 20_000,
            repetitions: 5,
            instances: 4,
            sample_interval: 200,
            saturation_window: 1_000,
            link: LinkConditions::perfect(),
        }
    }

    /// Reads `CMFUZZ_SCALE` (`quick` default, `paper` for the full run).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("CMFUZZ_SCALE").as_deref() {
            Ok("paper") => ExperimentScale::paper(),
            _ => ExperimentScale::quick(),
        }
    }

    fn options(&self, seed: u64) -> CampaignOptions {
        CampaignOptions {
            instances: self.instances,
            budget: Ticks::new(self.budget),
            sample_interval: Ticks::new(self.sample_interval),
            saturation_window: Ticks::new(self.saturation_window),
            seed,
            link: self.link,
            ..CampaignOptions::default()
        }
    }
}

/// The three evaluation fuzzers, in report-column order.
const FUZZERS: [&str; 3] = ["cmfuzz", "peach", "spfuzz"];

fn run_fuzzer(
    fuzzer: &str,
    spec: &ProtocolSpec,
    options: &CampaignOptions,
    telemetry: &Telemetry,
) -> Result<CampaignResult, CampaignError> {
    match fuzzer {
        "cmfuzz" => try_run_cmfuzz_with(spec, &ScheduleOptions::default(), options, telemetry),
        "peach" => try_run_peach_with(spec, options, telemetry),
        "spfuzz" => try_run_spfuzz_with(spec, options, telemetry),
        other => unreachable!("unknown fuzzer {other}"),
    }
}

/// Per-subject repetition results for the three fuzzers.
struct SubjectRuns {
    cmfuzz: Vec<CampaignResult>,
    peach: Vec<CampaignResult>,
    spfuzz: Vec<CampaignResult>,
}

/// Runs the full (subject × fuzzer × repetition) grid on `jobs` workers.
///
/// Each cell is one deterministic campaign executing inside its own
/// telemetry scope, so the shared sinks see one contiguous event block per
/// cell no matter how cells interleave. Results come back regrouped in
/// (subject, fuzzer, repetition) order — identical to a sequential run.
fn fuzzer_grid(
    experiment: &str,
    specs: &[ProtocolSpec],
    scale: &ExperimentScale,
    telemetry: &Telemetry,
    jobs: usize,
) -> Result<Vec<SubjectRuns>, CampaignError> {
    let mut cells = Vec::new();
    for spec in specs {
        for fuzzer in FUZZERS {
            for rep in 0..scale.repetitions {
                let spec = *spec;
                let mut options = scale.options(0xCAFE + rep * 7919);
                // One thread per cell: the grid supplies the parallelism,
                // so the campaign's own worker pool would only
                // oversubscribe the machine (results are identical either
                // way; see tests/parallel_determinism.rs).
                options.worker_pool = false;
                let telemetry = telemetry.clone();
                let label = format!("{experiment}: {} / {fuzzer} rep {rep}", spec.name);
                cells.push(move || {
                    let scope = telemetry.scoped(VirtualClock::new());
                    scope.telemetry().progress(label);
                    let result = run_fuzzer(fuzzer, &spec, &options, scope.telemetry());
                    scope.commit();
                    result
                });
            }
        }
    }
    let collected: Result<Vec<CampaignResult>, CampaignError> = Pool::new(jobs.min(cells.len()))
        .run_cells(cells)
        .into_iter()
        .collect();
    let mut results = collected?.into_iter();
    let mut reps = || -> Vec<CampaignResult> {
        (0..scale.repetitions)
            .map(|_| results.next().expect("one result per cell"))
            .collect()
    };
    Ok(specs
        .iter()
        .map(|_| SubjectRuns {
            cmfuzz: reps(),
            peach: reps(),
            spfuzz: reps(),
        })
        .collect())
}

fn mean_branches(results: &[CampaignResult]) -> f64 {
    results
        .iter()
        .map(|r| r.final_branches() as f64)
        .sum::<f64>()
        / results.len() as f64
}

/// Point-wise mean of equally-sampled curves.
fn mean_curve(results: &[CampaignResult]) -> CoverageCurve {
    let mut mean = CoverageCurve::new();
    let len = results
        .iter()
        .map(|r| r.curve.points().len())
        .min()
        .unwrap_or(0);
    for i in 0..len {
        let time = results[0].curve.points()[i].0;
        let avg = results.iter().map(|r| r.curve.points()[i].1).sum::<usize>() / results.len();
        mean.push(time, avg)
            .expect("repetitions sample identical, ordered times");
    }
    mean
}

/// Mean pairwise speedup of `ours` vs `baseline` across repetitions
/// (repetition k of ours against repetition k of the baseline, as the
/// paper's per-run measurement implies).
fn mean_speedup(ours: &[CampaignResult], baseline: &[CampaignResult]) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for (a, b) in ours.iter().zip(baseline) {
        if let Some(s) = speedup(&a.curve, &b.curve) {
            total += s;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Subject implementation name.
    pub subject: String,
    /// Mean branches covered by CMFuzz.
    pub cmfuzz: f64,
    /// Mean branches covered by Peach parallel mode.
    pub peach: f64,
    /// Improvement over Peach, percent.
    pub improv_peach: f64,
    /// Speedup to reach Peach's final coverage.
    pub speedup_peach: f64,
    /// Mean branches covered by SPFuzz.
    pub spfuzz: f64,
    /// Improvement over SPFuzz, percent.
    pub improv_spfuzz: f64,
    /// Speedup to reach SPFuzz's final coverage.
    pub speedup_spfuzz: f64,
}

/// Regenerates Table I: mean branches per fuzzer over the repetitions,
/// improvement percentages and speedups, one row per subject.
///
/// The grid runs on `jobs` workers; the returned rows are identical for
/// every worker count, and events and metrics go to `telemetry`.
///
/// # Errors
///
/// The first [`CampaignError`] any grid cell hit, in cell order.
pub fn table1(
    scale: &ExperimentScale,
    telemetry: &Telemetry,
    jobs: usize,
) -> Result<Vec<Table1Row>, CampaignError> {
    let specs = all_specs();
    let grid_runs = fuzzer_grid("table1", &specs, scale, telemetry, jobs)?;
    Ok(specs
        .iter()
        .zip(&grid_runs)
        .map(|(spec, runs)| table1_row_from_runs(spec.name, runs))
        .collect())
}

/// Assembles one Table I row from a subject's per-fuzzer repetitions.
fn table1_row_from_runs(subject: &str, runs: &SubjectRuns) -> Table1Row {
    let cm_mean = mean_branches(&runs.cmfuzz);
    let peach_mean = mean_branches(&runs.peach);
    let spfuzz_mean = mean_branches(&runs.spfuzz);
    Table1Row {
        subject: subject.to_owned(),
        cmfuzz: cm_mean,
        peach: peach_mean,
        improv_peach: improvement_pct(cm_mean as usize, peach_mean as usize),
        speedup_peach: mean_speedup(&runs.cmfuzz, &runs.peach),
        spfuzz: spfuzz_mean,
        improv_spfuzz: improvement_pct(cm_mean as usize, spfuzz_mean as usize),
        speedup_spfuzz: mean_speedup(&runs.cmfuzz, &runs.spfuzz),
    }
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Coverage-over-time series for one subject: the mean curve per fuzzer.
#[derive(Debug, Clone)]
pub struct Figure4Series {
    /// Subject implementation name.
    pub subject: String,
    /// Mean CMFuzz curve.
    pub cmfuzz: CoverageCurve,
    /// Mean Peach curve.
    pub peach: CoverageCurve,
    /// Mean SPFuzz curve.
    pub spfuzz: CoverageCurve,
}

/// Regenerates Figure 4: per-subject mean coverage curves for the three
/// fuzzers over the full budget.
///
/// The grid runs on `jobs` workers; the returned series are identical for
/// every worker count, and events and metrics go to `telemetry`.
///
/// # Errors
///
/// The first [`CampaignError`] any grid cell hit, in cell order.
pub fn figure4(
    scale: &ExperimentScale,
    telemetry: &Telemetry,
    jobs: usize,
) -> Result<Vec<Figure4Series>, CampaignError> {
    let specs = all_specs();
    Ok(fuzzer_grid("figure4", &specs, scale, telemetry, jobs)?
        .iter()
        .zip(&specs)
        .map(|(runs, spec)| Figure4Series {
            subject: spec.name.to_owned(),
            cmfuzz: mean_curve(&runs.cmfuzz),
            peach: mean_curve(&runs.peach),
            spfuzz: mean_curve(&runs.spfuzz),
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// One discovered vulnerability (Table II row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Protocol name (as the paper groups rows).
    pub protocol: String,
    /// Sanitizer-style kind.
    pub kind: FaultKind,
    /// Affected function.
    pub function: String,
    /// Which fuzzers found it within the budget.
    pub found_by: Vec<String>,
}

/// Regenerates Table II: runs all three fuzzers on every subject and
/// reports the union of unique faults with which fuzzer(s) found each.
///
/// The grid runs on `jobs` workers; the returned rows are identical for
/// every worker count, and events and metrics go to `telemetry`.
///
/// # Errors
///
/// The first [`CampaignError`] any grid cell hit, in cell order.
pub fn table2(
    scale: &ExperimentScale,
    telemetry: &Telemetry,
    jobs: usize,
) -> Result<Vec<Table2Row>, CampaignError> {
    let specs = all_specs();
    let grid_runs = fuzzer_grid("table2", &specs, scale, telemetry, jobs)?;
    let mut rows: Vec<Table2Row> = Vec::new();
    // Row identity → index into `rows`: O(1) lookup per fault instead of a
    // linear scan over every accumulated row, while rows keep their
    // first-seen order (which is what the rendered table sorts on).
    let mut by_identity: HashMap<(String, FaultKind, String), usize> = HashMap::new();
    for (spec, runs) in specs.iter().zip(&grid_runs) {
        let per_fuzzer = [&runs.cmfuzz, &runs.peach, &runs.spfuzz];
        for (fuzzer, results) in FUZZERS.iter().zip(per_fuzzer) {
            for result in results {
                for fault in result.faults.faults() {
                    let key = (spec.protocol.to_owned(), fault.kind, fault.function.clone());
                    if let Some(&at) = by_identity.get(&key) {
                        let row = &mut rows[at];
                        if !row.found_by.iter().any(|f| f == fuzzer) {
                            row.found_by.push((*fuzzer).to_owned());
                        }
                    } else {
                        by_identity.insert(key, rows.len());
                        rows.push(Table2Row {
                            protocol: spec.protocol.to_owned(),
                            kind: fault.kind,
                            function: fault.function.clone(),
                            found_by: vec![(*fuzzer).to_owned()],
                        });
                    }
                }
            }
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One ablation variant's outcome on one subject.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Subject name.
    pub subject: String,
    /// Mean branches covered.
    pub branches: f64,
}

/// The ablation variant list: label, schedule options, adaptive mutation.
fn ablation_variants() -> Vec<(&'static str, ScheduleOptions, bool)> {
    vec![
        ("cmfuzz", ScheduleOptions::default(), true),
        (
            "weight-absolute",
            ScheduleOptions {
                relation: RelationOptions {
                    mode: WeightMode::MaxAbsolute,
                    ..RelationOptions::default()
                },
                ..ScheduleOptions::default()
            },
            true,
        ),
        (
            "weight-mean",
            ScheduleOptions {
                relation: RelationOptions {
                    mode: WeightMode::Mean,
                    ..RelationOptions::default()
                },
                ..ScheduleOptions::default()
            },
            true,
        ),
        (
            "findbest-linear",
            ScheduleOptions {
                allocation: cmfuzz::allocation::AllocationOptions {
                    squared_numerator: false,
                },
                ..ScheduleOptions::default()
            },
            true,
        ),
        (
            "grouping-random",
            ScheduleOptions {
                grouping: GroupingStrategy::Random(1),
                ..ScheduleOptions::default()
            },
            true,
        ),
        ("no-adaptive", ScheduleOptions::default(), false),
    ]
}

/// Runs the design-choice ablations DESIGN.md calls out, on the two
/// subjects where configuration effects are largest (Mosquitto) and where
/// the case-study bug lives (libcoap):
///
/// * `cmfuzz` — the full system;
/// * `weight-absolute` — the paper-literal absolute-coverage pair weight
///   (demonstrates group-collapse);
/// * `weight-mean` — mean instead of peak aggregation;
/// * `findbest-linear` — un-squared `FindBest` numerator;
/// * `grouping-random` — random grouping instead of relation-aware;
/// * `no-adaptive` — relation-aware groups but no adaptive value mutation
///   (approximated by CMFuzz with an empty saturation budget).
///
/// The grid runs on `jobs` workers; the returned rows are identical for
/// every worker count, and events and metrics go to `telemetry`.
///
/// # Errors
///
/// The first [`CampaignError`] any grid cell hit, in cell order.
pub fn ablation(
    scale: &ExperimentScale,
    telemetry: &Telemetry,
    jobs: usize,
) -> Result<Vec<AblationRow>, CampaignError> {
    let subjects = ["mosquitto", "libcoap"];
    let variants = ablation_variants();
    let mut cells = Vec::new();
    for name in subjects {
        let spec = cmfuzz_protocols::spec_by_name(name).expect("subject exists");
        for (label, schedule_options, adaptive) in &variants {
            for rep in 0..scale.repetitions {
                let schedule_options = schedule_options.clone();
                let telemetry = telemetry.clone();
                let mut options = scale.options(0xCAFE + rep * 7919);
                // One thread per cell, as in `fuzzer_grid`.
                options.worker_pool = false;
                if !adaptive {
                    // A window longer than the budget never fires.
                    options.saturation_window = Ticks::new(options.budget.get() + 1);
                }
                let progress_label = format!("ablation: {name} / {label} rep {rep}");
                cells.push(move || {
                    let scope = telemetry.scoped(VirtualClock::new());
                    scope.telemetry().progress(progress_label);
                    let result =
                        try_run_cmfuzz_with(&spec, &schedule_options, &options, scope.telemetry());
                    scope.commit();
                    result
                });
            }
        }
    }
    let collected: Result<Vec<CampaignResult>, CampaignError> = Pool::new(jobs.min(cells.len()))
        .run_cells(cells)
        .into_iter()
        .collect();
    let mut results = collected?.into_iter();
    let mut rows = Vec::new();
    for name in subjects {
        for (label, _, _) in &variants {
            let reps: Vec<CampaignResult> = (0..scale.repetitions)
                .map(|_| results.next().expect("one result per cell"))
                .collect();
            rows.push(AblationRow {
                variant: (*label).to_owned(),
                subject: name.to_owned(),
                branches: mean_branches(&reps),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_protocols::spec_by_name;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            budget: 800,
            repetitions: 1,
            instances: 2,
            sample_interval: 100,
            saturation_window: 200,
            link: LinkConditions::perfect(),
        }
    }

    #[test]
    fn table1_row_shape_holds_on_mosquitto() {
        let spec = spec_by_name("mosquitto").unwrap();
        let runs = fuzzer_grid("table1", &[spec], &tiny(), &Telemetry::disabled(), 1).unwrap();
        let row = table1_row_from_runs(spec.name, &runs[0]);
        assert!(row.cmfuzz > row.peach, "{row:?}");
        assert!(row.improv_peach > 0.0);
        assert!(row.speedup_peach > 1.0, "{row:?}");
    }

    #[test]
    fn figure4_series_are_complete() {
        let scale = ExperimentScale {
            budget: 400,
            ..tiny()
        };
        // Restrict to one subject for speed by reusing internals: full
        // figure4 covers all six, so just sanity-check lengths on a small
        // run.
        let series =
            figure4(&scale, &Telemetry::disabled(), crate::default_jobs()).expect("grid runs");
        assert_eq!(series.len(), 6);
        for s in &series {
            assert_eq!(s.cmfuzz.points().len(), 5, "{}", s.subject);
            assert_eq!(s.peach.points().len(), 5);
            assert_eq!(s.spfuzz.points().len(), 5);
        }
    }

    #[test]
    fn scale_from_env_defaults_quick() {
        let scale = ExperimentScale::from_env();
        assert!(scale.budget <= ExperimentScale::paper().budget);
    }
}
