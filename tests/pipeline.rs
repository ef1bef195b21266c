//! Cross-crate integration tests: the full CMFuzz pipeline from
//! configuration extraction to campaign metrics, on every subject.

use cmfuzz::baseline::{cmfuzz_setups, run_cmfuzz, run_peach, run_spfuzz};
use cmfuzz::campaign::{run_campaign, CampaignOptions, InstanceSetup};
use cmfuzz::metrics::{improvement_pct, speedup};
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_config_model::{extract_model, ConfigFile, ConfigSpace, ResolvedConfig};
use cmfuzz_coverage::{BranchId, CoverageProbe, Ticks};
use cmfuzz_fuzzer::{StartError, Target, TargetResponse};
use cmfuzz_protocols::{all_specs, ProtocolSpec};

fn short_options(seed: u64) -> CampaignOptions {
    CampaignOptions {
        instances: 4,
        budget: Ticks::new(2_000),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(300),
        seed,
        ..CampaignOptions::default()
    }
}

#[test]
fn schedule_pipeline_works_for_every_subject() {
    for spec in all_specs() {
        let mut target = (spec.build)();
        let model = extract_model(&target.config_space());
        assert!(model.len() >= 10, "{}: thin config model", spec.name);

        let schedule = build_schedule(&mut target, 4, &ScheduleOptions::default());
        assert!(
            !schedule.plans.is_empty() && schedule.plans.len() <= 4,
            "{}: bad plan count",
            spec.name
        );
        // Setups derive cleanly and each plan's config boots.
        let setups = cmfuzz_setups(&schedule, 4);
        assert_eq!(setups.len(), 4, "{}", spec.name);
    }
}

#[test]
fn cmfuzz_beats_both_baselines_on_every_subject() {
    // The paper's headline (Table I): CMFuzz covers more branches than
    // Peach and SPFuzz on all six subjects.
    for spec in all_specs() {
        let options = short_options(31);
        let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
        let peach = run_peach(&spec, &options);
        let spfuzz = run_spfuzz(&spec, &options);
        assert!(
            cm.final_branches() > peach.final_branches(),
            "{}: cmfuzz {} <= peach {}",
            spec.name,
            cm.final_branches(),
            peach.final_branches()
        );
        assert!(
            cm.final_branches() > spfuzz.final_branches(),
            "{}: cmfuzz {} <= spfuzz {}",
            spec.name,
            cm.final_branches(),
            spfuzz.final_branches()
        );
        assert!(
            improvement_pct(cm.final_branches(), peach.final_branches()) > 5.0,
            "{}: improvement too small to be meaningful",
            spec.name
        );
    }
}

#[test]
fn cmfuzz_reaches_baseline_coverage_faster() {
    // The paper's speedup metric is >= 1 everywhere (Table I).
    let spec = cmfuzz_protocols::spec_by_name("mosquitto").expect("subject");
    let options = short_options(13);
    let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
    let peach = run_peach(&spec, &options);
    let s = speedup(&cm.curve, &peach.curve).expect("cmfuzz reaches peach's final coverage");
    assert!(s >= 1.0, "speedup {s} < 1");
}

#[test]
fn early_lead_from_startup_configurations() {
    // Figure 4: "CMFuzz achieves a considerable early lead because many of
    // its extracted configuration items are loaded at startup".
    let spec = cmfuzz_protocols::spec_by_name("libcoap").expect("subject");
    let options = short_options(17);
    let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
    let peach = run_peach(&spec, &options);
    let cm_first = cm.curve.points()[0].1;
    let peach_first = peach.curve.points()[0].1;
    assert!(
        cm_first > peach_first,
        "startup union {cm_first} must exceed default startup {peach_first}"
    );
}

#[test]
fn all_fuzzers_consume_identical_session_budgets() {
    // The fairness requirement behind Table I: the only variable between
    // fuzzers is scheduling, never the execution budget.
    let spec = cmfuzz_protocols::spec_by_name("libcoap").expect("subject");
    let options = short_options(41);
    let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
    let peach = run_peach(&spec, &options);
    let spfuzz = run_spfuzz(&spec, &options);
    let expected = options.budget.get() * options.instances as u64;
    for result in [&cm, &peach, &spfuzz] {
        assert_eq!(
            result.stats.sessions, expected,
            "{}: session budget mismatch",
            result.fuzzer
        );
        assert!(result.stats.messages >= result.stats.sessions);
    }
}

#[test]
fn campaigns_are_reproducible_end_to_end() {
    let spec = cmfuzz_protocols::spec_by_name("qpid").expect("subject");
    let a = run_cmfuzz(&spec, &ScheduleOptions::default(), &short_options(23));
    let b = run_cmfuzz(&spec, &ScheduleOptions::default(), &short_options(23));
    assert_eq!(a.curve, b.curve, "same seed, same curve");
    assert_eq!(a.faults.unique_count(), b.faults.unique_count());
}

#[test]
fn summary_renders_all_sections() {
    let spec = cmfuzz_protocols::spec_by_name("dnsmasq").expect("subject");
    let result = run_cmfuzz(&spec, &ScheduleOptions::default(), &short_options(2));
    let summary = result.summary();
    assert!(summary.starts_with("cmfuzz on dnsmasq:"));
    assert!(summary.contains("branches"));
    assert!(summary.contains("sessions"));
    if result.faults.unique_count() > 0 {
        assert!(summary.contains("fault:"));
    }
}

#[test]
fn fault_union_is_config_gated() {
    // Across all subjects at this small budget, CMFuzz's fault set strictly
    // contains each baseline's: configuration-gated bugs need the
    // scheduler.
    let spec = cmfuzz_protocols::spec_by_name("mosquitto").expect("subject");
    let options = CampaignOptions {
        budget: Ticks::new(4_000),
        ..short_options(3)
    };
    let cm = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
    let peach = run_peach(&spec, &options);
    assert!(cm.faults.unique_count() > peach.faults.unique_count());
    for fault in peach.faults.faults() {
        assert!(
            cm.faults.contains(fault.kind, &fault.function),
            "cmfuzz missed a baseline-findable fault: {fault}"
        );
    }
}

/// A downstream target outside the registry: one byte selects a branch,
/// and a `verbose` configuration item unlocks a second reply path.
#[derive(Default)]
struct TallyTarget {
    probe: Option<CoverageProbe>,
    verbose: bool,
}

impl TallyTarget {
    fn hit(&self, branch: u32) {
        if let Some(probe) = &self.probe {
            probe.hit(BranchId::from_index(branch));
        }
    }
}

impl Target for TallyTarget {
    fn name(&self) -> &str {
        "tally"
    }

    fn branch_count(&self) -> usize {
        10
    }

    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![],
            files: vec![ConfigFile::named("tally.conf", "verbose false\n")],
        }
    }

    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        self.verbose = config.bool_or("verbose", false);
        self.probe = Some(probe);
        self.hit(0);
        Ok(())
    }

    fn begin_session(&mut self) {}

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        let Some(&first) = input.first() else {
            return TargetResponse::empty();
        };
        self.hit(1 + u32::from(first % 8));
        if self.verbose {
            self.hit(9);
            return TargetResponse::reply(input.to_vec());
        }
        TargetResponse::empty()
    }
}

const TALLY_PIT: &str = r#"<Peach>
  <DataModel name="Count">
    <Number name="value" size="8" value="1"/>
    <Blob name="tail" value="tally"/>
  </DataModel>
  <StateModel name="TallySession" initialState="Init">
    <State name="Init">
      <Action dataModel="Count" next="Init"/>
    </State>
  </StateModel>
</Peach>"#;

#[test]
fn downstream_target_runs_through_the_campaign_api() {
    let spec = ProtocolSpec {
        name: "tally",
        protocol: "TALLY",
        build: || Box::new(TallyTarget::default()),
        pit_document: TALLY_PIT,
    };
    let setups = vec![InstanceSetup::default(); 2];
    let options = CampaignOptions {
        instances: setups.len(),
        budget: Ticks::new(600),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(300),
        seed: 9,
        ..CampaignOptions::default()
    };
    let first = run_campaign(&spec, "cmfuzz", &setups, &options);
    let second = run_campaign(&spec, "cmfuzz", &setups, &options);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert!(
        first.final_branches() > 0,
        "the downstream target covered nothing"
    );
}
