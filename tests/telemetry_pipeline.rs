//! End-to-end observability test: a quick CMFuzz campaign streamed through
//! the telemetry pipeline must tell the same story as the
//! [`CampaignResult`] it returns.

use cmfuzz::baseline::run_cmfuzz_with;
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::schedule::ScheduleOptions;
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_telemetry::{json, Event, RingBufferSink, Telemetry};

fn quick_options() -> CampaignOptions {
    CampaignOptions {
        instances: 4,
        budget: Ticks::new(2_000),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(200),
        seed: 4,
        ..CampaignOptions::default()
    }
}

#[test]
fn campaign_events_agree_with_campaign_result() {
    let spec = cmfuzz_protocols::spec_by_name("libcoap").expect("subject");
    let ring = RingBufferSink::new(65_536);
    let telemetry = Telemetry::builder(VirtualClock::new())
        .sink(Box::new(ring.clone()))
        .build();

    let result = run_cmfuzz_with(
        &spec,
        &ScheduleOptions::default(),
        &quick_options(),
        &telemetry,
    );
    telemetry.flush();

    assert_eq!(
        telemetry.dropped_events(),
        0,
        "ring capacity must hold the whole campaign"
    );

    // Every adaptive configuration mutation the campaign recorded appears
    // as exactly one config_mutated event, field for field.
    let mutated = ring.events_of_kind("config_mutated");
    assert_eq!(mutated.len(), result.config_mutations.len());
    for (event, recorded) in mutated.iter().zip(&result.config_mutations) {
        match event {
            Event::ConfigMutated {
                time,
                instance,
                entity,
                value,
            } => {
                assert_eq!(*time, recorded.time);
                assert_eq!(*instance, recorded.instance);
                assert_eq!(entity.as_str(), &*recorded.entity);
                assert_eq!(*value, recorded.value.render());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }
    assert!(
        !result.config_mutations.is_empty(),
        "this seed/budget is known to trigger adaptive mutation"
    );

    // Mutation is a response to saturation, so detections bound mutations
    // from above (a saturated instance may have no entities left to try).
    let saturated = ring.count_of_kind("saturation_detected");
    assert!(
        saturated >= mutated.len(),
        "{saturated} saturations < {} mutations",
        mutated.len()
    );

    // Fault events are deduplicated exactly like the fault log.
    assert_eq!(
        ring.count_of_kind("fault_found"),
        result.faults.unique_count()
    );

    // Bookends and cadence.
    assert_eq!(ring.count_of_kind("campaign_started"), 1);
    assert_eq!(ring.count_of_kind("campaign_finished"), 1);
    let rounds = (quick_options().budget.get() / quick_options().sample_interval.get()) as usize;
    assert_eq!(ring.count_of_kind("round_completed"), rounds);
    match ring.events_of_kind("campaign_finished").first() {
        Some(Event::CampaignFinished {
            branches,
            unique_faults,
            config_mutations,
            ..
        }) => {
            assert_eq!(*branches, result.final_branches());
            assert_eq!(*unique_faults, result.faults.unique_count());
            assert_eq!(*config_mutations, result.config_mutations.len());
        }
        other => panic!("missing campaign_finished: {other:?}"),
    }

    // Every record serializes to one line of valid JSON carrying its kind.
    for record in ring.records() {
        let line = record.to_json_line();
        assert!(json::is_valid(&line), "invalid JSON: {line}");
        assert!(!line.contains('\n'));
        assert!(line.contains(&format!("\"kind\":\"{}\"", record.event.kind())));
    }

    // Sequence numbers are gap-free in emission order.
    let seqs: Vec<u64> = ring.records().iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
}
