//! End-to-end observability test: a quick CMFuzz campaign streamed through
//! the telemetry pipeline must tell the same story as the
//! [`CampaignResult`] it returns.

use cmfuzz::baseline::{cmfuzz_setups, try_run_cmfuzz_with};
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::schedule::{build_schedule, ScheduleOptions};
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_fleet::{run_fleet_with_telemetry, CoverageGradient, FleetCampaign, FleetOptions};
use cmfuzz_fuzzer::EngineConfig;
use cmfuzz_telemetry::{json, Event, MetricsSnapshot, RingBufferSink, Telemetry};

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

    let result = try_run_cmfuzz_with(
        &spec,
        &ScheduleOptions::default(),
        &quick_options(),
        &telemetry,
    )
    .expect("campaign runs");
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

/// FNV-1a over an end-of-run metrics snapshot: every counter's name and
/// value, then each histogram's name, bounds, bucket counts, count and
/// sum. Gauges are left out: they hold last-write state, not totals.
fn metrics_digest(snapshot: &MetricsSnapshot) -> u64 {
    let mut text = String::new();
    for (name, value) in &snapshot.counters {
        text += &format!("{name}={value};");
    }
    for (name, h) in &snapshot.histograms {
        text += &format!(
            "{name}:{:?}:{:?}:{}:{};",
            h.bounds, h.counts, h.count, h.sum
        );
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn campaign_metrics_match_their_pinned_digest() {
    // Two instances syncing seeds every second round: engine, corpus and
    // seed-sync counters, plus both engine histograms, all move.
    let spec = cmfuzz_protocols::spec_by_name("mosquitto").expect("subject");
    let telemetry = Telemetry::builder(VirtualClock::new()).build();
    let options = CampaignOptions {
        instances: 2,
        seed_sync_every_rounds: Some(2),
        ..quick_options()
    };
    let result = try_run_cmfuzz_with(&spec, &ScheduleOptions::default(), &options, &telemetry)
        .expect("campaign runs");
    let snapshot = telemetry.metrics_snapshot();
    assert!(snapshot.counter("corpus.shared_in") > Some(0));
    assert_eq!(
        snapshot.counter("engine.sessions"),
        Some(result.stats.sessions)
    );
    // Re-pinned when the always-zero near-duplicate counter of the
    // `corpus.*` family was deleted: the old snapshot's digest without
    // that entry.
    assert_eq!(
        metrics_digest(&snapshot),
        0xf2a9_66cd_10e4_f12f,
        "campaign metrics drifted from their pinned digest"
    );
}

#[test]
fn sharing_fleet_metrics_match_their_pinned_digest() {
    // Three partitions of one subject in one share group, sliced at 100
    // ticks: shared seeds are queued between slices. Budgets differ, so
    // campaigns finish at different waves and keep receiving seeds they
    // never settle; a small corpus evicts, so donations are accepted
    // again after their first import.
    let spec = cmfuzz_protocols::spec_by_name("mosquitto").expect("subject");
    let mut scratch = (spec.build)();
    let schedule = build_schedule(&mut scratch, 3, &ScheduleOptions::default());
    let fleet: Vec<FleetCampaign> = cmfuzz_setups(&schedule, 3)
        .into_iter()
        .enumerate()
        .map(|(part, setup)| FleetCampaign {
            id: format!("mosquitto/part-{part}"),
            spec,
            fuzzer: "cmfuzz".into(),
            setups: vec![setup],
            options: CampaignOptions {
                instances: 1,
                budget: Ticks::new(600 + 400 * part as u64),
                seed: 0x5EED_0200 + part as u64,
                engine: EngineConfig {
                    corpus_capacity: 24,
                    ..EngineConfig::default()
                },
                ..quick_options()
            },
            share_group: Some("mosquitto".to_owned()),
        })
        .collect();
    let telemetry = Telemetry::builder(VirtualClock::new()).build();
    let result = run_fleet_with_telemetry(
        &fleet,
        &mut CoverageGradient::new(),
        &FleetOptions {
            slots: 2,
            slice: Ticks::new(100),
            share_rare_seeds: 4,
            ..FleetOptions::default()
        },
        &telemetry,
    )
    .expect("fleet runs");
    assert!(result.all_complete());
    assert!(result.seeds_shared > 0);
    let snapshot = telemetry.metrics_snapshot();
    assert_eq!(
        snapshot.counter("corpus.shared_in"),
        Some(
            result
                .campaigns
                .iter()
                .map(|c| c.result().stats.seeds_imported)
                .sum()
        )
    );
    // Re-pinned when the always-zero near-duplicate counter of the
    // `corpus.*` family was deleted: the old snapshot's digest without
    // that entry.
    assert_eq!(
        metrics_digest(&snapshot),
        0xa54c_882e_7072_c252,
        "fleet metrics drifted from their pinned digest"
    );
}
