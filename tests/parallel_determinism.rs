//! Determinism gates for the two-level parallel execution layer.
//!
//! Two levels, two references:
//!
//! 1. **Grid level** — grids on `cmfuzz::exec::Pool` must render every
//!    table byte-identically to a one-worker run, no matter how cells
//!    interleave. Across processes, CI compares `table1` output at
//!    `CMFUZZ_JOBS=1` and `=2` byte for byte.
//! 2. **Campaign level** — a campaign's rounds on its own pool
//!    (`worker_pool: true`) must reproduce the inline (single-threaded)
//!    execution exactly: same coverage curve, same faults, same stats.
//!
//! (The third leg — scratch snapshots agreeing with allocating snapshots
//! under concurrent probe hits — lives next to the implementation in
//! `cmfuzz-coverage`'s unit tests.)

use cmfuzz::baseline::run_cmfuzz;
use cmfuzz::campaign::CampaignOptions;
use cmfuzz::schedule::ScheduleOptions;
use cmfuzz_bench::{report, table1, table2, ExperimentScale};
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::spec_by_name;
use cmfuzz_telemetry::{RingBufferSink, Telemetry};

/// FNV-1a over a string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Small enough for CI, large enough to exercise multiple rounds, seed
/// sync, and adaptive mutation in every cell.
fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        budget: 600,
        repetitions: 2,
        instances: 2,
        sample_interval: 100,
        saturation_window: 200,
        link: LinkConditions::perfect(),
    }
}

#[test]
fn parallel_table1_matches_sequential_reference() {
    let scale = tiny_scale();
    let sequential = table1(&scale, &Telemetry::disabled(), 1).expect("table1 grid runs");
    let parallel = table1(&scale, &Telemetry::disabled(), 4).expect("table1 grid runs");
    assert_eq!(
        report::render_table1(&sequential),
        report::render_table1(&parallel),
        "table1 output depends on worker count"
    );
}

#[test]
fn parallel_table2_matches_sequential_reference() {
    let scale = tiny_scale();
    let sequential = table2(&scale, &Telemetry::disabled(), 1).expect("table2 grid runs");
    let parallel = table2(&scale, &Telemetry::disabled(), 3).expect("table2 grid runs");
    assert_eq!(
        report::render_table2(&sequential),
        report::render_table2(&parallel),
        "table2 output depends on worker count"
    );
}

#[test]
fn worker_pool_campaigns_match_inline_reference() {
    let spec = spec_by_name("libcoap").expect("subject exists");
    for seed in [7u64, 21] {
        let pooled_options = CampaignOptions {
            instances: 3,
            budget: Ticks::new(1_200),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(300),
            seed,
            worker_pool: true,
            ..CampaignOptions::default()
        };
        let inline_options = CampaignOptions {
            worker_pool: false,
            ..pooled_options.clone()
        };
        let pooled = run_cmfuzz(&spec, &ScheduleOptions::default(), &pooled_options);
        let inline = run_cmfuzz(&spec, &ScheduleOptions::default(), &inline_options);
        assert_eq!(
            format!("{pooled:?}"),
            format!("{inline:?}"),
            "worker pool diverged from inline execution at seed {seed}"
        );
    }
}

#[test]
fn batch_size_is_invisible_across_the_worker_pool() {
    // Batched execution (FuzzEngine::run_batch via CampaignOptions::batch)
    // and the worker pool are independent throughput knobs; every
    // combination must reproduce the inline batch-1 reference exactly.
    let spec = spec_by_name("libcoap").expect("subject exists");
    let reference_options = CampaignOptions {
        instances: 3,
        budget: Ticks::new(1_200),
        sample_interval: Ticks::new(100),
        saturation_window: Ticks::new(300),
        seed: 7,
        worker_pool: false,
        batch: 1,
        ..CampaignOptions::default()
    };
    let reference = run_cmfuzz(&spec, &ScheduleOptions::default(), &reference_options);
    for (worker_pool, batch) in [(true, 1), (false, 64), (true, 64)] {
        let options = CampaignOptions {
            worker_pool,
            batch,
            ..reference_options.clone()
        };
        let result = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
        assert_eq!(
            format!("{result:?}"),
            format!("{reference:?}"),
            "diverged at worker_pool {worker_pool}, batch {batch}"
        );
    }
}

#[test]
fn impaired_campaigns_match_inline_reference() {
    // The execution layer's lossy-link acceptance gate: a campaign run
    // over an impaired link (loss, duplication, reordering) must stay
    // deterministic — same seed and same `LinkConditions` produce the
    // exact same result whether rounds run on the worker pool or inline.
    // The FNV pins (measured before the netsim wire went single-lock)
    // catch a rewrite that re-rolls the impairment draw order on both
    // sides at once. Re-pinned when `CampaignStats` lost its always-zero
    // count of near-duplicate drops: each is the digest of the old render
    // without that field.
    for (subject, seed, digest) in [
        ("libcoap", 5, 0x02e4_1f3f_734f_6df2),
        ("mosquitto", 11, 0x73e8_9558_efc6_31ff),
    ] {
        let spec = spec_by_name(subject).expect("subject exists");
        let pooled_options = CampaignOptions {
            instances: 2,
            budget: Ticks::new(800),
            sample_interval: Ticks::new(100),
            saturation_window: Ticks::new(300),
            seed,
            worker_pool: true,
            link: LinkConditions::new(0.1, 0.05, 0.05),
            ..CampaignOptions::default()
        };
        let inline_options = CampaignOptions {
            worker_pool: false,
            ..pooled_options.clone()
        };
        let pooled = run_cmfuzz(&spec, &ScheduleOptions::default(), &pooled_options);
        let inline = run_cmfuzz(&spec, &ScheduleOptions::default(), &inline_options);
        assert_eq!(
            format!("{pooled:?}"),
            format!("{inline:?}"),
            "{subject}: impaired campaign depends on the worker pool"
        );
        assert_eq!(
            fnv1a(&format!("{inline:?}")),
            digest,
            "{subject}: impaired campaign drifted from its pinned digest"
        );
    }
}

#[test]
fn grid_telemetry_totals_are_jobs_independent() {
    let scale = ExperimentScale {
        repetitions: 1,
        ..tiny_scale()
    };
    let run = |jobs: usize| {
        let ring = RingBufferSink::new(65_536);
        let telemetry = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(ring.clone()))
            .build();
        let rows = table1(&scale, &telemetry, jobs).expect("table1 grid runs");
        telemetry.flush();
        (
            rows.len(),
            ring.records().len(),
            telemetry.metrics_snapshot(),
        )
    };
    let (rows_seq, events_seq, metrics_seq) = run(1);
    let (rows_par, events_par, metrics_par) = run(4);
    assert_eq!(rows_seq, rows_par);
    // Scoped commits reorder whole cell blocks but never lose or duplicate
    // a record, and metric totals fold to the same sums.
    assert_eq!(events_seq, events_par, "event records lost or duplicated");
    assert_eq!(metrics_seq.counters, metrics_par.counters);
    assert_eq!(
        metrics_seq
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count, h.sum))
            .collect::<Vec<_>>(),
        metrics_par
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count, h.sum))
            .collect::<Vec<_>>()
    );
}
