//! The telemetry tax: one campaign run with an enabled telemetry pipeline
//! (events drained and engine counts published at every round boundary)
//! against the same campaign with a disabled one. The acceptance bar is
//! 5%; this measurement prints each side's median rate with its
//! interquartile range and the median paired difference, and asserts
//! nothing. Run it in release:
//!
//! ```sh
//! cargo test --release -p cmfuzz-bench --test telemetry_overhead -- --ignored --nocapture
//! ```

use std::time::Instant;

use cmfuzz::campaign::{try_run_campaign_with_telemetry, CampaignOptions, InstanceSetup};
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_protocols::spec_by_name;
use cmfuzz_telemetry::Telemetry;

/// Pairs of runs, one per pipeline each; the side that runs first
/// alternates from pair to pair.
const PAIRS: usize = 10;

/// Sessions per wall-clock second of one mosquitto campaign: 4 instances,
/// 12 500 sessions each, on the calling thread.
fn sessions_per_s(telemetry: &Telemetry) -> f64 {
    let spec = spec_by_name("mosquitto").expect("subject exists");
    let options = CampaignOptions {
        instances: 4,
        budget: Ticks::new(12_500),
        worker_pool: false,
        ..CampaignOptions::default()
    };
    let started = Instant::now();
    let result = try_run_campaign_with_telemetry(
        &spec,
        "peach",
        &vec![InstanceSetup::default(); options.instances],
        &options,
        telemetry,
    )
    .expect("campaign runs");
    result.stats.sessions as f64 / started.elapsed().as_secs_f64()
}

/// The median and interquartile range (nearest-rank quartiles) of
/// `values`.
fn median_iqr(mut values: Vec<f64>) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |q: usize| values[(values.len() - 1) * q / 4];
    (at(2), at(1), at(3))
}

#[test]
#[ignore = "wall-clock measurement; run in release with --ignored --nocapture"]
fn telemetry_overhead() {
    let enabled_pipeline = || Telemetry::builder(VirtualClock::new()).build();
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            disabled.push(sessions_per_s(&Telemetry::disabled()));
            enabled.push(sessions_per_s(&enabled_pipeline()));
        } else {
            enabled.push(sessions_per_s(&enabled_pipeline()));
            disabled.push(sessions_per_s(&Telemetry::disabled()));
        }
    }
    let paired: Vec<f64> = enabled
        .iter()
        .zip(&disabled)
        .map(|(on, off)| (on / off - 1.0) * 100.0)
        .collect();
    let (off, off_q1, off_q3) = median_iqr(disabled);
    let (on, on_q1, on_q3) = median_iqr(enabled);
    let (difference, _, _) = median_iqr(paired);
    println!(
        "telemetry_overhead over {PAIRS} pairs: disabled {off:.0} sessions/s \
         (IQR {off_q1:.0}-{off_q3:.0}), enabled {on:.0} sessions/s \
         (IQR {on_q1:.0}-{on_q3:.0}); median paired difference {difference:+.2}%"
    );
}
