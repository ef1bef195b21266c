//! The telemetry tax: one campaign run with an enabled telemetry pipeline
//! (events drained and engine counts published at every round boundary)
//! against the same campaign with a disabled one. The acceptance bar is
//! 5%; this measurement prints both rates and asserts nothing. Run it in
//! release:
//!
//! ```sh
//! cargo test --release -p cmfuzz-bench --test telemetry_overhead -- --ignored --nocapture
//! ```

use std::time::Instant;

use cmfuzz::campaign::{try_run_campaign_with_telemetry, CampaignOptions, InstanceSetup};
use cmfuzz_coverage::{Ticks, VirtualClock};
use cmfuzz_protocols::spec_by_name;
use cmfuzz_telemetry::Telemetry;

/// Alternating runs per pipeline; the median rate is reported.
const RUNS: usize = 5;

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

fn median(mut rates: Vec<f64>) -> f64 {
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

#[test]
#[ignore = "wall-clock measurement; run in release with --ignored --nocapture"]
fn telemetry_overhead() {
    let mut disabled = Vec::new();
    let mut enabled = Vec::new();
    for _ in 0..RUNS {
        disabled.push(sessions_per_s(&Telemetry::disabled()));
        enabled.push(sessions_per_s(
            &Telemetry::builder(VirtualClock::new()).build(),
        ));
    }
    let (disabled, enabled) = (median(disabled), median(enabled));
    println!(
        "telemetry_overhead: disabled {disabled:.0} sessions/s, enabled {enabled:.0} sessions/s \
         ({:+.2}%)",
        (enabled / disabled - 1.0) * 100.0
    );
}
