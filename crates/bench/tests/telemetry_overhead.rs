//! The telemetry tax: a fuzzing engine with live `engine.*` handles
//! attached, against one running with the default detached (no-op
//! registry) handles. The acceptance bar is 5%; this measurement prints
//! both rates and asserts nothing. Run it in release:
//!
//! ```sh
//! cargo test --release -p cmfuzz-bench --test telemetry_overhead -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::VirtualClock;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
use cmfuzz_protocols::{spec_by_name, NetworkedTarget, ProtocolTarget};
use cmfuzz_telemetry::{EngineTelemetry, Telemetry};

/// Sessions per `run_batch` call (the campaign default), and the warm-up
/// and measured batches: 2 000 and 50 000 sessions.
const BATCH: usize = 16;
const WARMUP: u32 = 125;
const MEASURED: u32 = 3_125;

fn engine(namespace: &str) -> FuzzEngine<NetworkedTarget<ProtocolTarget>> {
    let spec = spec_by_name("mosquitto").expect("subject exists");
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let target = NetworkedTarget::new((spec.build)(), namespace);
    let mut engine = FuzzEngine::new(target, parsed, EngineConfig::default());
    engine
        .start(&ResolvedConfig::new())
        .expect("boots under defaults");
    engine
}

/// Mean wall-clock nanoseconds per session after a warmup.
fn ns_per_session(engine: &mut FuzzEngine<NetworkedTarget<ProtocolTarget>>) -> f64 {
    for _ in 0..WARMUP {
        black_box(engine.run_batch(BATCH));
    }
    let started = Instant::now();
    for _ in 0..MEASURED {
        black_box(engine.run_batch(BATCH));
    }
    started.elapsed().as_nanos() as f64 / f64::from(MEASURED * BATCH as u32)
}

#[test]
#[ignore = "wall-clock measurement; run in release with --ignored --nocapture"]
fn telemetry_overhead() {
    let disabled = ns_per_session(&mut engine("bench-telemetry-off"));

    let telemetry = Telemetry::builder(VirtualClock::new()).build();
    let mut enabled_engine = engine("bench-telemetry-on");
    enabled_engine.attach_telemetry(EngineTelemetry::for_pipeline(&telemetry));
    let enabled = ns_per_session(&mut enabled_engine);

    println!(
        "telemetry_overhead: disabled {disabled:.0} ns/session, enabled {enabled:.0} ns/session \
         ({:+.2}%)",
        (enabled / disabled - 1.0) * 100.0
    );
}
