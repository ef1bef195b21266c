//! Seed-synchronization semantics across the engine boundary.
//!
//! Three contracts the campaign's sync rounds rely on: the outbox drains
//! exactly once per export, imports never echo back into the outbox, and
//! an imported seed is actually reachable through the consumer's
//! per-model corpus pick — plus the PR-3 guarantee that seed bytes are
//! shared by refcount, not copied, when they cross the boundary.

use std::sync::Arc;

use cmfuzz_config_model::{ConfigSpace, ResolvedConfig};
use cmfuzz_coverage::{BranchId, CoverageProbe};
use cmfuzz_fuzzer::{
    pit, EngineConfig, Fault, FaultKind, FuzzEngine, Seed, StartError, Target, TargetResponse,
};
use cmfuzz_protocols::{spec_by_name, NetworkedTarget};

/// Crashes only on one exact magic payload no generator or mutator is
/// ever configured to produce here — the only way to trigger it is to
/// replay an imported seed verbatim.
struct MagicTarget {
    probe: Option<CoverageProbe>,
}

const MAGIC: &[u8] = &[0xDE, 0xAD, 0xBE, 0xEF];

impl Target for MagicTarget {
    fn name(&self) -> &str {
        "magic"
    }
    fn branch_count(&self) -> usize {
        2
    }
    fn config_space(&self) -> ConfigSpace {
        ConfigSpace {
            cli: vec![],
            files: vec![],
        }
    }
    fn start(&mut self, _config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        probe.hit(BranchId::from_index(0));
        self.probe = Some(probe);
        Ok(())
    }
    fn begin_session(&mut self) {}
    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        self.probe
            .as_ref()
            .expect("started")
            .hit(BranchId::from_index(1));
        if input == MAGIC {
            return TargetResponse::crash(Fault::new(FaultKind::Segv, "magic_handler"));
        }
        TargetResponse::empty()
    }
}

fn magic_engine(config: EngineConfig) -> FuzzEngine<MagicTarget> {
    let parsed = pit::parse(
        r#"<Peach>
          <DataModel name="Msg"><Number name="op" size="8" value="7"/></DataModel>
          <StateModel name="S" initialState="I">
            <State name="I"><Action dataModel="Msg" next="I"/></State>
          </StateModel>
        </Peach>"#,
    )
    .expect("pit parses");
    let mut engine = FuzzEngine::new(MagicTarget { probe: None }, parsed, config);
    engine.start(&ResolvedConfig::new()).expect("boots");
    engine
}

#[test]
fn export_drains_exactly_once() {
    let spec = spec_by_name("mosquitto").expect("subject");
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let target = NetworkedTarget::new((spec.build)(), "sync-producer");
    let mut producer = FuzzEngine::new(target, parsed, EngineConfig::default());
    producer.start(&ResolvedConfig::new()).expect("boots");
    for _ in 0..200 {
        producer.run_batch(1);
    }
    let exported = producer.export_new_seeds();
    assert!(!exported.is_empty(), "producer retained seeds");
    assert!(
        producer.export_new_seeds().is_empty(),
        "second drain is empty"
    );
    assert!(producer.export_new_seeds().is_empty(), "and stays empty");
    assert!(
        producer.corpus_len() > 0,
        "draining does not touch the corpus"
    );
}

#[test]
fn import_does_not_echo_into_outbox() {
    // A consumer that never ran an iteration has an empty outbox; after
    // importing, it must still be exactly empty — imports go to the
    // corpus only.
    let mut consumer = magic_engine(EngineConfig::default());
    let id = consumer.model_id("Msg").expect("pit model interned");
    let seeds: Vec<Seed> = (0..5u8).map(|i| Seed::new(vec![i, i, i], id)).collect();
    consumer.import_seeds(&seeds);
    assert_eq!(consumer.corpus_len(), 5, "imports land in the corpus");
    assert!(
        consumer.export_new_seeds().is_empty(),
        "imports must not re-enter the outbox"
    );
}

#[test]
fn imported_seeds_share_bytes_by_refcount() {
    let mut consumer = magic_engine(EngineConfig::default());
    let id = consumer.model_id("Msg").expect("pit model interned");
    let seed = Seed::new(MAGIC, id);
    let before = Arc::strong_count(&seed.bytes);
    consumer.import_seeds(std::slice::from_ref(&seed));
    assert_eq!(
        Arc::strong_count(&seed.bytes),
        before + 1,
        "import bumps the refcount instead of copying the buffer"
    );
}

#[test]
fn imported_seed_is_picked_for_its_model() {
    // Pin the engine to pure seed reuse: every message must come from
    // `pick_for_model`. The only seed is the imported magic payload, and
    // only that payload crashes the target — observing the fault proves
    // the imported seed travelled corpus → pick → wire.
    let mut consumer = magic_engine(EngineConfig {
        seed: 9,
        model_mutation_rate: 0.0,
        seed_reuse_rate: 1.0,
        byte_mutation_rate: 0.0,
        ..EngineConfig::default()
    });
    let id = consumer.model_id("Msg").expect("pit model interned");
    consumer.import_seeds(&[Seed::new(MAGIC, id)]);

    let outcome = consumer.run_batch(1);
    assert!(outcome.messages_sent > 0);
    assert_eq!(
        consumer.fault_log().unique_count(),
        1,
        "replaying the imported seed must hit the magic crash"
    );
    assert!(consumer
        .fault_log()
        .contains(FaultKind::Segv, "magic_handler"));
}
