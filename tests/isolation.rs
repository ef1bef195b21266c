//! Integration tests for instance isolation (the netns substitution) and
//! seed synchronization plumbing across crates.

use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::CoverageMap;
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine, Seed, Target};
use cmfuzz_netsim::{Addr, Network};
use cmfuzz_protocols::{spec_by_name, NetworkedTarget};

#[test]
fn parallel_instances_cannot_hear_each_other() {
    // Two wrapped instances of the same protocol bind identical addresses
    // in their own namespaces; traffic injected into one namespace never
    // surfaces in the other.
    let spec = spec_by_name("dnsmasq").expect("subject");
    let mut a = NetworkedTarget::new((spec.build)(), "instance-a");
    let mut b = NetworkedTarget::new((spec.build)(), "instance-b");
    let map_a = CoverageMap::new(a.branch_count());
    let map_b = CoverageMap::new(b.branch_count());
    a.start(&ResolvedConfig::new(), map_a.probe())
        .expect("a boots");
    b.start(&ResolvedConfig::new(), map_b.probe())
        .expect("b boots");

    // Drive instance A only.
    let query = [
        0xBE, 0xEF, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 1, b'x', 0, 0, 1, 0, 1,
    ];
    let response = a.handle(&query);
    assert!(!response.bytes.is_empty(), "A answered");
    assert!(map_a.covered_count() > 0, "A recorded coverage");
    // B's startup coverage only — handling activity cannot leak over.
    let b_startup = map_b.covered_count();
    let _ = a.handle(&query);
    assert_eq!(
        map_b.covered_count(),
        b_startup,
        "B unaffected by A's traffic"
    );

    // The same address is bindable in both namespaces simultaneously.
    let extra_a = a
        .network()
        .bind_datagram(Addr::new(50, 50))
        .expect("free in A");
    let extra_b = b
        .network()
        .bind_datagram(Addr::new(50, 50))
        .expect("free in B");
    assert_eq!(extra_a.addr(), extra_b.addr());
}

#[test]
fn cross_namespace_sends_are_unreachable() {
    let ns1 = Network::new("ns1");
    let ns2 = Network::new("ns2");
    let server = ns1.bind_datagram(Addr::new(1, 5683)).expect("bind");
    let foreign = ns2.bind_datagram(Addr::new(9, 9)).expect("bind");
    assert!(foreign.send_to(Addr::new(1, 5683), b"probe").is_err());
    assert!(server.try_recv().is_none());
}

#[test]
fn seed_sync_transfers_retained_inputs() {
    // Two engines on the same subject: one finds seeds, exports them; the
    // other imports and can immediately reuse them.
    let spec = spec_by_name("mosquitto").expect("subject");
    let parsed = pit::parse(spec.pit_document).expect("pit parses");
    let make_engine = |seed: u64| {
        let target = NetworkedTarget::new((spec.build)(), &format!("sync-{seed}"));
        let mut engine = FuzzEngine::new(
            target,
            parsed.clone(),
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
        );
        engine.start(&ResolvedConfig::new()).expect("boots");
        engine
    };
    let mut producer = make_engine(1);
    for _ in 0..200 {
        producer.run_batch(1);
    }
    let exported = producer.export_new_seeds();
    assert!(!exported.is_empty(), "producer retained seeds");
    assert!(
        producer.export_new_seeds().is_empty(),
        "export drains the outbox"
    );

    let mut consumer = make_engine(2);
    let before = consumer.corpus_len();
    consumer.import_seeds(&exported);
    assert_eq!(consumer.corpus_len(), before + exported.len().min(256));

    // Imported seeds don't echo back out.
    let echoed: Vec<Seed> = consumer.export_new_seeds();
    assert!(
        echoed.len() < exported.len() || echoed.is_empty(),
        "imports must not re-enter the outbox wholesale"
    );
}
