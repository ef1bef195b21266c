//! Gates: the coverage feedback path, a steady-state session iteration,
//! a warm datagram link's bursts, field mutations, corpus picks, lookups
//! of registered metric names and the evaluation of the servers' declared
//! startup conditions perform **zero** heap allocations, warm networked
//! batches (the path campaigns run) fewer than one per thousand sessions,
//! and relation quantification fewer than one per startup probe.
//!
//! A counting global allocator backs the claims of DESIGN.md §8.3–§8.4.
//! Its counter is thread-local, so allocations made by the test harness's
//! other threads never reach a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cmfuzz::relation::{quantify_target, RelationOptions};
use cmfuzz_bench::NullTarget;
use cmfuzz_config_model::{
    extract_model, Condition, ConfigSpace, ConfigValue, GuardKind, ResolvedConfig,
};
use cmfuzz_coverage::{BranchId, CoverageMap, CoverageProbe, CoverageSnapshot};
use cmfuzz_fuzzer::{
    pit, AddOutcome, Corpus, EngineConfig, FuzzEngine, ModelId, MutationPlan, Mutator, Seed,
    StartError, Target, TargetResponse,
};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{all_specs, DatagramLink, NetworkedTarget, Transport};
use cmfuzz_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread tearing down its locals may still allocate.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `routine` `iters` times on this thread and returns the heap
/// allocations it performed.
fn count_allocs<F: FnMut()>(iters: u64, mut routine: F) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..iters {
        routine();
    }
    ALLOCATIONS.with(Cell::get) - before
}

fn warm_map(capacity: usize, hits: usize) -> (CoverageMap, CoverageSnapshot) {
    let map = CoverageMap::new(capacity);
    let probe = map.probe();
    for i in (0..capacity).step_by(capacity / hits.max(1) + 1) {
        probe.hit(BranchId::from_index(i as u32));
    }
    let mut accumulated = CoverageSnapshot::empty(capacity);
    let absorbed = map.absorb_new(&mut accumulated);
    assert!(absorbed > 0, "warmup absorbed the initial hits");
    (map, accumulated)
}

#[test]
fn coverage_feedback_does_not_allocate() {
    // The per-session feedback query when the session found nothing new:
    // every dirty word was drained during warmup, so this is a scan over
    // the (empty) dirty bitmap only.
    let (map, mut accumulated) = warm_map(4096, 256);
    let allocs = count_allocs(10_000, || {
        black_box(map.absorb_new(&mut accumulated));
    });
    assert_eq!(
        allocs, 0,
        "absorb_new allocated on the no-new-coverage path"
    );

    // Scratch snapshot refill (the engine's start() path, and union
    // aggregation): allocation-free once the buffer exists.
    let mut scratch = CoverageSnapshot::empty(4096);
    let allocs = count_allocs(10_000, || {
        map.snapshot_into(&mut scratch);
        black_box(scratch.covered_count());
    });
    assert_eq!(
        allocs, 0,
        "snapshot_into allocated on a warm scratch buffer"
    );
}

/// An engine warmed into the steady state: coverage saturated, corpus
/// populated, scratch capacities at their high-water marks, after 5 000
/// sessions run `batch` at a time.
///
/// The engine runs against [`NullTarget`] (or a transport in front of it),
/// whose `handle` is allocation-free, so any count observed is the
/// engine's or the wire's own. Field-level model mutation is configured
/// off here, so the window's claim covers the seed-reuse and fresh-render
/// paths, both of which it is asserted to exercise;
/// `field_mutations_do_not_allocate` gates field mutation on its own.
fn steady_engine<T: Target>(pit_document: &str, target: T, batch: usize) -> FuzzEngine<T> {
    let parsed = pit::parse(pit_document).expect("pit parses");
    let config = EngineConfig {
        seed: 7,
        model_mutation_rate: 0.0,
        seed_reuse_rate: 0.5,
        byte_mutation_rate: 0.6,
        dictionary: vec![b"$SYS/#".to_vec(), b"admin".to_vec()],
        ..EngineConfig::default()
    };
    let mut engine = FuzzEngine::new(target, parsed, config);
    engine
        .start(&ResolvedConfig::new())
        .expect("null target always boots");
    for _ in 0..5_000 / batch {
        engine.run_batch(batch);
    }
    assert_eq!(
        engine.covered_count(),
        32,
        "warmup must saturate the branch space so the measured window \
         sees no retention"
    );
    assert!(engine.corpus_len() > 0, "seed-reuse path needs a corpus");
    engine
}

/// Runs `batches` calls of `run_batch(batch)` on a warmed engine, asserts
/// the window exercised seed reuse, fresh renders and byte havoc, and
/// returns the heap allocations it made.
fn measured_window<T: Target>(
    name: &str,
    engine: &mut FuzzEngine<T>,
    batches: u64,
    batch: usize,
) -> u64 {
    let stats_before = engine.stats();
    let allocs = count_allocs(batches, || {
        black_box(engine.run_batch(batch));
    });
    let stats_after = engine.stats();

    // The window must exercise both steady-state byte sources.
    let reused = stats_after.seed_reuses - stats_before.seed_reuses;
    let messages = stats_after.messages - stats_before.messages;
    assert!(reused > 0, "{name}: no seed-reuse message measured");
    assert!(
        messages > reused,
        "{name}: no fresh-render message measured"
    );
    assert!(
        stats_after.byte_mutations > stats_before.byte_mutations,
        "{name}: no byte-mutated message measured"
    );
    allocs
}

#[test]
fn steady_state_session_iteration_does_not_allocate() {
    // Session planning over interned ids, seed reuse from `Arc`-shared
    // bytes, pristine renders, byte-level havoc (dictionary splices
    // included) and coverage feedback, on every subject's data model,
    // one session per `run_batch` call.
    for spec in all_specs() {
        let mut engine = steady_engine(spec.pit_document, NullTarget::new(32), 1);
        let allocs = measured_window(spec.name, &mut engine, 2_000, 1);
        assert_eq!(
            allocs, 0,
            "{}: steady-state session iteration allocated",
            spec.name
        );
    }
}

#[test]
fn field_mutations_do_not_allocate() {
    // A field mutation patches a model's pristine bytes where they are
    // written, repairing a havocked string's UTF-8 in the same buffer:
    // no model clone, no walk, no second buffer. The output buffer is
    // reserved beyond any message a mutation can produce.
    for spec in all_specs() {
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let plans: Vec<MutationPlan> = parsed.data_models().iter().map(MutationPlan::new).collect();
        let mut mutator = Mutator::new(11).with_dictionary([b"$SYS/#".to_vec()]);
        let mut out = Vec::with_capacity(1 << 16);
        let mut next = 0;
        let allocs = count_allocs(4_000, || {
            out.clear();
            plans[next % plans.len()].mutate_into(&mut mutator, &mut out);
            next += 1;
            black_box(&out);
        });
        assert_eq!(allocs, 0, "{}: a field mutation allocated", spec.name);
    }
}

/// One session's messages, back to back in an arena, at varied lengths.
fn session_burst() -> (Vec<u8>, Vec<(u32, u32)>) {
    let mut arena = Vec::new();
    let mut ranges = Vec::new();
    for (i, len) in [12usize, 40, 7, 64, 23, 5, 31, 16].into_iter().enumerate() {
        let start = arena.len();
        arena.extend((0..len).map(|b| (b + i) as u8));
        ranges.push((start as u32, len as u32));
    }
    (arena, ranges)
}

#[test]
fn warm_datagram_link_bursts_do_not_allocate() {
    let (arena, ranges) = session_burst();

    // Perfect link: the whole burst is sent, then drained, and the
    // drained payload buffers go back to the namespace for the next one.
    let mut link = DatagramLink::new("zero-alloc");
    link.open().expect("binds");
    let perfect_burst = |link: &mut DatagramLink| {
        assert!(link.client_send_batch(&arena, &ranges));
        let mut bytes = 0;
        let received = link.server_recv_many(ranges.len(), &mut |payload| bytes += payload.len());
        assert_eq!(received, ranges.len());
        black_box(bytes);
    };
    for _ in 0..100 {
        perfect_burst(&mut link);
    }
    let allocs = count_allocs(2_000, || perfect_burst(&mut link));
    assert_eq!(allocs, 0, "a warm perfect-link burst allocated");

    // Impaired link: each message's round trip under one lock per burst,
    // with a server that answers from a fixed slice. The warmup is long
    // enough for the queues to reach their deepest point at this seed.
    const ANSWER: &[u8] = b"2.05 Content: a fixed answer";
    let mut link =
        DatagramLink::with_conditions("zero-alloc", LinkConditions::new(0.1, 0.05, 0.05), 7);
    link.open().expect("binds");
    let mut served = 0u64;
    let mut impaired_burst = |link: &mut DatagramLink| {
        link.round_trips(&arena, &ranges, &mut |_, request, reply| {
            served += request.len() as u64;
            reply.extend_from_slice(ANSWER);
        });
    };
    for _ in 0..5_000 {
        impaired_burst(&mut link);
    }
    let allocs = count_allocs(2_000, || impaired_burst(&mut link));
    assert_eq!(allocs, 0, "a warm impaired-link burst allocated");
    assert!(served > 0, "no request crossed the impaired link");
}

#[test]
fn warm_networked_batches_allocate_less_than_once_per_thousand_sessions() {
    // The path campaigns run: `run_batch(16)` through a datagram link,
    // perfect and impaired. A warm window reads 0 to 2 allocations, each a
    // `realloc` of a recycled netsim payload buffer or the batch arena to a
    // new high-water mark (DESIGN.md §8.4); one allocation per session or
    // message would read at least 8 000.
    const BATCH: usize = 16;
    const BATCHES: u64 = 500;
    let sessions = BATCHES * BATCH as u64;
    for spec in all_specs() {
        for conditions in [None, Some(LinkConditions::new(0.1, 0.05, 0.05))] {
            let namespace = format!("zero-alloc-{}", spec.name);
            let target = match conditions {
                None => NetworkedTarget::new(NullTarget::new(32), &namespace),
                Some(conditions) => {
                    NetworkedTarget::with_conditions(NullTarget::new(32), &namespace, conditions, 7)
                }
            };
            let mut engine = steady_engine(spec.pit_document, target, BATCH);
            let allocs = measured_window(spec.name, &mut engine, BATCHES, BATCH);
            assert!(
                allocs * 1_000 < sessions,
                "{} over {conditions:?}: {allocs} allocations in {sessions} warm \
                 networked sessions",
                spec.name
            );
        }
    }
}

#[test]
fn corpus_picks_do_not_allocate() {
    // Picks from a full corpus that has evicted from the front: a pick is
    // one RNG draw and an index into the seed deque or a model index.
    let mut corpus = Corpus::new(64);
    let mut evictions = 0;
    for i in 0..100u32 {
        let bytes: Vec<u8> = (0..64u32)
            .map(|j| (i.wrapping_mul(131).wrapping_add(j * 17) % 251) as u8)
            .collect();
        if let AddOutcome::Added { evicted: true } =
            corpus.add(Seed::new(bytes, ModelId::from_raw(i % 3)))
        {
            evictions += 1;
        }
    }
    assert_eq!(corpus.len(), 64, "the measured corpus is full");
    assert!(evictions > 0, "the measured corpus evicted");

    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let allocs = count_allocs(2_000, || {
        black_box(corpus.pick(&mut rng));
    });
    assert_eq!(allocs, 0, "Corpus::pick allocated");
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let allocs = count_allocs(2_000, || {
        black_box(corpus.pick_for_model(&mut rng, ModelId::from_raw(1)));
    });
    assert_eq!(allocs, 0, "Corpus::pick_for_model allocated");
}

#[test]
fn warm_metric_lookups_do_not_allocate() {
    // The round-boundary publish looks its metrics up by name every
    // round; once a name is registered, the lookup clones a handle and
    // builds no owned key.
    let registry = MetricsRegistry::new();
    let bounds = [1, 2, 4, 8];
    registry.counter("engine.sessions").add(1);
    registry.gauge("corpus.seeds").set(3);
    registry
        .histogram("engine.batch_sessions", &bounds)
        .record(16);
    let allocs = count_allocs(2_000, || {
        black_box(registry.counter(black_box("engine.sessions")));
        black_box(registry.gauge(black_box("corpus.seeds")));
        black_box(registry.histogram(black_box("engine.batch_sessions"), &bounds));
    });
    assert_eq!(allocs, 0, "a warm metric lookup allocated");
}

#[test]
fn startup_declarations_evaluate_without_allocating() {
    // Every condition a boot can evaluate: each declared constraint and
    // startup guard of the six servers, on the stock configuration, their
    // all-defaults ones (qpid's binds `auth.mechanisms[0]` and `[1]`) and
    // an EXTERNAL-only mechanism list.
    let mut conditions: Vec<Condition> = Vec::new();
    let mut configs = vec![ResolvedConfig::new()];
    for spec in all_specs() {
        let target = (spec.build)();
        for constraint in target.config_constraints().constraints() {
            conditions.extend_from_slice(constraint.conditions());
        }
        for guard in target.branch_guards().iter() {
            if guard.kind() == GuardKind::Startup {
                conditions.extend_from_slice(guard.conditions());
            }
        }
        configs.push(ResolvedConfig::defaults_of(&extract_model(
            &target.config_space(),
        )));
    }
    let mut external = ResolvedConfig::new();
    external.set("auth.mechanisms[0]", ConfigValue::from("EXTERNAL"));
    configs.push(external);
    assert!(
        conditions.iter().any(|c| c.key() == "auth.mechanisms"),
        "the measured conditions include qpid's list predicates"
    );

    let allocs = count_allocs(100, || {
        for config in &configs {
            for condition in &conditions {
                black_box(black_box(condition).matches(black_box(config)));
            }
        }
    });
    assert_eq!(
        allocs,
        0,
        "evaluating {} declared conditions on {} warm configurations allocated",
        conditions.len(),
        configs.len()
    );
}

/// Counts the boots of the target it wraps.
struct CountingBoots<T> {
    inner: T,
    boots: u64,
}

impl<T: Target> Target for CountingBoots<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn branch_count(&self) -> usize {
        self.inner.branch_count()
    }

    fn config_space(&self) -> ConfigSpace {
        self.inner.config_space()
    }

    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        self.boots += 1;
        self.inner.start(config, probe)
    }

    fn begin_session(&mut self) {
        self.inner.begin_session();
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        self.inner.handle(input)
    }
}

#[test]
fn relation_quantification_allocates_less_than_once_per_probe() {
    // The boots themselves allocate a little (a refused boot's reason);
    // everything quantification adds around them (maps, snapshots, probe
    // configurations, known sets) must be reused across probes.
    for spec in all_specs() {
        let mut target = CountingBoots {
            inner: (spec.build)(),
            boots: 0,
        };
        let model = extract_model(&target.config_space());
        let options = RelationOptions::default();
        black_box(quantify_target(&mut target, &model, &options));
        target.boots = 0;
        let allocs = count_allocs(1, || {
            black_box(quantify_target(&mut target, &model, &options));
        });
        let probes = target.boots;
        assert!(probes > 0, "{} was never booted", spec.name);
        assert!(
            allocs < probes,
            "{}: quantification made {allocs} allocations over {probes} startup probes",
            spec.name
        );
    }
}
