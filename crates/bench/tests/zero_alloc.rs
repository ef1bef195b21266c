//! Gates: the coverage feedback path, a steady-state session iteration
//! and a warm datagram link's bursts perform **zero** heap allocations.
//!
//! A counting global allocator backs the claims of DESIGN.md §8.3–§8.4.
//! Its counter is thread-local, so allocations made by the test harness's
//! other threads never reach a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cmfuzz_bench::NullTarget;
use cmfuzz_config_model::ResolvedConfig;
use cmfuzz_coverage::{BranchId, CoverageMap, CoverageSnapshot};
use cmfuzz_fuzzer::{pit, EngineConfig, FuzzEngine};
use cmfuzz_netsim::LinkConditions;
use cmfuzz_protocols::{all_specs, DatagramLink, Transport};

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
/// populated, scratch capacities at their high-water marks.
///
/// The engine runs against [`NullTarget`], whose `handle` is
/// allocation-free, so any count observed is the engine's own. Field-level
/// model mutation is configured off: its `String` repair path may allocate
/// by design on invalid UTF-8, and the steady-state claim covers the
/// seed-reuse and fresh-render paths, both of which the measured window is
/// asserted to exercise.
fn steady_engine(pit_document: &str) -> FuzzEngine<NullTarget> {
    let parsed = pit::parse(pit_document).expect("pit parses");
    let config = EngineConfig {
        seed: 7,
        model_mutation_rate: 0.0,
        seed_reuse_rate: 0.5,
        byte_mutation_rate: 0.6,
        dictionary: vec![b"$SYS/#".to_vec(), b"admin".to_vec()],
        ..EngineConfig::default()
    };
    let mut engine = FuzzEngine::new(NullTarget::new(32), parsed, config);
    engine
        .start(&ResolvedConfig::new())
        .expect("null target always boots");
    for _ in 0..5_000 {
        engine.run_iteration();
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

#[test]
fn steady_state_session_iteration_does_not_allocate() {
    // Session planning over interned ids, seed reuse from `Arc`-shared
    // bytes, precompiled renders, byte-level havoc (dictionary splices
    // included) and coverage feedback, on every subject's data model.
    for spec in all_specs() {
        let mut engine = steady_engine(spec.pit_document);
        let stats_before = engine.stats();
        let allocs = count_allocs(2_000, || {
            black_box(engine.run_iteration());
        });
        let stats_after = engine.stats();

        // The window must exercise both steady-state byte sources.
        let reused = stats_after.seed_reuses - stats_before.seed_reuses;
        let messages = stats_after.messages - stats_before.messages;
        assert!(reused > 0, "{}: no seed-reuse message measured", spec.name);
        assert!(
            messages > reused,
            "{}: no fresh-render message measured",
            spec.name
        );
        assert!(
            stats_after.byte_mutations > stats_before.byte_mutations,
            "{}: no byte-mutated message measured",
            spec.name
        );
        assert_eq!(
            allocs, 0,
            "{}: steady-state session iteration allocated",
            spec.name
        );
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
