//! The span recorder and the wrappers that feed it.
//!
//! Traced runs wrap the public seams of the crates — the [`Target`] and
//! [`Transport`] traits and the [`SchedulingPolicy`] trait — in [`Timed`]
//! and [`TimedPolicy`], and wrap direct calls in [`span`]. Each span is
//! pushed on a per-thread stack; when it ends, its duration is added to
//! its parent's child time and aggregated in memory per (layer, parent
//! layer) as a count, a total and a self time (duration minus children).
//! Aggregating keeps millions of per-message spans out of memory.
//!
//! Self times of a tree of spans sum to the duration of its root, whether
//! a layer nests inside another (the server's `handle` runs inside the
//! transport's `server_recv_many` on the lossless burst path) or beside it
//! (on the per-message path `handle` is a sibling of the link calls).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use cmfuzz::campaign::SliceReport;
use cmfuzz_config_model::{ConfigSpace, ConstraintSet, GuardTable, ResolvedConfig};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fleet::SchedulingPolicy;
use cmfuzz_fuzzer::{Fault, StartError, Target, TargetResponse};
use cmfuzz_protocols::Transport;

/// Parent name recorded for spans opened with an empty stack.
pub const ROOT: &str = "-";

/// Totals of one (layer, parent) pair or of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans ended.
    pub count: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time child spans covered.
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, other: Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

#[derive(Debug)]
struct Frame {
    layer: &'static str,
    /// Index of this span's (layer, parent) aggregate.
    slot: usize,
    start_ns: u64,
    child_ns: u64,
}

type Key = (&'static str, &'static str);

/// A span stack plus the aggregates of every ended span. Timestamps are
/// supplied by the caller, which keeps the arithmetic testable.
#[derive(Debug, Default)]
pub struct Recorder {
    stack: Vec<Frame>,
    /// (layer, parent) keys and their aggregates, in first-seen order. A
    /// run has a handful of keys, so a linear scan on `enter` beats any
    /// map, and `exit` indexes directly.
    keys: Vec<Key>,
    aggs: Vec<Agg>,
}

impl Recorder {
    fn slot(&mut self, key: Key) -> usize {
        let same = |a: &str, b: &str| std::ptr::eq(a, b) || a == b;
        match self
            .keys
            .iter()
            .position(|k| same(k.0, key.0) && same(k.1, key.1))
        {
            Some(slot) => slot,
            None => {
                self.keys.push(key);
                self.aggs.push(Agg::default());
                self.keys.len() - 1
            }
        }
    }

    /// Opens a span of `layer` at `now_ns`.
    pub fn enter(&mut self, layer: &'static str, now_ns: u64) {
        let parent = self.stack.last().map_or(ROOT, |frame| frame.layer);
        let slot = self.slot((layer, parent));
        self.stack.push(Frame {
            layer,
            slot,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `now_ns`.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter and exit calls must pair.
    pub fn exit(&mut self, now_ns: u64) {
        let frame = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let duration = now_ns.saturating_sub(frame.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        self.aggs[frame.slot].add(Agg {
            count: 1,
            total_ns: duration,
            self_ns: duration.saturating_sub(frame.child_ns),
        });
    }

    fn spans(&self) -> BTreeMap<Key, Agg> {
        let mut spans: BTreeMap<Key, Agg> = BTreeMap::new();
        for (key, agg) in self.keys.iter().zip(&self.aggs) {
            spans.entry(*key).or_default().add(*agg);
        }
        spans
    }

    /// Aggregates per layer, summed over parents.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, Agg> {
        let mut layers: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (&(layer, _), agg) in self.keys.iter().zip(&self.aggs) {
            layers.entry(layer).or_default().add(*agg);
        }
        layers
    }

    /// One layer's totals (zero when it never ran).
    #[must_use]
    pub fn layer(&self, layer: &str) -> Agg {
        self.layers().get(layer).copied().unwrap_or_default()
    }

    /// Totals of `layer` spans opened directly under `parent`.
    #[cfg(test)]
    fn under(&self, layer: &str, parent: &str) -> Agg {
        let mut total = Agg::default();
        for (key, agg) in self.keys.iter().zip(&self.aggs) {
            if key.0 == layer && key.1 == parent {
                total.add(*agg);
            }
        }
        total
    }

    /// Folds another recorder's aggregates into this one.
    pub fn merge(&mut self, other: &Recorder) {
        for (key, agg) in other.keys.iter().zip(&other.aggs) {
            let slot = self.slot(*key);
            self.aggs[slot].add(*agg);
        }
    }

    /// The aggregates as a JSON array, one object per (layer, parent).
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|(&(layer, parent), agg)| {
                format!(
                    "{{\"layer\":\"{layer}\",\"parent\":\"{parent}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    agg.count, agg.total_ns, agg.self_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// A thread's recorder and the instant its timestamps count from.
struct ThreadRecorder {
    epoch: Instant,
    recorder: Recorder,
}

impl ThreadRecorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static RECORDER: RefCell<ThreadRecorder> = RefCell::new(ThreadRecorder {
        epoch: Instant::now(),
        recorder: Recorder::default(),
    });
}

/// Runs `f` inside a span of `layer` on this thread's recorder.
pub fn span<R>(layer: &'static str, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.now_ns();
        r.recorder.enter(layer, now);
    });
    let result = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.now_ns();
        r.recorder.exit(now);
    });
    result
}

/// [`span`] when `on`, a plain call otherwise: untraced runs share the
/// code path without paying for the recorder.
pub fn span_if<R>(on: bool, layer: &'static str, f: impl FnOnce() -> R) -> R {
    if on {
        span(layer, f)
    } else {
        f()
    }
}

/// Takes this thread's aggregates, leaving an empty recorder behind.
///
/// # Panics
///
/// Panics if a span is still open.
#[must_use]
pub fn take() -> Recorder {
    RECORDER.with(|r| {
        let recorder = std::mem::take(&mut r.borrow_mut().recorder);
        assert!(recorder.stack.is_empty(), "span still open at take()");
        recorder
    })
}

/// A target or transport whose calls are recorded as spans of `layer`;
/// target boots are recorded under `boot_layer`.
pub struct Timed<T> {
    inner: T,
    layer: &'static str,
    boot_layer: &'static str,
}

impl<T> Timed<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, layer: &'static str, boot_layer: &'static str) -> Self {
        Timed {
            inner,
            layer,
            boot_layer,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Timed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timed")
            .field("layer", &self.layer)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T: Target> Target for Timed<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn branch_count(&self) -> usize {
        self.inner.branch_count()
    }
    fn config_space(&self) -> ConfigSpace {
        self.inner.config_space()
    }
    fn config_constraints(&self) -> ConstraintSet {
        self.inner.config_constraints()
    }
    fn branch_guards(&self) -> GuardTable {
        self.inner.branch_guards()
    }
    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        span(self.boot_layer, || self.inner.start(config, probe))
    }
    fn begin_session(&mut self) {
        span(self.layer, || self.inner.begin_session());
    }
    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        span(self.layer, || self.inner.handle(input))
    }
    fn handle_batch(
        &mut self,
        arena: &[u8],
        ranges: &[(u32, u32)],
        faults: &mut Vec<(usize, Fault)>,
    ) {
        span(self.layer, || {
            self.inner.handle_batch(arena, ranges, faults)
        });
    }
    fn export_state(&mut self) -> Vec<u8> {
        self.inner.export_state()
    }
    fn import_state(&mut self, state: &[u8]) {
        self.inner.import_state(state);
    }
}

impl<L: Transport> Transport for Timed<L> {
    fn open(&mut self) -> Result<(), StartError> {
        span(self.layer, || self.inner.open())
    }
    fn close(&mut self) {
        span(self.layer, || self.inner.close());
    }
    fn is_open(&self) -> bool {
        self.inner.is_open()
    }
    fn client_send(&mut self, payload: &[u8]) -> bool {
        span(self.layer, || self.inner.client_send(payload))
    }
    fn is_lossless(&self) -> bool {
        self.inner.is_lossless()
    }
    fn client_send_batch(&mut self, arena: &[u8], ranges: &[(u32, u32)]) -> bool {
        span(self.layer, || self.inner.client_send_batch(arena, ranges))
    }
    fn server_recv(&mut self) -> Option<Vec<u8>> {
        span(self.layer, || self.inner.server_recv())
    }
    fn server_recv_many(&mut self, max: usize, each: &mut dyn FnMut(&[u8])) -> usize {
        span(self.layer, || self.inner.server_recv_many(max, each))
    }
    fn server_send(&mut self, payload: &[u8]) -> bool {
        span(self.layer, || self.inner.server_send(payload))
    }
    fn client_recv(&mut self) -> Option<Vec<u8>> {
        span(self.layer, || self.inner.client_recv())
    }
    fn export_state(&mut self) -> Vec<u8> {
        self.inner.export_state()
    }
    fn import_state(&mut self, state: &[u8]) {
        self.inner.import_state(state);
    }
}

/// A scheduling policy whose decisions are recorded as spans of `layer`.
pub struct TimedPolicy<P> {
    inner: P,
    layer: &'static str,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, layer: &'static str) -> Self {
        TimedPolicy { inner, layer }
    }
}

impl<P: SchedulingPolicy> SchedulingPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn pick(&mut self, eligible: &[usize], slots: usize) -> Vec<usize> {
        span(self.layer, || self.inner.pick(eligible, slots))
    }
    fn observe(&mut self, index: usize, report: &SliceReport) {
        span(self.layer, || self.inner.observe(index, report));
    }
    fn prime(&mut self, index: usize, reachable_branches: usize) {
        span(self.layer, || self.inner.prime(index, reachable_branches));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_children_are_subtracted_from_self_time() {
        // Burst path: net → transport.server_recv_many → server.handle.
        let mut r = Recorder::default();
        r.enter("net", 0);
        r.enter("transport", 10);
        r.enter("server", 20);
        r.exit(50); // server: 30
        r.enter("server", 55);
        r.exit(75); // server: 20
        r.exit(90); // transport: 80, children 50
        r.exit(100); // net: 100, children 80
        assert_eq!(
            r.layer("server"),
            Agg {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(
            r.layer("transport"),
            Agg {
                count: 1,
                total_ns: 80,
                self_ns: 30
            }
        );
        assert_eq!(r.layer("net").self_ns, 20);
        let self_sum: u64 = r.layers().values().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, 100, "self times tile the root span");
        assert_eq!(r.under("server", "transport").count, 2);
        assert_eq!(r.under("server", "net").count, 0);
    }

    #[test]
    fn sibling_children_are_subtracted_from_self_time() {
        // Per-message path: net → {transport.send, server.handle,
        // transport.recv} as siblings.
        let mut r = Recorder::default();
        r.enter("net", 0);
        r.enter("transport", 5);
        r.exit(15);
        r.enter("server", 20);
        r.exit(60);
        r.enter("transport", 62);
        r.exit(70);
        r.exit(80);
        assert_eq!(r.layer("transport").self_ns, 18);
        assert_eq!(r.layer("server").self_ns, 40);
        assert_eq!(r.layer("net").self_ns, 80 - 58);
        assert_eq!(r.under("server", "net").count, 1);
        assert_eq!(r.under("net", ROOT).total_ns, 80);
        let self_sum: u64 = r.layers().values().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, 80);
    }

    #[test]
    fn thread_spans_nest_and_merge() {
        span("outer", || span("inner", || std::hint::black_box(3) + 4));
        let mut recorder = take();
        let outer = recorder.layer("outer");
        let inner = recorder.layer("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        let mut copy = Recorder::default();
        copy.merge(&recorder);
        recorder.merge(&copy);
        assert_eq!(recorder.layer("inner").count, 2);
        assert_eq!(recorder.under("inner", "outer").count, 2);
        assert!(recorder.to_json().contains("\"parent\":\"outer\""));
    }
}
