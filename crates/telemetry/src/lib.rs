//! Structured observability for CMFuzz campaigns.
//!
//! Three pillars, all deterministic-friendly:
//!
//! 1. **Metrics** ([`MetricsRegistry`]): named atomic counters, gauges, and
//!    fixed-bucket histograms. Handles are cheap clones and recording is a
//!    relaxed atomic add; the campaign runner publishes the engines' own
//!    tallies into the registry at round boundaries.
//! 2. **Events** ([`EventBus`] + [`EventSink`]): a bounded queue of typed
//!    [`Event`]s drained at round boundaries by the campaign runner and
//!    fanned out to pluggable sinks (in-memory [`RingBufferSink`], JSONL
//!    file [`JsonlSink`], human-readable [`ProgressSink`]). Overflow drops
//!    the newest events and counts every drop.
//! 3. **Spans** ([`SpanTracker`]): per-instance phase timing measured in
//!    virtual [`Ticks`], so breakdowns are reproducible run to run.
//!
//! The [`Telemetry`] facade bundles the three; [`Telemetry::disabled`] is a
//! free no-op used as the default everywhere, so instrumented code pays
//! nearly nothing when observability is off.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_coverage::{Ticks, VirtualClock};
//! use cmfuzz_telemetry::{Event, RingBufferSink, Telemetry};
//!
//! let clock = VirtualClock::new();
//! let ring = RingBufferSink::new(128);
//! let telemetry = Telemetry::builder(clock.clone())
//!     .sink(Box::new(ring.clone()))
//!     .build();
//!
//! telemetry.counter("engine.sessions").add(3);
//! telemetry.emit(Event::Progress { message: "round 0".into() });
//! telemetry.span_record(0, "fuzzing", Ticks::new(100));
//! telemetry.drain();
//!
//! assert_eq!(ring.count_of_kind("progress"), 1);
//! assert_eq!(telemetry.metrics_snapshot().counter("engine.sessions"), Some(3));
//! assert_eq!(telemetry.phase_breakdown(0)[0].1, Ticks::new(100));
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod event;
pub mod fanout;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use bus::{EventBus, DEFAULT_CAPACITY};
pub use event::{schema_header_line, Event, EventRecord, JSONL_SCHEMA};
pub use fanout::{FanoutHub, FanoutOptions, FanoutSink, FanoutSubscriber};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, JsonlSink, ProgressSink, RingBufferSink, ScopedBufferSink};
pub use span::SpanTracker;

use std::sync::{Arc, Mutex, PoisonError};

use cmfuzz_coverage::{Ticks, VirtualClock};

#[derive(Debug)]
struct TelemetryInner {
    bus: EventBus,
    metrics: MetricsRegistry,
    spans: SpanTracker,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
}

impl std::fmt::Debug for Box<dyn EventSink> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Box<dyn EventSink>")
    }
}

/// Configures and constructs an enabled [`Telemetry`] pipeline.
#[derive(Debug)]
pub struct TelemetryBuilder {
    clock: VirtualClock,
    capacity: usize,
    sinks: Vec<Box<dyn EventSink>>,
}

impl TelemetryBuilder {
    /// Overrides the event-bus capacity (default [`DEFAULT_CAPACITY`]).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Attaches a sink; sinks receive every drained batch in order.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Builds the enabled pipeline.
    #[must_use]
    pub fn build(self) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                bus: EventBus::new(self.capacity, self.clock),
                metrics: MetricsRegistry::new(),
                spans: SpanTracker::new(),
                sinks: Mutex::new(self.sinks),
            })),
        }
    }
}

/// Facade over the metrics registry, event bus, and span tracker.
///
/// Clones share the pipeline. The disabled state ([`Telemetry::disabled`],
/// also `Default`) turns every operation into a near-free no-op: events
/// are discarded, and metric handles come back detached (recording into
/// cells nothing ever reads).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op pipeline; the default in every instrumented API.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Starts building an enabled pipeline whose events are stamped from
    /// `clock` (share the campaign's clock for meaningful timestamps).
    #[must_use]
    pub fn builder(clock: VirtualClock) -> TelemetryBuilder {
        TelemetryBuilder {
            clock,
            capacity: DEFAULT_CAPACITY,
            sinks: Vec::new(),
        }
    }

    /// Whether this pipeline actually records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits `event` onto the bus (dropped silently when disabled).
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.bus.emit(event);
        }
    }

    /// Labels every subsequently emitted event with `campaign` (`None`
    /// clears the label); JSONL sinks render it as a `campaign` field
    /// right after `kind`. No-op when disabled.
    pub fn set_campaign(&self, campaign: Option<&str>) {
        if let Some(inner) = &self.inner {
            inner.bus.set_campaign(campaign);
        }
    }

    /// Emits a human-oriented [`Event::Progress`] message.
    pub fn progress(&self, message: impl Into<String>) {
        if self.is_enabled() {
            self.emit(Event::Progress {
                message: message.into(),
            });
        }
    }

    /// Drains queued events and fans them out to every sink.
    pub fn drain(&self) {
        if let Some(inner) = &self.inner {
            let records = inner.bus.drain();
            if records.is_empty() {
                return;
            }
            let mut sinks = inner.sinks.lock().unwrap_or_else(PoisonError::into_inner);
            for sink in sinks.iter_mut() {
                sink.accept(&records);
            }
        }
    }

    /// Hands a pre-drained record batch directly to every sink.
    ///
    /// The whole batch is delivered under one sinks-lock hold, so a
    /// concurrent caller (another grid cell committing its scope) can
    /// never interleave records inside it. This is the commit path for
    /// [`ScopedBufferSink`]; ordinary producers should [`Telemetry::emit`]
    /// onto the bus instead.
    pub fn sink_batch(&self, records: &[EventRecord]) {
        if records.is_empty() {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut sinks = inner.sinks.lock().unwrap_or_else(PoisonError::into_inner);
            for sink in sinks.iter_mut() {
                sink.accept(records);
            }
        }
    }

    /// Creates a buffered child pipeline for one unit of concurrent work
    /// (e.g. a grid cell's campaign), stamping its events from `clock`.
    ///
    /// The child records into private metrics/spans/event storage; nothing
    /// reaches this pipeline until [`TelemetryScope::commit`], which
    /// forwards the child's whole event stream to the shared sinks as one
    /// atomic batch and folds its metrics and spans into this registry.
    /// Scoping a disabled pipeline yields a disabled child, so callers
    /// don't need to special-case observability-off runs.
    #[must_use]
    pub fn scoped(&self, clock: VirtualClock) -> TelemetryScope {
        let child = if self.is_enabled() {
            Telemetry::builder(clock)
                .sink(Box::new(ScopedBufferSink::new(self)))
                .build()
        } else {
            Telemetry::disabled()
        };
        TelemetryScope {
            child,
            parent: self.clone(),
        }
    }

    /// Drains remaining events and flushes every sink (call at campaign
    /// end so buffered JSONL output reaches disk).
    pub fn flush(&self) {
        self.drain();
        if let Some(inner) = &self.inner {
            let mut sinks = inner.sinks.lock().unwrap_or_else(PoisonError::into_inner);
            for sink in sinks.iter_mut() {
                sink.flush();
            }
        }
    }

    /// Counter handle for `name` (detached and unread when disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Counter::default(),
        }
    }

    /// Gauge handle for `name` (detached and unread when disabled).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.metrics.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Histogram handle for `name` (detached and unread when disabled).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name, bounds),
            None => Histogram::new(bounds),
        }
    }

    /// Adds `duration` of virtual time to `phase` for `instance`.
    pub fn span_record(&self, instance: usize, phase: &str, duration: Ticks) {
        if let Some(inner) = &self.inner {
            inner.spans.record(instance, phase, duration);
        }
    }

    /// Per-phase virtual-time totals for `instance` (empty when disabled).
    #[must_use]
    pub fn phase_breakdown(&self, instance: usize) -> Vec<(String, Ticks)> {
        match &self.inner {
            Some(inner) => inner.spans.breakdown(instance),
            None => Vec::new(),
        }
    }

    /// Every recorded `(instance, phase, total)` span row.
    #[must_use]
    pub fn spans(&self) -> Vec<(usize, String, Ticks)> {
        match &self.inner {
            Some(inner) => inner.spans.all(),
            None => Vec::new(),
        }
    }

    /// Folds another pipeline's metrics snapshot into this registry
    /// (counters/histograms add, gauges last-write-wins; no-op when
    /// disabled). Used by [`TelemetryScope::commit`].
    pub fn absorb_metrics(&self, snapshot: &MetricsSnapshot) {
        if let Some(inner) = &self.inner {
            inner.metrics.absorb(snapshot);
        }
    }

    /// Snapshot of all registered metrics (empty when disabled).
    ///
    /// The bus's own accounting is overlaid as `bus.events_emitted` /
    /// `bus.events_dropped` counters and a `bus.subscriber_lag` gauge
    /// (records queued but not yet drained), added into any same-named
    /// entries absorbed from scoped child pipelines — so overflow is never
    /// silent in a metrics dump.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let mut snap = inner.metrics.snapshot();
                merge_counter(
                    &mut snap.counters,
                    "bus.events_emitted",
                    inner.bus.emitted(),
                );
                merge_counter(
                    &mut snap.counters,
                    "bus.events_dropped",
                    inner.bus.dropped(),
                );
                merge_gauge(
                    &mut snap.gauges,
                    "bus.subscriber_lag",
                    inner.bus.len() as u64,
                );
                snap
            }
            None => MetricsSnapshot::default(),
        }
    }

    /// Events discarded by bus overflow so far.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.bus.dropped())
    }

    /// Events emitted onto the bus so far (delivered + dropped).
    #[must_use]
    pub fn emitted_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.bus.emitted())
    }
}

/// Adds `value` into the name-sorted counter list, inserting if absent.
fn merge_counter(counters: &mut Vec<(String, u64)>, name: &str, value: u64) {
    match counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(idx) => counters[idx].1 += value,
        Err(idx) => counters.insert(idx, (name.to_owned(), value)),
    }
}

/// Sets `value` in the name-sorted gauge list (last write wins).
fn merge_gauge(gauges: &mut Vec<(String, u64)>, name: &str, value: u64) {
    match gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(idx) => gauges[idx].1 = value,
        Err(idx) => gauges.insert(idx, (name.to_owned(), value)),
    }
}

/// A buffered child pipeline created by [`Telemetry::scoped`].
///
/// Concurrent campaigns each hold one scope: they emit events, bump
/// metrics, and record spans through [`TelemetryScope::telemetry`] exactly
/// as they would against the shared pipeline, and the shared sinks see the
/// cell's whole stream as one contiguous block when [`TelemetryScope::commit`]
/// runs. Dropping a scope without committing discards its records.
///
/// Committed event records keep the sequence numbers and virtual-time
/// stamps of their originating scope (each cell's stream is 0-based on the
/// clock passed to `scoped`); span rows are re-recorded against the parent
/// with their instance indices unchanged, so callers running multiple
/// cells should disambiguate instances per cell if they need to.
#[derive(Debug)]
pub struct TelemetryScope {
    child: Telemetry,
    parent: Telemetry,
}

impl TelemetryScope {
    /// The scope's private pipeline; hand this to the campaign runner.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.child
    }

    /// Flushes the buffered event stream into the parent's sinks as one
    /// atomic batch and folds the scope's metrics and spans into the
    /// parent's registries. No-op for scopes of a disabled pipeline.
    pub fn commit(self) {
        // flush() drains the child bus into the ScopedBufferSink and then
        // flushes it, which forwards the buffered records to the parent's
        // sinks under a single sinks-lock hold.
        self.child.flush();
        if self.parent.is_enabled() && self.child.is_enabled() {
            self.parent.absorb_metrics(&self.child.metrics_snapshot());
            for (instance, phase, total) in self.child.spans() {
                self.parent.span_record(instance, &phase, total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_pipeline_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.emit(Event::Progress {
            message: "ignored".into(),
        });
        telemetry.progress("also ignored");
        telemetry.counter("c").add(5);
        telemetry.span_record(0, "fuzzing", Ticks::new(9));
        telemetry.drain();
        telemetry.flush();
        assert_eq!(telemetry.emitted_events(), 0);
        assert_eq!(telemetry.dropped_events(), 0);
        assert!(telemetry.metrics_snapshot().counters.is_empty());
        assert!(telemetry.phase_breakdown(0).is_empty());
        assert!(telemetry.spans().is_empty());
    }

    #[test]
    fn drain_fans_out_to_all_sinks() {
        let ring_a = RingBufferSink::new(8);
        let ring_b = RingBufferSink::new(8);
        let telemetry = Telemetry::builder(VirtualClock::new())
            .capacity(16)
            .sink(Box::new(ring_a.clone()))
            .sink(Box::new(ring_b.clone()))
            .build();
        assert!(telemetry.is_enabled());
        telemetry.progress("one");
        telemetry.progress("two");
        telemetry.drain();
        assert_eq!(ring_a.count_of_kind("progress"), 2);
        assert_eq!(ring_b.count_of_kind("progress"), 2);
        assert_eq!(telemetry.emitted_events(), 2);
    }

    #[test]
    fn scope_buffers_until_commit_and_folds_metrics() {
        let ring = RingBufferSink::new(64);
        let parent = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(ring.clone()))
            .build();
        parent.counter("engine.sessions").add(10);

        let scope = parent.scoped(VirtualClock::new());
        scope.telemetry().progress("from the cell");
        scope.telemetry().counter("engine.sessions").add(5);
        scope.telemetry().span_record(1, "fuzzing", Ticks::new(7));
        scope.telemetry().drain();

        // Nothing visible in the parent before commit.
        assert_eq!(ring.count_of_kind("progress"), 0);
        assert_eq!(
            parent.metrics_snapshot().counter("engine.sessions"),
            Some(10)
        );

        scope.commit();
        assert_eq!(ring.count_of_kind("progress"), 1);
        assert_eq!(
            parent.metrics_snapshot().counter("engine.sessions"),
            Some(15)
        );
        assert_eq!(
            parent.phase_breakdown(1),
            vec![("fuzzing".to_owned(), Ticks::new(7))]
        );
    }

    #[test]
    fn scope_of_disabled_pipeline_is_disabled() {
        let parent = Telemetry::disabled();
        let scope = parent.scoped(VirtualClock::new());
        assert!(!scope.telemetry().is_enabled());
        scope.telemetry().progress("dropped");
        scope.commit();
    }

    #[test]
    fn concurrent_scope_commits_stay_contiguous() {
        let ring = RingBufferSink::new(256);
        let parent = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(ring.clone()))
            .build();
        std::thread::scope(|s| {
            for cell in 0..4 {
                let parent = parent.clone();
                s.spawn(move || {
                    let scope = parent.scoped(VirtualClock::new());
                    for n in 0..8 {
                        scope.telemetry().progress(format!("cell {cell} event {n}"));
                    }
                    scope.commit();
                });
            }
        });
        let records = ring.records();
        assert_eq!(records.len(), 32);
        // Each cell's 8 records landed as one uninterrupted block.
        for block in records.chunks(8) {
            let Event::Progress { message } = &block[0].event else {
                panic!("unexpected event kind");
            };
            let cell = message.clone();
            let prefix = &cell[..cell.find(" event").expect("marker")];
            for record in block {
                let Event::Progress { message } = &record.event else {
                    panic!("unexpected event kind");
                };
                assert!(
                    message.starts_with(prefix),
                    "interleaved: {message} vs {prefix}"
                );
            }
        }
    }

    #[test]
    fn snapshot_surfaces_bus_overflow_and_lag() {
        let telemetry = Telemetry::builder(VirtualClock::new()).capacity(2).build();
        for n in 0..5 {
            telemetry.progress(format!("event {n}"));
        }
        // Two queued (undrained), three dropped by the bounded bus.
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("bus.events_emitted"), Some(5));
        assert_eq!(snap.counter("bus.events_dropped"), Some(3));
        assert_eq!(
            snap.gauges,
            vec![("bus.subscriber_lag".to_owned(), 2)],
            "lag gauge reports undrained records"
        );
        telemetry.drain();
        let drained = telemetry.metrics_snapshot();
        assert_eq!(drained.gauges, vec![("bus.subscriber_lag".to_owned(), 0)]);

        // Bus accounting absorbed from a scoped child adds into the
        // parent's own overlay instead of colliding with it.
        let scope = telemetry.scoped(VirtualClock::new());
        scope.telemetry().progress("from the child");
        scope.commit();
        let merged = telemetry.metrics_snapshot();
        assert_eq!(merged.counter("bus.events_emitted"), Some(6));
        assert_eq!(merged.counter("bus.events_dropped"), Some(3));
    }
}
