//! Fan-out of drained event records to many concurrent subscribers.
//!
//! The control plane streams one campaign's JSONL telemetry to an unknown
//! number of readers, some of which will inevitably be slow or wedged. A
//! [`FanoutHub`] decouples them from fuzzing throughput: every subscriber
//! owns a bounded queue, a publisher never blocks, and a subscriber that
//! falls too far behind is evicted with its drop count recorded instead of
//! stalling the bus. The hub therefore forms the backpressure boundary
//! between the engine (which must stay deterministic and fast) and the
//! outside world (which is neither).
//!
//! [`FanoutSink`] adapts a hub into an [`EventSink`] so it can ride the
//! ordinary [`Telemetry`] drain path next to JSONL/ring/progress sinks.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_telemetry::fanout::{FanoutHub, FanoutOptions};
//! use cmfuzz_telemetry::{Event, EventRecord};
//! use cmfuzz_coverage::Ticks;
//!
//! let hub = FanoutHub::new(FanoutOptions::default());
//! let sub = hub.subscribe("tail-1");
//! hub.publish(&[EventRecord {
//!     seq: 0,
//!     emitted_at: Ticks::ZERO,
//!     campaign: None,
//!     event: Event::Progress { message: "hello".into() },
//! }]);
//! assert_eq!(sub.poll().len(), 1);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::EventRecord;
use crate::metrics::{Counter, Gauge};
use crate::sink::EventSink;
use crate::Telemetry;

/// Tuning knobs for a [`FanoutHub`].
#[derive(Debug, Clone, Copy)]
pub struct FanoutOptions {
    /// Maximum undelivered records buffered per subscriber; the newest
    /// record is dropped (and counted) once a queue is full.
    pub queue_capacity: usize,
    /// Evict a subscriber once it has dropped this many records in total
    /// (`0` disables eviction). Eviction clears the wedged queue and
    /// removes the subscriber from the hub; its handle keeps reporting the
    /// final drop count.
    pub evict_after_drops: u64,
}

impl Default for FanoutOptions {
    fn default() -> Self {
        FanoutOptions {
            queue_capacity: 1024,
            evict_after_drops: 4096,
        }
    }
}

#[derive(Debug)]
struct SubscriberState {
    name: String,
    queue: Mutex<VecDeque<EventRecord>>,
    delivered: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicBool,
}

impl SubscriberState {
    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<EventRecord>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Consumer handle returned by [`FanoutHub::subscribe`].
///
/// The handle stays valid after eviction or [`FanoutHub::unsubscribe`]; it
/// simply stops receiving new records, and its counters freeze at their
/// final values so callers can report what a wedged reader missed.
#[derive(Debug, Clone)]
pub struct FanoutSubscriber {
    state: Arc<SubscriberState>,
}

impl FanoutSubscriber {
    /// The name given at subscription time.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// Removes and returns every queued record, oldest first.
    #[must_use]
    pub fn poll(&self) -> Vec<EventRecord> {
        self.state.locked().drain(..).collect()
    }

    /// Records currently queued (published but not yet polled).
    #[must_use]
    pub fn lag(&self) -> usize {
        self.state.locked().len()
    }

    /// Records successfully queued for this subscriber so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.state.delivered.load(Ordering::Relaxed)
    }

    /// Records dropped because this subscriber's queue was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Relaxed)
    }

    /// Whether the hub evicted this subscriber as a slow consumer.
    #[must_use]
    pub fn is_evicted(&self) -> bool {
        self.state.evicted.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct FanoutMetricHandles {
    dropped: Counter,
    evicted: Counter,
    lag: Gauge,
    subscribers: Gauge,
}

#[derive(Debug)]
struct HubInner {
    options: FanoutOptions,
    subscribers: Mutex<Vec<Arc<SubscriberState>>>,
    published: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
    metrics: Mutex<FanoutMetricHandles>,
}

/// Publishes event-record batches to every live subscriber without ever
/// blocking on a reader.
///
/// Cloning shares the hub. Publishing takes the subscriber-list lock plus
/// one short per-subscriber queue lock; subscribers poll their own queues
/// independently.
#[derive(Debug, Clone)]
pub struct FanoutHub {
    inner: Arc<HubInner>,
}

impl FanoutHub {
    /// Creates an empty hub.
    ///
    /// # Panics
    ///
    /// Panics if `options.queue_capacity` is zero.
    #[must_use]
    pub fn new(options: FanoutOptions) -> Self {
        assert!(
            options.queue_capacity > 0,
            "fan-out queue capacity must be positive"
        );
        FanoutHub {
            inner: Arc::new(HubInner {
                options,
                subscribers: Mutex::new(Vec::new()),
                published: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                metrics: Mutex::new(FanoutMetricHandles::default()),
            }),
        }
    }

    /// Registers the hub's counters and gauges in `telemetry`'s metrics
    /// registry (`fanout.events_dropped`, `fanout.subscribers_evicted`,
    /// `fanout.subscriber_lag`, `fanout.subscribers`), replacing any
    /// previously attached handles. Drops counted before attachment are
    /// not backfilled.
    pub fn attach_metrics(&self, telemetry: &Telemetry) {
        let handles = FanoutMetricHandles {
            dropped: telemetry.counter("fanout.events_dropped"),
            evicted: telemetry.counter("fanout.subscribers_evicted"),
            lag: telemetry.gauge("fanout.subscriber_lag"),
            subscribers: telemetry.gauge("fanout.subscribers"),
        };
        *self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handles;
    }

    /// Adds a subscriber and returns its consumer handle.
    #[must_use]
    pub fn subscribe(&self, name: impl Into<String>) -> FanoutSubscriber {
        let state = Arc::new(SubscriberState {
            name: name.into(),
            queue: Mutex::new(VecDeque::new()),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: AtomicBool::new(false),
        });
        let mut subscribers = self.locked_subscribers();
        subscribers.push(state.clone());
        let live = subscribers.len() as u64;
        drop(subscribers);
        self.locked_metrics().subscribers.set(live);
        FanoutSubscriber { state }
    }

    /// Removes `subscriber` from the hub (e.g. a tail client hung up).
    /// Queued records are discarded; the handle's counters stay readable.
    pub fn unsubscribe(&self, subscriber: &FanoutSubscriber) {
        let mut subscribers = self.locked_subscribers();
        subscribers.retain(|s| !Arc::ptr_eq(s, &subscriber.state));
        let live = subscribers.len() as u64;
        drop(subscribers);
        subscriber.state.locked().clear();
        self.locked_metrics().subscribers.set(live);
    }

    /// Delivers `records` to every live subscriber, dropping the newest
    /// records of any full queue and evicting subscribers whose total
    /// drops crossed [`FanoutOptions::evict_after_drops`].
    pub fn publish(&self, records: &[EventRecord]) {
        if records.is_empty() {
            return;
        }
        self.inner
            .published
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        let mut batch_dropped = 0u64;
        let mut batch_evicted = 0u64;
        let mut max_lag = 0u64;
        let mut subscribers = self.locked_subscribers();
        subscribers.retain(|state| {
            let mut queue = state.locked();
            for record in records {
                if queue.len() < self.inner.options.queue_capacity {
                    queue.push_back(record.clone());
                    state.delivered.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.dropped.fetch_add(1, Ordering::Relaxed);
                    batch_dropped += 1;
                }
            }
            let threshold = self.inner.options.evict_after_drops;
            if threshold > 0 && state.dropped.load(Ordering::Relaxed) >= threshold {
                state.evicted.store(true, Ordering::Relaxed);
                queue.clear();
                batch_evicted += 1;
                return false;
            }
            max_lag = max_lag.max(queue.len() as u64);
            true
        });
        let live = subscribers.len() as u64;
        drop(subscribers);
        self.inner
            .dropped
            .fetch_add(batch_dropped, Ordering::Relaxed);
        self.inner
            .evicted
            .fetch_add(batch_evicted, Ordering::Relaxed);
        let metrics = self.locked_metrics();
        metrics.dropped.add(batch_dropped);
        metrics.evicted.add(batch_evicted);
        metrics.lag.set(max_lag);
        metrics.subscribers.set(live);
    }

    /// Live (non-evicted, still-subscribed) subscriber count.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.locked_subscribers().len()
    }

    /// Records offered to the hub so far (before per-subscriber fan-out).
    #[must_use]
    pub fn events_published(&self) -> u64 {
        self.inner.published.load(Ordering::Relaxed)
    }

    /// Record deliveries skipped across all subscribers due to full queues.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Subscribers evicted as slow consumers so far.
    #[must_use]
    pub fn subscribers_evicted(&self) -> u64 {
        self.inner.evicted.load(Ordering::Relaxed)
    }

    /// Largest current queue depth across live subscribers.
    #[must_use]
    pub fn max_lag(&self) -> u64 {
        self.locked_subscribers()
            .iter()
            .map(|s| s.locked().len() as u64)
            .max()
            .unwrap_or(0)
    }

    fn locked_subscribers(&self) -> std::sync::MutexGuard<'_, Vec<Arc<SubscriberState>>> {
        self.inner
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn locked_metrics(&self) -> std::sync::MutexGuard<'_, FanoutMetricHandles> {
        self.inner
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`EventSink`] adapter: drained batches are published to the hub, so
/// subscribers see exactly the record stream the other sinks see.
#[derive(Debug)]
pub struct FanoutSink {
    hub: FanoutHub,
}

impl FanoutSink {
    /// Creates a sink publishing into `hub`.
    #[must_use]
    pub fn new(hub: &FanoutHub) -> Self {
        FanoutSink { hub: hub.clone() }
    }
}

impl EventSink for FanoutSink {
    fn accept(&mut self, records: &[EventRecord]) {
        self.hub.publish(records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use cmfuzz_coverage::{Ticks, VirtualClock};

    fn records(range: std::ops::Range<u64>) -> Vec<EventRecord> {
        range
            .map(|seq| EventRecord {
                seq,
                emitted_at: Ticks::new(seq),
                campaign: None,
                event: Event::Progress {
                    message: format!("event {seq}"),
                },
            })
            .collect()
    }

    #[test]
    fn every_subscriber_sees_the_full_stream_in_order() {
        let hub = FanoutHub::new(FanoutOptions::default());
        let a = hub.subscribe("a");
        let b = hub.subscribe("b");
        hub.publish(&records(0..5));
        hub.publish(&records(5..9));
        for sub in [&a, &b] {
            let seqs: Vec<_> = sub.poll().iter().map(|r| r.seq).collect();
            assert_eq!(seqs, (0..9).collect::<Vec<_>>());
            assert_eq!(sub.delivered(), 9);
            assert_eq!(sub.dropped(), 0);
            assert!(!sub.is_evicted());
        }
        assert_eq!(hub.events_published(), 9);
        assert_eq!(hub.events_dropped(), 0);
    }

    #[test]
    fn wedged_subscriber_is_evicted_with_drops_recorded_while_others_keep_receiving() {
        let hub = FanoutHub::new(FanoutOptions {
            queue_capacity: 4,
            evict_after_drops: 3,
        });
        let telemetry = Telemetry::builder(VirtualClock::new()).build();
        hub.attach_metrics(&telemetry);
        let fast = hub.subscribe("fast");
        let wedged = hub.subscribe("wedged");

        let mut fast_seen = Vec::new();
        // The fast reader polls between batches; the wedged one never does.
        // Its queue fills at 4, then every further record drops until the
        // threshold (3 drops) evicts it.
        for start in (0..16).step_by(4) {
            hub.publish(&records(start..start + 4));
            fast_seen.extend(fast.poll().iter().map(|r| r.seq));
        }

        assert_eq!(fast_seen, (0..16).collect::<Vec<_>>());
        assert_eq!(fast.dropped(), 0);
        assert!(!fast.is_evicted());

        assert!(wedged.is_evicted(), "wedged subscriber must be evicted");
        assert_eq!(wedged.delivered(), 4);
        assert_eq!(wedged.dropped(), 4, "drops in the evicting batch recorded");
        assert_eq!(wedged.lag(), 0, "eviction clears the wedged queue");
        assert_eq!(hub.subscriber_count(), 1);
        assert_eq!(hub.events_dropped(), 4);
        assert_eq!(hub.subscribers_evicted(), 1);

        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("fanout.events_dropped"), Some(4));
        assert_eq!(snap.counter("fanout.subscribers_evicted"), Some(1));
        let gauge = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert_eq!(gauge("fanout.subscribers"), Some(1));
        // Sampled at the last publish, before the fast reader's poll: the
        // whole 4-record batch was still queued.
        assert_eq!(gauge("fanout.subscriber_lag"), Some(4));
        assert_eq!(hub.max_lag(), 0, "fast reader drained everything");
    }

    #[test]
    fn unsubscribe_stops_delivery_but_keeps_counters_readable() {
        let hub = FanoutHub::new(FanoutOptions::default());
        let sub = hub.subscribe("tail");
        hub.publish(&records(0..3));
        hub.unsubscribe(&sub);
        hub.publish(&records(3..6));
        assert_eq!(sub.lag(), 0, "unsubscribe discards queued records");
        assert_eq!(sub.delivered(), 3);
        assert_eq!(hub.subscriber_count(), 0);
        assert_eq!(hub.max_lag(), 0);
    }

    #[test]
    fn fanout_sink_rides_the_telemetry_drain_path() {
        let hub = FanoutHub::new(FanoutOptions::default());
        let sub = hub.subscribe("viewer");
        let telemetry = Telemetry::builder(VirtualClock::new())
            .sink(Box::new(FanoutSink::new(&hub)))
            .build();
        telemetry.progress("one");
        telemetry.progress("two");
        telemetry.drain();
        let polled = sub.poll();
        assert_eq!(polled.len(), 2);
        assert_eq!(polled[0].event.kind(), "progress");
    }

    #[test]
    fn concurrent_publish_and_poll_lose_no_accounting() {
        let hub = FanoutHub::new(FanoutOptions {
            queue_capacity: 32,
            evict_after_drops: 0,
        });
        let sub = hub.subscribe("racer");
        let consumed = std::thread::scope(|scope| {
            let publisher = {
                let hub = hub.clone();
                scope.spawn(move || {
                    for start in 0..64u64 {
                        hub.publish(&records(start * 4..start * 4 + 4));
                    }
                })
            };
            let consumer = {
                let sub = sub.clone();
                scope.spawn(move || {
                    let mut seen = 0u64;
                    for _ in 0..10_000 {
                        seen += sub.poll().len() as u64;
                        std::thread::yield_now();
                    }
                    seen
                })
            };
            publisher.join().expect("publisher");
            consumer.join().expect("consumer")
        });
        let total = consumed + sub.poll().len() as u64 + sub.lag() as u64;
        assert_eq!(total + sub.dropped(), 256);
        assert_eq!(sub.delivered() + sub.dropped(), 256);
    }
}
