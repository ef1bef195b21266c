//! Lock-light metrics: atomic counters, gauges, and fixed-bucket
//! histograms behind cheap clonable handles.
//!
//! Recording is a single relaxed atomic operation; looking a name up and
//! aggregation (snapshotting) take the registry lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Monotone counter handle; cloning shares the underlying cell.
///
/// # Examples
///
/// ```
/// use cmfuzz_telemetry::Counter;
///
/// let execs = Counter::default();
/// let handle = execs.clone();
/// handle.add(3);
/// handle.incr();
/// assert_eq!(execs.get(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed; safe from any thread).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle; cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of the finite buckets, strictly increasing;
    /// one implicit overflow bucket follows.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets (last = overflow).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Fixed-bucket histogram handle; cloning shares the underlying cells.
///
/// # Examples
///
/// ```
/// use cmfuzz_telemetry::Histogram;
///
/// let h = Histogram::new(&[1, 10, 100]);
/// h.record(0);
/// h.record(7);
/// h.record(7000); // overflow bucket
/// let snap = h.snapshot();
/// assert_eq!(snap.counts, vec![1, 1, 0, 1]);
/// assert_eq!(snap.count, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Creates a histogram over the given inclusive bucket upper bounds
    /// (plus an implicit overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation (three relaxed atomic adds).
    pub fn record(&self, value: u64) {
        let idx = self.inner.bounds.partition_point(|&bound| bound < value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds a snapshot's observations into this histogram.
    ///
    /// Used when a scoped pipeline commits back to its parent: `count` and
    /// `sum` are added exactly; bucket counts are added bucket-for-bucket
    /// when the bounds match, otherwise each source bucket is re-binned by
    /// its upper bound (overflow stays overflow), which preserves totals
    /// but may coarsen the distribution.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.bounds == self.inner.bounds {
            for (bucket, &n) in self.inner.buckets.iter().zip(&snap.counts) {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        } else {
            for (i, &n) in snap.counts.iter().enumerate() {
                let idx = match snap.bounds.get(i) {
                    Some(&bound) => self.inner.bounds.partition_point(|&b| b < bound),
                    None => self.inner.bounds.len(),
                };
                self.inner.buckets[idx].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(snap.count, Ordering::Relaxed);
        self.inner.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// Consistent-enough view of the current contents.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; the final entry is the overflow
    /// bucket (observations above the last bound).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The handle registered under `name`, made by `make` and registered
/// first if missing. Looking up an existing name allocates nothing: the
/// owned key is built only for an insert.
fn registered<H: Clone>(map: &mut BTreeMap<String, H>, name: &str, make: impl FnOnce() -> H) -> H {
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_owned()).or_insert_with(make).clone()
}

/// Named metric registry; handles are created once and recorded against
/// without further locking.
///
/// Requesting the same name twice returns handles onto the same cell, so
/// independent subsystems can contribute to one metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it if needed.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        registered(&mut self.locked().counters, name, Counter::default)
    }

    /// Returns the gauge registered under `name`, creating it if needed.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        registered(&mut self.locked().gauges, name, Gauge::default)
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` if needed (an existing histogram keeps its original bounds).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        registered(&mut self.locked().histograms, name, || {
            Histogram::new(bounds)
        })
    }

    /// Folds a snapshot from another registry into this one.
    ///
    /// Counters and histogram contents are added; gauges take the
    /// snapshot's value (last write wins, matching gauge semantics).
    /// Metrics not yet present here are created on the fly, so a scoped
    /// pipeline can commit into a parent that never touched those names.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, value) in &snap.counters {
            self.counter(name).add(*value);
        }
        for (name, value) in &snap.gauges {
            self.gauge(name).set(*value);
        }
        for (name, hist) in &snap.histograms {
            self.histogram(name, &hist.bounds).absorb(hist);
        }
    }

    /// Snapshot of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_is_inclusive_on_bounds() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.record(0);
        h.record(10); // inclusive: first bucket
        h.record(11); // second bucket
        h.record(100);
        h.record(101);
        h.record(1000);
        h.record(1001); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 2, 2, 1]);
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 2223);
        assert!((snap.mean() - 2223.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[5, 5]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new(&[64]);
        let c = Counter::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 0..1000u64 {
                        h.record(v % 128);
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let parent = MetricsRegistry::new();
        parent.counter("execs").add(10);
        parent.gauge("corpus").set(3);
        parent.histogram("lat", &[1, 10]).record(5);

        let child = MetricsRegistry::new();
        child.counter("execs").add(7);
        child.counter("child_only").add(1);
        child.gauge("corpus").set(9);
        child.histogram("lat", &[1, 10]).record(100); // overflow
        child.histogram("child_hist", &[2]).record(2);

        parent.absorb(&child.snapshot());
        let snap = parent.snapshot();
        assert_eq!(snap.counter("execs"), Some(17));
        assert_eq!(snap.counter("child_only"), Some(1));
        assert_eq!(snap.gauges, vec![("corpus".to_owned(), 9)]);
        let lat = &snap.histograms.iter().find(|(n, _)| n == "lat").unwrap().1;
        assert_eq!(lat.counts, vec![0, 1, 1]);
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 105);
        assert!(snap.histograms.iter().any(|(n, _)| n == "child_hist"));
    }

    #[test]
    fn absorb_rebins_on_bound_mismatch_preserving_totals() {
        let coarse = Histogram::new(&[100]);
        let fine = Histogram::new(&[1, 10, 100, 1000]);
        fine.record(1);
        fine.record(50);
        fine.record(500);
        fine.record(5000); // overflow
        coarse.absorb(&fine.snapshot());
        let snap = coarse.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 5551);
        assert_eq!(snap.counts, vec![2, 2]);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let registry = MetricsRegistry::new();
        registry.counter("execs").add(2);
        registry.counter("execs").add(3);
        registry.gauge("corpus").set(17);
        registry.histogram("lat", &[1, 2]).record(1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("execs"), Some(5));
        assert_eq!(snap.gauges, vec![("corpus".to_owned(), 17)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counter("missing"), None);
    }
}
