//! Fault (crash) reporting and triage.

use std::collections::BTreeSet;
use std::fmt;

/// The sanitizer crash taxonomy of the paper's Table II.
///
/// The paper's targets run under AddressSanitizer; the simulated Rust
/// targets are memory-safe, so seeded vulnerabilities raise explicit fault
/// events carrying the kind the real bug exhibited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// Use of memory after it was freed.
    HeapUseAfterFree,
    /// Invalid memory access (segmentation fault / null dereference).
    Segv,
    /// Memory that is never released, exhausting constrained devices.
    MemoryLeak,
    /// An abnormally large allocation request.
    AllocationSizeTooBig,
    /// Write past the end of a stack buffer.
    StackBufferOverflow,
    /// Write past the end of a heap buffer.
    HeapBufferOverflow,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::HeapUseAfterFree => "heap-use-after-free",
            FaultKind::Segv => "SEGV",
            FaultKind::MemoryLeak => "memory-leak",
            FaultKind::AllocationSizeTooBig => "allocation-size-too-big",
            FaultKind::StackBufferOverflow => "stack-buffer-overflow",
            FaultKind::HeapBufferOverflow => "heap-buffer-overflow",
        })
    }
}

/// One observed crash: what kind, in which function, with optional detail.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{Fault, FaultKind};
///
/// let fault = Fault::new(FaultKind::Segv, "coap_handle_request_put_block");
/// assert_eq!(
///     fault.to_string(),
///     "SEGV in coap_handle_request_put_block"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Sanitizer-style crash kind.
    pub kind: FaultKind,
    /// Affected function, as Table II reports it.
    pub function: String,
    /// Free-form detail (triggering configuration, offsets, ...).
    pub detail: String,
}

impl Fault {
    /// Creates a fault with no extra detail.
    #[must_use]
    pub fn new(kind: FaultKind, function: &str) -> Self {
        Fault {
            kind,
            function: function.to_owned(),
            detail: String::new(),
        }
    }

    /// Attaches human-readable detail.
    #[must_use]
    pub fn with_detail(mut self, detail: &str) -> Self {
        self.detail = detail.to_owned();
        self
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}", self.kind, self.function)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Deduplicating fault collector for one fuzzing instance or campaign.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{Fault, FaultKind, FaultLog};
///
/// let mut log = FaultLog::new();
/// assert!(log.record(Fault::new(FaultKind::Segv, "f")));
/// assert!(!log.record(Fault::new(FaultKind::Segv, "f")), "duplicate");
/// assert!(log.record(Fault::new(FaultKind::MemoryLeak, "f")));
/// assert_eq!(log.unique_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    unique: Vec<Fault>,
    // A `BTreeSet` (not `HashSet`) so the log's `Debug` form is canonical:
    // campaign results are compared as formatted strings by the
    // determinism gates, and hash-set iteration order varies per instance.
    seen: BTreeSet<(FaultKind, String)>,
    total_observed: usize,
}

impl FaultLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fault; returns `true` if it was previously unseen.
    pub fn record(&mut self, fault: Fault) -> bool {
        self.total_observed += 1;
        let key = (fault.kind, fault.function.clone());
        if self.seen.insert(key) {
            self.unique.push(fault);
            true
        } else {
            false
        }
    }

    /// Unique faults in discovery order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.unique
    }

    /// Number of unique faults.
    #[must_use]
    pub fn unique_count(&self) -> usize {
        self.unique.len()
    }

    /// Total fault events observed, duplicates included.
    #[must_use]
    pub fn total_observed(&self) -> usize {
        self.total_observed
    }

    /// Whether `(kind, function)` has been seen.
    #[must_use]
    pub fn contains(&self, kind: FaultKind, function: &str) -> bool {
        self.seen.contains(&(kind, function.to_owned()))
    }

    /// Merges another log into this one, deduplicating.
    pub fn merge(&mut self, other: &FaultLog) {
        for fault in &other.unique {
            self.record(fault.clone());
        }
        // `record` counted the merged uniques; add the duplicates the other
        // log had already collapsed.
        self.total_observed += other.total_observed - other.unique.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_kinds_match_table2_vocabulary() {
        assert_eq!(
            FaultKind::HeapUseAfterFree.to_string(),
            "heap-use-after-free"
        );
        assert_eq!(FaultKind::Segv.to_string(), "SEGV");
        assert_eq!(FaultKind::MemoryLeak.to_string(), "memory-leak");
        assert_eq!(
            FaultKind::AllocationSizeTooBig.to_string(),
            "allocation-size-too-big"
        );
        assert_eq!(
            FaultKind::StackBufferOverflow.to_string(),
            "stack-buffer-overflow"
        );
        assert_eq!(
            FaultKind::HeapBufferOverflow.to_string(),
            "heap-buffer-overflow"
        );
    }

    #[test]
    fn fault_display_with_detail() {
        let f = Fault::new(FaultKind::Segv, "loop_accepted").with_detail("qos=2");
        assert_eq!(f.to_string(), "SEGV in loop_accepted (qos=2)");
    }

    #[test]
    fn dedup_is_by_kind_and_function() {
        let mut log = FaultLog::new();
        assert!(log.record(Fault::new(FaultKind::Segv, "a")));
        assert!(log.record(Fault::new(FaultKind::MemoryLeak, "a")));
        assert!(log.record(Fault::new(FaultKind::Segv, "b")));
        assert!(!log.record(Fault::new(FaultKind::Segv, "a").with_detail("different detail")));
        assert_eq!(log.unique_count(), 3);
        assert_eq!(log.total_observed(), 4);
    }

    #[test]
    fn contains_queries() {
        let mut log = FaultLog::new();
        log.record(Fault::new(FaultKind::Segv, "f"));
        assert!(log.contains(FaultKind::Segv, "f"));
        assert!(!log.contains(FaultKind::MemoryLeak, "f"));
    }

    #[test]
    fn merge_deduplicates_and_sums_observations() {
        let mut a = FaultLog::new();
        a.record(Fault::new(FaultKind::Segv, "f"));
        a.record(Fault::new(FaultKind::Segv, "f"));
        let mut b = FaultLog::new();
        b.record(Fault::new(FaultKind::Segv, "f"));
        b.record(Fault::new(FaultKind::MemoryLeak, "g"));
        a.merge(&b);
        assert_eq!(a.unique_count(), 2);
        assert_eq!(a.total_observed(), 4);
    }

    #[test]
    fn faults_preserve_discovery_order() {
        let mut log = FaultLog::new();
        log.record(Fault::new(FaultKind::MemoryLeak, "z"));
        log.record(Fault::new(FaultKind::Segv, "a"));
        let functions: Vec<_> = log.faults().iter().map(|f| f.function.as_str()).collect();
        assert_eq!(functions, vec!["z", "a"]);
    }
}
