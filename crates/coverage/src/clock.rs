//! Deterministic virtual campaign time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A duration or instant in virtual campaign time.
///
/// One tick corresponds to one unit of fuzzing work (by convention, a single
/// target execution). The paper's 24-hour wall-clock budget maps to a tick
/// budget chosen by the experiment harness; coverage-over-time curves and
/// speedup ratios are computed in ticks.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::Ticks;
///
/// let budget = Ticks::new(10_000);
/// let half = Ticks::new(5_000);
/// assert!(half < budget);
/// assert_eq!((budget - half).get(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(u64);

impl Ticks {
    /// Zero ticks.
    pub const ZERO: Ticks = Ticks(0);

    /// Creates a tick count.
    #[must_use]
    pub const fn new(ticks: u64) -> Self {
        Ticks(ticks)
    }

    /// Raw tick count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl std::ops::Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Ticks {
    type Output = Ticks;
    /// # Panics
    ///
    /// Panics on underflow in debug builds, like integer subtraction.
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl From<u64> for Ticks {
    fn from(ticks: u64) -> Self {
        Ticks(ticks)
    }
}

/// Shared deterministic clock advanced by the campaign loop.
///
/// All parallel fuzzing instances of one campaign share a single clock so
/// that their coverage curves are sampled on a common time axis, standing in
/// for the shared wall clock of the paper's Docker host.
///
/// Cloning a `VirtualClock` yields a handle onto the same underlying time.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::{Ticks, VirtualClock};
///
/// let clock = VirtualClock::new();
/// let observer = clock.clone();
/// clock.advance(Ticks::new(3));
/// assert_eq!(observer.now(), Ticks::new(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Ticks {
        Ticks(self.now.load(Ordering::Relaxed))
    }

    /// Advances the clock by `delta`, returning the new time.
    pub fn advance(&self, delta: Ticks) -> Ticks {
        Ticks(self.now.fetch_add(delta.0, Ordering::Relaxed) + delta.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), Ticks::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let clock = VirtualClock::new();
        assert_eq!(clock.advance(Ticks::new(5)), Ticks::new(5));
        assert_eq!(clock.advance(Ticks::new(2)), Ticks::new(7));
        assert_eq!(clock.now(), Ticks::new(7));
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Ticks::new(10));
        assert_eq!(b.now(), Ticks::new(10));
    }

    #[test]
    fn ticks_arithmetic() {
        let a = Ticks::new(10);
        let b = Ticks::new(4);
        assert_eq!(a + b, Ticks::new(14));
        assert_eq!(a - b, Ticks::new(6));
        assert_eq!(b.saturating_sub(a), Ticks::ZERO);
        assert_eq!(Ticks::from(9u64).get(), 9);
        assert_eq!(Ticks::new(3).to_string(), "3t");
    }
}
