//! Branch-coverage instrumentation substrate for the CMFuzz reproduction.
//!
//! The CMFuzz paper instruments its targets with LLVM SanitizerCoverage
//! `trace-pc-guard`, which invokes a callback with a static guard ID at every
//! branch edge. Rust targets in this reproduction cannot be instrumented by
//! Clang, so this crate provides the equivalent mechanism as an explicit API:
//! protocol implementations call [`CoverageProbe::hit`] with a [`BranchId`]
//! at every branch they want counted, and campaign code reads the resulting
//! [`CoverageMap`] through cheap [`CoverageSnapshot`]s.
//!
//! The crate also hosts two small pieces of shared campaign machinery that
//! belong with coverage because they are defined in terms of it:
//!
//! * [`SaturationDetector`] — detects that "coverage has not increased over a
//!   set duration", the trigger for CMFuzz's adaptive configuration-value
//!   mutation (paper §III-B2).
//! * [`VirtualClock`] — deterministic campaign time standing in for the
//!   paper's 24-hour wall-clock budget.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_coverage::{BranchRegistry, CoverageMap};
//!
//! let mut registry = BranchRegistry::new();
//! let parse_ok = registry.register("dns::parse_header#ok");
//! let parse_err = registry.register("dns::parse_header#err");
//!
//! let map = CoverageMap::new(registry.len());
//! let probe = map.probe();
//! probe.hit(parse_ok);
//! probe.hit(parse_ok);
//!
//! let snap = map.snapshot();
//! assert_eq!(snap.covered_count(), 1);
//! assert!(snap.is_covered(parse_ok));
//! assert!(!snap.is_covered(parse_err));
//! assert_eq!(registry.name(parse_ok), Some("dns::parse_header#ok"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod clock;
mod map;
mod saturation;
mod snapshot;

pub use branch::{BranchId, BranchRegistry};
pub use clock::{Ticks, VirtualClock};
pub use map::{CoverageMap, CoverageProbe};
pub use saturation::SaturationDetector;
pub use snapshot::CoverageSnapshot;
