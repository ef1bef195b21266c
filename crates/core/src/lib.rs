//! CMFuzz: parallel fuzzing of IoT protocols by configuration model
//! identification and scheduling — a from-scratch reproduction of the
//! DAC 2025 paper.
//!
//! Traditional protocol fuzzers drive their targets from two models: a
//! *data model* (packet structure) and a *state model* (message-exchange
//! flow). CMFuzz adds a third — the **configuration model** — and
//! schedules it across parallel fuzzing instances:
//!
//! 1. **Identification** (`cmfuzz-config-model` crate): configuration
//!    items are extracted from CLI declarations and configuration files
//!    (Algorithm 1) and normalized into 4-tuple entities (Figure 2).
//! 2. **Relation quantification** ([`relation`]): every pair of mutable
//!    entities is probed over value combinations; the pair's relation
//!    weight is its best *startup coverage*, zero-coverage pairs get no
//!    edge, weights normalize to `[0, 1]` (Figure 3).
//! 3. **Cohesive grouping** ([`allocation`]): Algorithm 2 partitions the
//!    relation graph into per-instance groups, seeding groups from the
//!    heaviest edges and placing stragglers by the `FindBest` score
//!    `(Σw)²/|G|`.
//! 4. **Parallel campaign** ([`campaign`]): each instance runs an isolated
//!    network namespace and fuzzes under its group's configuration,
//!    adaptively mutating configuration values whenever its coverage
//!    saturates (§III-B2).
//!
//! The [`baseline`] module provides the two comparison fuzzers of the
//! paper's evaluation — Peach's parallel mode and SPFuzz — on the same
//! substrate, and [`metrics`] computes Table I's improvement and speedup
//! columns.
//!
//! # Examples
//!
//! ```no_run
//! use cmfuzz::baseline::{run_cmfuzz, run_peach};
//! use cmfuzz::campaign::CampaignOptions;
//! use cmfuzz::metrics::improvement_pct;
//! use cmfuzz::schedule::ScheduleOptions;
//! use cmfuzz_protocols::spec_by_name;
//!
//! let spec = spec_by_name("mosquitto").expect("subject exists");
//! let options = CampaignOptions::default();
//! let ours = run_cmfuzz(&spec, &ScheduleOptions::default(), &options);
//! let peach = run_peach(&spec, &options);
//! println!(
//!     "CMFuzz {} vs Peach {} branches (+{:.1}%)",
//!     ours.final_branches(),
//!     peach.final_branches(),
//!     improvement_pct(ours.final_branches(), peach.final_branches()),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod baseline;
pub mod campaign;
mod error;
pub mod exec;
pub mod graph;

pub use error::CampaignError;
pub mod metrics;
pub mod preflight;
pub mod relation;
pub mod schedule;
