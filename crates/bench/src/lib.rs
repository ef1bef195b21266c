//! Experiment harness regenerating every table and figure of the CMFuzz
//! evaluation (paper §IV).
//!
//! Three report binaries correspond to the paper's artifacts:
//!
//! * `table1` — branches covered by CMFuzz / Peach / SPFuzz with
//!   improvement % and speedup (paper Table I);
//! * `figure4` — coverage-over-time series per protocol for the three
//!   fuzzers (paper Figure 4);
//! * `table2` — vulnerabilities detected, by kind and affected function
//!   (paper Table II);
//! * `ablation` — the design-choice ablations DESIGN.md calls out.
//!
//! Scale is controlled by [`ExperimentScale`]; `CMFUZZ_SCALE=paper` runs
//! the larger budget, the default `quick` scale finishes in seconds per
//! subject. Absolute numbers differ from the paper (the substrate is a
//! simulator); the *shape* — who wins, by roughly what factor, where the
//! curves flatten — is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod fleet;
pub mod report;
pub mod session;

pub use cli::default_jobs;
pub use experiments::{
    ablation, figure4, table1, table2, AblationRow, ExperimentScale, Figure4Series, Table1Row,
    Table2Row,
};
pub use fleet::partition_fleet;
pub use session::NullTarget;
