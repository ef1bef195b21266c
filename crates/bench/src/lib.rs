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
pub mod report;
pub mod session;

pub use cli::default_jobs;
pub use experiments::{
    ablation, ablation_with, ablation_with_jobs, figure4, figure4_with, figure4_with_jobs, table1,
    table1_cell_count, table1_with, table1_with_jobs, table2, table2_with, table2_with_jobs,
    try_ablation_with_jobs, try_figure4_with_jobs, try_table1_with_jobs,
    try_table1_with_jobs_timed, try_table2_with_jobs, AblationRow, CellTiming, ExperimentScale,
    Figure4Series, Table1Row, Table2Row,
};
pub use session::NullTarget;
