//! Peach-like generation-based protocol fuzzer substrate.
//!
//! The CMFuzz paper is implemented "on top of the widely-used protocol
//! fuzzer Peach"; this crate is the from-scratch Rust stand-in for that
//! substrate. It provides the two traditional models protocol fuzzers are
//! built on, plus everything needed to run a fuzzing instance:
//!
//! * [`DataModel`] — packet structure and field semantics (integers with
//!   width/endianness, blobs, strings, length-of relations, choices,
//!   nested blocks), rendered to wire bytes by [`Generator`].
//! * [`StateModel`] — protocol states and message-exchange transitions,
//!   driven by [`StateWalker`].
//! * [`pit`] — a Pit-file-like XML format describing both models, so all
//!   fuzzers in an experiment consume "the same Pit files" (paper §IV-A).
//! * [`Mutator`] — byte- and field-level mutation strategies;
//!   [`MutationPlan`] applies a field mutation as a patch over a model's
//!   pristine bytes.
//! * [`Corpus`] — coverage-guided seed retention.
//! * [`FuzzEngine`] — one fuzzing instance: session loop, coverage
//!   feedback, fault collection and deduplication.
//!
//! Targets implement the [`Target`] trait; the six simulated IoT protocol
//! servers live in the `cmfuzz-protocols` crate.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_fuzzer::{DataModel, Field, FieldKind, Generator, Endian};
//!
//! let model = DataModel::new("ping")
//!     .field(Field::uint("type", 8, 0x40))
//!     .field(Field::length_of("len", "payload", 8, Endian::Big))
//!     .field(Field::bytes("payload", b"abc"));
//! let bytes = Generator::render(&model);
//! assert_eq!(bytes, vec![0x40, 3, b'a', b'b', b'c']);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod data_model;
mod engine;
mod fault;
mod intern;
mod mutate;
mod mutation_plan;
pub mod pit;
mod state_model;
mod target;

pub use corpus::{AddOutcome, Corpus, Seed};
pub use data_model::{DataModel, Endian, Field, FieldKind, FieldValue, Generator};
pub use engine::{
    EngineConfig, EngineStats, FuzzEngine, IterationOutcome, SESSION_MESSAGES_BOUNDS,
};
pub use fault::{Fault, FaultKind, FaultLog};
pub use intern::{ModelId, ModelTable};
pub use mutate::{MutationOp, Mutator};
pub use mutation_plan::MutationPlan;
pub use state_model::{
    CompiledStateModel, ResponseClass, State, StateModel, StateWalker, Transition,
};
pub use target::{StartError, StartErrorKind, Target, TargetResponse};
