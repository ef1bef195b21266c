//! `cmfuzz-server`: campaign-as-a-service over the telemetry bus.
//!
//! The rest of the workspace runs campaigns as batch jobs: build a fleet,
//! call [`cmfuzz_fleet::run_fleet`], read the result. This crate turns
//! that machinery into a long-lived service without touching its
//! determinism story:
//!
//! - [`plane::ControlPlane`] owns a [`cmfuzz_fleet::FleetManager`] and a
//!   dedicated engine thread — the only thread that ever steps waves, so
//!   engine RNG order is exactly the offline order. It holds the manager
//!   lock only to plan and to commit a wave, never while slices run.
//! - [`net::serve`] is an accept loop plus one blocking thread per
//!   connection, speaking line-delimited JSON ([`proto`]): submit,
//!   status, pause, resume, kill, extend, result, metrics, tail,
//!   shutdown.
//! - Telemetry streams to any number of subscribers through the
//!   [`cmfuzz_telemetry::FanoutHub`], with per-subscriber bounded queues
//!   and slow-consumer eviction; the TCP layer drops a connection whose
//!   write stays blocked past a fixed timeout.
//! - [`rate`] puts a token bucket in front of every connection and a
//!   global `CMFUZZ_KILL` switch in front of the whole service.
//! - [`soak::run_soak`] is the CI gate: ~1000 concurrent subscribers,
//!   every control verb exercised over live sockets, and zero digest
//!   drift between served and offline execution of the same submission.
//!
//! The protocol deliberately has no authentication story: the server
//! binds loopback by default and fuzzing campaigns are not secrets. What
//! it *does* defend is isolation between clients (rate limits, a line
//! cap, write timeouts) and the engine's reproducibility (control signals
//! only ever land at round boundaries, where workers are parked).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod plane;
pub mod proto;
pub mod rate;
pub mod soak;

pub use cmfuzz_telemetry::json::{parse as parse_json, JsonValue};
pub use net::{serve, BlockingClient, ServeSummary, ServerOptions, StopReason};
pub use plane::{build_policy, ControlPlane, PlaneOptions};
pub use proto::{
    error_response, fnv1a_hex, ok_response, result_digest, BoundError, CampaignSubmission, Request,
    Submission,
};
pub use rate::{kill_switch_engaged, RateLimits, TokenBucket, KILL_SWITCH_ENV};
pub use soak::{run_soak, SoakOptions, SoakReport};
