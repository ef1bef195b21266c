//! Six simulated IoT protocol servers for the CMFuzz reproduction.
//!
//! The paper evaluates on Mosquitto (MQTT), libcoap (CoAP), CycloneDDS
//! (DDS), OpenSSL (DTLS), Qpid (AMQP) and Dnsmasq (DNS). Those C/C++
//! daemons are not reproducible in a pure-Rust offline build, so this crate
//! provides simulated equivalents that preserve exactly what CMFuzz
//! consumes from a target:
//!
//! * a **configuration surface** (CLI options + configuration files in the
//!   formats the real daemon uses) with 10–20 items each;
//! * **configuration-gated execution paths**: every item unlocks real
//!   branches in the wire parser / state machine, pairs of items have
//!   synergistic branches that only execute together, and conflicting
//!   combinations fail startup (zero startup coverage — no relation edge);
//! * **branch coverage** through [`cmfuzz_coverage`] probes at every
//!   decision point (the `trace-pc-guard` analogue);
//! * **seeded vulnerabilities** matching the paper's Table II: fourteen
//!   bugs across MQTT/CoAP/AMQP/DNS, most of them unreachable under the
//!   default configuration.
//!
//! All servers implement [`cmfuzz_fuzzer::Target`] and ship a Pit document
//! ([`ProtocolSpec::pit_document`]) describing their data and state models,
//! so every fuzzer in an experiment uses the same models (paper §IV-A).
//!
//! # Examples
//!
//! ```
//! use cmfuzz_protocols::{all_specs, ProtocolSpec};
//! use cmfuzz_fuzzer::Target;
//!
//! let specs = all_specs();
//! assert_eq!(specs.len(), 6);
//! let mqtt = specs.iter().find(|s| s.name == "mosquitto").expect("mqtt present");
//! let target = (mqtt.build)();
//! assert!(target.branch_count() > 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amqp;
mod coap;
mod common;
mod dds;
mod dns;
mod dtls;
mod mqtt;
mod net;
mod spec;
mod transport;

pub use amqp::Amqp;
pub use coap::Coap;
pub use dds::Dds;
pub use dns::Dns;
pub use dtls::Dtls;
pub use mqtt::Mqtt;
pub use net::NetworkedTarget;
pub use spec::{all_specs, spec_by_name, ProtocolSpec, ProtocolTarget};
pub use transport::{DatagramLink, DirectLink, Transport};
