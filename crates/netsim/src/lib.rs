//! In-memory isolated network namespaces for parallel fuzzing instances.
//!
//! The CMFuzz paper isolates each parallel fuzzing instance in its own Linux
//! network namespace (`ip netns`) so that instances cannot cross-contaminate
//! each other's targets. This crate reproduces that guarantee with
//! deterministic in-memory networks: a [`Network`] is one namespace, sockets
//! created on different networks can never exchange packets, and everything
//! runs without touching the host network stack.
//!
//! All six protocol targets exchange their messages through one transport,
//! the UDP-like [`DatagramSocket`]: the simulated servers frame their own
//! protocols, so the MQTT and AMQP targets need no byte-stream layer.
//!
//! [`LinkConditions`] can inject seeded loss, duplication and reordering for
//! robustness testing; experiments run with perfect links for determinism.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_netsim::{Addr, Network};
//!
//! # fn main() -> Result<(), cmfuzz_netsim::NetError> {
//! let net = Network::new("instance-0");
//! let server = net.bind_datagram(Addr::new(1, 5683))?;
//! let client = net.bind_datagram(Addr::new(2, 40000))?;
//!
//! client.send_to(Addr::new(1, 5683), b"hello")?;
//! let datagram = server.try_recv().expect("datagram delivered");
//! assert_eq!(datagram.payload, b"hello");
//! assert_eq!(datagram.src, Addr::new(2, 40000));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod conditions;
mod error;
mod network;

pub use addr::Addr;
pub use conditions::LinkConditions;
pub use error::NetError;
pub use network::{Datagram, DatagramSocket, Network, Wire};
