//! Error type for network operations.

use std::error::Error;
use std::fmt;

use crate::Addr;

/// Errors returned by simulated network operations.
///
/// # Examples
///
/// ```
/// use cmfuzz_netsim::{Addr, NetError, Network};
///
/// let net = Network::new("ns");
/// let _first = net.bind_datagram(Addr::new(1, 53)).unwrap();
/// let err = net.bind_datagram(Addr::new(1, 53)).unwrap_err();
/// assert!(matches!(err, NetError::AddrInUse(_)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The address is already bound on this network.
    AddrInUse(Addr),
    /// No socket is bound at the destination address.
    Unreachable(Addr),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::AddrInUse(addr) => write!(f, "address already in use: {addr}"),
            NetError::Unreachable(addr) => write!(f, "destination unreachable: {addr}"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            NetError::AddrInUse(Addr::new(1, 2)).to_string(),
            "address already in use: 10.77.0.1:2"
        );
        assert_eq!(
            NetError::Unreachable(Addr::new(1, 2)).to_string(),
            "destination unreachable: 10.77.0.1:2"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
