//! The interface between fuzzing instances and protocol targets.

use std::error::Error;
use std::fmt;

use cmfuzz_config_model::{ConfigSpace, ConstraintSet, GuardTable, ResolvedConfig};
use cmfuzz_coverage::CoverageProbe;

use crate::Fault;

/// What layer of the execution stack refused to start.
///
/// A [`StartError`] used to be a bare message; schedulers and campaign
/// runners need to distinguish *configuration* conflicts (expected,
/// first-class data — they shape the relation graph) from *transport*
/// failures (a bug or resource exhaustion in the harness itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartErrorKind {
    /// The configuration values conflict (the paper's "conflicting
    /// relations ... may cause startup failures"). Expected and handled:
    /// these pairs simply get no relation edge.
    ConfigConflict,
    /// The transport under the target failed to come up (socket bind,
    /// link setup). Never expected during a healthy campaign.
    Transport,
}

impl fmt::Display for StartErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartErrorKind::ConfigConflict => write!(f, "config-conflict"),
            StartErrorKind::Transport => write!(f, "transport"),
        }
    }
}

/// Error returned when a target fails to start under a configuration.
///
/// Startup failures are first-class data for CMFuzz: a configuration pair
/// whose every value combination fails to start yields zero startup
/// coverage and therefore no relation edge (paper §III-B1). The
/// [`StartErrorKind`] distinguishes those expected conflicts from harness
/// faults in the transport layer.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{StartError, StartErrorKind};
///
/// let err = StartError::new("tls enabled but no cipher available");
/// assert_eq!(err.to_string(), "target failed to start: tls enabled but no cipher available");
/// assert_eq!(err.kind(), StartErrorKind::ConfigConflict);
///
/// let err = StartError::transport("bind failed: address in use");
/// assert_eq!(err.kind(), StartErrorKind::Transport);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartError {
    kind: StartErrorKind,
    reason: String,
}

impl StartError {
    /// Creates a configuration-conflict startup error with a
    /// human-readable reason (the overwhelmingly common case: every
    /// protocol server reports conflicting configurations this way).
    #[must_use]
    pub fn new(reason: &str) -> Self {
        StartError {
            kind: StartErrorKind::ConfigConflict,
            reason: reason.to_owned(),
        }
    }

    /// Creates a transport-layer startup error.
    #[must_use]
    pub fn transport(reason: &str) -> Self {
        StartError {
            kind: StartErrorKind::Transport,
            reason: reason.to_owned(),
        }
    }

    /// Which layer refused to start.
    #[must_use]
    pub fn kind(&self) -> StartErrorKind {
        self.kind
    }

    /// The failure reason.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "target failed to start: {}", self.reason)
    }
}

impl Error for StartError {}

/// A target's reaction to one fuzz input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetResponse {
    /// Bytes the target sent back (empty for silently dropped inputs).
    pub bytes: Vec<u8>,
    /// A crash triggered by the input, if any.
    pub fault: Option<Fault>,
}

impl TargetResponse {
    /// A response with neither payload nor fault.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A normal response carrying `bytes`.
    #[must_use]
    pub fn reply(bytes: Vec<u8>) -> Self {
        TargetResponse { bytes, fault: None }
    }

    /// A crash response.
    #[must_use]
    pub fn crash(fault: Fault) -> Self {
        TargetResponse {
            bytes: Vec::new(),
            fault: Some(fault),
        }
    }

    /// Whether the input triggered a fault.
    #[must_use]
    pub fn is_crash(&self) -> bool {
        self.fault.is_some()
    }
}

/// A fuzzable protocol server.
///
/// The lifecycle mirrors how the paper drives its C/C++ daemons:
///
/// 1. [`Target::start`] boots the server under a [`ResolvedConfig`],
///    exercising configuration-gated initialization paths (this is where
///    *startup coverage* is measured). Conflicting configurations return
///    [`StartError`].
/// 2. [`Target::begin_session`] resets per-connection protocol state, like
///    a client reconnecting.
/// 3. [`Target::handle`] feeds one protocol message and observes the
///    response or crash.
///
/// Implementations record branch coverage through the probe passed to
/// `start` and report seeded vulnerabilities as [`Fault`]s.
pub trait Target {
    /// Target name (e.g. `"mosquitto"`), used to key experiment results.
    fn name(&self) -> &str;

    /// Size of the target's branch ID space, for sizing coverage maps.
    fn branch_count(&self) -> usize;

    /// The configuration surface CMFuzz extracts the model from: CLI
    /// declarations and shipped configuration files.
    fn config_space(&self) -> ConfigSpace;

    /// The target's declared startup conflicts, in a form static analysis
    /// can evaluate without booting the target.
    ///
    /// The default is the empty set — a target that declares nothing keeps
    /// boot-time-only conflict detection, and the analyzer simply has
    /// nothing to check. The six simulated servers boot from this set:
    /// `start` refuses a configuration with the reason of the first
    /// constraint it violates, and boots every configuration that
    /// violates none.
    fn config_constraints(&self) -> ConstraintSet {
        ConstraintSet::new()
    }

    /// The target's declared branch guards: for each config-gated coverage
    /// region, the conditions *necessary* for its branch to fire (exact for
    /// `Startup` guards). The reachability analyzer uses this table to
    /// prove branches statically dead within a configuration partition.
    ///
    /// The default is the empty table — branches of a target that declares
    /// nothing are never claimed dead. A guarded branch must be
    /// uncoverable whenever its conditions fail. The six simulated servers
    /// boot from this table: `start` hits a `Startup`-guarded branch
    /// exactly when its conditions hold, while `handle` gates its
    /// branches by hand.
    fn branch_guards(&self) -> GuardTable {
        GuardTable::new()
    }

    /// Boots the target under `config`, recording startup coverage through
    /// `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`StartError`] when the configuration is inconsistent (the
    /// paper's "conflicting relations ... may cause startup failures").
    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError>;

    /// Resets per-session protocol state (new client connection).
    fn begin_session(&mut self);

    /// Processes one protocol message.
    fn handle(&mut self, input: &[u8]) -> TargetResponse;

    /// Processes a burst of messages stored back-to-back in `arena`, each
    /// addressed by an `(offset, len)` range. Faults are appended to
    /// `faults` as `(message index, fault)` pairs in send order.
    ///
    /// The contract with [`Target::handle`]: the target's state after the
    /// batch, and the faults reported, must be identical to calling
    /// `handle` once per range in order — batching is purely a throughput
    /// optimization and must be invisible to determinism. The default does
    /// exactly that per-message loop; transports that can amortize
    /// per-message framing (see `NetworkedTarget`) override it.
    fn handle_batch(
        &mut self,
        arena: &[u8],
        ranges: &[(u32, u32)],
        faults: &mut Vec<(usize, Fault)>,
    ) {
        for (i, &(start, len)) in ranges.iter().enumerate() {
            let message = &arena[start as usize..(start + len) as usize];
            if let Some(fault) = self.handle(message).fault {
                faults.push((i, fault));
            }
        }
    }

    /// Unused: nothing exports target state any more, because a paused
    /// campaign keeps its targets live. Kept only because the repository
    /// benchmark's timing wrapper overrides it; owed for deletion with
    /// the next benchmark change.
    fn export_state(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Unused, like [`Target::export_state`], and owed for deletion with
    /// it.
    fn import_state(&mut self, state: &[u8]) {
        let _ = state;
    }
}

impl<T: Target + ?Sized> Target for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn branch_count(&self) -> usize {
        (**self).branch_count()
    }
    fn config_space(&self) -> ConfigSpace {
        (**self).config_space()
    }
    fn config_constraints(&self) -> ConstraintSet {
        (**self).config_constraints()
    }
    fn branch_guards(&self) -> GuardTable {
        (**self).branch_guards()
    }
    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        (**self).start(config, probe)
    }
    fn begin_session(&mut self) {
        (**self).begin_session()
    }
    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        (**self).handle(input)
    }
    fn handle_batch(
        &mut self,
        arena: &[u8],
        ranges: &[(u32, u32)],
        faults: &mut Vec<(usize, Fault)>,
    ) {
        (**self).handle_batch(arena, ranges, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    #[test]
    fn start_error_accessors() {
        let e = StartError::new("conflict");
        assert_eq!(e.reason(), "conflict");
        assert_eq!(e.kind(), StartErrorKind::ConfigConflict);
        assert!(e.to_string().contains("conflict"));
    }

    #[test]
    fn transport_start_errors_carry_their_kind() {
        let e = StartError::transport("bind failed");
        assert_eq!(e.kind(), StartErrorKind::Transport);
        assert_eq!(e.reason(), "bind failed");
        // Kind participates in identity: the same message at a different
        // layer is a different error.
        assert_ne!(e, StartError::new("bind failed"));
        assert_eq!(StartErrorKind::Transport.to_string(), "transport");
        assert_eq!(
            StartErrorKind::ConfigConflict.to_string(),
            "config-conflict"
        );
    }

    #[test]
    fn response_constructors() {
        assert!(!TargetResponse::empty().is_crash());
        let r = TargetResponse::reply(vec![1, 2]);
        assert_eq!(r.bytes, vec![1, 2]);
        assert!(!r.is_crash());
        let c = TargetResponse::crash(Fault::new(FaultKind::Segv, "f"));
        assert!(c.is_crash());
        assert!(c.bytes.is_empty());
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_t: &mut dyn Target) {}
    }
}
