//! Network-isolated target wrapper.

use cmfuzz_config_model::{ConfigSpace, ConstraintSet, GuardTable, ResolvedConfig};
use cmfuzz_coverage::CoverageProbe;
use cmfuzz_fuzzer::{Fault, StartError, Target, TargetResponse};
use cmfuzz_netsim::{LinkConditions, Network};

use crate::transport::{DatagramLink, Transport};

/// Runs a protocol target behind a [`Transport`], by default its own
/// isolated [`Network`] — the reproduction of the paper's per-instance
/// Linux network namespace.
///
/// The transport binds the server at a well-known address inside the
/// namespace and a fuzzing client next to it; [`Target::handle`] routes the
/// input through the simulated network in both directions, so every fuzzed
/// message actually crosses the (namespaced, possibly impaired) wire. Two
/// instances wrapping the same protocol can never observe each other's
/// traffic because their `Network`s are disjoint. Benchmarks that want to
/// measure the engine rather than the wire swap in a
/// [`DirectLink`](crate::DirectLink) via [`NetworkedTarget::with_transport`].
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::{Dns, NetworkedTarget};
/// use cmfuzz_config_model::ResolvedConfig;
/// use cmfuzz_coverage::CoverageMap;
///
/// let mut target = NetworkedTarget::new(Dns::new(), "instance-0");
/// let map = CoverageMap::new(target.branch_count());
/// target.start(&ResolvedConfig::new(), map.probe())?;
/// let response = target.handle(&[0u8; 12]);
/// assert!(!response.is_crash());
/// # Ok::<(), cmfuzz_fuzzer::StartError>(())
/// ```
#[derive(Debug)]
pub struct NetworkedTarget<T: Target, L: Transport = DatagramLink> {
    inner: T,
    link: L,
}

impl<T: Target> NetworkedTarget<T, DatagramLink> {
    /// Wraps `inner` in a fresh perfect-link namespace named after the
    /// instance.
    #[must_use]
    pub fn new(inner: T, namespace: &str) -> Self {
        NetworkedTarget {
            inner,
            link: DatagramLink::new(namespace),
        }
    }

    /// Wraps `inner` in a namespace whose link is impaired by
    /// `conditions`, deterministically driven by `seed`.
    #[must_use]
    pub fn with_conditions(
        inner: T,
        namespace: &str,
        conditions: LinkConditions,
        seed: u64,
    ) -> Self {
        NetworkedTarget {
            inner,
            link: DatagramLink::with_conditions(namespace, conditions, seed),
        }
    }

    /// The namespace this instance runs in.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.link.network()
    }
}

impl<T: Target, L: Transport> NetworkedTarget<T, L> {
    /// Wraps `inner` behind an arbitrary transport (e.g. a
    /// [`DirectLink`](crate::DirectLink) for in-process benchmarking).
    #[must_use]
    pub fn with_transport(inner: T, link: L) -> Self {
        NetworkedTarget { inner, link }
    }

    /// The wrapped target.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The transport the fuzzed traffic crosses.
    #[must_use]
    pub fn transport(&self) -> &L {
        &self.link
    }
}

impl<T: Target, L: Transport> Target for NetworkedTarget<T, L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn branch_count(&self) -> usize {
        self.inner.branch_count()
    }

    fn config_space(&self) -> ConfigSpace {
        self.inner.config_space()
    }

    fn config_constraints(&self) -> ConstraintSet {
        self.inner.config_constraints()
    }

    fn branch_guards(&self) -> GuardTable {
        self.inner.branch_guards()
    }

    fn start(&mut self, config: &ResolvedConfig, probe: CoverageProbe) -> Result<(), StartError> {
        // Tear the link down before booting the server: if the boot fails,
        // nothing may stay bound at the well-known addresses, so a failed
        // restart leaves the instance fully inert instead of half-alive on
        // the previous configuration's sockets.
        self.link.close();
        self.inner.start(config, probe)?;
        // Like a daemon opening its listening socket last.
        self.link.open()
    }

    fn begin_session(&mut self) {
        self.inner.begin_session();
    }

    fn handle(&mut self, input: &[u8]) -> TargetResponse {
        // Client → wire → server.
        if !self.link.client_send(input) {
            return TargetResponse::empty();
        }
        let Some(payload) = self.link.server_recv() else {
            return TargetResponse::empty();
        };
        let response = self.inner.handle(&payload);
        // Server → wire → client (crashes produce no reply, like a dead
        // daemon).
        if !response.is_crash() && !response.bytes.is_empty() {
            let _ = self.link.server_send(&response.bytes);
            if let Some(reply) = self.link.client_recv() {
                return TargetResponse {
                    bytes: reply,
                    fault: None,
                };
            }
        }
        response
    }

    fn handle_batch(
        &mut self,
        arena: &[u8],
        ranges: &[(u32, u32)],
        faults: &mut Vec<(usize, Fault)>,
    ) {
        let NetworkedTarget { inner, link } = self;
        // Impaired links draw impairment RNG per datagram in both
        // directions, so each message's round trip completes before the
        // next is sent — the draw order of `handle`, and thus every
        // recorded digest, stays intact.
        if !link.is_lossless() {
            link.round_trips(arena, ranges, &mut |index, request, reply| {
                let response = inner.handle(request);
                match response.fault {
                    Some(fault) => faults.push((index, fault)),
                    None => *reply = response.bytes,
                }
            });
            return;
        }
        // Lossless burst: every message crosses the wire under one send,
        // then the server drains them in order. Replies are not echoed
        // back — on a lossless link the reply round-trip consumes no RNG
        // and leaves both queues empty, and batch callers discard reply
        // bytes, so skipping it is state-identical to `handle`.
        if !link.client_send_batch(arena, ranges) {
            return; // closed link: inert, like per-message sends failing
        }
        let mut index = 0;
        link.server_recv_many(ranges.len(), &mut |payload| {
            if let Some(fault) = inner.handle(payload).fault {
                faults.push((index, fault));
            }
            index += 1;
        });
    }

    fn export_state(&mut self) -> Vec<u8> {
        // Length-prefixed inner bytes, then the link's; either side may be
        // destructive, so the exporting instance is done afterwards.
        let mut w = cmfuzz_fuzzer::state_codec::StateWriter::new();
        w.bytes(&self.inner.export_state());
        w.bytes(&self.link.export_state());
        w.finish()
    }

    fn import_state(&mut self, state: &[u8]) {
        // Called after `start`, so both the server and the link are up;
        // importing overlays the checkpointed session state on top.
        let mut r = cmfuzz_fuzzer::state_codec::StateReader::new(state);
        let inner = r.bytes().to_vec();
        let link = r.bytes().to_vec();
        r.finish();
        self.inner.import_state(&inner);
        self.link.import_state(&link);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{DirectLink, SERVER_ADDR};
    use crate::{all_specs, ProtocolSpec, ProtocolTarget};
    use cmfuzz_coverage::CoverageMap;
    use cmfuzz_fuzzer::{pit, EngineConfig, Fault, FaultKind, FuzzEngine};
    use cmfuzz_netsim::Addr;

    /// Echo target used to test the wrapper plumbing.
    struct Echo {
        crash_on: Option<u8>,
        fail_next_start: bool,
    }

    impl Echo {
        fn new(crash_on: Option<u8>) -> Self {
            Echo {
                crash_on,
                fail_next_start: false,
            }
        }
    }

    impl Target for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn branch_count(&self) -> usize {
            1
        }
        fn config_space(&self) -> ConfigSpace {
            ConfigSpace::default()
        }
        fn start(&mut self, _: &ResolvedConfig, _: CoverageProbe) -> Result<(), StartError> {
            if self.fail_next_start {
                self.fail_next_start = false;
                return Err(StartError::new("conflicting configuration"));
            }
            Ok(())
        }
        fn begin_session(&mut self) {}
        fn handle(&mut self, input: &[u8]) -> TargetResponse {
            if self.crash_on.is_some() && input.first() == self.crash_on.as_ref() {
                return TargetResponse::crash(Fault::new(FaultKind::Segv, "echo"));
            }
            TargetResponse::reply(input.to_vec())
        }
    }

    fn started(target: Echo) -> NetworkedTarget<Echo> {
        let mut wrapped = NetworkedTarget::new(target, "test-ns");
        let map = CoverageMap::new(1);
        wrapped
            .start(&ResolvedConfig::new(), map.probe())
            .expect("starts");
        wrapped
    }

    #[test]
    fn round_trips_through_the_network() {
        let mut t = started(Echo::new(None));
        let response = t.handle(b"ping");
        assert_eq!(response.bytes, b"ping");
        assert!(!response.is_crash());
    }

    #[test]
    fn round_trips_through_a_direct_link() {
        let mut t = NetworkedTarget::with_transport(Echo::new(None), DirectLink::new());
        let map = CoverageMap::new(1);
        t.start(&ResolvedConfig::new(), map.probe())
            .expect("starts");
        assert_eq!(t.handle(b"ping").bytes, b"ping");
    }

    #[test]
    fn crashes_pass_through_without_reply() {
        let mut t = started(Echo::new(Some(0xFF)));
        let response = t.handle(&[0xFF, 1, 2]);
        assert!(response.is_crash());
        assert!(response.bytes.is_empty());
    }

    #[test]
    fn handle_before_start_is_inert() {
        let mut t = NetworkedTarget::new(Echo::new(None), "ns");
        assert_eq!(t.handle(b"x"), TargetResponse::empty());
    }

    #[test]
    fn restart_rebinds_sockets() {
        let mut t = started(Echo::new(None));
        let map = CoverageMap::new(1);
        t.start(&ResolvedConfig::new(), map.probe())
            .expect("restart succeeds despite prior binds");
        assert_eq!(t.handle(b"again").bytes, b"again");
    }

    #[test]
    fn failed_restart_leaves_no_stale_sockets_bound() {
        // Regression: a failed inner restart used to leave the previous
        // configuration's sockets bound, so the instance kept answering on
        // a server that had refused to boot.
        let mut t = started(Echo::new(None));
        t.inner.fail_next_start = true;
        let map = CoverageMap::new(1);
        let err = t
            .start(&ResolvedConfig::new(), map.probe())
            .expect_err("boot refuses");
        assert!(err.to_string().contains("conflicting configuration"));
        // The instance is fully inert, not half-alive on old sockets...
        assert!(!t.link.is_open());
        assert_eq!(t.handle(b"zombie?"), TargetResponse::empty());
        // ...and the well-known addresses are actually free again.
        let rebind = t.network().bind_datagram(SERVER_ADDR);
        assert!(rebind.is_ok(), "stale server socket still bound");
        drop(rebind);
        // A later successful restart fully revives the instance.
        let map = CoverageMap::new(1);
        t.start(&ResolvedConfig::new(), map.probe())
            .expect("revives");
        assert_eq!(t.handle(b"back").bytes, b"back");
    }

    #[test]
    fn impaired_instances_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<usize> {
            let mut t = NetworkedTarget::with_conditions(
                Echo::new(None),
                "ns",
                LinkConditions::new(0.3, 0.1, 0.1),
                seed,
            );
            let map = CoverageMap::new(1);
            t.start(&ResolvedConfig::new(), map.probe())
                .expect("starts");
            (0..32)
                .map(|i| t.handle(&[i as u8, 1, 2]).bytes.len())
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "impairment pattern follows the seed");
    }

    #[test]
    fn batch_reports_faults_at_their_message_indices() {
        let mut t = started(Echo::new(Some(0xFF)));
        let arena = [1u8, 2, 0xFF, 9, 3, 4, 0xFF, 8];
        let ranges = [(0u32, 2u32), (2, 2), (4, 2), (6, 2)];
        let mut faults = Vec::new();
        t.handle_batch(&arena, &ranges, &mut faults);
        let indices: Vec<usize> = faults.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, [1, 3]);
        // The wire is drained: nothing lingers between batches.
        assert!(t.handle(b"ok").bytes == b"ok");
    }

    #[test]
    fn impaired_batch_matches_per_message_handling() {
        // On a lossy link the batch path must fall back to exact
        // per-message handling: same impairment RNG draws, so the same
        // datagrams survive and the link ends in the same state. The
        // exported state captures the RNG position, held datagram, and
        // both queues, so byte-equality here is full state-equality.
        let final_state = |batched: bool| -> Vec<u8> {
            let mut t = NetworkedTarget::with_conditions(
                Echo::new(None),
                "ns",
                LinkConditions::new(0.3, 0.1, 0.1),
                9,
            );
            let map = CoverageMap::new(1);
            t.start(&ResolvedConfig::new(), map.probe())
                .expect("starts");
            let arena: Vec<u8> = (0u8..32).collect();
            let ranges: Vec<(u32, u32)> = (0..16).map(|i| (i * 2, 2)).collect();
            if batched {
                let mut faults = Vec::new();
                t.handle_batch(&arena, &ranges, &mut faults);
            } else {
                for &(start, len) in &ranges {
                    let _ = t.handle(&arena[start as usize..(start + len) as usize]);
                }
            }
            t.export_state()
        };
        assert_eq!(
            final_state(true),
            final_state(false),
            "impaired fallback diverged"
        );
    }

    /// A [`NetworkedTarget`] that keeps [`Target::handle_batch`]'s default:
    /// one [`Target::handle`] call per message, the reference the lossless
    /// burst must match.
    struct PerMessage(NetworkedTarget<ProtocolTarget>);

    impl Target for PerMessage {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn branch_count(&self) -> usize {
            self.0.branch_count()
        }
        fn config_space(&self) -> ConfigSpace {
            self.0.config_space()
        }
        fn start(
            &mut self,
            config: &ResolvedConfig,
            probe: CoverageProbe,
        ) -> Result<(), StartError> {
            self.0.start(config, probe)
        }
        fn begin_session(&mut self) {
            self.0.begin_session();
        }
        fn handle(&mut self, input: &[u8]) -> TargetResponse {
            self.0.handle(input)
        }
        fn export_state(&mut self) -> Vec<u8> {
            self.0.export_state()
        }
        fn import_state(&mut self, state: &[u8]) {
            self.0.import_state(state);
        }
    }

    /// Boots an engine at seed 7 over `target` on the subject's defaults
    /// and runs 200 warm-up then 2 000 sessions, `batch` at a time.
    fn subject_engine<T: Target>(spec: &ProtocolSpec, target: T, batch: usize) -> FuzzEngine<T> {
        let parsed = pit::parse(spec.pit_document).expect("pit parses");
        let config = EngineConfig {
            seed: 7,
            ..EngineConfig::default()
        };
        let mut engine = FuzzEngine::new(target, parsed, config);
        engine
            .start(&ResolvedConfig::new())
            .expect("subject boots on defaults");
        for mut remaining in [200, 2_000] {
            while remaining > 0 {
                let n = remaining.min(batch);
                engine.run_batch(n);
                remaining -= n;
            }
        }
        engine
    }

    /// Coverage, corpus size, messages and sessions of a run.
    fn counts<T: Target>(e: &FuzzEngine<T>) -> (usize, usize, u64, u64) {
        let stats = e.stats();
        (
            e.covered_count(),
            e.corpus_len(),
            stats.messages,
            stats.sessions,
        )
    }

    /// The counts must agree, and so must the full engine state, target
    /// and link included.
    fn assert_same_run<A: Target, B: Target>(
        context: &str,
        mut a: FuzzEngine<A>,
        mut b: FuzzEngine<B>,
    ) {
        assert_eq!(counts(&a), counts(&b), "{context}: counts");
        assert_eq!(
            format!("{:?}", a.checkpoint()),
            format!("{:?}", b.checkpoint()),
            "{context}: engine state"
        );
    }

    #[test]
    fn lossless_batch_matches_per_message_handling() {
        // On a perfect link the batch path sends each session as one burst
        // and skips the reply round trip; every subject must see exactly
        // what per-message `handle` calls deliver.
        for spec in all_specs() {
            let reference = subject_engine(
                &spec,
                PerMessage(NetworkedTarget::new((spec.build)(), "per-message")),
                64,
            );
            let burst = subject_engine(&spec, NetworkedTarget::new((spec.build)(), "burst"), 64);
            assert_same_run(spec.name, reference, burst);
        }
    }

    #[test]
    fn batch_size_is_invisible_over_a_lossless_link() {
        for spec in all_specs() {
            let one = subject_engine(&spec, NetworkedTarget::new((spec.build)(), "batch-1"), 1);
            let many = subject_engine(&spec, NetworkedTarget::new((spec.build)(), "batch-64"), 64);
            assert_same_run(spec.name, one, many);
        }
    }

    #[test]
    fn two_instances_have_disjoint_networks() {
        let a = started(Echo::new(None));
        let b = started(Echo::new(None));
        assert_ne!(
            a.network().name(),
            "", // names are whatever the campaign chose
        );
        // Isolation is structural: the networks are different objects with
        // their own binding tables, so a's server cannot hear b's client.
        let a_extra = a.network().bind_datagram(Addr::new(7, 7)).unwrap();
        assert!(a_extra.send_to(SERVER_ADDR, b"x").is_ok());
        assert!(b.network().bind_datagram(Addr::new(7, 7)).is_ok());
    }
}
