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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt;

    use crate::transport::{DirectLink, SERVER_ADDR};
    use crate::{all_specs, spec_by_name, Amqp, Coap, Dds, Dns, Dtls, Mqtt, ProtocolSpec};
    use cmfuzz_coverage::CoverageMap;
    use cmfuzz_fuzzer::{pit, EngineConfig, Fault, FaultKind, FuzzEngine};
    use cmfuzz_netsim::Addr;

    /// Echo target used to test the wrapper plumbing. It logs every
    /// request it serves, in delivery order.
    #[derive(Debug)]
    struct Echo {
        crash_on: Option<u8>,
        fail_next_start: bool,
        served: Vec<Vec<u8>>,
    }

    impl Echo {
        fn new(crash_on: Option<u8>) -> Self {
            Echo {
                crash_on,
                fail_next_start: false,
                served: Vec::new(),
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
            self.served.push(input.to_vec());
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
        // datagrams reach the server in the same order, the same faults
        // land at the same indices, and the link ends in the same state.
        // A skipped draw can leave the final RNG position, held datagram
        // and queues as they were, so the delivery log is compared too,
        // over enough link seeds that every message's draws decide some
        // delivery.
        let run = |batched: bool, seed: u64| {
            let mut t = NetworkedTarget::with_conditions(
                Echo::new(Some(20)),
                if batched { "batched" } else { "per-message" },
                LinkConditions::new(0.3, 0.1, 0.1),
                seed,
            );
            let map = CoverageMap::new(1);
            t.start(&ResolvedConfig::new(), map.probe())
                .expect("starts");
            let arena: Vec<u8> = (0u8..32).collect();
            let ranges: Vec<(u32, u32)> = (0..16).map(|i| (i * 2, 2)).collect();
            let mut faults = Vec::new();
            if batched {
                t.handle_batch(&arena, &ranges, &mut faults);
            } else {
                for (index, &(start, len)) in ranges.iter().enumerate() {
                    let response = t.handle(&arena[start as usize..(start + len) as usize]);
                    faults.extend(response.fault.map(|fault| (index, fault)));
                }
            }
            (t.inner().served.clone(), faults, format!("{t:?}"))
        };
        let mut faulted = 0;
        for seed in 0..16 {
            let (served, faults, state) = run(false, seed);
            faulted += faults.len();
            let (batch_served, batch_faults, batch_state) = run(true, seed);
            assert_eq!(batch_served, served, "seed {seed}: delivered differently");
            assert_eq!(batch_faults, faults, "seed {seed}: faulted differently");
            assert_eq!(batch_state, state, "seed {seed}: link state diverged");
        }
        assert!(faulted > 0, "the crashing request got through");
    }

    /// A [`NetworkedTarget`] that keeps [`Target::handle_batch`]'s default:
    /// one [`Target::handle`] call per message, the reference the lossless
    /// burst must match. Its `Debug` is the wrapped target's.
    struct PerMessage<T: Target>(NetworkedTarget<T>);

    impl<T: Target + fmt::Debug> fmt::Debug for PerMessage<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.fmt(f)
        }
    }

    impl<T: Target> Target for PerMessage<T> {
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

    /// The counts must agree, and so must the full live engine state,
    /// server and link included.
    fn assert_same_run<A: Target + fmt::Debug, B: Target + fmt::Debug>(
        context: &str,
        a: &FuzzEngine<A>,
        b: &FuzzEngine<B>,
    ) {
        assert_eq!(counts(a), counts(b), "{context}: counts");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{context}: engine state"
        );
    }

    /// The subject named `name`, checked to be built as an `S`: engines
    /// over the concrete server type can render its state, a boxed
    /// `ProtocolTarget` cannot.
    fn subject<S: Target + Default>(name: &str) -> ProtocolSpec {
        let spec = spec_by_name(name).expect("subject exists");
        assert_eq!((spec.build)().name(), S::default().name());
        spec
    }

    /// On a perfect link the batch path sends each session as one burst
    /// and skips the reply round trip; the subject must see exactly what
    /// per-message `handle` calls deliver.
    fn lossless_paths_agree<S: Target + Default + fmt::Debug>(name: &str) {
        let spec = subject::<S>(name);
        let reference = subject_engine(
            &spec,
            PerMessage(NetworkedTarget::new(S::default(), "per-message")),
            64,
        );
        let burst = subject_engine(&spec, NetworkedTarget::new(S::default(), "burst"), 64);
        assert_same_run(name, &reference, &burst);
    }

    fn batch_sizes_agree<S: Target + Default + fmt::Debug>(name: &str) {
        let spec = subject::<S>(name);
        let one = subject_engine(&spec, NetworkedTarget::new(S::default(), "batch-1"), 1);
        let many = subject_engine(&spec, NetworkedTarget::new(S::default(), "batch-64"), 64);
        assert_same_run(name, &one, &many);
    }

    #[test]
    fn lossless_batch_matches_per_message_handling() {
        assert_eq!(all_specs().len(), 6, "every subject is checked below");
        lossless_paths_agree::<Mqtt>("mosquitto");
        lossless_paths_agree::<Coap>("libcoap");
        lossless_paths_agree::<Dds>("cyclonedds");
        lossless_paths_agree::<Dtls>("openssl");
        lossless_paths_agree::<Amqp>("qpid");
        lossless_paths_agree::<Dns>("dnsmasq");
    }

    #[test]
    fn batch_size_is_invisible_over_a_lossless_link() {
        assert_eq!(all_specs().len(), 6, "every subject is checked below");
        batch_sizes_agree::<Mqtt>("mosquitto");
        batch_sizes_agree::<Coap>("libcoap");
        batch_sizes_agree::<Dds>("cyclonedds");
        batch_sizes_agree::<Dtls>("openssl");
        batch_sizes_agree::<Amqp>("qpid");
        batch_sizes_agree::<Dns>("dnsmasq");
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
