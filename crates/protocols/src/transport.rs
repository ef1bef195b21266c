//! The transport seam between a fuzzing client and a protocol server.
//!
//! Every fuzzed message crosses a [`Transport`]: the campaign's
//! namespaced datagram path ([`DatagramLink`], backed by
//! `cmfuzz-netsim`, optionally with seeded link impairments) or the
//! zero-overhead in-process path ([`DirectLink`], what throughput
//! benches use to measure the engine rather than the wire). Higher
//! layers — [`NetworkedTarget`](crate::NetworkedTarget), the campaign
//! runner, the bench harness — consume targets through this one seam and
//! never talk to sockets directly.

use std::collections::VecDeque;
use std::fmt;

use cmfuzz_fuzzer::state_codec::{StateReader, StateWriter};
use cmfuzz_fuzzer::StartError;
use cmfuzz_netsim::{Addr, Datagram, DatagramSocket, LinkConditions, Network};

/// The server side of [`Transport::round_trips`]: answers the request
/// that message `index` delivered into the emptied reply buffer, or
/// leaves it empty to send nothing back.
type Serve<'a> = dyn FnMut(usize, &[u8], &mut Vec<u8>) + 'a;

/// A bidirectional client↔server link carrying fuzzed datagrams.
///
/// The lifecycle mirrors a daemon's listening socket: [`Transport::open`]
/// (re)establishes both endpoints after the server boots,
/// [`Transport::close`] tears them down, and while closed every send and
/// receive is inert. Implementations must be deterministic: the same
/// seed and call sequence always yields the same delivery pattern.
pub trait Transport: fmt::Debug + Send {
    /// Tears down any previous endpoints and (re)establishes the link.
    ///
    /// # Errors
    ///
    /// Returns a [`StartError`] of kind
    /// [`Transport`](cmfuzz_fuzzer::StartErrorKind::Transport) when an
    /// endpoint cannot come up.
    fn open(&mut self) -> Result<(), StartError>;

    /// Releases both endpoints; subsequent traffic is dropped until the
    /// next [`Transport::open`].
    fn close(&mut self);

    /// Whether the link is currently established.
    fn is_open(&self) -> bool;

    /// Client → wire → server. Returns `false` on hard failure (link
    /// closed); a lossy link that drops the datagram still returns
    /// `true`, like UDP.
    fn client_send(&mut self, payload: &[u8]) -> bool;

    /// Whether every datagram crossing this link arrives exactly once, in
    /// order, without consuming impairment RNG. Batch execution uses this
    /// to decide when a burst of sends is observably identical to
    /// interleaved send/recv — the default says `false`, which is always
    /// safe (batching simply falls back to the sequential path).
    fn is_lossless(&self) -> bool {
        false
    }

    /// Client → wire → server for a burst of payloads stored back-to-back
    /// in `arena`, each addressed by an `(offset, len)` range. Returns
    /// `false` on the first hard failure, after which no further ranges
    /// are sent — exactly what a [`Transport::client_send`] loop that
    /// stops on failure observes. The default is that loop; links with a
    /// cheaper bulk path override it.
    fn client_send_batch(&mut self, arena: &[u8], ranges: &[(u32, u32)]) -> bool {
        ranges
            .iter()
            .all(|&(start, len)| self.client_send(&arena[start as usize..(start + len) as usize]))
    }

    /// Next datagram pending at the server, if any.
    fn server_recv(&mut self) -> Option<Vec<u8>>;

    /// Delivers up to `max` pending server-side datagrams to `each`, in
    /// arrival order, stopping early when the queue runs dry. Returns how
    /// many were delivered — the same payloads, in the same order, as
    /// that many [`Transport::server_recv`] calls. Links with a cheaper
    /// bulk path (one queue lock for the whole drain) override this.
    fn server_recv_many(&mut self, max: usize, each: &mut dyn FnMut(&[u8])) -> usize {
        let mut received = 0;
        while received < max {
            let Some(payload) = self.server_recv() else {
                break;
            };
            each(&payload);
            received += 1;
        }
        received
    }

    /// Server → wire → client. Same contract as
    /// [`Transport::client_send`].
    fn server_send(&mut self, payload: &[u8]) -> bool;

    /// Next datagram pending at the client, if any.
    fn client_recv(&mut self) -> Option<Vec<u8>>;

    /// Carries a burst of client → server → client round trips. Each
    /// message of `arena` at `ranges` is sent; when a datagram reaches
    /// the server, `serve(index, request, reply)` answers it into the
    /// emptied `reply`, and a non-empty reply is sent back and taken off
    /// the client's queue. `index` is the position in `ranges` of the
    /// message whose send delivered `request`.
    ///
    /// The default is exactly that sequence of per-message calls; links
    /// that can carry a burst more cheaply override it with the same
    /// observable effect, impairment draws included.
    fn round_trips(&mut self, arena: &[u8], ranges: &[(u32, u32)], serve: &mut Serve<'_>) {
        let mut reply = Vec::new();
        for (index, &(start, len)) in ranges.iter().enumerate() {
            if !self.client_send(&arena[start as usize..(start + len) as usize]) {
                continue;
            }
            let Some(request) = self.server_recv() else {
                continue;
            };
            reply.clear();
            serve(index, &request, &mut reply);
            if !reply.is_empty() {
                let _ = self.server_send(&reply);
                let _ = self.client_recv();
            }
        }
    }

    /// Exports the link's mutable state (impairment RNG position,
    /// held-back and in-flight datagrams) as opaque bytes for
    /// checkpointing. May be destructive — draining receive queues is
    /// allowed — so callers discard the link afterwards.
    ///
    /// The contract with [`Transport::import_state`] mirrors
    /// [`Target::export_state`](cmfuzz_fuzzer::Target::export_state): a
    /// freshly [`open`](Transport::open)ed link of the same kind that
    /// imports these bytes behaves identically to the exporting link.
    /// The default covers stateless links: nothing to export.
    fn export_state(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Transport::export_state`] into a
    /// freshly opened link of the same kind. The default ignores the
    /// bytes, matching the default `export_state`.
    fn import_state(&mut self, state: &[u8]) {
        let _ = state;
    }
}

/// In-process transport: a perfect link with no namespace, no sockets
/// and no locks — two queues handed back and forth.
///
/// This is the fast path for benchmarks that want to measure the fuzzing
/// engine itself rather than the simulated wire, and the reference
/// behaviour an unimpaired [`DatagramLink`] must reproduce.
///
/// # Examples
///
/// ```
/// use cmfuzz_protocols::{DirectLink, Transport};
///
/// let mut link = DirectLink::new();
/// link.open()?;
/// assert!(link.client_send(b"ping"));
/// assert_eq!(link.server_recv().as_deref(), Some(&b"ping"[..]));
/// # Ok::<(), cmfuzz_fuzzer::StartError>(())
/// ```
#[derive(Debug, Default)]
pub struct DirectLink {
    open: bool,
    to_server: VecDeque<Vec<u8>>,
    to_client: VecDeque<Vec<u8>>,
}

impl DirectLink {
    /// Creates a closed link; call [`Transport::open`] before use.
    #[must_use]
    pub fn new() -> Self {
        DirectLink::default()
    }
}

impl Transport for DirectLink {
    fn open(&mut self) -> Result<(), StartError> {
        self.to_server.clear();
        self.to_client.clear();
        self.open = true;
        Ok(())
    }

    fn close(&mut self) {
        self.open = false;
        self.to_server.clear();
        self.to_client.clear();
    }

    fn is_open(&self) -> bool {
        self.open
    }

    fn client_send(&mut self, payload: &[u8]) -> bool {
        if !self.open {
            return false;
        }
        self.to_server.push_back(payload.to_vec());
        true
    }

    fn is_lossless(&self) -> bool {
        true
    }

    fn server_recv(&mut self) -> Option<Vec<u8>> {
        self.to_server.pop_front()
    }

    fn server_recv_many(&mut self, max: usize, each: &mut dyn FnMut(&[u8])) -> usize {
        let take = self.to_server.len().min(max);
        for payload in self.to_server.drain(..take) {
            each(&payload);
        }
        take
    }

    fn server_send(&mut self, payload: &[u8]) -> bool {
        if !self.open {
            return false;
        }
        self.to_client.push_back(payload.to_vec());
        true
    }

    fn client_recv(&mut self) -> Option<Vec<u8>> {
        self.to_client.pop_front()
    }

    fn export_state(&mut self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.bool(self.open);
        w.usize(self.to_server.len());
        for payload in &self.to_server {
            w.bytes(payload);
        }
        w.usize(self.to_client.len());
        for payload in &self.to_client {
            w.bytes(payload);
        }
        w.finish()
    }

    fn import_state(&mut self, state: &[u8]) {
        let mut r = StateReader::new(state);
        self.open = r.bool();
        self.to_server.clear();
        for _ in 0..r.usize() {
            self.to_server.push_back(r.bytes().to_vec());
        }
        self.to_client.clear();
        for _ in 0..r.usize() {
            self.to_client.push_back(r.bytes().to_vec());
        }
        r.finish();
    }
}

fn write_datagram(w: &mut StateWriter, datagram: &Datagram) {
    w.u32(datagram.src.host());
    w.u16(datagram.src.port());
    w.u32(datagram.dst.host());
    w.u16(datagram.dst.port());
    w.bytes(&datagram.payload);
}

fn read_datagram(r: &mut StateReader<'_>) -> Datagram {
    let src = Addr::new(r.u32(), r.u16());
    let dst = Addr::new(r.u32(), r.u16());
    Datagram {
        src,
        dst,
        payload: r.bytes().to_vec(),
    }
}

/// Well-known server address inside each instance namespace.
pub(crate) const SERVER_ADDR: Addr = Addr::new(1, 9000);
/// Well-known fuzzing-client address inside each instance namespace.
pub(crate) const CLIENT_ADDR: Addr = Addr::new(2, 40000);

/// The campaign transport: one isolated [`Network`] namespace per
/// instance (the paper's `ip netns`), with a datagram socket pair and
/// optional seeded link impairments.
///
/// Unimpaired links behave exactly like [`DirectLink`] plus isolation;
/// impaired links drop, duplicate and reorder datagrams following the
/// network's seeded RNG, so a lossy campaign is still reproducible
/// byte-for-byte from its seed.
///
/// # Examples
///
/// ```
/// use cmfuzz_netsim::LinkConditions;
/// use cmfuzz_protocols::{DatagramLink, Transport};
///
/// let mut link = DatagramLink::with_conditions(
///     "instance-0",
///     LinkConditions::new(0.1, 0.0, 0.0),
///     7,
/// );
/// link.open()?;
/// assert!(link.client_send(b"maybe"));
/// // ...the datagram arrives, or the seeded loss model ate it.
/// # Ok::<(), cmfuzz_fuzzer::StartError>(())
/// ```
#[derive(Debug)]
pub struct DatagramLink {
    network: Network,
    server: Option<DatagramSocket>,
    client: Option<DatagramSocket>,
    /// Fixed at construction: perfect links never draw impairment RNG, so
    /// a burst may cross as all sends, then all receives; impaired links
    /// interleave each message's round trip to keep the RNG stream
    /// aligned.
    lossless: bool,
    /// Reused across [`Transport::server_recv_many`] drains so a batch
    /// drain costs one lock and no fresh allocation.
    recv_scratch: Vec<Datagram>,
    /// The request, then the discarded reply, of the current
    /// [`Transport::round_trips`] message.
    rx: Vec<u8>,
    /// The server's answer to the current round trip.
    reply: Vec<u8>,
}

impl DatagramLink {
    fn on(network: Network, lossless: bool) -> Self {
        DatagramLink {
            network,
            server: None,
            client: None,
            lossless,
            recv_scratch: Vec::new(),
            rx: Vec::new(),
            reply: Vec::new(),
        }
    }

    /// A perfect-link namespace named after the instance.
    #[must_use]
    pub fn new(namespace: &str) -> Self {
        DatagramLink::on(Network::new(namespace), true)
    }

    /// A namespace whose link drops/duplicates/reorders datagrams
    /// following `conditions`, driven by the RNG seeded with `seed`.
    #[must_use]
    pub fn with_conditions(namespace: &str, conditions: LinkConditions, seed: u64) -> Self {
        DatagramLink::on(
            Network::with_conditions(namespace, conditions, seed),
            conditions.is_perfect(),
        )
    }

    /// The namespace this link runs in.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }
}

impl Transport for DatagramLink {
    fn open(&mut self) -> Result<(), StartError> {
        // Release any previous endpoints first so rebinding the
        // well-known addresses cannot collide with our own stale sockets.
        self.close();
        let server = self
            .network
            .bind_datagram(SERVER_ADDR)
            .map_err(|e| StartError::transport(&format!("bind failed: {e}")))?;
        let client = self
            .network
            .bind_datagram(CLIENT_ADDR)
            .map_err(|e| StartError::transport(&format!("client bind failed: {e}")))?;
        self.server = Some(server);
        self.client = Some(client);
        Ok(())
    }

    fn close(&mut self) {
        self.server = None;
        self.client = None;
    }

    fn is_open(&self) -> bool {
        self.server.is_some() && self.client.is_some()
    }

    fn client_send(&mut self, payload: &[u8]) -> bool {
        match &self.client {
            Some(client) => client.send_to(SERVER_ADDR, payload).is_ok(),
            None => false,
        }
    }

    fn is_lossless(&self) -> bool {
        self.lossless
    }

    fn client_send_batch(&mut self, arena: &[u8], ranges: &[(u32, u32)]) -> bool {
        match &self.client {
            Some(client) => client.send_many_to(SERVER_ADDR, arena, ranges).is_ok(),
            None => false,
        }
    }

    fn server_recv(&mut self) -> Option<Vec<u8>> {
        self.server
            .as_ref()
            .and_then(DatagramSocket::try_recv)
            .map(|datagram| datagram.payload)
    }

    fn server_recv_many(&mut self, max: usize, each: &mut dyn FnMut(&[u8])) -> usize {
        let Some(server) = &self.server else {
            return 0;
        };
        self.recv_scratch.clear();
        let received = server.recv_many(&mut self.recv_scratch, max);
        for datagram in &self.recv_scratch {
            each(&datagram.payload);
        }
        server.recycle(self.recv_scratch.drain(..));
        received
    }

    fn server_send(&mut self, payload: &[u8]) -> bool {
        match &self.server {
            Some(server) => server.send_to(CLIENT_ADDR, payload).is_ok(),
            None => false,
        }
    }

    fn client_recv(&mut self) -> Option<Vec<u8>> {
        self.client
            .as_ref()
            .and_then(DatagramSocket::try_recv)
            .map(|datagram| datagram.payload)
    }

    fn round_trips(&mut self, arena: &[u8], ranges: &[(u32, u32)], serve: &mut Serve<'_>) {
        if !self.is_open() {
            return; // every send would fail, as in the default
        }
        let DatagramLink {
            network, rx, reply, ..
        } = self;
        // One lock for the whole burst; the server runs under it and never
        // touches the namespace. Both endpoints are bound while the link
        // is open, so no send can fail.
        let mut wire = network.wire();
        for (index, &(start, len)) in ranges.iter().enumerate() {
            let request = &arena[start as usize..(start + len) as usize];
            let _ = wire.send_to(CLIENT_ADDR, SERVER_ADDR, request);
            if !wire.recv_into(SERVER_ADDR, rx) {
                continue;
            }
            reply.clear();
            serve(index, rx, reply);
            if !reply.is_empty() {
                let _ = wire.send_to(SERVER_ADDR, CLIENT_ADDR, reply);
                wire.recv_into(CLIENT_ADDR, rx);
            }
        }
    }

    fn export_state(&mut self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.bool(self.is_open());
        let (rng, held) = self.network.export_link_state();
        for word in rng {
            w.u64(word);
        }
        w.option(held.as_ref(), write_datagram);
        // Drain both receive queues (destructive: these sockets are done).
        // Queued datagrams are already past the impairment model, so on
        // import they re-enter via `Network::inject`, not `send_to` —
        // keeping the restored RNG stream aligned with the original run.
        for socket in [&self.server, &self.client] {
            let mut drained = Vec::new();
            if let Some(socket) = socket {
                while let Some(datagram) = socket.try_recv() {
                    drained.push(datagram);
                }
            }
            w.usize(drained.len());
            for datagram in &drained {
                write_datagram(&mut w, datagram);
            }
        }
        w.finish()
    }

    fn import_state(&mut self, state: &[u8]) {
        let mut r = StateReader::new(state);
        let was_open = r.bool();
        let rng = [r.u64(), r.u64(), r.u64(), r.u64()];
        let held = r.option(read_datagram);
        self.network.restore_link_state(rng, held);
        for _ in 0..2 {
            for _ in 0..r.usize() {
                // Best-effort like delivery itself: if the exporting link
                // was open this link is open too (the boot sequence opens
                // before importing), so injection cannot miss its socket.
                let _ = self.network.inject(read_datagram(&mut r));
            }
        }
        r.finish();
        if !was_open {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_fuzzer::StartErrorKind;

    fn round_trip(link: &mut dyn Transport) {
        assert!(link.client_send(b"req"));
        assert_eq!(link.server_recv().as_deref(), Some(&b"req"[..]));
        assert!(link.server_send(b"resp"));
        assert_eq!(link.client_recv().as_deref(), Some(&b"resp"[..]));
        assert!(link.server_recv().is_none());
        assert!(link.client_recv().is_none());
    }

    #[test]
    fn direct_link_round_trips() {
        let mut link = DirectLink::new();
        assert!(!link.is_open());
        link.open().unwrap();
        assert!(link.is_open());
        round_trip(&mut link);
    }

    #[test]
    fn datagram_link_round_trips() {
        let mut link = DatagramLink::new("t");
        assert!(!link.is_open());
        link.open().unwrap();
        assert!(link.is_open());
        round_trip(&mut link);
    }

    #[test]
    fn closed_links_are_inert() {
        let direct: &mut dyn Transport = &mut DirectLink::new();
        let datagram: &mut dyn Transport = &mut DatagramLink::new("t");
        for link in [direct, datagram] {
            assert!(!link.client_send(b"x"));
            assert!(!link.server_send(b"x"));
            assert!(link.server_recv().is_none());
            assert!(link.client_recv().is_none());
        }
    }

    #[test]
    fn close_drops_in_flight_traffic_and_releases_addresses() {
        let mut link = DatagramLink::new("t");
        link.open().unwrap();
        assert!(link.client_send(b"lost"));
        link.close();
        assert!(link.server_recv().is_none());
        // Addresses are free again: an outside socket can claim them.
        let stranger = link.network().bind_datagram(SERVER_ADDR).unwrap();
        drop(stranger);
        // And reopening rebinds cleanly afterwards.
        link.open().unwrap();
        round_trip(&mut link);
    }

    #[test]
    fn open_reports_transport_kind_when_an_address_is_taken() {
        let link_net = DatagramLink::new("t");
        let _squatter = link_net.network().bind_datagram(SERVER_ADDR).unwrap();
        let mut link = DatagramLink::on(link_net.network().clone(), true);
        let err = link.open().unwrap_err();
        assert_eq!(err.kind(), StartErrorKind::Transport);
        assert!(err.reason().contains("bind failed"));
        assert!(!link.is_open());
    }

    #[test]
    fn direct_open_clears_stale_queues() {
        let mut link = DirectLink::new();
        link.open().unwrap();
        assert!(link.client_send(b"stale"));
        link.open().unwrap();
        assert!(link.server_recv().is_none(), "reopen starts clean");
    }

    #[test]
    fn direct_link_state_round_trips() {
        let mut link = DirectLink::new();
        link.open().unwrap();
        assert!(link.client_send(b"a"));
        assert!(link.client_send(b"b"));
        assert!(link.server_send(b"r"));
        let state = link.export_state();

        let mut restored = DirectLink::new();
        restored.open().unwrap();
        restored.import_state(&state);
        assert!(restored.is_open());
        assert_eq!(restored.server_recv().as_deref(), Some(&b"a"[..]));
        assert_eq!(restored.server_recv().as_deref(), Some(&b"b"[..]));
        assert!(restored.server_recv().is_none());
        assert_eq!(restored.client_recv().as_deref(), Some(&b"r"[..]));
    }

    #[test]
    fn impaired_datagram_link_checkpoint_resumes_identically() {
        let conditions = LinkConditions::new(0.2, 0.3, 0.3);
        let drive = |link: &mut DatagramLink, from: u8, to: u8| -> Vec<u8> {
            let mut got = Vec::new();
            for n in from..to {
                assert!(link.client_send(&[n]));
                while let Some(d) = link.server_recv() {
                    got.push(d[0]);
                }
            }
            got
        };

        // Uninterrupted reference.
        let mut reference = DatagramLink::with_conditions("ref", conditions, 42);
        reference.open().unwrap();
        let mut expected = drive(&mut reference, 0, 12);
        // Leave some traffic undrained across the checkpoint boundary.
        assert!(reference.client_send(&[99]));
        expected.extend(drive(&mut reference, 12, 24));

        // Same sequence, checkpointed right after the undrained send.
        let mut first = DatagramLink::with_conditions("first", conditions, 42);
        first.open().unwrap();
        let mut observed = drive(&mut first, 0, 12);
        assert!(first.client_send(&[99]));
        let state = first.export_state();
        drop(first);

        let mut resumed = DatagramLink::with_conditions("resumed", conditions, 0);
        resumed.open().unwrap();
        resumed.import_state(&state);
        observed.extend(drive(&mut resumed, 12, 24));
        assert_eq!(observed, expected);
    }

    #[test]
    fn losslessness_reflects_link_conditions() {
        assert!(DirectLink::new().is_lossless());
        assert!(DatagramLink::new("t").is_lossless());
        assert!(DatagramLink::with_conditions("t", LinkConditions::perfect(), 1).is_lossless());
        assert!(
            !DatagramLink::with_conditions("t", LinkConditions::new(0.1, 0.0, 0.0), 1)
                .is_lossless()
        );
    }

    #[test]
    fn batch_send_matches_sequential_sends() {
        let arena = b"reqAreqBreqC";
        let ranges = [(0u32, 4u32), (4, 4), (8, 4)];
        let drain = |link: &mut dyn Transport| -> Vec<Vec<u8>> {
            let mut got = Vec::new();
            while let Some(d) = link.server_recv() {
                got.push(d);
            }
            got
        };
        let direct: &mut dyn Transport = &mut DirectLink::new();
        let datagram: &mut dyn Transport = &mut DatagramLink::new("t");
        for link in [direct, datagram] {
            assert!(!link.client_send_batch(arena, &ranges), "closed link");
            link.open().unwrap();
            assert!(link.client_send_batch(arena, &ranges));
            assert_eq!(
                drain(link),
                vec![b"reqA".to_vec(), b"reqB".to_vec(), b"reqC".to_vec()]
            );
        }
    }

    /// A datagram link seen only through the per-message methods, so the
    /// trait's default `round_trips` runs.
    #[derive(Debug)]
    struct PerMessage(DatagramLink);

    impl Transport for PerMessage {
        fn open(&mut self) -> Result<(), StartError> {
            self.0.open()
        }
        fn close(&mut self) {
            self.0.close();
        }
        fn is_open(&self) -> bool {
            self.0.is_open()
        }
        fn client_send(&mut self, payload: &[u8]) -> bool {
            self.0.client_send(payload)
        }
        fn server_recv(&mut self) -> Option<Vec<u8>> {
            self.0.server_recv()
        }
        fn server_send(&mut self, payload: &[u8]) -> bool {
            self.0.server_send(payload)
        }
        fn client_recv(&mut self) -> Option<Vec<u8>> {
            self.0.client_recv()
        }
        fn export_state(&mut self) -> Vec<u8> {
            self.0.export_state()
        }
    }

    #[test]
    fn round_trips_burst_matches_the_per_message_default() {
        // The one-lock burst must serve the same requests, at the same
        // indices, and leave the same link state as the default sequence.
        let arena: Vec<u8> = (0u8..96).collect();
        let ranges: Vec<(u32, u32)> = (0..24).map(|i| (i * 4, 4)).collect();
        let run = |link: &mut dyn Transport| {
            link.open().unwrap();
            let mut served = Vec::new();
            for _ in 0..8 {
                link.round_trips(&arena, &ranges, &mut |index, request, reply| {
                    served.push((index, request.to_vec()));
                    // Answer all but every third request, like a server
                    // that stays silent on some inputs.
                    if request[0] % 3 != 0 {
                        reply.extend_from_slice(&request[..2]);
                    }
                });
            }
            (served, link.export_state())
        };
        let conditions = LinkConditions::new(0.2, 0.3, 0.3);
        let burst = run(&mut DatagramLink::with_conditions("t", conditions, 42));
        let default = run(&mut PerMessage(DatagramLink::with_conditions(
            "t", conditions, 42,
        )));
        assert!(!burst.0.is_empty());
        assert_eq!(burst, default);
    }

    #[test]
    fn impaired_datagram_link_is_seeded_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut link =
                DatagramLink::with_conditions("t", LinkConditions::new(0.5, 0.0, 0.0), seed);
            link.open().unwrap();
            (0..64)
                .map(|_| {
                    assert!(link.client_send(b"x"));
                    link.server_recv().is_some()
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
