//! The network namespace and datagram transport.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Addr, LinkConditions, NetError};

/// A datagram in flight: source, destination and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Address of the sending socket.
    pub src: Addr,
    /// Address of the receiving socket.
    pub dst: Addr,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

struct LinkState {
    conditions: LinkConditions,
    rng: StdRng,
    /// A datagram held back by the reordering model, delivered after the
    /// next transmission to the same destination.
    held: Option<Datagram>,
}

/// A socket's receive queue, shared by the socket and its binding.
type Queue = Arc<Mutex<VecDeque<Datagram>>>;

/// Locks `mutex`, recovering the data if a holder panicked: every critical
/// section here leaves its state consistent, so poisoning carries no
/// information.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Inner {
    name: String,
    datagram_bindings: Mutex<HashMap<Addr, Queue>>,
    link: Mutex<LinkState>,
}

impl Inner {
    fn deliver(&self, datagram: Datagram) -> Result<(), NetError> {
        let bindings = lock(&self.datagram_bindings);
        let queue = bindings
            .get(&datagram.dst)
            .ok_or(NetError::Unreachable(datagram.dst))?;
        lock(queue).push_back(datagram);
        Ok(())
    }

    fn transmit(&self, datagram: Datagram) -> Result<(), NetError> {
        let mut link = lock(&self.link);
        if link.conditions.is_perfect() {
            drop(link);
            return self.deliver(datagram);
        }
        let mut to_deliver = Vec::with_capacity(2);
        let loss = link.conditions.loss();
        let dup = link.conditions.duplicate();
        let reorder = link.conditions.reorder();
        if loss > 0.0 && link.rng.random::<f64>() < loss {
            // Dropped; still release any held datagram so it is not stuck
            // behind a lost packet forever.
            if let Some(held) = link.held.take() {
                to_deliver.push(held);
            }
        } else if reorder > 0.0 && link.held.is_none() && link.rng.random::<f64>() < reorder {
            link.held = Some(datagram);
        } else {
            let duplicated = dup > 0.0 && link.rng.random::<f64>() < dup;
            if duplicated {
                to_deliver.push(datagram.clone());
            }
            to_deliver.push(datagram);
            if let Some(held) = link.held.take() {
                to_deliver.push(held);
            }
        }
        drop(link);
        for d in to_deliver {
            // Best-effort: an unreachable duplicate must not fail the send.
            let _ = self.deliver(d);
        }
        Ok(())
    }

    /// Transmits a burst of datagrams stored back-to-back in `arena`, each
    /// addressed by an `(offset, len)` range from `src` to `dst`.
    ///
    /// On a perfect link this resolves the destination's queue once and
    /// pushes every payload under a single queue lock; on an impaired
    /// link it falls back to per-datagram [`Inner::transmit`] so the
    /// impairment RNG draws in exactly the order sequential sends would.
    fn transmit_many(
        &self,
        src: Addr,
        dst: Addr,
        arena: &[u8],
        ranges: &[(u32, u32)],
    ) -> Result<(), NetError> {
        if !lock(&self.link).conditions.is_perfect() {
            for &(start, len) in ranges {
                self.transmit(Datagram {
                    src,
                    dst,
                    payload: arena[start as usize..(start + len) as usize].to_vec(),
                })?;
            }
            return Ok(());
        }
        let bindings = lock(&self.datagram_bindings);
        let queue = bindings.get(&dst).ok_or(NetError::Unreachable(dst))?;
        lock(queue).extend(ranges.iter().map(|&(start, len)| Datagram {
            src,
            dst,
            payload: arena[start as usize..(start + len) as usize].to_vec(),
        }));
        Ok(())
    }
}

/// One isolated network namespace.
///
/// Sockets bound on the same `Network` can exchange traffic; sockets on
/// different `Network`s cannot, by construction — there is no global routing
/// table. Each parallel fuzzing instance in a CMFuzz campaign owns one
/// `Network`, mirroring the paper's per-instance `ip netns`.
///
/// Cloning a `Network` yields another handle onto the same namespace.
///
/// # Examples
///
/// ```
/// use cmfuzz_netsim::{Addr, Network};
///
/// # fn main() -> Result<(), cmfuzz_netsim::NetError> {
/// let ns_a = Network::new("a");
/// let ns_b = Network::new("b");
/// let server = ns_a.bind_datagram(Addr::new(1, 53))?;
/// let stranger = ns_b.bind_datagram(Addr::new(2, 9))?;
///
/// // Same address space, different namespace: unreachable.
/// assert!(stranger.send_to(Addr::new(1, 53), b"x").is_err());
/// assert!(server.try_recv().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

impl Network {
    /// Creates a namespace with perfect links and a fixed RNG seed.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Network::with_conditions(name, LinkConditions::perfect(), 0)
    }

    /// Creates a namespace with link impairments driven by `seed`.
    #[must_use]
    pub fn with_conditions(name: &str, conditions: LinkConditions, seed: u64) -> Self {
        Network {
            inner: Arc::new(Inner {
                name: name.to_owned(),
                datagram_bindings: Mutex::new(HashMap::new()),
                link: Mutex::new(LinkState {
                    conditions,
                    rng: StdRng::seed_from_u64(seed),
                    held: None,
                }),
            }),
        }
    }

    /// Namespace name, for logs.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Binds a datagram socket at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AddrInUse`] if another datagram socket is already
    /// bound at `addr` on this network.
    pub fn bind_datagram(&self, addr: Addr) -> Result<DatagramSocket, NetError> {
        let mut bindings = lock(&self.inner.datagram_bindings);
        if bindings.contains_key(&addr) {
            return Err(NetError::AddrInUse(addr));
        }
        let queue = Queue::default();
        bindings.insert(addr, Arc::clone(&queue));
        Ok(DatagramSocket {
            addr,
            queue,
            net: Arc::clone(&self.inner),
        })
    }

    /// The impairment model's mutable state — the RNG stream position and
    /// the datagram the reordering model is holding back — for
    /// checkpointing. Non-destructive.
    #[must_use]
    pub fn export_link_state(&self) -> ([u64; 4], Option<Datagram>) {
        let link = lock(&self.inner.link);
        (link.rng.state(), link.held.clone())
    }

    /// Restores impairment state captured by
    /// [`Network::export_link_state`] into this network (typically a fresh
    /// one built with the same [`LinkConditions`]).
    pub fn restore_link_state(&self, rng: [u64; 4], held: Option<Datagram>) {
        let mut link = lock(&self.inner.link);
        link.rng = StdRng::from_state(rng);
        link.held = held;
    }

    /// Delivers `datagram` directly to its destination socket, bypassing
    /// the impairment model entirely — no RNG draws, no loss, no
    /// reordering.
    ///
    /// This is the checkpoint-resume path: datagrams that were already
    /// *past* the impairment model (sitting in a receive queue) are
    /// re-injected verbatim, so the restored link RNG stream stays
    /// aligned with the original run.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] if no socket is bound at the
    /// datagram's destination.
    pub fn inject(&self, datagram: Datagram) -> Result<(), NetError> {
        self.inner.deliver(datagram)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.inner.name)
            .field(
                "datagram_bindings",
                &lock(&self.inner.datagram_bindings).len(),
            )
            .finish()
    }
}

/// UDP-like socket bound on one [`Network`].
///
/// Receiving is non-blocking ([`DatagramSocket::try_recv`]): fuzzing
/// campaigns are single-threaded per instance and poll sockets in their run
/// loop.
///
/// Dropping the socket releases its address.
///
/// # Examples
///
/// ```
/// use cmfuzz_netsim::{Addr, Network};
///
/// # fn main() -> Result<(), cmfuzz_netsim::NetError> {
/// let net = Network::new("ns");
/// let a = net.bind_datagram(Addr::new(1, 1000))?;
/// let b = net.bind_datagram(Addr::new(2, 2000))?;
/// a.send_to(b.addr(), b"ping")?;
/// assert_eq!(b.try_recv().expect("delivered").payload, b"ping");
/// # Ok(())
/// # }
/// ```
pub struct DatagramSocket {
    addr: Addr,
    queue: Queue,
    net: Arc<Inner>,
}

impl DatagramSocket {
    /// Address this socket is bound at.
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Sends `payload` to `dst` on this socket's network.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] if no socket is bound at `dst`.
    pub fn send_to(&self, dst: Addr, payload: &[u8]) -> Result<(), NetError> {
        self.net.transmit(Datagram {
            src: self.addr,
            dst,
            payload: payload.to_vec(),
        })
    }

    /// Sends a burst of payloads stored back-to-back in `arena`, each
    /// addressed by an `(offset, len)` range, to `dst` — observably
    /// identical to calling [`DatagramSocket::send_to`] once per range in
    /// order (same delivery sequence, same impairment RNG draws), but on a
    /// perfect link the whole burst crosses under one bindings lock.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] if no socket is bound at `dst`;
    /// on an impaired link the error surfaces at the first failing send,
    /// leaving earlier datagrams delivered, exactly as a sequential loop
    /// would.
    pub fn send_many_to(
        &self,
        dst: Addr,
        arena: &[u8],
        ranges: &[(u32, u32)],
    ) -> Result<(), NetError> {
        self.net.transmit_many(self.addr, dst, arena, ranges)
    }

    /// Receives the next pending datagram, if any.
    #[must_use]
    pub fn try_recv(&self) -> Option<Datagram> {
        lock(&self.queue).pop_front()
    }

    /// Drains up to `max` pending datagrams into `out` under one queue
    /// lock. Returns how many were moved — the same datagrams, in the
    /// same order, as that many [`DatagramSocket::try_recv`] calls.
    pub fn recv_many(&self, out: &mut Vec<Datagram>, max: usize) -> usize {
        let mut queue = lock(&self.queue);
        let n = max.min(queue.len());
        out.extend(queue.drain(..n));
        n
    }

    /// Number of datagrams waiting in the receive queue.
    #[must_use]
    pub fn pending(&self) -> usize {
        lock(&self.queue).len()
    }
}

impl Drop for DatagramSocket {
    fn drop(&mut self) {
        lock(&self.net.datagram_bindings).remove(&self.addr);
    }
}

impl fmt::Debug for DatagramSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatagramSocket")
            .field("addr", &self.addr)
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_between_two_sockets() {
        let net = Network::new("t");
        let a = net.bind_datagram(Addr::new(1, 10)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 20)).unwrap();
        a.send_to(b.addr(), b"one").unwrap();
        a.send_to(b.addr(), b"two").unwrap();
        assert_eq!(b.pending(), 2);
        assert_eq!(b.try_recv().unwrap().payload, b"one");
        let d = b.try_recv().unwrap();
        assert_eq!(d.payload, b"two");
        assert_eq!(d.src, Addr::new(1, 10));
        assert_eq!(d.dst, Addr::new(2, 20));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn double_bind_fails() {
        let net = Network::new("t");
        let _a = net.bind_datagram(Addr::new(1, 10)).unwrap();
        assert_eq!(
            net.bind_datagram(Addr::new(1, 10)).unwrap_err(),
            NetError::AddrInUse(Addr::new(1, 10))
        );
    }

    #[test]
    fn drop_releases_address() {
        let net = Network::new("t");
        {
            let _a = net.bind_datagram(Addr::new(1, 10)).unwrap();
        }
        assert!(net.bind_datagram(Addr::new(1, 10)).is_ok());
    }

    #[test]
    fn namespaces_are_isolated() {
        let ns_a = Network::new("a");
        let ns_b = Network::new("b");
        let _server = ns_a.bind_datagram(Addr::new(1, 53)).unwrap();
        let client = ns_b.bind_datagram(Addr::new(9, 9)).unwrap();
        assert_eq!(
            client.send_to(Addr::new(1, 53), b"x").unwrap_err(),
            NetError::Unreachable(Addr::new(1, 53))
        );
    }

    #[test]
    fn send_to_unbound_is_unreachable() {
        let net = Network::new("t");
        let a = net.bind_datagram(Addr::new(1, 10)).unwrap();
        assert!(matches!(
            a.send_to(Addr::new(5, 5), b"x"),
            Err(NetError::Unreachable(_))
        ));
    }

    #[test]
    fn total_loss_drops_everything() {
        let net = Network::with_conditions("t", LinkConditions::new(1.0, 0.0, 0.0), 42);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        for _ in 0..32 {
            a.send_to(b.addr(), b"x").unwrap();
        }
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn total_duplication_doubles_everything() {
        let net = Network::with_conditions("t", LinkConditions::new(0.0, 1.0, 0.0), 42);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        for _ in 0..8 {
            a.send_to(b.addr(), b"x").unwrap();
        }
        assert_eq!(b.pending(), 16);
    }

    #[test]
    fn reordering_swaps_adjacent_datagrams() {
        // reorder=1.0: the first datagram is always held back, the second
        // send releases it after itself, and so on.
        let net = Network::with_conditions("t", LinkConditions::new(0.0, 0.0, 1.0), 42);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        a.send_to(b.addr(), b"1").unwrap();
        a.send_to(b.addr(), b"2").unwrap();
        // With p=1 the model holds "1", then cannot hold "2" (slot taken),
        // so delivery order is 2, 1.
        assert_eq!(b.try_recv().unwrap().payload, b"2");
        assert_eq!(b.try_recv().unwrap().payload, b"1");
    }

    #[test]
    fn duplicated_datagrams_arrive_back_to_back_in_send_order() {
        // dup=1.0: every datagram is delivered twice, clone first, and the
        // pairs never interleave across sends.
        let net = Network::with_conditions("t", LinkConditions::new(0.0, 1.0, 0.0), 42);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        a.send_to(b.addr(), b"1").unwrap();
        a.send_to(b.addr(), b"2").unwrap();
        let order: Vec<Vec<u8>> = (0..4).map(|_| b.try_recv().unwrap().payload).collect();
        assert_eq!(order, [b"1", b"1", b"2", b"2"]);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn duplication_composes_with_reordering() {
        // dup=1.0 and reorder=1.0: the first send is held back (the reorder
        // slot is free, and reordering is checked before duplication); the
        // second send finds the slot taken, so it goes down the duplication
        // branch — clone, then original, then the released held datagram.
        let net = Network::with_conditions("t", LinkConditions::new(0.0, 1.0, 1.0), 42);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        a.send_to(b.addr(), b"1").unwrap();
        assert_eq!(b.pending(), 0, "first datagram should be held");
        a.send_to(b.addr(), b"2").unwrap();
        let order: Vec<Vec<u8>> = (0..3).map(|_| b.try_recv().unwrap().payload).collect();
        assert_eq!(order, [b"2", b"2", b"1"]);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn mixed_impairments_pin_exact_delivery_sequence() {
        // Regression pin for the seeded impairment model: sixteen numbered
        // sends through a lossy/duplicating/reordering link at seed 42 must
        // keep producing this exact delivery sequence. If the RNG draw
        // order in `transmit` ever changes, every recorded impaired
        // campaign digest silently changes with it — this test names that
        // event loudly.
        let sequence = |seed: u64| -> Vec<u8> {
            let net = Network::with_conditions("t", LinkConditions::new(0.2, 0.3, 0.3), seed);
            let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
            let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
            for n in 0u8..16 {
                a.send_to(b.addr(), &[n]).unwrap();
            }
            let mut received = Vec::new();
            while let Some(d) = b.try_recv() {
                received.push(d.payload[0]);
            }
            received
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43), "different seeds should differ");
        let expected: Vec<u8> = vec![
            0, 1, 4, 3, 5, 5, 6, 6, 8, 8, 9, 11, 10, 12, 12, 13, 13, 14, 15,
        ];
        assert_eq!(sequence(42), expected);
    }

    #[test]
    fn same_seed_same_impairment_pattern() {
        let run = |seed: u64| -> Vec<bool> {
            let net = Network::with_conditions("t", LinkConditions::new(0.5, 0.0, 0.0), seed);
            let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
            let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
            (0..64)
                .map(|_| {
                    a.send_to(b.addr(), b"x").unwrap();
                    b.try_recv().is_some()
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn link_state_checkpoint_resumes_impairment_stream() {
        let conditions = LinkConditions::new(0.2, 0.3, 0.3);
        // Uninterrupted reference: 32 sends through one link.
        let reference = {
            let net = Network::with_conditions("ref", conditions, 42);
            let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
            let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
            for n in 0u8..32 {
                a.send_to(b.addr(), &[n]).unwrap();
            }
            let mut got = Vec::new();
            while let Some(d) = b.try_recv() {
                got.push(d.payload[0]);
            }
            got
        };

        // Same 32 sends with a checkpoint/restore after the first 16.
        let net = Network::with_conditions("first", conditions, 42);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        for n in 0u8..16 {
            a.send_to(b.addr(), &[n]).unwrap();
        }
        let (rng, held) = net.export_link_state();
        let mut delivered = Vec::new();
        while let Some(d) = b.try_recv() {
            delivered.push(d);
        }
        drop((a, b, net));

        let net = Network::with_conditions("resumed", conditions, 0);
        let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
        let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
        net.restore_link_state(rng, held);
        // Re-inject queued datagrams past the impairment model.
        for d in delivered {
            net.inject(d).unwrap();
        }
        for n in 16u8..32 {
            a.send_to(b.addr(), &[n]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(d) = b.try_recv() {
            got.push(d.payload[0]);
        }
        assert_eq!(got, reference);
    }

    #[test]
    fn send_many_matches_sequential_sends() {
        // The burst path must be observably identical to a send_to loop on
        // perfect and impaired links alike: same payloads, same order,
        // same impairment RNG draws.
        let arena: Vec<u8> = (0u8..64).collect();
        let ranges: Vec<(u32, u32)> = (0..16).map(|i| (i * 4, 4)).collect();
        let deliveries = |conditions: LinkConditions, burst: bool| -> Vec<Vec<u8>> {
            let net = Network::with_conditions("t", conditions, 42);
            let a = net.bind_datagram(Addr::new(1, 1)).unwrap();
            let b = net.bind_datagram(Addr::new(2, 2)).unwrap();
            if burst {
                a.send_many_to(b.addr(), &arena, &ranges).unwrap();
            } else {
                for &(start, len) in &ranges {
                    a.send_to(b.addr(), &arena[start as usize..(start + len) as usize])
                        .unwrap();
                }
            }
            let mut got = Vec::new();
            while let Some(d) = b.try_recv() {
                assert_eq!((d.src, d.dst), (Addr::new(1, 1), Addr::new(2, 2)));
                got.push(d.payload);
            }
            got
        };
        for conditions in [
            LinkConditions::perfect(),
            LinkConditions::new(0.2, 0.3, 0.3),
        ] {
            assert_eq!(
                deliveries(conditions, true),
                deliveries(conditions, false),
                "burst diverged from sequential sends under {conditions:?}"
            );
        }
    }

    #[test]
    fn send_many_to_unbound_is_unreachable() {
        let net = Network::new("t");
        let a = net.bind_datagram(Addr::new(1, 10)).unwrap();
        assert!(matches!(
            a.send_many_to(Addr::new(5, 5), b"xy", &[(0, 2)]),
            Err(NetError::Unreachable(_))
        ));
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let net = Network::new("dbg");
        let sock = net.bind_datagram(Addr::new(1, 1)).unwrap();
        assert!(format!("{net:?}").contains("dbg"));
        assert!(format!("{sock:?}").contains("DatagramSocket"));
    }
}
